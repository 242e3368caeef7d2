"""The compiler imports nothing outside the standard library.

A fresh interpreter imports ``repro.cli`` and compiles googlenet under the
``splitting`` and ``fused_sched`` configurations (the paths that run the
DNNK sweep); afterwards numpy must not be loaded.  Where the interpreter
lists its standard library (3.10+), every module the compile loaded must
belong to it or to ``repro``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
from repro.cli import main
for argv in (
    ["run", "googlenet"],
    ["run", "googlenet", "--fuse", "--schedule-transfers"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
loaded = sorted({name.split(".")[0] for name in set(sys.modules) - before})
print(json.dumps({"numpy": "numpy" in sys.modules, "loaded": loaded}))
"""


def test_compile_does_not_import_numpy():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["numpy"] is False
    if sys.version_info >= (3, 10):
        # ``__mp_main__`` is multiprocessing's alias of ``__main__``.
        ours = {"repro", "__mp_main__"}
        outside = set(report["loaded"]) - set(sys.stdlib_module_names) - ours
        assert not outside, sorted(outside)
