"""The CLI phase: sequential cold ``lcmm run`` subprocesses.

Each run is a fresh interpreter, so interpreter start and
``import repro.cli`` are paid every time; the compile itself is a small
share.  The seed orders the models (every model once per round, so each run
sees nearly the same mix), and about half the runs add
``--fuse --schedule-transfers``.  Every run must exit 0 and print the
golden ``LCMM:`` latency at the printed precision.
"""

from __future__ import annotations

import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field

import harness

#: The untimed warm-up runs of set-up use this model, whatever the seed.
WARMUP_MODEL = "googlenet"
WARMUPS = 3
FUSED_SHARE = 0.5
RUN_TIMEOUT_S = 60.0
_LCMM_LINE = re.compile(r"^LCMM:\s+([0-9.]+) ms", re.MULTILINE)
_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", re.MULTILINE)


def _timed(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        argv,
        capture_output=True,
        text=True,
        env=harness.child_env(),
        cwd=harness.ROOT,
        timeout=RUN_TIMEOUT_S,
    )
    return time.perf_counter() - start, proc


@dataclass
class CliPhase:
    """Set-up, the closed loop of cold runs and the start-up probes."""

    goldens: dict
    models: list[str]
    result: harness.Result
    run_seconds: list[float] = field(default_factory=list)
    #: Wall seconds of each model's checked runs.
    model_seconds: dict[str, list[float]] = field(default_factory=dict)
    probes: dict[str, list[float]] = field(default_factory=dict)
    #: Models left in the current round (each model once per round).
    order: list[str] = field(default_factory=list)

    def lcmm_run(self, model: str, fused: bool) -> float | None:
        """One checked ``lcmm run``; its wall seconds, or None if it failed."""
        argv = [sys.executable, "-m", "repro.cli", "run", model, "--precision", "int8"]
        if fused:
            argv += ["--fuse", "--schedule-transfers"]
        self.result.attempted += 1
        try:
            seconds, proc = _timed(argv)
        except subprocess.TimeoutExpired:
            self.result.fail("cli-timeout")
            return None
        if proc.returncode != 0:
            self.result.fail(f"cli-exit-{proc.returncode}")
            return None
        match = _LCMM_LINE.search(proc.stdout)
        golden = self.goldens[(model, "fused_sched" if fused else "splitting")]
        if match is None or match.group(1) != harness.golden_latency_text(golden):
            self.result.fail("cli-latency-mismatch")
            return None
        return seconds

    def setup(self) -> float:
        """Median of the untimed warm-up runs."""
        times = [self.lcmm_run(WARMUP_MODEL, False) for _ in range(WARMUPS)]
        times = [t for t in times if t is not None]
        if not times:
            raise RuntimeError("every cli warm-up run failed")
        return harness.median(times)

    def run(self, seconds: float, rng: random.Random) -> None:
        """One block: cold runs until ``seconds`` pass, at least one, each
        followed by the start-up probes."""
        deadline = time.perf_counter() + seconds
        while True:
            if not self.order:
                self.order = rng.sample(self.models, len(self.models))
            model = self.order.pop()
            elapsed = self.lcmm_run(model, rng.random() < FUSED_SHARE)
            if elapsed is not None:
                self.run_seconds.append(elapsed)
                self.model_seconds.setdefault(model, []).append(elapsed)
            self._probe()
            if time.perf_counter() >= deadline:
                return

    def _probe(self) -> None:
        """Interpreter start, import wall time and ``-X importtime`` shares."""
        record = self.probes.setdefault
        seconds, _ = _timed([sys.executable, "-c", "pass"])
        record("interpreter", []).append(seconds)
        seconds, _ = _timed([sys.executable, "-c", "import repro.cli"])
        record("import_wall", []).append(seconds)
        _, proc = _timed([sys.executable, "-X", "importtime", "-c", "import repro.cli"])
        cumulative = {name: int(us) for us, name in _IMPORT_LINE.findall(proc.stderr)}
        record("import", []).append(cumulative["repro.cli"] / 1e6)
        record("numpy", []).append(cumulative.get("numpy", 0) / 1e6)

    def per_layer(self) -> None:
        """Start-up probes, and the median over the models of each model's best cold run.

        As in the compile phase, the best of a model's repeats is the
        estimate the shared host's drifting speed disturbs least.
        """
        metric, probes = self.result.metric, self.probes
        best = [min(times) for times in self.model_seconds.values()]
        metric("cli.p50_ms", harness.median(best) * 1e3, "ms")
        self.result.note(harness.tail_note("lcmm run ms, every run", self.run_seconds))
        metric("cli.interpreter_ms", harness.median(probes["interpreter"]) * 1e3, "ms")
        metric("cli.import_ms", harness.median(probes["import"]) * 1e3, "ms")
        metric("cli.import.numpy_ms", harness.median(probes["numpy"]) * 1e3, "ms")
        body = harness.median(self.run_seconds) - harness.median(probes["import_wall"])
        metric("cli.body_ms", body * 1e3, "ms")
