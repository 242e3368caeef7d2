"""Shared pieces of the LCMM benchmark: statistics, open-loop load,
golden checks, provenance and the result history.

Nothing here imports ``repro``: the workloads time their own import of
the package as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
WORK_DIR = BENCH_DIR / "work"
#: Bytecode of the package, kept out of ``src/``: every interpreter the
#: benchmark starts imports compiled modules, as an installed package's
#: users do, instead of compiling the sources on each start.
PYCACHE_DIR = WORK_DIR / "pycache"
HISTORY = BENCH_DIR / "results" / "history.jsonl"

#: Percentiles the tail helper may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)

#: Allocator configurations of the golden suite, in golden-file order.
CONFIGS = ("umm", "dnnk", "greedy", "splitting", "fused", "fused_sched")


class SourceMissing(RuntimeError):
    """The checkout lacks the package or its goldens."""


def require_sources() -> None:
    """Fail before any work when the program under test is absent."""
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC_DIR / "repro" / "__init__.py", GOLDEN_DIR)
        if not path.exists()
    ]
    if missing:
        raise SourceMissing(f"missing from the checkout: {', '.join(missing)}")


def child_env() -> dict:
    """Environment for subprocesses that import ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE_DIR)
    return env


def use_bytecode_cache() -> None:
    """Let this process read and write the bytecode its children use."""
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(PYCACHE_DIR)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(pct, len(ordered)) - 1]


def _rank(pct: float, n: int) -> int:
    """1-based nearest rank; rounding first keeps p99.9 of 10000 at 9990."""
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middles for an even count)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass(frozen=True)
class Tail:
    """The highest percentile a sample supports, with its sample count."""

    pct: float
    value: float
    n: int

    def label(self) -> str:
        return f"p{self.pct:g}"


def tail(values: Sequence[float], min_beyond: int = 10) -> Tail | None:
    """Highest ladder percentile with at least ``min_beyond`` samples above it.

    Returns ``None`` when even the median lacks that many samples beyond
    it (fewer than ``2 * min_beyond`` samples).
    """
    n = len(values)
    best = None
    for pct in TAIL_LADDER:
        beyond = n - _rank(pct, n)
        if beyond >= min_beyond:
            best = pct
    if best is None:
        return None
    return Tail(best, percentile(values, best), n)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# Open-loop load
# ----------------------------------------------------------------------
def poisson_arrivals(rate: float, duration: float, rng: random.Random) -> list[float]:
    """Due offsets (seconds from start) of a Poisson process on [0, duration)."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    due, out = 0.0, []
    while True:
        due += rng.expovariate(rate)
        if due >= duration:
            return out
        out.append(due)


@dataclass
class Outcome:
    """One open-loop request: when it was due, sent and answered."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    label: str
    info: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to its answer."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the send lagged its due time (generator lateness)."""
        return self.sent - self.due


def run_open_loop(
    dues: Sequence[float],
    payloads: Sequence,
    clients: Sequence[Callable[[object], tuple[bool, str, dict]]],
) -> list[Outcome]:
    """Issue ``payloads[i]`` at ``dues[i]`` over ``len(clients)`` senders.

    Each sender owns one client (a keep-alive connection) and takes the
    next request in due order once its previous one has finished.  A
    request that finds every sender busy is sent late, and its latency
    still counts from its due time.  A client returns ``(ok, label,
    info)``; an exception it raises is recorded as a failed request.
    """
    if len(dues) != len(payloads):
        raise ValueError("one payload per due time")
    outcomes: list[Outcome | None] = [None] * len(dues)
    lock = threading.Lock()
    cursor = iter(range(len(dues)))
    start = time.perf_counter()

    def sender(client) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + dues[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            try:
                ok, label, info = client(payloads[index])
            except Exception as exc:  # recorded, never dropped
                ok, label, info = False, f"error:{type(exc).__name__}", {"error": str(exc)}
            done = time.perf_counter()
            outcomes[index] = Outcome(index, due, sent, done, ok, label, info)

    threads = [
        threading.Thread(target=sender, args=(client,), daemon=True)
        for client in clients
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [outcome for outcome in outcomes if outcome is not None]


class KeySampler:
    """Seeded draws of (model, config) keys.

    The keys are shuffled once by the seed; rank ``k`` (1-based) of that
    permutation is drawn with weight ``k ** -exponent``, so an exponent
    of 0 is uniform and larger exponents concentrate on a few keys.
    """

    def __init__(self, keys: Sequence[tuple[str, str]], exponent: float, rng: random.Random) -> None:
        self.keys = list(keys)
        rng.shuffle(self.keys)
        weights = [(rank + 1) ** -exponent for rank in range(len(self.keys))]
        total, running = sum(weights), 0.0
        self.cumulative = []
        for weight in weights:
            running += weight / total
            self.cumulative.append(running)

    def draw(self, rng: random.Random) -> tuple[str, str]:
        return rng.choices(self.keys, cum_weights=self.cumulative)[0]


# ----------------------------------------------------------------------
# Goldens
# ----------------------------------------------------------------------
def load_goldens(models: Iterable[str]) -> dict[tuple[str, str], dict]:
    """``(model, config) -> golden fingerprint`` from ``tests/golden``."""
    goldens: dict[tuple[str, str], dict] = {}
    for model in models:
        for suffix in ("", ".fused"):
            data = json.loads((GOLDEN_DIR / f"{model}{suffix}.json").read_text())
            for config, fp in data.items():
                goldens[(model, config)] = fp
    missing = [
        (model, config)
        for model in models
        for config in CONFIGS
        if (model, config) not in goldens
    ]
    if missing:
        raise SourceMissing(f"goldens missing for {missing[:3]}")
    return goldens


def as_json(value) -> object:
    """JSON round trip, so tuples compare equal to golden lists."""
    return json.loads(json.dumps(value))


def golden_latency_text(golden: dict) -> str:
    """A golden latency as ``lcmm run`` prints it (ms, three decimals)."""
    return f"{float.fromhex(golden['latency_hex']) * 1e3:.3f}"


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant (Linux ``/proc``)."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        try:
            children = Path(f"/proc/{current}/task/{current}/children").read_text()
        except OSError:
            continue
        frontier.extend(int(child) for child in children.split())
    return tree


def kill_and_wait(pids: Iterable[int], timeout: float = 10.0) -> int:
    """SIGKILL every live pid and wait until each is gone; returns how many lived."""
    alive = [pid for pid in pids if _alive(pid)]
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while any(_alive(pid) for pid in alive) and time.monotonic() < deadline:
        time.sleep(0.01)
    return len(alive)


def _alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def peak_rss_kib(pid: int) -> int:
    """Peak resident set (``VmHWM``) of one process, 0 once it is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


# ----------------------------------------------------------------------
# Provenance and history
# ----------------------------------------------------------------------
def source_digest() -> str:
    """SHA-256 over ``src/`` (path + bytes), identifying untracked checkouts."""
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def provenance(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def append_history(record: dict, path: Path = HISTORY) -> None:
    """Append one result line; earlier results are never overwritten."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class Result:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    failures: dict[str, int] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, label: str) -> None:
        self.failed += 1
        self.failures[label] = self.failures.get(label, 0) + 1

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def payload(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def tail_note(name: str, values: Sequence[float], scale: float = 1e3) -> str:
    """``name: p50 … | pXX … (n=…)`` for the human-readable report."""
    if not values:
        return f"{name}: no samples"
    top = tail(values)
    text = f"{name}: p50 {median(values) * scale:.3f}"
    if top is not None and top.pct > 50:
        text += f" | {top.label()} {top.value * scale:.3f}"
    return text + f" (n={len(values)})"


def write_error(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
