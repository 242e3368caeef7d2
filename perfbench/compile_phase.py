"""The compile phase: in-process closed loop over the whole model zoo.

One caller, no cache.  A sweep is every zoo model under every allocator
configuration of the golden suite (72 jobs), in an order the seed
shuffles.  Each job is ``get_model`` -> ``reference_design`` ->
``LatencyModel`` -> ``run_lcmm`` (or ``umm_only_result``) ->
``fingerprint``, and its fingerprint must equal the hand-pinned golden.
Import is paid once, in set-up, so HTTP, the cache, the process pool and
import do none of the work measured here.
"""

from __future__ import annotations

import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import harness

#: Passes whose per-sweep time the traced run reports.
PASSES = (
    "feature_reuse",
    "weight_prefetch",
    "allocate_dnnk",
    "allocate_greedy",
    "allocate_splitting",
    "fuse_layers",
    "transfer_schedule",
    "score",
    "placement",
)
ENGINE_COUNTS = ("node_evaluations", "full_rescores", "applies", "undos")
#: Set-ups timed in fresh interpreters besides the run's own.
CHILD_SETUPS = 2


def timed_setup() -> tuple[float, "Zoo"]:
    """Import the package and build every reference design; returns seconds."""
    start = time.perf_counter()
    zoo = Zoo()
    return time.perf_counter() - start, zoo


def child_setup_seconds() -> float:
    """One set-up in a fresh interpreter, as that interpreter times it."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import compile_phase; "
        "print(compile_phase.timed_setup()[0])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(harness.BENCH_DIR)],
        capture_output=True,
        text=True,
        env=harness.child_env(),
        cwd=harness.ROOT,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class Zoo:
    """The package's public entry points plus the per-model design keys.

    The package is imported here, not at module level, so that set-up
    times the import.
    """

    def __init__(self) -> None:
        from repro.analysis.experiments import BENCHMARKS, reference_design
        from repro.fingerprint import fingerprint
        from repro.hw.precision import INT8
        from repro.lcmm.framework import run_lcmm, umm_only_result
        from repro.lcmm.options import LCMMOptions
        from repro.models.zoo import get_model, list_models
        from repro.perf.latency import LatencyModel

        self.get_model, self.reference_design = get_model, reference_design
        self.latency_model, self.fingerprint = LatencyModel, fingerprint
        self.run_lcmm, self.umm_only_result = run_lcmm, umm_only_result
        self.precision = INT8
        self.models = list(list_models())
        self.design_key = {
            model: model if model in BENCHMARKS else "resnet152" for model in self.models
        }
        for key in set(self.design_key.values()):
            reference_design(key, INT8, "lcmm")
        self.options = {
            "umm": None,
            "dnnk": LCMMOptions(splitting=False),
            "greedy": LCMMOptions(use_greedy=True, splitting=False),
            "splitting": LCMMOptions(),
            "fused": LCMMOptions(fuse_layers=True),
            "fused_sched": LCMMOptions(fuse_layers=True, transfer_schedule=True),
        }

    def jobs(self) -> list[tuple[str, str]]:
        return [(model, config) for model in self.models for config in harness.CONFIGS]

    def run(self, model: str, config: str, traced: bool) -> tuple[object, dict, dict]:
        """One job; with ``traced`` also the seconds spent in each layer call."""
        spans = {}
        clock = time.perf_counter
        t0 = clock()
        graph = self.get_model(model)
        t1 = clock()
        accel = self.reference_design(self.design_key[model], self.precision, "lcmm")
        t2 = clock()
        latency_model = self.latency_model(graph, accel)
        t3 = clock()
        options = self.options[config]
        if options is None:
            result = self.umm_only_result(graph, accel, model=latency_model)
        else:
            result = self.run_lcmm(graph, accel, options=options, model=latency_model)
        t4 = clock()
        fp = self.fingerprint(result)
        t5 = clock()
        if traced:
            spans = {
                "models.get_model_ms": t1 - t0,
                "analysis.reference_design_ms": t2 - t1,
                "perf.latency.build_ms": t3 - t2,
                "lcmm.umm_only_ms" if options is None else "lcmm.run_lcmm_ms": t4 - t3,
                "fingerprint.ms": t5 - t4,
            }
        return result, fp, spans


@dataclass
class Sweep:
    """What one pass over the 72 jobs measured."""

    traced: bool
    job_seconds: dict[tuple[str, str], float] = field(default_factory=dict)
    layer_seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    run_lcmm_splitting: dict[str, float] = field(default_factory=dict)
    latencies: dict[tuple[str, str], float] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        self.layer_seconds[name] = self.layer_seconds.get(name, 0.0) + seconds

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


@dataclass
class CompilePhase:
    """Set-up and the closed loop of the compile phase."""

    zoo: Zoo
    goldens: dict
    result: harness.Result
    sweeps: list[Sweep] = field(default_factory=list)
    degraded: int = 0

    def sweep(self, rng: random.Random, traced: bool) -> Sweep:
        jobs = self.zoo.jobs()
        rng.shuffle(jobs)
        sweep = Sweep(traced)
        self.sweeps.append(sweep)
        for model, config in jobs:
            start = time.perf_counter()
            try:
                result, fp, spans = self.zoo.run(model, config, traced)
            except Exception as exc:  # recorded, never dropped
                self.result.attempted += 1
                self.result.fail(f"compile-error:{type(exc).__name__}")
                continue
            seconds = time.perf_counter() - start
            self.result.attempted += 1
            sweep.job_seconds[(model, config)] = seconds
            sweep.latencies[(model, config)] = result.latency
            if result.degradation_level != 0:
                self.degraded += 1
                self.result.fail("compile-degraded")
            elif harness.as_json(fp) != self.goldens[(model, config)]:
                self.result.fail("compile-fingerprint-mismatch")
            if traced:
                self._trace(sweep, model, config, result, spans)
        return sweep

    @staticmethod
    def _trace(sweep: Sweep, model, config, result, spans: dict) -> None:
        for name, seconds in spans.items():
            sweep.add(name, seconds)
        if config == "splitting":
            sweep.run_lcmm_splitting[model] = spans["lcmm.run_lcmm_ms"]
        for name, seconds in result.pass_timings:
            sweep.add(f"lcmm.pass.{name}_ms", seconds)
        stats = result.engine_stats
        if stats is not None:
            for name in ENGINE_COUNTS:
                sweep.count(name, getattr(stats, name))
            sweep.count("gain_cache_hits", stats.gain_cache_hits)
            sweep.count("gain_cache_misses", stats.gain_cache_misses)

    def run(self, seconds: float, rng: random.Random, traced: bool) -> None:
        """One block: whole sweeps until ``seconds`` pass, at least one.

        Sweeps always finish, so every run times the same job mix.  The
        first sweep runs cold; it is timed too, since only each job's
        best time counts.  Traced runs alternate plain and traced sweeps,
        so the tracing overhead compares jobs of the same run.
        """
        deadline = time.perf_counter() + seconds
        while True:
            self.sweep(rng, traced and len(self.sweeps) % 2 == 1)
            if time.perf_counter() >= deadline:
                return

    def _timed(self, traced: bool) -> list[Sweep]:
        return [s for s in self.sweeps if s.traced == traced]

    def _best(self, traced: bool) -> list[float]:
        """Each job's best time over the run's timed sweeps (72 values).

        The host is shared and its speed drifts within a run; the best
        of several repeats is the estimate that drift disturbs least.
        """
        sweeps = self._timed(traced)
        keys = {key for s in sweeps for key in s.job_seconds}
        return [min(s.job_seconds[key] for s in sweeps if key in s.job_seconds) for key in keys]

    # ------------------------------------------------------------------
    def end_to_end(self) -> None:
        best = self._best(False)
        metric = self.result.metric
        metric("compile.p50_ms", harness.median(best) * 1e3, "ms")
        metric("compile.p90_ms", harness.percentile(best, 90) * 1e3, "ms")
        metric("compile.jobs_per_s", len(best) / sum(best), "1/s")
        metric("compile.peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        first = self.sweeps[0].latencies
        models = self.zoo.models
        metric("accel.lcmm_ms_geomean", harness.geomean(first[(m, "splitting")] for m in models) * 1e3, "model_ms")
        metric("accel.fused_sched_ms_geomean", harness.geomean(first[(m, "fused_sched")] for m in models) * 1e3, "model_ms")
        metric(
            "accel.speedup_vs_umm_geomean",
            harness.geomean(first[(m, "umm")] / first[(m, "splitting")] for m in models),
            "x",
        )
        every = [t for s in self._timed(False) for t in s.job_seconds.values()]
        self.result.note(harness.tail_note("compile job ms, every timed job", every))
        self.result.note(f"compile: {len(self._timed(False))} timed sweeps")

    def per_layer(self) -> None:
        metric = self.result.metric
        traced = self._timed(True)
        names = sorted({name for sweep in traced for name in sweep.layer_seconds})
        for name in names:
            metric(name, min(s.layer_seconds.get(name, 0.0) for s in traced) * 1e3, "ms/sweep")
        for name in PASSES:
            if f"lcmm.pass.{name}_ms" not in names:
                raise RuntimeError(f"pass {name} never ran in a traced sweep")
        for model in self.zoo.models:
            metric(
                f"lcmm.run_lcmm_ms.{model}",
                min(s.run_lcmm_splitting[model] for s in traced) * 1e3,
                "ms",
            )
        counts = traced[0].counts
        for name in ENGINE_COUNTS:
            metric(f"perf.engine.{name}", counts[name], "count")
        lookups = counts["gain_cache_hits"] + counts["gain_cache_misses"]
        metric("perf.engine.gain_cache_hit_ratio", counts["gain_cache_hits"] / lookups, "ratio")
        jobs = sum(len(sweep.job_seconds) for sweep in self.sweeps)
        metric("lcmm.degraded_share", self.degraded / jobs, "ratio")
        overhead = harness.median(self._best(True)) / harness.median(self._best(False)) - 1.0
        metric("compile.trace_overhead", overhead, "ratio")
