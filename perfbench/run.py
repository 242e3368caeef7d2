"""Run one benchmark workload and print every metric by name and unit.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zipf --seed 1 --seconds 45 --trace 0

Every run drives the package through its three user-facing surfaces,
one phase each, interleaved in rounds of blocks:

1. compile: an in-process closed loop over the whole zoo
   (``get_model`` -> ``reference_design`` -> ``LatencyModel`` ->
   ``run_lcmm`` -> ``fingerprint``), see ``compile_phase.py``;
2. serve: a real ``lcmm serve`` subprocess; every run fills its cache
   and puts a warm-up load on it, and a traced run adds open-loop
   fixed-rate, rate-ladder and traced blocks, see ``serve_phase.py``;
3. cli: sequential cold ``lcmm run`` subprocesses, untimed warm-ups in
   set-up and, in a traced run, timed blocks, see ``cli_phase.py``.

The workload picks how the serve requests' keys are distributed; the
seed picks every generated input (arrival times, key and DSE draws, job
and model orders).  With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer ones (and the
tracing overhead).  Every output is checked against ``tests/golden``;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each result is also appended
to ``perfbench/results/history.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import signal
import sys
from dataclasses import dataclass

import harness

#: Rounds of interleaved blocks.
ROUNDS = 5
#: Share of ``--seconds`` each kind of block gets, split over the rounds
#: (the serve warm-up runs once, before the rounds, untimed).  An untraced
#: run has no serve or CLI blocks: on a shared two-core host the serve
#: latencies and cold CLI runs do not repeat within the bounds, so they
#: are per-layer figures of the traced run, and the untraced run spends
#: its time on compile blocks.
UNTRACED_SHARES = {"warm": 0.05, "compile": 0.95}
TRACED_SHARES = {"warm": 0.02, "compile": 0.14, "phase1": 0.50, "ladder": 0.16, "trace": 0.06, "cli": 0.12}


@dataclass(frozen=True)
class Workload:
    """The serve traffic: key popularity and the phase-1 arrival rate."""

    zipf_exponent: float
    #: About a quarter of the server's capacity for this key mix (warm-hit
    #: cost grows with the model, so the uniform mix costs more), so that
    #: a slow spell of the shared host does not tip phase 1 into queueing.
    rate: float


#: ``zipf`` uses YCSB's default Zipf constant, 0.99 (Cooper et al.,
#: "Benchmarking Cloud Serving Systems with YCSB", SoCC 2010); no public
#: trace says how skewed compile requests to a model zoo are.
WORKLOADS = {"zipf": Workload(0.99, 60.0), "uniform": Workload(0.0, 58.0)}
#: The popularity order of the keys is part of the workload, not the
#: seed: warm-hit cost differs fourfold between models, so a seeded
#: order would change the workload from seed to seed.  The order is a
#: fixed pseudo-random permutation, with no model family favoured.
POPULARITY_SEED = "lcmm-key-popularity"


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, result: harness.Result) -> None:
    harness.use_bytecode_cache()
    sys.path.insert(0, str(harness.SRC_DIR))
    import cli_phase
    import compile_phase
    import serve_phase

    traced = bool(args.trace)
    seed = f"{args.workload}:{args.seed}"

    setup_s, zoo = compile_phase.timed_setup()
    setups = [setup_s] + [compile_phase.child_setup_seconds() for _ in range(compile_phase.CHILD_SETUPS)]
    goldens = harness.load_goldens(zoo.models)
    compile_run = compile_phase.CompilePhase(zoo, goldens, result)

    workload = WORKLOADS[args.workload]
    keys = harness.KeySampler(zoo.jobs(), workload.zipf_exponent, random.Random(POPULARITY_SEED))
    work_dir = harness.WORK_DIR / f"{os.getpid()}"
    serve = serve_phase.ServePhase(goldens, keys, workload.rate, work_dir, result)
    cli = cli_phase.CliPhase(goldens, zoo.models, result)
    try:
        setup_total = harness.median(setups) + serve.setup()
        setup_total += cli.setup()

        shares = TRACED_SHARES if traced else UNTRACED_SHARES

        def block_s(kind: str) -> float:
            return args.seconds * shares[kind] / ROUNDS

        # Rounds of compile (serve, CLI) blocks: the shared host's speed
        # drifts within a run, and interleaving lets every metric sample
        # the whole run instead of one stretch of it.
        compile_rng = random.Random(f"{seed}:compile")
        cli_rng = random.Random(f"{seed}:cli")
        serve.prepare(args.seconds * shares["warm"], f"{seed}:serve", traced)
        if not traced:
            serve.finish()
        for index in range(ROUNDS):
            compile_run.run(block_s("compile"), compile_rng, traced)
            if traced:
                # The compile block leaves garbage behind; collecting and
                # freezing the heap keeps the collector from pausing senders.
                gc.collect()
                gc.freeze()
                serve_rng = random.Random(f"{seed}:serve:{index}")
                serve.run(block_s("phase1"), serve_rng)
                serve.climb(block_s("ladder"), serve_rng)
                serve.trace(block_s("trace"), serve_rng)
                cli.run(block_s("cli"), cli_rng)
        if traced:
            serve.finish()
    finally:
        serve.close()

    if traced:
        compile_run.per_layer()
        serve.per_layer()
        cli.per_layer()
    else:
        result.metric("setup_s", setup_total, "s")
        compile_run.end_to_end()
        serve.end_to_end()


def main(argv: list[str] | None = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0:
        harness.write_error("--seconds must be positive")
        return 2
    try:
        harness.require_sources()
    except harness.SourceMissing as exc:
        harness.write_error(str(exc))
        return 2
    # A SIGTERM unwinds like an exception, so the daemon is still stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = harness.Result()
    run(args, result)

    for name, (value, unit) in sorted(result.metrics.items()):
        print(f"{name:40s} {value:14.4f} {unit}")
    for note in result.notes:
        print(f"# {note}")
    for label, count in sorted(result.failures.items()):
        print(f"# FAILED {label}: {count}")
    payload = result.payload()
    record = {
        "provenance": harness.provenance(args.workload, args.seed, args.seconds, bool(args.trace)),
        "result": payload,
        "failures": result.failures,
        "notes": result.notes,
    }
    harness.append_history(record)
    print(f"# provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
