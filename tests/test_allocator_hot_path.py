"""Guards on how much work the allocators do, not only what they return.

The golden suite pins every allocation bit-for-bit; these tests pin the
work behind them.  The engine counters below were recorded before the
allocator hot path was rewritten (per-kind bit tables, one eviction
ranking per local-search sweep, indexed graph queries): a speedup must
not change which gains are computed, only how fast they are computed.
"""

from collections import Counter

import pytest

from repro.analysis.experiments import BENCHMARKS, reference_design
from repro.hw.precision import INT8
from repro.lcmm import dnnk
from repro.lcmm.framework import LCMMOptions, run_lcmm
from repro.models.zoo import get_model
from repro.perf.latency import LatencyModel

#: ``EngineStats`` of the ``splitting`` configuration (default options).
PINNED_ENGINE_STATS = {
    "densenet121": {
        "node_evaluations": 258,
        "full_rescores": 1,
        "applies": 4,
        "undos": 0,
        "gain_cache_hits": 90,
        "gain_cache_misses": 1558,
    },
    "inception_v4": {
        "node_evaluations": 358,
        "full_rescores": 1,
        "applies": 6,
        "undos": 0,
        "gain_cache_hits": 91,
        "gain_cache_misses": 788,
    },
}


def _compile(name: str):
    graph = get_model(name)
    accel = reference_design(name if name in BENCHMARKS else "resnet152", INT8, "lcmm")
    model = LatencyModel(graph, accel)
    return run_lcmm(graph, accel, options=LCMMOptions(), model=model)


@pytest.mark.parametrize("name", sorted(PINNED_ENGINE_STATS))
def test_engine_counters_pinned(name):
    stats = _compile(name).engine_stats.as_dict()
    stats.pop("pass_seconds")
    assert stats == PINNED_ENGINE_STATS[name]


def test_eviction_ranked_once_per_local_search_sweep(monkeypatch):
    """Each resident's drop delta is evaluated once per outer sweep.

    Every accepted move strictly improves the exact latency, so the
    resident set never repeats within one local search: a repeated
    ``(context, dropped buffer)`` query means a sweep re-ranked its
    residents (the old per-candidate ranking).
    """
    searches: list[Counter] = []
    real_search = dnnk._local_search

    def counting_search(chosen_set, sizes, units, evaluator, num_buffers):
        queries: Counter = Counter()
        real_move_delta = evaluator.move_delta

        def move_delta(context_mask, add, drop):
            if add is None:
                queries[context_mask, drop] += 1
            return real_move_delta(context_mask, add=add, drop=drop)

        evaluator.move_delta = move_delta
        try:
            return real_search(chosen_set, sizes, units, evaluator, num_buffers)
        finally:
            del evaluator.move_delta
            searches.append(queries)

    monkeypatch.setattr(dnnk, "_local_search", counting_search)
    for name in ("googlenet", "inception_v4"):
        _compile(name)
    rankings = [queries for queries in searches if queries]
    assert rankings, "no local search reached the eviction phase"
    for queries in rankings:
        assert max(queries.values()) == 1
