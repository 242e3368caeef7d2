"""Parity of the run-length DNNK sweep with the scalar column sweep.

``_dp_pass`` walks every capacity column; ``_dp_pass_runs`` walks runs of
columns that share ``best`` and ``context``.  On any gain table they must
back-trace the same set, return a bitwise-equal best, and score each
distinct key of a row exactly once.
"""

import struct
from collections import Counter, defaultdict

from hypothesis import given, settings, strategies as st

from repro.lcmm.dnnk import _dp_pass, _dp_pass_runs

#: Ties (repeats, 0.1 + 0.2 against 0.30000000000000004), signed zeros,
#: negatives and tiny values.
GAINS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.30000000000000004, 1e-300]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


class TableEvaluator:
    """Gains from a fixed table keyed on ``context & relevant_mask``.

    Records every query as ``(buffer, key)``.
    """

    def __init__(self, relevant: list[int], values: list[float]) -> None:
        self._relevant_mask = relevant
        self._values = values
        self.queries: list[tuple[int, int]] = []

    def gain(self, buffer_index: int, context_mask: int) -> float:
        key = context_mask & self._relevant_mask[buffer_index]
        self.queries.append((buffer_index, key))
        mix = (key * 2654435761 + buffer_index * 40503) % 1000003
        return self._values[mix % len(self._values)]


@st.composite
def instances(draw):
    n = draw(st.one_of(st.integers(0, 12), st.integers(64, 80)))
    units = draw(st.integers(0, 40))
    sizes = draw(st.lists(st.integers(0, units + 2), min_size=n, max_size=n))
    relevant = draw(
        st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    )
    values = draw(st.lists(GAINS, min_size=1, max_size=6))
    order = draw(st.permutations(range(n)))
    return order, sizes, units, relevant, values


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=200, deadline=None)
@given(instances())
def test_runs_sweep_matches_scalar_sweep(instance):
    order, sizes, units, relevant, values = instance
    scalar = TableEvaluator(relevant, values)
    runs = TableEvaluator(relevant, values)

    chosen, best = _dp_pass(order, sizes, units, scalar)
    chosen_runs, best_runs = _dp_pass_runs(order, sizes, units, runs)

    assert chosen_runs == chosen
    assert _bits(best_runs) == _bits(best)
    # Each buffer has one row: it must score each of the scalar row's
    # distinct keys exactly once.
    scalar_keys: dict[int, set[int]] = defaultdict(set)
    for i, key in scalar.queries:
        scalar_keys[i].add(key)
    runs_keys: dict[int, Counter] = defaultdict(Counter)
    for i, key in runs.queries:
        runs_keys[i][key] += 1
    assert set(runs_keys) == set(scalar_keys)
    for i, counts in runs_keys.items():
        assert set(counts) == scalar_keys[i]
        assert set(counts.values()) == {1}
