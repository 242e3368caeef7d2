"""Tests for repro.lcmm.interference."""

import random

import pytest

from repro.lcmm.buffers import CandidateTensor, TensorClass
from repro.lcmm.interference import InterferenceGraph
from repro.lcmm.liveness import LiveRange


def make_tensor(name: str, start: int, end: int, size: int = 100) -> CandidateTensor:
    return CandidateTensor(
        name=name,
        tensor_class=TensorClass.FEATURE,
        size_bytes=size,
        live_range=LiveRange(start, end),
        affected_nodes=(name,),
    )


class TestConstruction:
    def test_overlapping_tensors_interfere(self):
        g = InterferenceGraph.from_tensors(
            [make_tensor("a", 0, 3), make_tensor("b", 2, 5)]
        )
        assert g.interferes("a", "b")
        assert g.neighbors("a") == {"b"}

    def test_disjoint_tensors_do_not_interfere(self):
        g = InterferenceGraph.from_tensors(
            [make_tensor("a", 0, 1), make_tensor("b", 2, 3)]
        )
        assert not g.interferes("a", "b")
        assert g.edge_count() == 0

    def test_duplicate_tensor_rejected(self):
        g = InterferenceGraph.from_tensors([make_tensor("a", 0, 1)])
        with pytest.raises(ValueError, match="duplicate"):
            g.add_tensor(make_tensor("a", 4, 5))

    def test_duplicate_tensor_rejected_by_from_tensors(self):
        with pytest.raises(ValueError, match="duplicate"):
            InterferenceGraph.from_tensors(
                [make_tensor("a", 0, 1), make_tensor("a", 4, 5)]
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_sweep_matches_pairwise_construction(self, seed):
        # from_tensors sweeps by live-range start; add_tensor compares
        # every pair.  Both must produce the same edges and tensor order.
        rng = random.Random(seed)
        tensors = []
        for idx in range(40):
            start = rng.randrange(30)
            tensors.append(make_tensor(f"t{idx}", start, start + rng.randrange(8)))
        swept = InterferenceGraph.from_tensors(tensors)
        pairwise = InterferenceGraph()
        for tensor in tensors:
            pairwise.add_tensor(tensor)
        assert list(swept.tensors) == list(pairwise.tensors)
        for tensor in tensors:
            assert swept.neighbors(tensor.name) == pairwise.neighbors(tensor.name)

    def test_len_counts_tensors(self):
        g = InterferenceGraph.from_tensors(
            [make_tensor("a", 0, 1), make_tensor("b", 0, 1), make_tensor("c", 9, 9)]
        )
        assert len(g) == 3
        assert g.edge_count() == 1


class TestFalseEdges:
    def test_false_edge_forces_interference(self):
        g = InterferenceGraph.from_tensors(
            [make_tensor("a", 0, 1), make_tensor("b", 5, 6)]
        )
        assert not g.interferes("a", "b")
        g.add_false_edge("a", "b")
        assert g.interferes("a", "b")
        assert frozenset(("a", "b")) in g.false_edges()

    def test_false_edge_idempotent(self):
        g = InterferenceGraph.from_tensors(
            [make_tensor("a", 0, 1), make_tensor("b", 5, 6)]
        )
        g.add_false_edge("a", "b")
        g.add_false_edge("b", "a")
        assert g.edge_count() == 1
        assert len(g.false_edges()) == 1

    def test_false_edge_over_real_edge_records_nothing(self):
        g = InterferenceGraph.from_tensors(
            [make_tensor("a", 0, 3), make_tensor("b", 1, 2)]
        )
        g.add_false_edge("a", "b")
        assert g.false_edges() == set()

    def test_self_edge_rejected(self):
        g = InterferenceGraph.from_tensors([make_tensor("a", 0, 1)])
        with pytest.raises(ValueError):
            g.add_false_edge("a", "a")

    def test_unknown_tensor_rejected(self):
        g = InterferenceGraph.from_tensors([make_tensor("a", 0, 1)])
        with pytest.raises(KeyError):
            g.add_false_edge("a", "ghost")
