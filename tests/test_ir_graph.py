"""Tests for repro.ir.graph."""

import pytest

from repro.ir.graph import ComputationGraph, GraphValidationError
from repro.ir.layer import Concat, Conv2D, EltwiseAdd, InputLayer, OpType
from repro.ir.tensor import FeatureMapShape, FeatureTensor, feature_tensor_name
from repro.models.common import conv
from repro.models.zoo import get_model, list_models

from tests.conftest import build_chain, build_residual_block, build_snippet


class TestConstruction:
    def test_add_returns_layer(self):
        g = ComputationGraph(name="g")
        layer = g.add(InputLayer(name="data"))
        assert layer.name == "data"
        assert "data" in g
        assert len(g) == 1

    def test_duplicate_name_rejected(self):
        g = ComputationGraph(name="g")
        g.add(InputLayer(name="data"))
        with pytest.raises(GraphValidationError, match="duplicate"):
            g.add(InputLayer(name="data"))

    def test_unknown_input_rejected(self):
        g = ComputationGraph(name="g")
        g.add(InputLayer(name="data"))
        with pytest.raises(GraphValidationError, match="unknown input"):
            g.add(Conv2D(name="c", inputs=("ghost",), out_channels=8))

    def test_shapes_inferred_on_add(self):
        g = build_chain(num_convs=2, channels=32, hw=16)
        assert g.output_shape("c1") == FeatureMapShape(32, 16, 16)
        assert g.output_shape("c2") == FeatureMapShape(32, 16, 16)

    def test_unknown_layer_lookup_raises(self):
        g = build_chain()
        with pytest.raises(KeyError):
            g.layer("nope")


class TestStructureQueries:
    def test_schedule_is_definition_order(self):
        g = build_chain(num_convs=3)
        assert g.schedule() == ["data", "c1", "c2", "c3"]

    def test_compute_schedule_skips_input_and_concat(self):
        g = build_snippet()
        sched = g.compute_schedule()
        assert "data" not in sched
        assert "cat" not in sched
        assert sched == ["C1", "C2", "C3", "C4", "C5", "C6"]

    def test_predecessors_and_successors(self):
        g = build_snippet()
        assert g.predecessors("C2") == ["C1"]
        assert g.successors("C1") == ["C2", "C3"]

    def test_sinks(self):
        g = build_chain(num_convs=2)
        assert g.sinks() == ["c2"]

    def test_conv_layers(self):
        g = build_residual_block()
        assert g.conv_layers() == ["conv1", "conv2", "conv3", "proj"]

    def test_total_macs_positive(self):
        assert build_snippet().total_macs() > 0

    def test_total_weight_bytes_scales(self):
        g = build_chain()
        assert g.total_weight_bytes(2) == 2 * g.total_weight_bytes(1)


class TestFeatureTensors:
    def test_one_tensor_per_consumed_output(self):
        g = build_chain(num_convs=3)
        tensors = {t.name: t for t in g.feature_tensors()}
        # data, c1, c2 are consumed; c3 (the sink) is not.
        assert set(tensors) == {"f:data", "f:c1", "f:c2"}

    def test_concat_is_transparent(self):
        g = build_snippet()
        tensors = {t.name: t for t in g.feature_tensors()}
        assert "f:cat" not in tensors
        # C4 reads the concat, hence consumes both branch outputs.
        assert tensors["f:C2"].consumers == ("C4",)
        assert tensors["f:C3"].consumers == ("C4",)

    def test_multi_consumer_tensor(self):
        g = build_snippet()
        tensors = {t.name: t for t in g.feature_tensors()}
        assert tensors["f:C1"].consumers == ("C2", "C3")

    def test_feature_sources_through_concat(self):
        g = build_snippet()
        assert g.feature_sources("C4") == ["C2", "C3"]
        assert g.feature_sources("C2") == ["C1"]

    def test_residual_shortcut_consumers(self):
        g = build_residual_block()
        tensors = {t.name: t for t in g.feature_tensors()}
        assert tensors["f:data"].consumers == ("conv1", "proj")
        assert tensors["f:conv3"].consumers == ("add",)


class TestWeightTensors:
    def test_one_per_weighted_layer(self):
        g = build_snippet()
        names = [t.name for t in g.weight_tensors()]
        assert names == [f"w:C{i}" for i in range(1, 7)]

    def test_shapes_match_layers(self):
        g = build_chain(num_convs=1, channels=32, hw=8)
        (wt,) = g.weight_tensors()
        assert wt.shape.out_channels == 32
        assert wt.shape.in_channels == 3


class TestBlocks:
    def test_block_tagging(self):
        g = ComputationGraph(name="g")
        g.add(InputLayer(name="data", shape=FeatureMapShape(8, 8, 8)))
        g.begin_block("stage1")
        conv(g, "c1", "data", 8, 3)
        g.end_block()
        conv(g, "c2", "c1", 8, 3)
        assert g.blocks == {"stage1": ["c1"]}
        assert g.block_of("c1") == "stage1"
        assert g.block_of("c2") is None


class TestValidation:
    def test_empty_graph_invalid(self):
        with pytest.raises(GraphValidationError, match="empty"):
            ComputationGraph(name="g").validate()

    def test_no_input_layer_invalid(self):
        g = ComputationGraph(name="g")
        # Bypass add() ordering by constructing a lone conv via internals.
        g.add(InputLayer(name="data"))
        g._layers.pop("data")
        with pytest.raises(GraphValidationError):
            g.validate()

    def test_valid_graphs_pass(self):
        build_chain().validate()
        build_snippet().validate()
        build_residual_block().validate()


# ----------------------------------------------------------------------
# Consumer index vs brute force: every indexed query must equal a scan
# over all layers, including after the graph grows.
# ----------------------------------------------------------------------


def brute_successors(g, name):
    return [lyr.name for lyr in g.layers() if name in lyr.inputs]


def brute_sinks(g):
    consumed = {src for lyr in g.layers() for src in lyr.inputs}
    return [lyr.name for lyr in g.layers() if lyr.name not in consumed]


def brute_feature_tensors(g):
    order = {name: idx for idx, name in enumerate(g.schedule())}
    tensors = []
    for lyr in g.layers():
        if lyr.op_type is OpType.CONCAT:
            continue
        consumers, stack = set(), brute_successors(g, lyr.name)
        while stack:
            node = stack.pop()
            if g.layer(node).op_type is OpType.CONCAT:
                stack.extend(brute_successors(g, node))
            else:
                consumers.add(node)
        if consumers:
            tensors.append(
                FeatureTensor(
                    name=feature_tensor_name(lyr.name),
                    producer=lyr.name,
                    consumers=tuple(sorted(consumers, key=order.__getitem__)),
                    shape=g.output_shape(lyr.name),
                )
            )
    return tensors


def brute_unreachable(g):
    reachable = {lyr.name for lyr in g.layers() if lyr.op_type is OpType.INPUT}
    frontier = list(reachable)
    while frontier:
        for succ in brute_successors(g, frontier.pop()):
            if succ not in reachable:
                reachable.add(succ)
                frontier.append(succ)
    return {lyr.name for lyr in g.layers()} - reachable


def assert_index_matches_brute_force(g):
    for lyr in g.layers():
        assert g.successors(lyr.name) == brute_successors(g, lyr.name), lyr.name
    assert g.sinks() == brute_sinks(g)
    assert g.feature_tensors() == brute_feature_tensors(g)
    assert not brute_unreachable(g)
    g.validate()


class TestConsumerIndex:
    @pytest.mark.parametrize("model", list_models())
    def test_zoo_matches_brute_force(self, model):
        assert_index_matches_brute_force(get_model(model))

    def test_layer_reading_one_producer_twice(self):
        g = ComputationGraph(name="double-read")
        g.add(InputLayer(name="data", shape=FeatureMapShape(8, 8, 8)))
        x = conv(g, "x", "data", 8, 3)
        g.add(EltwiseAdd(name="sum", inputs=(x, x)))
        conv(g, "out", "sum", 8, 1)
        assert g.successors("x") == ["sum"]
        assert_index_matches_brute_force(g)

    def test_concat_of_concats(self):
        g = ComputationGraph(name="nested-concat")
        g.add(InputLayer(name="data", shape=FeatureMapShape(8, 8, 8)))
        a = conv(g, "a", "data", 8, 1)
        b = conv(g, "b", "data", 8, 1)
        c = conv(g, "c", "data", 8, 1)
        g.add(Concat(name="inner", inputs=(a, b)))
        g.add(Concat(name="outer", inputs=("inner", c)))
        conv(g, "head", "outer", 8, 1)
        conv(g, "side", a, 8, 1)
        by_producer = {t.producer: t.consumers for t in g.feature_tensors()}
        assert by_producer["a"] == ("head", "side")
        assert by_producer["c"] == ("head",)
        assert_index_matches_brute_force(g)

    def test_index_stays_current_as_graph_grows(self):
        g = build_snippet()
        assert_index_matches_brute_force(g)
        assert g.sinks() == ["C6"]
        conv(g, "C7", "C6", 32, 1)
        g.add(Concat(name="cat2", inputs=("C7", "C5")))
        conv(g, "C8", "cat2", 32, 1)
        assert g.sinks() == ["C8"]
        assert g.successors("C5") == ["C6", "cat2"]
        assert_index_matches_brute_force(g)

    def test_failed_add_leaves_index_untouched(self):
        g = build_chain(num_convs=2, channels=8, hw=8)
        small = conv(g, "small", "data", 8, 3, stride=2)
        with pytest.raises(ValueError):
            g.add(EltwiseAdd(name="bad", inputs=("c2", small)))
        assert "bad" not in g
        assert_index_matches_brute_force(g)
