import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtp.circuit import Circuit
from qtp.dag import (
    ANGLE_SLOTS,
    FEATURE_DIM,
    FeaturizeError,
    GATE_SLOTS,
    MAX_FEATURE_QUBITS,
    build_dag,
    encode_angle,
    encode_features,
    featurize_circuit,
    graph_from_dag,
    load_graph,
    write_graph,
)
from qtp.gates import GateKind, ONE_HOT_INDEX


TWO_PI = 2.0 * math.pi


def _bell() -> Circuit:
    circ = Circuit(2, name="bell")
    circ.add(GateKind.H, (0,))
    circ.add(GateKind.CX, (0, 1))
    return circ


class TestBuildDag:
    def test_input_nodes_first(self):
        dag = build_dag(_bell())
        assert [n.kind for n in dag.nodes[:2]] == [GateKind.INPUT, GateKind.INPUT]
        assert [n.qubits for n in dag.nodes[:2]] == [(0,), (1,)]
        assert [n.kind for n in dag.nodes[2:]] == [GateKind.H, GateKind.CX]

    def test_wire_edges(self):
        dag = build_dag(_bell())
        # INPUT0 -> h, h -> cx, INPUT1 -> cx
        assert sorted(dag.edges) == [(0, 2), (1, 3), (2, 3)]

    def test_shared_predecessor_edge_deduped(self):
        circ = Circuit(2)
        circ.add(GateKind.CX, (0, 1))
        circ.add(GateKind.CX, (0, 1))
        dag = build_dag(circ)
        # both wires of the second cx come from the first: one edge, not two
        assert sorted(dag.edges) == [(0, 2), (1, 2), (2, 3)]

    def test_too_many_qubits(self):
        with pytest.raises(FeaturizeError):
            build_dag(Circuit(MAX_FEATURE_QUBITS + 1))

    def test_empty_circuit(self):
        dag = build_dag(Circuit(3))
        assert len(dag.nodes) == 3 and dag.edges == []


class TestAngleEncoding:
    def test_range(self):
        for theta in (-100.0, -1.0, 0.0, 1.0, math.pi, 10.0, 1e6):
            frac = encode_angle(theta)
            assert 0.0 <= frac < 1.0

    def test_zero(self):
        assert encode_angle(0.0) == 0.0

    def test_negative_wraps(self):
        assert math.isclose(encode_angle(-math.pi / 2), 0.75, rel_tol=1e-15)

    def test_clamp_at_one(self):
        # a hair below 2*pi rounds up to frac 1.0; the encoder clamps to 0.0
        assert encode_angle(-1e-18) == 0.0

    def test_pi_period_exact(self):
        # 3*pi is exactly representable, so the fmod reduction is exact
        assert encode_angle(3 * math.pi) == encode_angle(math.pi)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, (1 << 32) - 1))
    def test_dyadic_period_exact(self, k):
        # theta with <= 32 fractional bits: theta + 2*pi is computed exactly,
        # so periodicity holds bit-for-bit
        theta = (k / (1 << 32)) * 1.7
        theta = math.floor(theta * (1 << 32)) / (1 << 32)
        assert encode_angle(theta + TWO_PI) == encode_angle(theta)


class TestFeatures:
    def test_dimensions(self):
        assert FEATURE_DIM == GATE_SLOTS + MAX_FEATURE_QUBITS + ANGLE_SLOTS == 66

    def test_layout(self):
        circ = Circuit(3)
        circ.add(GateKind.CRZ, (2, 0), (math.pi / 2,))
        feats = encode_features(build_dag(circ))
        assert feats.shape == (4, 66)
        # INPUT rows: one-hot slot 35 plus own qubit flag
        for q in range(3):
            row = feats[q]
            assert row[35] == 1.0
            assert row[GATE_SLOTS + q] == 1.0
            assert row.sum() == 2.0
        op = feats[3]
        assert op[ONE_HOT_INDEX[GateKind.CRZ]] == 1.0
        assert op[GATE_SLOTS + 2] == 1.0 and op[GATE_SLOTS + 0] == 1.0
        assert op[GATE_SLOTS + 1] == 0.0
        assert math.isclose(op[GATE_SLOTS + MAX_FEATURE_QUBITS], 0.25, rel_tol=1e-15)

    def test_three_angle_gate(self):
        circ = Circuit(1)
        circ.add(GateKind.U3, (0,), (math.pi, math.pi / 2, math.pi / 4))
        feats = encode_features(build_dag(circ))
        angles = feats[1, GATE_SLOTS + MAX_FEATURE_QUBITS :]
        assert np.allclose(angles, [0.5, 0.25, 0.125])


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        graph = featurize_circuit(_bell(), label=1)
        path = write_graph(graph, tmp_path / "bell.dag.json")
        back = load_graph(path)
        assert back.name == graph.name
        assert back.num_qubits == 2
        assert back.label == 1
        assert np.array_equal(back.features, graph.features)
        assert np.array_equal(back.edges, graph.edges)

    def test_unlabeled(self, tmp_path):
        graph = featurize_circuit(_bell())
        back = load_graph(write_graph(graph, tmp_path / "b.dag.json"))
        assert back.label is None

    def test_edge_range_validated(self, tmp_path):
        graph = featurize_circuit(_bell())
        path = write_graph(graph, tmp_path / "bad.dag.json")
        blob = json.loads(path.read_text())
        blob["edges"][0] = [0, 99]
        path.write_text(json.dumps(blob))
        with pytest.raises(FeaturizeError):
            load_graph(path)

    def test_half_width_rows_rejected(self, tmp_path):
        # 4 x 33 floats would reshape into 2 x 66
        path = tmp_path / "half.dag.json"
        path.write_text(json.dumps({
            "name": "half", "num_qubits": 2, "nodes": [[0.0] * 33 for _ in range(4)],
            "edges": [],
        }))
        with pytest.raises(FeaturizeError, match="66-wide"):
            load_graph(path)

    @pytest.mark.parametrize(
        "column, value",
        [
            (0, 1.0),  # a second gate slot set
            (ONE_HOT_INDEX[GateKind.INPUT], 0.5),  # gate slot neither 0 nor 1
            (GATE_SLOTS + 1, 0.5),  # qubit slot neither 0 nor 1
            (GATE_SLOTS + 2, 1.0),  # qubit 2 on a 2-qubit graph
            (GATE_SLOTS + MAX_FEATURE_QUBITS, 1.0),  # angle at the top of [0, 1)
            (GATE_SLOTS + MAX_FEATURE_QUBITS + 1, -0.25),  # negative angle
        ],
    )
    def test_feature_ranges_validated(self, tmp_path, column, value):
        graph = featurize_circuit(_bell())
        path = write_graph(graph, tmp_path / "bad.dag.json")
        blob = json.loads(path.read_text())
        blob["nodes"][1][column] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(FeaturizeError):
            load_graph(path)

    @pytest.mark.parametrize("num_qubits", [0, MAX_FEATURE_QUBITS + 1, float("inf")])
    def test_num_qubits_range_validated(self, tmp_path, num_qubits):
        path = write_graph(featurize_circuit(_bell()), tmp_path / "bad.dag.json")
        blob = json.loads(path.read_text())
        blob["num_qubits"] = num_qubits
        path.write_text(json.dumps(blob))
        with pytest.raises(FeaturizeError):
            load_graph(path)

    def test_graph_matches_dag(self):
        dag = build_dag(_bell())
        graph = graph_from_dag(dag)
        assert graph.num_nodes == len(dag.nodes)
        assert graph.edges.shape == (len(dag.edges), 2)
