import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtp.circuit import Circuit, GateInstance
from qtp.corpus import gen_corpus
from qtp.dag import (
    ANGLE_SLOTS,
    FEATURE_DIM,
    FeaturizeError,
    GATE_SLOTS,
    INPUT_SLOT,
    MAX_FEATURE_QUBITS,
    ONE_HOT_INDEX,
    encode_angle,
    featurize_circuit,
    load_graph,
    write_graph,
)
from qtp.gates import GateKind, VOCABULARY
from qtp.jsonio import dumps
from util import add


TWO_PI = 2.0 * math.pi


def _bell() -> Circuit:
    circ = Circuit(2, name="bell")
    add(circ, GateKind.H, (0,))
    add(circ, GateKind.CX, (0, 1))
    return circ


def _edges(graph) -> list[tuple[int, int]]:
    return [tuple(e) for e in graph.edges.tolist()]


class TestBuildDag:
    """The wire-following DAG that featurize_circuit encodes."""

    def test_input_nodes_first(self):
        feats = featurize_circuit(_bell()).features
        # one source row per qubit, then the ops in order
        assert feats.shape[0] == 4
        assert feats[:2, INPUT_SLOT].tolist() == [1.0, 1.0]
        assert feats[:2, GATE_SLOTS : GATE_SLOTS + 2].tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert feats[2, ONE_HOT_INDEX[GateKind.H]] == 1.0
        assert feats[3, ONE_HOT_INDEX[GateKind.CX]] == 1.0
        assert feats[2:, INPUT_SLOT].tolist() == [0.0, 0.0]

    def test_wire_edges(self):
        graph = featurize_circuit(_bell())
        # source0 -> h, h -> cx, source1 -> cx
        assert sorted(_edges(graph)) == [(0, 2), (1, 3), (2, 3)]

    def test_shared_predecessor_edge_deduped(self):
        circ = Circuit(2)
        add(circ, GateKind.CX, (0, 1))
        add(circ, GateKind.CX, (0, 1))
        # both wires of the second cx come from the first: one edge, not two
        assert _edges(featurize_circuit(circ)) == [(0, 2), (1, 2), (2, 3)]

    def test_too_many_qubits(self):
        with pytest.raises(FeaturizeError):
            featurize_circuit(Circuit(MAX_FEATURE_QUBITS + 1))

    def test_empty_circuit(self):
        graph = featurize_circuit(Circuit(3))
        assert graph.num_nodes == 3
        assert graph.edges.shape == (0, 2) and graph.edges.dtype == np.int64


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

    def test_array_matches_the_scalar_rule(self):
        # the rule as it stood for one float, against the array path; repr, so
        # that the sign of zero counts
        def scalar_rule(theta):
            frac = math.fmod(theta, TWO_PI)
            if frac < 0.0:
                frac += TWO_PI
            frac /= TWO_PI
            return frac if frac < 1.0 else 0.0

        thetas = [-1e-18, 3 * math.pi, -math.pi / 2, math.pi, -math.pi, 0.0, -0.0, TWO_PI,
                  -TWO_PI, 1e-300, -5e-324, 1e300, -1e300, 7.5, -7.5, 2.0 ** 60]
        got = encode_angle(thetas)
        assert isinstance(got, np.ndarray) and got.shape == (len(thetas),)
        assert [repr(float(x)) for x in got] == [repr(scalar_rule(t)) for t in thetas]
        assert [repr(encode_angle(t)) for t in thetas] == [repr(scalar_rule(t)) for t in thetas]
        assert encode_angle(np.array(thetas).reshape(4, 4)).shape == (4, 4)

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
        # 35 gate slots in vocabulary order, then the source slot
        assert [ONE_HOT_INDEX[k] for k in VOCABULARY] == list(range(35))
        assert INPUT_SLOT == 35 and GATE_SLOTS == 36

    def test_layout(self):
        circ = Circuit(3)
        add(circ, GateKind.CRZ, (2, 0), (math.pi / 2,))
        feats = featurize_circuit(circ).features
        assert feats.shape == (4, 66)
        # source rows: one-hot slot 35 plus own qubit flag
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
        add(circ, GateKind.U3, (0,), (math.pi, math.pi / 2, math.pi / 4))
        feats = featurize_circuit(circ).features
        angles = feats[1, GATE_SLOTS + MAX_FEATURE_QUBITS :]
        assert np.allclose(angles, [0.5, 0.25, 0.125])


def _rewrite(path, edit):
    blob = json.loads(path.read_text())
    edit(blob)
    path.write_text(json.dumps(blob))  # non-finite floats become Infinity / NaN


def _dumps_oracle(circ: Circuit, label) -> str:
    """The graph document as the generic writer renders it."""
    doc = {"name": circ.name, "num_qubits": circ.num_qubits}
    if label is not None:
        doc["label"] = label
    doc["ops"] = [[op.kind.value, list(op.qubits), list(op.params)] for op in circ.ops]
    return dumps(doc)


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        graph = featurize_circuit(_bell(), label=1)
        path = write_graph(_bell(), tmp_path / "bell.dag.json", label=1)
        back = load_graph(path)
        assert back.name == graph.name
        assert back.num_qubits == 2
        assert back.label == 1
        assert np.array_equal(back.features, graph.features)
        assert np.array_equal(back.edges, graph.edges)

    def test_unlabeled(self, tmp_path):
        back = load_graph(write_graph(_bell(), tmp_path / "b.dag.json"))
        assert back.label is None

    def test_file_holds_the_ops(self, tmp_path):
        circ = Circuit(3, name="angles")
        add(circ, GateKind.U3, (2,), (-math.pi, 1e-300, 0.1 + 0.2))
        add(circ, GateKind.CRZ, (1, 0), (-0.0,))
        add(circ, GateKind.CCX, (2, 0, 1))
        path = write_graph(circ, tmp_path / "angles")
        assert json.loads(path.read_text()) == {
            "name": "angles", "num_qubits": 3,
            "ops": [["u3", [2], [-math.pi, 1e-300, 0.1 + 0.2]], ["crz", [1, 0], [0]],
                    ["ccx", [2, 0, 1], []]],
        }
        back, fresh = load_graph(path), featurize_circuit(circ)
        assert np.array_equal(back.features, fresh.features)
        assert np.array_equal(back.edges, fresh.edges)
        assert back.edges.dtype == fresh.edges.dtype == np.int64

    def test_corpus_files_are_jsonio_dumps(self, tmp_path, corpus200):
        # write_graph renders the rows itself; its bytes stay those of the generic writer
        for circ in corpus200:
            if circ.num_qubits > MAX_FEATURE_QUBITS:
                continue
            for label in (None, 1):
                path = write_graph(circ, tmp_path / circ.name, label)
                assert path.read_text() == _dumps_oracle(circ, label), circ.name

    @pytest.mark.parametrize("params", [
        (-0.0, 5e-324, 1e300),  # signed zero, the least subnormal, a 17-digit exponent
        (3, -7, 0),  # ints, as a hand-built op may carry
        (True, False, 1.0),  # bools render as JSON true / false
        (-math.pi, 2.0**63, -1e-300),
    ])
    def test_hand_built_params_render_as_jsonio_does(self, tmp_path, params):
        ops = [GateInstance(GateKind.U3, (1,), params), GateInstance(GateKind.CX, (0, 1)),
               GateInstance(GateKind.RZ, (0,), params[:1])]
        circ = Circuit(2, ops, name="hand")
        for label in (None, 0):
            assert write_graph(circ, tmp_path / "hand", label).read_text() == (
                _dumps_oracle(circ, label))
        assert write_graph(Circuit(3, name="empty"), tmp_path / "empty").read_text() == (
            _dumps_oracle(Circuit(3, name="empty"), None))

    @pytest.mark.parametrize("param", [float("inf"), float("nan")])
    def test_non_finite_params_raise_as_jsonio_does(self, tmp_path, param):
        circ = Circuit(1, name="bad")
        circ.ops = [GateInstance(GateKind.RZ, (0,), (param,))]  # past check_gate
        with pytest.raises(ValueError) as want:
            _dumps_oracle(circ, None)
        with pytest.raises(ValueError) as got:
            write_graph(circ, tmp_path / "bad")
        assert str(got.value) == str(want.value)

    def test_non_scalar_param_refused(self, tmp_path):
        # the generic writer would spread it over lines into a file load_graph rejects
        circ = Circuit(1, name="bad")
        circ.ops = [GateInstance(GateKind.RZ, (0,), ([0.5],))]
        with pytest.raises(TypeError, match="cannot serialize list"):
            write_graph(circ, tmp_path / "bad")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ops", [["frob", [0], []]]),
            ("ops", [["input", [0], []]]),
            ("ops", [["cx", [0, 2], []]]),
            ("ops", [["cx", [1, 1], []]]),
            ("ops", [["cx", [1], []]]),
            ("ops", [["h", [0], [0.5]]]),
            ("ops", [["h", [0.0], []]]),
            ("ops", [["h", [True], []]]),
            ("ops", [["rz", [0], [float("inf")]]]),
            ("ops", None),
            # loaded as label 7 and name '12' before
            ("label", 7),
            ("label", True),
            ("name", 12),
            ("name", "bell\ud800"),
            ("ops", [["rz", [0], [True]]]),
        ],
        ids=["unknown-gate", "input", "qubit-out-of-range", "duplicate-qubits", "wrong-arity",
             "wrong-param-count", "float-qubit", "bool-qubit", "non-finite-param", "missing-ops",
             "label-out-of-range", "bool-label", "number-name", "surrogate-name", "bool-param"],
    )
    def test_malformed_ops_rejected(self, tmp_path, field, value):
        path = write_graph(_bell(), tmp_path / "bad.dag.json")
        _rewrite(path, lambda b: b.pop(field) if value is None else b.__setitem__(field, value))
        with pytest.raises(FeaturizeError, match="bad.dag.json"):
            load_graph(path)

    @pytest.mark.parametrize("num_qubits", [0, MAX_FEATURE_QUBITS + 1, float("inf"), True, 1.0])
    def test_num_qubits_range_validated(self, tmp_path, num_qubits):
        circ = Circuit(1)
        add(circ, GateKind.H, (0,))
        path = write_graph(circ, tmp_path / "bad.dag.json")
        _rewrite(path, lambda b: b.__setitem__("num_qubits", num_qubits))
        with pytest.raises(FeaturizeError):
            load_graph(path)

    def test_graph_matches_dag(self):
        graph = featurize_circuit(_bell(), label=0)
        assert graph.name == "bell" and graph.num_qubits == 2 and graph.label == 0
        assert graph.num_nodes == 2 + 2
        assert graph.edges.shape == (3, 2)

    def test_corpus_bytes_pinned(self):
        # features then edges of every circuit, in order: any change to the
        # layout, the angle encoding or the edge order moves this digest
        digest, nodes = hashlib.sha256(), 0
        for circ in gen_corpus(200, seed=11):
            graph = featurize_circuit(circ)
            digest.update(graph.features.tobytes())
            digest.update(graph.edges.tobytes())
            nodes += graph.num_nodes
        assert nodes == 27_112
        assert digest.hexdigest() == (
            "2eab345bbfaaac2ffe865394699a21050c487a12a9429382e91aec68050333ce"
        )
