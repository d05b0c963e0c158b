import copy
import dataclasses
import math
import pickle

import pytest

from qtp.circuit import Circuit, CircuitError, GateInstance, circuit_depth
from qtp.gates import GateKind, VOCABULARY, gate_by_name
from util import add


class TestVocabulary:
    def test_size_and_input_slot(self):
        # 35 gates and nothing else: a DAG source node is a feature slot
        # (qtp.dag.INPUT_SLOT), not a gate kind
        assert len(VOCABULARY) == 35
        assert VOCABULARY == tuple(GateKind)
        with pytest.raises(KeyError):
            gate_by_name("input")

    def test_order_is_frozen(self):
        names = [k.value for k in VOCABULARY]
        assert names == [
            "id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg",
            "rx", "ry", "rz", "p", "u1", "u2", "u3", "u",
            "cx", "cy", "cz", "ch", "cp", "crx", "cry", "crz", "cu",
            "swap", "ccx", "cswap", "rxx", "ryy", "rzz", "ecr",
        ]

    def test_arity_and_params(self):
        assert GateKind.H.arity == 1 and GateKind.H.param_count == 0
        assert GateKind.U3.arity == 1 and GateKind.U3.param_count == 3
        assert GateKind.U2.param_count == 2
        assert GateKind.CX.arity == 2 and GateKind.CX.param_count == 0
        # controlled-U carries the full 3-angle form
        assert GateKind.CU.arity == 2 and GateKind.CU.param_count == 3
        assert GateKind.CCX.arity == 3
        assert GateKind.CSWAP.arity == 3
        assert GateKind.RXX.arity == 2 and GateKind.RXX.param_count == 1

    def test_gate_by_name(self):
        assert gate_by_name("cx") is GateKind.CX
        with pytest.raises(KeyError):
            gate_by_name("nope")


def _assert_rejected(num_qubits, op):
    """A malformed op is refused both by the constructor and by append."""
    with pytest.raises(CircuitError):
        Circuit(num_qubits, [op])
    circ = Circuit(num_qubits)
    with pytest.raises(CircuitError):
        circ.append(op)
    assert circ.ops == []


class TestGateInstance:
    def test_valid(self):
        op = GateInstance(GateKind.RZ, (3,), (0.5,))
        assert op.qubits == (3,) and op.params == (0.5,)

    def test_wrong_arity(self):
        _assert_rejected(2, GateInstance(GateKind.CX, (0,)))

    def test_duplicate_qubits(self):
        _assert_rejected(2, GateInstance(GateKind.CX, (1, 1)))

    def test_negative_qubit(self):
        _assert_rejected(2, GateInstance(GateKind.X, (-1,)))

    def test_wrong_param_count(self):
        _assert_rejected(1, GateInstance(GateKind.RX, (0,)))
        _assert_rejected(1, GateInstance(GateKind.H, (0,), (1.0,)))

    def test_frozen(self):
        op = GateInstance(GateKind.RZ, (0,), (0.5,))
        for name, value in (("kind", GateKind.X), ("qubits", (1,)), ("params", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(op, name, value)
        assert op == GateInstance(GateKind.RZ, (0,), (0.5,))

    def test_dataclass_behaviour_kept(self):
        op = GateInstance(GateKind.CX, (0, 1))
        assert op.params == ()
        assert [f.name for f in dataclasses.fields(GateInstance)] == ["kind", "qubits", "params"]
        assert GateInstance(kind=GateKind.CX, qubits=(0, 1), params=()) == op
        assert op != GateInstance(GateKind.CX, (1, 0))
        assert op != (GateKind.CX, (0, 1), ())
        assert hash(op) == hash((GateKind.CX, (0, 1), ()))
        assert repr(op) == "GateInstance(kind=GateKind.CX, qubits=(0, 1), params=())"
        u3 = GateInstance(GateKind.U3, (2,), (0.1, -0.0, 3.0))
        assert dataclasses.replace(u3, qubits=(0,)) == GateInstance(GateKind.U3, (0,), u3.params)
        for back in (copy.copy(u3), copy.deepcopy(u3), pickle.loads(pickle.dumps(u3))):
            assert back == u3 and repr(back) == repr(u3)


class TestCircuit:
    def test_append_and_count(self):
        circ = Circuit(2, name="bell")
        add(circ, GateKind.H, (0,))
        add(circ, GateKind.CX, (0, 1))
        assert circ.gate_count == 2
        assert len(circ.ops) == 2

    def test_qubit_out_of_range(self):
        circ = Circuit(2)
        with pytest.raises(CircuitError):
            add(circ, GateKind.X, (2,))

    def test_needs_a_qubit(self):
        with pytest.raises(CircuitError):
            Circuit(0)


class TestDepth:
    def test_empty(self):
        assert circuit_depth(Circuit(3)) == 0

    def test_serial_chain(self):
        circ = Circuit(1)
        for _ in range(5):
            add(circ, GateKind.X, (0,))
        assert circuit_depth(circ) == 5

    def test_parallel_layers(self):
        circ = Circuit(4)
        for q in range(4):
            add(circ, GateKind.H, (q,))
        assert circuit_depth(circ) == 1

    def test_entangling_chain(self):
        # h(0); cx(0,1); cx(1,2): each op waits for the previous wire
        circ = Circuit(3)
        add(circ, GateKind.H, (0,))
        add(circ, GateKind.CX, (0, 1))
        add(circ, GateKind.CX, (1, 2))
        assert circuit_depth(circ) == 3

    def test_disjoint_wires_overlap(self):
        circ = Circuit(4)
        add(circ, GateKind.CX, (0, 1))
        add(circ, GateKind.CX, (2, 3))
        add(circ, GateKind.CX, (1, 2))
        assert circuit_depth(circ) == 2

    def test_three_qubit_gate_syncs_wires(self):
        circ = Circuit(3)
        add(circ, GateKind.X, (0,))
        add(circ, GateKind.X, (0,))
        add(circ, GateKind.CCX, (0, 1, 2))
        add(circ, GateKind.X, (2,))
        assert circuit_depth(circ) == 4

    def test_accepts_op_list(self):
        ops = [GateInstance(GateKind.H, (0,)), GateInstance(GateKind.CX, (0, 1))]
        assert circuit_depth(ops) == 2

    def test_angles_do_not_matter(self):
        circ = Circuit(1)
        add(circ, GateKind.RZ, (0,), (math.pi,))
        add(circ, GateKind.RX, (0,), (0.0,))
        assert circuit_depth(circ) == 2
