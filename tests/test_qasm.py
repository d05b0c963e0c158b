import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from qtp.circuit import Circuit, GateInstance
from qtp.gates import GateKind, VOCABULARY
from qtp.qasm import QasmError, QasmWarning, fmt_angle, parse_qasm, serialize_qasm


BELL = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
"""


class TestParse:
    def test_bell(self):
        circ = parse_qasm(BELL)
        assert circ.num_qubits == 2
        assert [op.kind for op in circ.ops] == [GateKind.H, GateKind.CX]
        assert circ.ops[1].qubits == (0, 1)

    def test_header_optional(self):
        circ = parse_qasm("qreg q[1];\nx q[0];")
        assert circ.gate_count == 1

    def test_include_optional(self):
        circ = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nx q[0];")
        assert circ.gate_count == 1

    def test_wrong_version(self):
        with pytest.raises(QasmError) as exc:
            parse_qasm("OPENQASM 3.0;\nqreg q[1];")
        assert exc.value.line == 1

    def test_unknown_include(self):
        with pytest.raises(QasmError):
            parse_qasm('include "other.inc";\nqreg q[1];')

    def test_multiple_qregs_flatten_in_order(self):
        circ = parse_qasm("qreg a[2];\nqreg b[3];\nx a[1];\nx b[0];")
        assert circ.num_qubits == 5
        assert circ.ops[0].qubits == (1,)
        assert circ.ops[1].qubits == (2,)

    def test_qreg_after_gates_widens_the_circuit(self):
        circ = parse_qasm("qreg a[2];\nx a[1];\nqreg b[3];\ncx a[0],b[2];")
        assert circ.num_qubits == 5
        assert [op.qubits for op in circ.ops] == [(1,), (0, 4)]

    def test_each_gate_checked_once(self, monkeypatch):
        import qtp.circuit
        import qtp.qasm

        checked = []
        real = qtp.circuit.check_gate

        def counting(op, num_qubits):
            checked.append(op)
            real(op, num_qubits)

        # the parser may call the check itself or through Circuit; count both
        monkeypatch.setattr(qtp.circuit, "check_gate", counting)
        monkeypatch.setattr(qtp.qasm, "check_gate", counting, raising=False)
        circ = parse_qasm(BELL)
        assert checked == circ.ops

    def test_creg_accepted_and_ignored(self):
        circ = parse_qasm("qreg q[1];\ncreg c[1];\nx q[0];")
        assert circ.num_qubits == 1 and circ.gate_count == 1

    def test_angle_expressions(self):
        circ = parse_qasm(
            "qreg q[1];\n"
            "rz(pi) q[0];\n"
            "rz(-pi/2) q[0];\n"
            "rz(3*pi/4) q[0];\n"
            "rz((1+2)*0.5) q[0];\n"
            "rz(2e-3) q[0];\n"
        )
        angles = [op.params[0] for op in circ.ops]
        assert angles == [math.pi, -math.pi / 2, 3 * math.pi / 4, 1.5, 2e-3]

    def test_division_by_zero(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[1];\nrz(1/0) q[0];")

    @pytest.mark.parametrize("number", ["1.2.3", "2e"])
    def test_malformed_number(self, number):
        with pytest.raises(QasmError, match="malformed number") as exc:
            parse_qasm(f"qreg q[1];\nrz({number}) q[0];")
        assert exc.value.line == 2

    @pytest.mark.parametrize("angle", ["1e999", "-1e999", "1e308*10", "1e999-1e999"])
    def test_non_finite_parameter(self, angle):
        with pytest.raises(QasmError, match="non-finite parameter") as exc:
            parse_qasm(f"qreg q[1];\nrx({angle}) q[0];")
        assert exc.value.line == 2 and exc.value.col == 1

    def test_barrier_dropped_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            circ = parse_qasm("qreg q[2];\nh q[0];\nbarrier q;\nbarrier q[0],q[1];\nh q[1];")
        assert circ.gate_count == 2

    def test_measure_dropped_with_warning(self):
        with pytest.warns(QasmWarning):
            circ = parse_qasm("qreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];")
        assert circ.gate_count == 1

    def test_unknown_gate(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[1];\nmystery q[0];")

    def test_bare_register_operand_rejected(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[2];\nh q;")

    def test_out_of_range_index(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[2];\nx q[2];")

    @pytest.mark.parametrize(
        "statement, message",
        [("cx q[0];", "cx expects 2 qubit"), ("cx q[0],q[0];", "duplicate qubits")],
        ids=["arity", "duplicate"],
    )
    def test_malformed_gate_keeps_its_line(self, statement, message):
        with pytest.raises(QasmError, match=message) as exc:
            parse_qasm(f"qreg q[2];\n{statement}\nh q[1];")
        assert exc.value.line == 2 and exc.value.col == 1

    def test_error_carries_position(self):
        with pytest.raises(QasmError) as exc:
            parse_qasm("qreg q[1];\nx q[0]\nx q[0];")
        assert exc.value.line >= 2
        assert exc.value.col >= 1
        assert "line" in str(exc.value)

    def test_comments_ignored(self):
        circ = parse_qasm("// top\nqreg q[1]; // decl\nx q[0]; // op\n")
        assert circ.gate_count == 1

    def test_param_count_enforced(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[1];\nrz q[0];")
        with pytest.raises(QasmError):
            parse_qasm("qreg q[1];\nh(0.5) q[0];")


class TestSerialize:
    def test_layout(self):
        circ = Circuit(2, name="bell")
        circ.add(GateKind.H, (0,))
        circ.add(GateKind.CX, (0, 1))
        text = serialize_qasm(circ)
        assert text.splitlines() == [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            "h q[0];",
            "cx q[0],q[1];",
        ]

    def test_angle_precision(self):
        assert fmt_angle(math.pi) == "3.1415926535897931"
        assert fmt_angle(0.5) == "0.5"
        # 17 significant digits survive a float round-trip exactly
        assert float(fmt_angle(0.1 + 0.2)) == 0.1 + 0.2


def _random_circuit(draw):
    nq = draw(st.integers(min_value=1, max_value=5))
    circ = Circuit(nq, name="rand")
    n_ops = draw(st.integers(min_value=0, max_value=12))
    usable = [k for k in VOCABULARY if k.arity <= nq]
    for _ in range(n_ops):
        kind = draw(st.sampled_from(usable))
        qubits = tuple(
            draw(
                st.lists(
                    st.integers(0, nq - 1),
                    min_size=kind.arity,
                    max_size=kind.arity,
                    unique=True,
                )
            )
        )
        params = tuple(
            draw(st.floats(-10, 10, allow_nan=False, allow_infinity=False))
            for _ in range(kind.param_count)
        )
        circ.append(GateInstance(kind, qubits, params))
    return circ


@st.composite
def circuits(draw):
    return _random_circuit(draw)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(circuits())
    def test_parse_serialize_identity(self, circ):
        text = serialize_qasm(circ)
        back = parse_qasm(text, name=circ.name)
        assert back.num_qubits == circ.num_qubits
        assert back.ops == circ.ops
        # serialization is a fixed point
        assert serialize_qasm(back) == text
