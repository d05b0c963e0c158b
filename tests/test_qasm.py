import math
import re
import warnings

import pytest
from hypothesis import event, given, settings, strategies as st

import qasm_reference as reference
import qtp.qasm
from qtp.circuit import Circuit, GateInstance
from qtp.corpus import gen_corpus
from qtp.gates import GateKind, VOCABULARY
from qtp.jsonio import fmt_float
from qtp.qasm import QasmError, QasmWarning, parse_qasm, serialize_qasm
from util import add


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

        # the token parser may call the check itself or through Circuit; count
        # both.  A comment line keeps the scanner from taking the text: the
        # scanner makes check_gate's checks inline and calls it never.
        monkeypatch.setattr(qtp.circuit, "check_gate", counting)
        monkeypatch.setattr(qtp.qasm, "check_gate", counting, raising=False)
        assert qtp.qasm._scan(BELL + "// token path\n") is None
        circ = parse_qasm(BELL + "// token path\n")
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

    def test_measure_warning_names_its_line_and_the_caller(self):
        with pytest.warns(QasmWarning) as record:
            parse_qasm("qreg q[1];\ncreg c[1];\nh q[0];\nmeasure q[0] -> c[0];")
        (w,) = record
        assert "line 4" in str(w.message)
        assert w.filename == __file__

    @pytest.mark.parametrize(
        "stray, message, col",
        [("$", "unexpected character '$'", 9), ('"open', "unterminated string", 9)],
        ids=["character", "string"],
    )
    def test_stray_text_reported_ahead_of_parse_errors(self, stray, message, col):
        with pytest.raises(QasmError, match=re.escape(message)) as exc:
            parse_qasm(f"qreg q[1];\nmystery q[0];\nx q[0]; {stray}\nx q[0];")
        assert (exc.value.line, exc.value.col) == (3, col)

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

    @pytest.mark.parametrize("angle", ["(" * 250 + "1" + ")" * 250, "-" * 1000 + "1",
                                       "0.5, " + "+" * 1000 + "1, 0"])
    def test_angle_nested_past_the_recursion_limit(self, angle):
        # a parse error at the gate, not the interpreter's RecursionError
        with pytest.raises(QasmError, match="nested too deeply") as exc:
            parse_qasm(f"qreg q[1];\nh q[0];\n  u3({angle}) q[0];")
        assert (exc.value.line, exc.value.col) == (3, 3)

    def test_nested_angle_within_the_limit(self):
        circ = parse_qasm("qreg q[1];\nrz(" + "(" * 50 + "-" * 50 + "1" + ")" * 50 + ") q[0];")
        assert circ.ops[0].params == (1.0,)

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
        add(circ, GateKind.H, (0,))
        add(circ, GateKind.CX, (0, 1))
        text = serialize_qasm(circ)
        assert text.splitlines() == [
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            "h q[0];",
            "cx q[0],q[1];",
        ]

    def test_angle_precision(self):
        assert fmt_float(math.pi) == "3.1415926535897931"
        assert fmt_float(0.5) == "0.5"
        # 17 significant digits survive a float round-trip exactly
        assert float(fmt_float(0.1 + 0.2)) == 0.1 + 0.2


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


# Differential check against the per-character reader in tests/qasm_reference.py.

_CORPUS = [serialize_qasm(c) for c in gen_corpus(4, seed=5)]
_NOISE = st.sampled_from([
    '"', "//", "/", "\n", "\r", "\t", " ", ";", "(", ")", "[", "]", ",", "->", "-", "+",
    "*", ".", "e", "E", "0", "9", "_", "pi", "q", "é", "½", "٣", "ℵ", "\u00a0", "\ufffd",
    "\x0c", "$",
])
_ANGLE = st.recursive(
    st.sampled_from(["pi", "0", "1.5", "2e-3", ".5", "3.", "1e999", "1.2.3", "2e", "٣", "tau"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", " - ", "*", "/"]), inner).map("".join),
        inner.map(lambda a: f"-{a}"),
        inner.map(lambda a: f"( {a} )"),
        st.tuples(inner, inner).map(", ".join),
    ),
    max_leaves=6,
)
_STATEMENT = st.one_of(
    st.sampled_from([
        "OPENQASM 2.0;", "OPENQASM 3.0;", 'include "qelib1.inc";', 'include "other.inc";',
        "qreg q[3];", "qreg r[2];", "qreg q[0];", "creg c[2];", "barrier q;",
        "barrier q[0],r[1];", "measure q[0] -> c[1];", "measure q -> c;", "measure r[1] -> q[0];",
        "measure q[7] -> c[0];", "measure q -> c[1.5e3];",
        "h q[0];", "cx q[0],q[2];", "cx q[1],q[1];", "ccx q[0],q[1],r[0];", "x q[3];", "h q;",
        "u3 q[0];", '"a string";', "// a comment", "mystery q[0];", "x q[0]", "",
    ]),
    st.builds(lambda g, a, q: f"{g}({a}) q[{q}];",
              st.sampled_from(["rz", "rx", "u3", "cp", "h"]), _ANGLE, st.integers(0, 3)),
)
_SEPARATOR = st.sampled_from(["\n", " ", "\r\n", "\t", "", " // note\n", "\n\n", "//end"])


@st.composite
def qasm_texts(draw):
    """Corpus QASM or statements from the subset, then up to four edits with noise."""
    if draw(st.booleans()):
        text = draw(st.sampled_from(_CORPUS))
        text = text[: draw(st.integers(0, len(text)))]
    else:
        parts = draw(st.lists(st.tuples(_STATEMENT, _SEPARATOR), max_size=12))
        text = "".join(a + b for a, b in parts)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(_NOISE) + text[i + draw(st.integers(0, 2)):]
    return text


def _outcome(parse, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            circ = parse(text)
            result = ("circuit", circ.num_qubits, circ.ops)
        except QasmError as exc:
            result = ("error", str(exc), exc.line, exc.col)
    return result, [str(w.message) for w in caught]


def _without_positions(outcome):
    result, warned = outcome
    if result[0] == "error":
        result = ("error", result[1].split(": ", 1)[1])
    return result, len(warned)


def _positions_agree(text):
    """False where the reference reported positions wrongly (see TestDeliberateDifferences)."""
    pieces = re.findall(r'//[^\n]*|"[^"]*"', text)  # comments and closed strings, in order
    multi_line_string = any(p[0] == '"' and "\n" in p for p in pieces)
    trailing_comment = bool(pieces) and pieces[-1][:2] == "//" and text.endswith(pieces[-1])
    return not (multi_line_string or trailing_comment)


_INDEX = st.one_of(st.integers(0, 12).map(str),
                   st.sampled_from(["1.5e3", "1.", ".5", "2e", "00", "1.2.3", "0x1"]))
_MEASURES = st.lists(st.one_of(
    st.builds("measure q[{}] -> c[{}];".format, _INDEX, _INDEX),
    st.builds("measure q -> c[{}];".format, _INDEX),
    st.sampled_from(["x q[0];", "cx q[0],q[2];", "measure q -> c;", "x q[3];", "x q[1.5];"]),
), max_size=6).map(lambda statements: "qreg q[3];\ncreg c[2];\n" + "\n".join(statements))
_INDEX_ERROR = re.compile(r"line (\d+), column (\d+): index \S+ out of range for ")
_NUMBER = re.compile(r"\.?\d[\d.]*(?:[eE][+-]?[\d.]*)?")


def _measured_indices_zeroed(text, old):
    """text with each index parse_qasm rejects but the reference never read written as zeros.

    parse_qasm checks a measured index like a gate operand; the reference
    skipped it (see TestDeliberateDifferences).  An index counts as measured
    only if zeroing it leaves the reference's outcome `old` as it was, so a
    rejected gate operand is never zeroed.  Zeros of the token's length keep
    every position.
    """
    while True:
        result, _ = _outcome(parse_qasm, text)
        m = result[0] == "error" and _INDEX_ERROR.match(result[1])
        if not m:
            return text
        line, col = int(m[1]), int(m[2])
        at = sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + col - 1
        end = _NUMBER.match(text, at).end()
        zeroed = text[:at] + "0" * (end - at) + text[end:]
        if _outcome(reference.parse_qasm, zeroed) != old:
            return text
        text = zeroed


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(qasm_texts())
    def test_same_circuit_or_same_error(self, text):
        old = _outcome(reference.parse_qasm, text)
        new = _outcome(parse_qasm, _measured_indices_zeroed(text, old))
        if _positions_agree(text):
            assert new == old
        else:
            assert _without_positions(new) == _without_positions(old)

    @settings(max_examples=200, deadline=None)
    @given(_MEASURES)
    def test_measures_the_same_but_for_the_index_check(self, text):
        old = _outcome(reference.parse_qasm, text)
        assert _outcome(parse_qasm, _measured_indices_zeroed(text, old)) == old

    def test_corpus_parses_the_same(self):
        for text in _CORPUS:
            assert _outcome(parse_qasm, text) == _outcome(reference.parse_qasm, text)


class TestDeliberateDifferences:
    """Inputs where parse_qasm and the reference part on purpose; each pins both sides."""

    @staticmethod
    def _error(parse, text):
        with pytest.raises(QasmError) as exc:
            parse(text)
        return str(exc.value).split(": ", 1)[1], exc.value.line, exc.value.col

    def test_string_spanning_lines_counts_its_newlines(self):
        # the reference kept the line of the string's start and counted its newlines as columns
        text = 'qreg q[1];\n"two\nlines" $'
        assert self._error(parse_qasm, text) == ("unexpected character '$'", 3, 8)
        assert self._error(reference.parse_qasm, text) == ("unexpected character '$'", 2, 13)

    def test_end_of_input_after_a_trailing_comment(self):
        # the end of input is where the text ends, not where its last comment starts
        text = "qreg q[1];\nx q[0] // no semicolon"
        assert self._error(parse_qasm, text) == ("expected ';', got 'eof'", 2, 23)
        assert self._error(reference.parse_qasm, text) == ("expected ';', got 'eof'", 2, 8)

    @pytest.mark.parametrize("digit", ["²", "①", "₃"])
    def test_digits_that_are_not_decimal_are_stray_characters(self, digit):
        # str.isdigit took them for number characters, the regex's \d does not
        angle = f"qreg q[1];\nrz({digit}) q[0];"
        assert self._error(parse_qasm, angle) == (f"unexpected character {digit!r}", 2, 4)
        assert self._error(reference.parse_qasm, angle) == (f"malformed number {digit!r}", 2, 4)
        glued = f"qreg q[3];\nx q[1{digit}];"
        assert self._error(parse_qasm, glued) == (f"unexpected character {digit!r}", 2, 6)
        assert self._error(reference.parse_qasm, glued)[0] == f"index 1{digit} out of range for q[3]"
        # the reference never converted a measured index, so it accepted this one
        measured = f"qreg q[1];\ncreg c[1];\nmeasure q[{digit}] -> c[0];"
        assert self._error(parse_qasm, measured) == (f"unexpected character {digit!r}", 3, 11)
        with pytest.warns(QasmWarning):
            assert reference.parse_qasm(measured).ops == []

    @pytest.mark.parametrize("measure, error", [
        ("measure q[99] -> c[7];", ("index 99 out of range for q[1]", 3, 11)),
        ("measure q[0] -> c[7];", ("index 7 out of range for c[1]", 3, 19)),
        ("measure q -> c[1.5e3];", ("index 1.5e3 out of range for c[1]", 3, 16)),
        ("measure q[1.] -> c;", ("index 1. out of range for q[1]", 3, 11)),
    ])
    def test_measured_index_checked(self, measure, error):
        # the reference read a measured index as a number and dropped the measure
        text = f"qreg q[1];\ncreg c[1];\n{measure}\nx q[0];"
        assert self._error(parse_qasm, text) == error
        with pytest.warns(QasmWarning, match="line 3: measure dropped"):
            assert reference.parse_qasm(text).ops == [GateInstance(GateKind.X, (0,))]


# Text in serialize_qasm's form is read by the statement scanner; the token
# parser, qtp.qasm._Parser, reads everything else.  Parameters compare by repr,
# so that the sign of zero counts.

def _exact(parse, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            circ = parse(text)
            result = ("circuit", circ.num_qubits,
                      [(op.kind, op.qubits, tuple(map(repr, op.params))) for op in circ.ops])
        except QasmError as exc:
            result = ("error", str(exc), exc.line, exc.col)
    return result, [str(w.message) for w in caught]


def _token_parser(text):
    return qtp.qasm._Parser(text).run()


_SERIALIZED = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\nrz(0.5) q[1];\ncx q[0],q[2];\n'


_FINITE = st.sampled_from([
    "0.5", "0", "-0", "-0.0", "1.", "3.141592653589793", "-2.5e17", "1e-300",
    "5e-324", "1e308", "12345678901234567890",
])
_FAULTS = ("none", "unknown name", "arity", "duplicate qubit", "qubit out of range",
           "parameter count", "overflow", "empty register")


@st.composite
def _single_statements(draw):
    """(fault, register size, line): one statement in serialize_qasm's form,
    valid but for at most one fault drawn from _FAULTS."""
    kind = draw(st.sampled_from(VOCABULARY))
    fault = draw(st.sampled_from(_FAULTS))
    size = 5
    name = kind.value
    qubits = draw(st.permutations(range(size)))[:kind.arity]
    args = draw(st.lists(_FINITE, min_size=kind.param_count, max_size=kind.param_count))
    if fault == "unknown name":
        name = draw(st.sampled_from(["mystery", "cnot", "Rz", "u0"]))
    elif fault == "arity":
        arity = draw(st.sampled_from([a for a in (1, 2, 3, 4) if a != kind.arity]))
        qubits = draw(st.permutations(range(size)))[:arity]
    elif fault == "duplicate qubit":  # a one-qubit gate gets its qubit twice
        if len(qubits) == 1:
            qubits.append(qubits[0])
        else:
            i, j = draw(st.permutations(range(len(qubits))))[:2]
            qubits[i] = qubits[j]
    elif fault == "qubit out of range":
        qubits[draw(st.integers(0, len(qubits) - 1))] = draw(st.integers(size, size + 3))
    elif fault == "parameter count":
        count = draw(st.sampled_from([c for c in range(5) if c != kind.param_count]))
        args = draw(st.lists(_FINITE, min_size=count, max_size=count))
    elif fault == "overflow":
        big = draw(st.sampled_from(["1e999", "-1e999", "2e308", "-1e309"]))
        if args:
            args[draw(st.integers(0, len(args) - 1))] = big
        else:
            args = [big]
    elif fault == "empty register":
        size = 0
    params = f"({','.join(args)})" if args else ""
    return fault, size, f"{name}{params} {','.join(f'q[{q}]' for q in qubits)};\n"


class TestStatementScanner:
    def test_corpus_read_by_the_scanner_as_by_the_token_parser(self):
        for circ in gen_corpus(200, seed=11):
            text = serialize_qasm(circ)
            assert qtp.qasm._scan(text) is not None, circ.name
            assert _exact(parse_qasm, text) == _exact(_token_parser, text), circ.name

    def test_serialized_text_never_reaches_the_token_parser(self, monkeypatch):
        def refuse(text):
            raise AssertionError("token parser called")

        monkeypatch.setattr(qtp.qasm, "_Parser", refuse)
        circ = Circuit(3)
        add(circ, GateKind.CCX, (2, 0, 1))
        add(circ, GateKind.U3, (1,), (-0.0, 1e-300, -2.5e17))
        add(circ, GateKind.H, (0,))
        back = parse_qasm(serialize_qasm(circ), name="three")
        assert (back.name, back.num_qubits, back.ops) == ("three", 3, circ.ops)
        assert math.copysign(1.0, back.ops[1].params[0]) == -1.0

    @pytest.mark.parametrize("old, new", [
        ("rz(0.5)", "rz(pi/2)"),
        ("rz(0.5)", "rz(1e999)"),
        ("rz(0.5)", "rz(+1)"),
        ("rz(0.5)", "rz(-0)"),
        ("rz(0.5)", "rz(1_0)"),
        ("\n", "\r\n"),
        ("h q[0];", "h  q[0];"),
        ("h q[0];\n", "h q[0]; // note\n"),
        ("q[2];\n", "q[2];"),
        ("h q[0];", "h q[3];"),
        ("h q[0];", "h q[٣];"),
        ("cx q[0],q[2];", "cx q[1],q[1];"),
        ("h q[0];", "h(0.5) q[0];"),
        ("h q[0];", "mystery q[0];"),
        ("cx q[0],q[2];", "cx q[0],r[0];"),
        ("h q[0];", "qreg r[2];\ncx q[0],r[1];"),
        ("h q[0];", "creg c[3];\nmeasure q[0] -> c[0];"),
    ], ids=["pi/2", "1e999", "+1", "-0", "1_0", "crlf", "double-space", "comment",
            "no-final-newline", "q[3]", "arabic-indic-digit", "duplicate-qubits",
            "extra-parameter", "unknown-gate", "undeclared-register", "second-register",
            "measure"])
    def test_one_statement_edits_read_as_the_token_parser_reads_them(self, old, new):
        text = _SERIALIZED.replace(old, new)
        assert text != _SERIALIZED
        assert _exact(parse_qasm, text) == _exact(_token_parser, text)

    @settings(max_examples=400, deadline=None)
    @given(_single_statements())
    def test_single_statements_read_as_the_token_parser_reads_them(self, drawn):
        fault, size, line = drawn
        text = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{size}];\n{line}'
        want = _exact(_token_parser, text)
        assert _exact(parse_qasm, text) == want
        # the scanner takes every valid statement and refuses every other
        assert (want[0][0] == "circuit") == (fault == "none")
        assert (qtp.qasm._scan(text) is not None) == (fault == "none")
        event(fault)
