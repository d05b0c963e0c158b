"""OpenQASM 2.0 subset reader/writer.

Accepts the slice of OpenQASM 2.0 that circuit corpora actually use: an
optional version header, qelib1 include, qreg/creg declarations, vocabulary
gates with constant angle expressions, barrier and measure.  Measures are
dropped with a warning (this IR has no classical side), barriers are dropped
silently.  Anything else is a syntax error with a line/column position.

Text in exactly the form `serialize_qasm` writes is read by a statement
scanner, one regex match per line.  Everything else, and anything the scanner
does not take, goes to the token parser, which alone reads expressions,
comments and other layouts and reports every error with its position.
"""

from __future__ import annotations

import math
import re
import warnings

from .circuit import Circuit, CircuitError, GateInstance
from .gates import VOCABULARY, gate_by_name

__all__ = ["QasmError", "QasmWarning", "parse_qasm", "serialize_qasm", "fmt_angle"]


class QasmError(ValueError):
    """Parse failure, carrying the 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class QasmWarning(UserWarning):
    """Non-fatal parse note, e.g. a dropped measure statement."""


_CONSTANTS = {"pi": math.pi}

# The whole file is scanned once: each match skips whitespace and comments and
# captures one token, so the tokens are plain strings and the loop runs in C.
# A token's text says its kind: a symbol is its own kind, "" is the end of
# input, and otherwise the first character tells a number, a string literal
# (kept with its quotes) and a name apart.  Any other character is captured
# alone, and so is an unterminated string with the rest of the file.
_TOKEN = re.compile(
    r'(?:[ \t\r\n]|//[^\n]*)*(\.?\d[\d.]*(?:[eE][+-]?[\d.]*)?|\w+|"[^"]*"?|->|.|\Z)',
    re.S,
)
_SYMBOLS = frozenset(("->", "(", ")", "[", "]", ",", ";", "+", "-", "*", "/"))


def _kind(tok: str) -> str:
    """Kind of a token: name, number, string, the symbol itself, eof, or bad (stray text)."""
    if tok in _SYMBOLS:
        return tok
    if not tok:
        return "eof"
    c = tok[0]
    if c == '"':
        return "string" if len(tok) > 1 and tok[-1] == '"' else "bad"
    if c.isdecimal() or (c == "." and tok != "."):
        return "number"
    if c.isalpha() or c == "_":
        return "name"
    return "bad"


def _text(tok: str) -> str:
    """A token as messages show it: a string literal without its quotes."""
    return tok[1:-1] if tok[:1] == '"' else tok


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = toks = _TOKEN.findall(text)
        self.kinds = kinds = {t: _kind(t) for t in set(toks)}
        self.starts: list[int] | None = None  # token offsets, found again on first need
        self.pos = 0
        self.registers: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, int] = {}
        # made at the first qreg and widened by later ones, so that each gate
        # is checked once, by Circuit.append
        self.circuit: Circuit | None = None
        # a stray character anywhere is reported ahead of any parse error
        bad = [t for t, k in kinds.items() if k == "bad"]
        if bad:
            at = min(map(toks.index, bad))
            t = toks[at]
            raise self.error("unterminated string" if t[0] == '"'
                             else f"unexpected character {t[0]!r}", at)

    def position(self, at: int) -> tuple[int, int]:
        """1-based line and column of token number `at`."""
        if self.starts is None:
            self.starts = [m.start(1) for m in _TOKEN.finditer(self.text)]
        off = self.starts[at]
        return self.text.count("\n", 0, off) + 1, off - self.text.rfind("\n", 0, off)

    def error(self, message: str, at: int) -> QasmError:
        return QasmError(message, *self.position(at))

    def expect(self, kind: str) -> str:
        t = self.toks[self.pos]
        if self.kinds[t] != kind:
            raise self.error(f"expected {kind!r}, got {_text(t) or self.kinds[t]!r}", self.pos)
        self.pos += 1
        return t

    # --- statements -----------------------------------------------------

    def run(self) -> Circuit:
        self.maybe_header()
        while self.toks[self.pos]:  # "" is the end of input
            self.statement()
        if self.circuit is None:
            raise self.error("no qreg declared", self.pos)
        return self.circuit

    def maybe_header(self) -> None:
        if self.toks[0] == "OPENQASM":
            self.pos = 1
            v = self.expect("number")
            if v != "2.0":
                raise self.error(f"unsupported OpenQASM version {v}", 1)
            self.expect(";")

    def statement(self) -> None:
        at = self.pos
        t = self.toks[at]
        self.pos += 1
        if self.kinds[t] != "name":
            raise self.error(f"expected statement, got {_text(t)!r}", at)
        if t == "include":
            s = _text(self.expect("string"))
            if s != "qelib1.inc":
                raise self.error(f"unsupported include {s!r}", at + 1)
            self.expect(";")
        elif t == "qreg":
            name, size = self.declaration(at)
            if self.circuit is None:
                self.registers[name] = (0, size)
                self.circuit = Circuit(size)
            else:
                self.registers[name] = (self.circuit.num_qubits, size)
                self.circuit.num_qubits += size
        elif t == "creg":
            name, size = self.declaration(at)
            self.cregs[name] = size
        elif t == "barrier":
            self.operand_list(allow_bare=True)
            self.expect(";")
        elif t == "measure":
            self.measure_side(self.registers)
            self.expect("->")
            self.measure_side(self.cregs)
            self.expect(";")
            warnings.warn(
                f"line {self.position(at)[0]}: measure dropped, circuits are unitary-only",
                QasmWarning,
                stacklevel=4,
            )
        else:
            self.gate_statement(at)

    def declaration(self, at: int) -> tuple[str, int]:
        name = self.expect("name")
        self.expect("[")
        size_tok = self.expect("number")
        try:
            size = int(size_tok)
        except ValueError:
            size = -1
        if size < 1:
            raise self.error(f"register size must be a positive integer, got {size_tok}",
                             self.pos - 1)
        self.expect("]")
        self.expect(";")
        if name in self.registers or name in self.cregs:
            raise self.error(f"register {name!r} redeclared", at)
        return name, size

    def gate_statement(self, at: int) -> None:
        try:
            kind = gate_by_name(self.toks[at])
        except KeyError:
            raise self.error(f"unknown gate {self.toks[at]!r}", at) from None
        params: tuple[float, ...] = ()
        if self.toks[self.pos] == "(":
            self.pos += 1
            params = self.param_list()
        qubits = self.operand_list(allow_bare=False)
        self.expect(";")
        try:
            self.circuit.append(GateInstance(kind, tuple(qubits), params))
        except CircuitError as exc:
            raise self.error(str(exc), at) from None

    def param_list(self) -> tuple[float, ...]:
        params = [self.expression()]
        while self.toks[self.pos] == ",":
            self.pos += 1
            params.append(self.expression())
        self.expect(")")
        return tuple(params)

    def operand_list(self, allow_bare: bool) -> list[int]:
        out = [self.qubit_operand(allow_bare)]
        while self.toks[self.pos] == ",":
            self.pos += 1
            out.append(self.qubit_operand(allow_bare))
        return out

    def qubit_operand(self, allow_bare: bool) -> int:
        at = self.pos
        name = self.expect("name")
        if name not in self.registers:
            raise self.error(f"undeclared quantum register {name!r}", at)
        offset, size = self.registers[name]
        if self.toks[self.pos] != "[":
            if allow_bare:
                return offset
            raise self.error("expected an indexed qubit like q[0]", at)
        self.pos += 1
        return offset + self.index(name, size)

    def index(self, name: str, size: int) -> int:
        """Read `i]` after `name[`, where i must be a decimal integer in 0..size-1."""
        idx_tok = self.expect("number")
        try:
            idx = int(idx_tok)
        except ValueError:
            idx = -1
        if idx < 0 or idx >= size:
            raise self.error(f"index {idx_tok} out of range for {name}[{size}]", self.pos - 1)
        self.expect("]")
        return idx

    def measure_side(self, table) -> None:
        at = self.pos
        name = self.expect("name")
        if name not in table:
            raise self.error(f"undeclared register {name!r}", at)
        if self.toks[self.pos] == "[":
            self.pos += 1
            self.index(name, table[name] if table is self.cregs else table[name][1])

    # --- constant angle expressions --------------------------------------

    def expression(self) -> float:
        val = self.term()
        while (op := self.toks[self.pos]) in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self) -> float:
        val = self.unary()
        while (op := self.toks[self.pos]) in ("*", "/"):
            at = self.pos
            self.pos += 1
            rhs = self.unary()
            if op == "/":
                if rhs == 0:
                    raise self.error("division by zero in angle expression", at)
                val = val / rhs
            else:
                val = val * rhs
        return val

    def unary(self) -> float:
        t = self.toks[self.pos]
        if t == "-":
            self.pos += 1
            return -self.unary()
        if t == "+":
            self.pos += 1
            return self.unary()
        return self.atom()

    def atom(self) -> float:
        at = self.pos
        t = self.toks[at]
        self.pos += 1
        kind = self.kinds[t]
        if kind == "number":
            try:
                return float(t)
            except ValueError:
                raise self.error(f"malformed number {t!r}", at) from None
        if kind == "name":
            if t in _CONSTANTS:
                return _CONSTANTS[t]
            raise self.error(f"unknown constant {t!r} in angle expression", at)
        if t == "(":
            val = self.expression()
            self.expect(")")
            return val
        raise self.error(f"expected a number, got {_text(t) or kind!r}", at)


# The statement scanner reads serialize_qasm's form and nothing else: the
# three header lines, then one `gate[(a,b,c)] r[i][,r[j][,r[k]]];` per line.
# An argument is a plain decimal literal, whose float() is the token parser's
# value bit for bit: that parser negates the float of the unsigned literal,
# which is exact, so "-0" is -0.0 on both paths.
_HEADER = re.compile(
    r'OPENQASM 2\.0;\ninclude "qelib1\.inc";\nqreg ([A-Za-z_][A-Za-z0-9_]*)\[([0-9]+)\];\n'
)
_LITERAL = r"[-+]?[0-9]+(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)?"
# {reg} is the declared register's name, escaped
_GATE = (rf"([a-z][a-z0-9]*)(?:\(({_LITERAL}(?:,{_LITERAL})*)\))? "
         r"{reg}\[([0-9]+)\](?:,{reg}\[([0-9]+)\])?(?:,{reg}\[([0-9]+)\])?;\n")


def _scan(text: str) -> Circuit | None:
    """The circuit of a text in serialize_qasm's form; None at the first thing
    it does not take, so that the token parser reads the text instead."""
    head = _HEADER.match(text)
    if head is None:
        return None
    reg, size = head.groups()
    statement = re.compile(_GATE.format(reg=re.escape(reg)))
    pos = head.end()
    try:
        circ = Circuit(int(size))
        for m in statement.finditer(text, pos):
            if m.start() != pos:
                return None
            pos = m.end()
            name, args, a, b, c = m.groups()
            kind = gate_by_name(name)
            qubits = (int(a),) if b is None else (int(a), int(b)) if c is None else (
                int(a), int(b), int(c))
            params = () if args is None else tuple(map(float, args.split(",")))
            circ.append(GateInstance(kind, qubits, params))
    except (KeyError, ValueError):  # an unknown gate, a CircuitError, digits too many for int()
        return None
    return circ if pos == len(text) else None


def parse_qasm(text: str, name: str = "") -> Circuit:
    """Parse OpenQASM 2.0 text into a Circuit.

    Registers are flattened to 0-based indices in declaration order.
    Raises QasmError with source position on anything outside the subset.
    """
    circ = _scan(text)
    if circ is None:
        circ = _Parser(text).run()
    circ.name = name
    return circ


_NAMES = {k: k.value for k in VOCABULARY}  # Enum's .value is a property call per op


def fmt_angle(x: float) -> str:
    """Format a float with 17 significant digits (lossless for doubles)."""
    return format(float(x), ".17g")


def serialize_qasm(circ: Circuit) -> str:
    """Render a Circuit back to OpenQASM 2.0, one statement per line."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{circ.num_qubits}];"]
    wire = [f"q[{q}]" for q in range(circ.num_qubits)]
    for op in circ.ops:
        operands = ",".join([wire[q] for q in op.qubits])
        if op.params:
            args = ",".join([fmt_angle(p) for p in op.params])
            lines.append(f"{_NAMES[op.kind]}({args}) {operands};")
        else:
            lines.append(f"{_NAMES[op.kind]} {operands};")
    lines.append("")
    return "\n".join(lines)
