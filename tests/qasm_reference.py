"""The QASM reader as it was before the single-scan tokenizer: a test oracle.

Test only, like `tests/unitary.py`: `_Token`, the per-character `_tokenize`
and `_Parser` are kept verbatim so that `tests/test_qasm.py` can check the
package's `parse_qasm` against them on generated and mangled input.
"""

from __future__ import annotations

import math
import warnings

from qtp.circuit import Circuit, CircuitError, GateInstance
from qtp.gates import gate_by_name
from qtp.qasm import QasmError, QasmWarning

_SYMBOLS = ("->", "(", ")", "[", "]", ",", ";", "+", "-", "*", "/")
_CONSTANTS = {"pi": math.pi}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "name" | "number" | "string" | symbol text | "eof"
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise QasmError("unterminated string", line, col)
            toks.append(_Token("string", text[i + 1:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < n:
                ch = text[j]
                if ch.isdigit() or ch == ".":
                    j += 1
                elif ch in "eE" and not seen_e:
                    seen_e = True
                    j += 1
                    if j < n and text[j] in "+-":
                        j += 1
                else:
                    break
            toks.append(_Token("number", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        matched = False
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                matched = True
                break
        if not matched:
            raise QasmError(f"unexpected character {c!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0
        self.registers: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, int] = {}
        # made at the first qreg and widened by later ones, so that each gate
        # is checked once, by Circuit.append
        self.circuit: Circuit | None = None

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Token:
        t = self.next()
        if t.kind != kind:
            raise QasmError(f"expected {kind!r}, got {t.text or t.kind!r}", t.line, t.col)
        return t

    def fail(self, message: str, tok: _Token | None = None) -> None:
        t = tok or self.peek()
        raise QasmError(message, t.line, t.col)

    # --- statements -----------------------------------------------------

    def run(self) -> Circuit:
        self.maybe_header()
        while self.peek().kind != "eof":
            self.statement()
        if self.circuit is None:
            t = self.peek()
            raise QasmError("no qreg declared", t.line, t.col)
        return self.circuit

    def maybe_header(self) -> None:
        t = self.peek()
        if t.kind == "name" and t.text == "OPENQASM":
            self.next()
            v = self.expect("number")
            if v.text != "2.0":
                self.fail(f"unsupported OpenQASM version {v.text}", v)
            self.expect(";")

    def statement(self) -> None:
        t = self.next()
        if t.kind != "name":
            self.fail(f"expected statement, got {t.text!r}", t)
        if t.text == "include":
            s = self.expect("string")
            if s.text != "qelib1.inc":
                self.fail(f"unsupported include {s.text!r}", s)
            self.expect(";")
        elif t.text == "qreg":
            name, size = self.declaration()
            if name in self.registers or name in self.cregs:
                self.fail(f"register {name!r} redeclared", t)
            if self.circuit is None:
                self.registers[name] = (0, size)
                self.circuit = Circuit(size)
            else:
                self.registers[name] = (self.circuit.num_qubits, size)
                self.circuit.num_qubits += size
        elif t.text == "creg":
            name, size = self.declaration()
            if name in self.registers or name in self.cregs:
                self.fail(f"register {name!r} redeclared", t)
            self.cregs[name] = size
        elif t.text == "barrier":
            self.operand_list(allow_bare=True)
            self.expect(";")
        elif t.text == "measure":
            self.measure_args()
            self.expect(";")
            warnings.warn(
                f"line {t.line}: measure dropped, circuits are unitary-only",
                QasmWarning,
                stacklevel=4,
            )
        else:
            self.gate_statement(t)

    def declaration(self) -> tuple[str, int]:
        name = self.expect("name")
        self.expect("[")
        size_tok = self.expect("number")
        try:
            size = int(size_tok.text)
        except ValueError:
            size = -1
        if size < 1:
            self.fail(f"register size must be a positive integer, got {size_tok.text}", size_tok)
        self.expect("]")
        self.expect(";")
        return name.text, size

    def gate_statement(self, head: _Token) -> None:
        try:
            kind = gate_by_name(head.text)
        except KeyError:
            self.fail(f"unknown gate {head.text!r}", head)
        params: tuple[float, ...] = ()
        if self.peek().kind == "(":
            self.next()
            params = self.param_list()
        qubits = self.operand_list(allow_bare=False)
        self.expect(";")
        try:
            self.circuit.append(GateInstance(kind, tuple(q for q, _ in qubits), params))
        except CircuitError as exc:
            raise QasmError(str(exc), head.line, head.col) from None

    def param_list(self) -> tuple[float, ...]:
        params = [self.expression()]
        while self.peek().kind == ",":
            self.next()
            params.append(self.expression())
        self.expect(")")
        return tuple(params)

    def operand_list(self, allow_bare: bool) -> list[tuple[int, _Token]]:
        out = [self.qubit_operand(allow_bare)]
        while self.peek().kind == ",":
            self.next()
            out.append(self.qubit_operand(allow_bare))
        return out

    def qubit_operand(self, allow_bare: bool) -> tuple[int, _Token]:
        name = self.expect("name")
        if name.text not in self.registers:
            self.fail(f"undeclared quantum register {name.text!r}", name)
        offset, size = self.registers[name.text]
        if self.peek().kind != "[":
            if allow_bare:
                return offset, name
            self.fail("expected an indexed qubit like q[0]", name)
        self.next()
        idx_tok = self.expect("number")
        try:
            idx = int(idx_tok.text)
        except ValueError:
            idx = -1
        if idx < 0 or idx >= size:
            self.fail(f"index {idx_tok.text} out of range for {name.text}[{size}]", idx_tok)
        self.expect("]")
        return offset + idx, name

    def measure_args(self) -> None:
        self.qubit_measure_side(self.registers)
        self.expect("->")
        self.qubit_measure_side(self.cregs)

    def qubit_measure_side(self, table) -> None:
        name = self.expect("name")
        if name.text not in table:
            self.fail(f"undeclared register {name.text!r}", name)
        if self.peek().kind == "[":
            self.next()
            self.expect("number")
            self.expect("]")

    # --- constant angle expressions --------------------------------------

    def expression(self) -> float:
        val = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self) -> float:
        val = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next()
            rhs = self.unary()
            if op.kind == "/":
                if rhs == 0:
                    self.fail("division by zero in angle expression", op)
                val = val / rhs
            else:
                val = val * rhs
        return val

    def unary(self) -> float:
        t = self.peek()
        if t.kind == "-":
            self.next()
            return -self.unary()
        if t.kind == "+":
            self.next()
            return self.unary()
        return self.atom()

    def atom(self) -> float:
        t = self.next()
        if t.kind == "number":
            try:
                return float(t.text)
            except ValueError:
                self.fail(f"malformed number {t.text!r}", t)
        if t.kind == "name":
            if t.text in _CONSTANTS:
                return _CONSTANTS[t.text]
            self.fail(f"unknown constant {t.text!r} in angle expression", t)
        if t.kind == "(":
            val = self.expression()
            self.expect(")")
            return val
        self.fail(f"expected a number, got {t.text or t.kind!r}", t)
        raise AssertionError  # fail() always raises


def parse_qasm(text: str, name: str = "") -> Circuit:
    """Reference parse: what `qtp.qasm.parse_qasm` returned before the rewrite."""
    circ = _Parser(_tokenize(text)).run()
    circ.name = name
    return circ
