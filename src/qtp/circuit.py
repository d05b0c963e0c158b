"""Flat circuit intermediate representation.

A circuit is an ordered list of gate applications on qubits 0..n-1.  Register
structure from source files is flattened away at parse time; classical bits,
measurements and barriers never reach this layer.

`GateInstance` is a plain record with slots: no equality with tuples and no
unpacking.  `check_gate` validates it where it enters a `Circuit` (constructor
and `append`); both parser paths append each gate once, and the token parser
adds line and column to the error.  Passes that build their output from
checked ops assign the op list instead: `transpile.lower_to_canonical` checks
only an expansion with a non-finite computed angle, `transpile.rebase` checks
each expansion once when it is made, and routed output is not a `Circuit`: see
`transpile.route` for why its ops need no second check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .gates import GateKind


class CircuitError(ValueError):
    """Raised when a gate application or circuit is malformed."""


@dataclass(frozen=True, slots=True)
class GateInstance:
    """One gate applied to a tuple of qubits; see `check_gate` for validity."""

    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()


def check_gate(op: GateInstance, num_qubits: int) -> None:
    """Raise CircuitError unless op has its kind's arity and parameter count, on
    distinct qubits in 0..num_qubits-1, with finite parameters."""
    kind = op.kind
    if len(op.qubits) != kind.arity:
        raise CircuitError(
            f"{kind.value} expects {kind.arity} qubit(s), got {len(op.qubits)}"
        )
    if len(set(op.qubits)) != len(op.qubits):
        raise CircuitError(f"{kind.value} applied to duplicate qubits {op.qubits}")
    for q in op.qubits:
        if not 0 <= q < num_qubits:
            raise CircuitError(f"qubit {q} out of range for {num_qubits}-qubit circuit")
    if len(op.params) != kind.param_count:
        raise CircuitError(
            f"{kind.value} expects {kind.param_count} parameter(s), got {len(op.params)}"
        )
    if not all(map(math.isfinite, op.params)):
        raise CircuitError(f"{kind.value} has a non-finite parameter in {op.params}")


@dataclass
class Circuit:
    """Ordered gate list over a fixed number of qubits."""

    num_qubits: int
    ops: list[GateInstance] = field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise CircuitError(f"num_qubits must be positive, got {self.num_qubits}")
        for op in self.ops:
            check_gate(op, self.num_qubits)

    def append(self, op: GateInstance) -> None:
        check_gate(op, self.num_qubits)
        self.ops.append(op)

    def add(self, kind: GateKind, qubits: tuple[int, ...], params: tuple[float, ...] = ()) -> None:
        self.append(GateInstance(kind, tuple(int(q) for q in qubits),
                                 tuple(float(p) for p in params)))

    @property
    def gate_count(self) -> int:
        return len(self.ops)

    def __len__(self) -> int:
        return len(self.ops)


def circuit_depth(circ: Circuit | list[GateInstance]) -> int:
    """Longest chain of ops linked by shared qubits (the usual layered depth).

    Empty circuits have depth 0.  Single-qubit layers count: depth is over
    all ops, not just entangling ones.
    """
    ops = circ.ops if isinstance(circ, Circuit) else circ
    level: dict[int, int] = {}
    depth = 0
    for op in ops:
        layer = 1 + max((level.get(q, 0) for q in op.qubits), default=0)
        for q in op.qubits:
            level[q] = layer
        if layer > depth:
            depth = layer
    return depth
