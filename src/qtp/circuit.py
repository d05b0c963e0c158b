"""Flat circuit intermediate representation.

A circuit is an ordered list of gate applications on qubits 0..n-1.  Register
structure from source files is flattened away at parse time; classical bits,
measurements and barriers never reach this layer.

`GateInstance` is a plain frozen record with slots: no equality with tuples
and no unpacking.  Its `__init__` sets the slots through their descriptors,
not through the frozen dataclass's `object.__setattr__`, since the parser,
`dag.load_graph` and every transpile pass build one per op.  `check_gate`
validates a record where it enters a `Circuit` (constructor and `append`,
which take a `GateInstance` as it is and coerce nothing); the token parser
appends each gate once and adds line and column to the error.
Code that builds its output from checked ops, or checks them itself, assigns
the op list instead: `qasm`'s statement scanner makes `check_gate`'s checks
inline and hands any miss to the token parser; `transpile.lower_to_canonical`
checks only an expansion with a non-finite computed angle; `transpile.route`,
which expands into the device basis as it routes, and the `transpile.rebase`
pass check none of their expansions (templates on checked input, see
`rebase`'s docstring); routed output is not a `Circuit`: see
`transpile.route` for why its ops need no second check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import DataError
from .gates import GateKind


class CircuitError(DataError):
    """Raised when a gate application or circuit is malformed."""


@dataclass(frozen=True, slots=True, init=False)
class GateInstance:
    """One gate applied to a tuple of qubits; see `check_gate` for validity."""

    kind: GateKind
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __init__(self, kind: GateKind, qubits: tuple[int, ...],
                 params: tuple[float, ...] = ()) -> None:
        # through the slots' own setters: the frozen dataclass __init__ sets
        # each field with object.__setattr__, about 1.6x the cost per record
        _set_kind(self, kind)
        _set_qubits(self, qubits)
        _set_params(self, params)


_set_kind = GateInstance.__dict__["kind"].__set__
_set_qubits = GateInstance.__dict__["qubits"].__set__
_set_params = GateInstance.__dict__["params"].__set__


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

    @property
    def gate_count(self) -> int:
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
