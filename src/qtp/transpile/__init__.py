"""Minimal transpiler: lower to {u3, cx}, then route, which rebases each op to
a device basis as it places it on the coupling map.

`rebase` is also a pass of its own, the expansion without the routing.  Not
an optimizing compiler.  It exists so circuits can be scored consistently on
device profiles; the only cleanup it does is dropping identity-angle
rotations.
"""

from .lower import lower_to_canonical
from .pipeline import compile_each, compile_for, compiled_from_circuit
from .rebase import RebaseError, rebase
from .route import CompiledCircuit, RouteError, route

__all__ = [
    "CompiledCircuit",
    "RebaseError",
    "RouteError",
    "compile_each",
    "compile_for",
    "compiled_from_circuit",
    "lower_to_canonical",
    "rebase",
    "route",
]
