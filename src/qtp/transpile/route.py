"""Greedy SWAP routing onto a device coupling map.

Walks the op list in order, keeping a logical-to-physical layout.  When a 2q
gate lands on uncoupled physical qubits, the first operand hops along a
shortest path, read from the profile's hop-distance table, until adjacent
to the second; ties between shortest paths are broken toward the
lexicographically smallest next hop, so routing is deterministic.
Inserted SWAPs are expanded through lower+rebase so the output stays inside
the device basis.
"""

from __future__ import annotations

from ..circuit import Circuit, GateInstance
from ..devices import DeviceError
from ..gates import GateKind
from .lower import lower_to_canonical
from .rebase import rebase


class RouteError(ValueError):
    """Routing is impossible on this coupling map."""


def _swap_template(profile) -> list[GateInstance]:
    """Native expansion of one SWAP, on placeholder qubits 0 and 1."""
    swap = Circuit(2, [GateInstance(GateKind.SWAP, (0, 1))])
    return rebase(lower_to_canonical(swap), profile).ops


def route(circ: Circuit, profile) -> tuple[Circuit, list[int]]:
    """Map a rebased circuit onto the device; returns (circuit, final layout).

    The layout lists the physical home of each logical qubit after all
    inserted SWAPs.  The initial layout is the identity.
    """
    if circ.num_qubits > profile.num_qubits:
        raise RouteError(
            f"circuit needs {circ.num_qubits} qubits, device has {profile.num_qubits}"
        )
    l2p = list(range(profile.num_qubits))
    p2l = list(range(profile.num_qubits))
    all_to_all = profile.coupling == "all-to-all"
    swap_ops = None if all_to_all else _swap_template(profile)
    out: list[GateInstance] = []

    def emit_swap(u: int, v: int) -> None:
        relabel = {0: u, 1: v}
        for op in swap_ops:
            out.append(GateInstance(op.kind, tuple(relabel[q] for q in op.qubits), op.params))
        lu, lv = p2l[u], p2l[v]
        p2l[u], p2l[v] = lv, lu
        l2p[lv], l2p[lu] = u, v

    for op in circ.ops:
        phys = tuple(l2p[q] for q in op.qubits)
        if len(phys) == 1 or all_to_all or profile.is_coupled(*phys):
            out.append(GateInstance(op.kind, phys, op.params))
            continue
        if len(phys) != 2:
            raise RouteError(f"cannot route {len(phys)}-qubit gate {op.kind.value}")
        a, b = phys
        try:
            hops = profile.qubit_distance(a, b)
        except DeviceError:
            raise RouteError(f"no path between physical qubits {a} and {b}") from None
        for d in range(hops - 1, 0, -1):
            nxt = min(w for w in profile.neighbors(a) if profile.qubit_distance(w, b) == d)
            emit_swap(a, nxt)
            a = nxt
        out.append(GateInstance(op.kind, (a, b), op.params))

    return Circuit(profile.num_qubits, out, name=circ.name), l2p[: circ.num_qubits]
