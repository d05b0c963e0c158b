"""Greedy SWAP routing onto a device coupling map, with the expansion into
the device basis, and the compiled record.

Walks the lowered {u3, cx} op list in order, keeping a logical-to-physical
layout.  When a cx lands on uncoupled physical qubits, the first operand
hops along a shortest path until adjacent to the second.  Each hop goes to
the smallest-index neighbor one hop closer (`DeviceProfile.next_hop`), so
routing is deterministic.  Inserted SWAPs are the device's native SWAP
(`DeviceProfile.native_swap`: the three cx of a lowered SWAP, each from the
profile's `native_cx` memo), so the output stays inside the device basis.

Each op is expanded into the basis as it is routed, from memo entries that
already hold their native ops, their fidelities and the levels they add:
- a u3 from a per-call memo on (physical qubit, angles), filled by
  `rebase._rebase_u3`;
- a cx from the profile's `native_cx` entry, split at its 2-qubit op: the
  ops before it run on the pair as it stands, then come the SWAPs, then the
  rest on the routed pair.  That is the order in which routing the output
  of `rebase` would emit them.
So no native op is relabelled, scored or levelled on its own.  The levels
kept per wire have `circuit_depth` of the output as their maximum.

Output ops are never re-checked as a `Circuit`: the input was checked when
it was built, a u3 expansion is made by templates from its checked angles
(see `rebase`), and each cx entry was checked when it was filled.

A basis that `rebase` rejects is refused first, then a circuit wider than
the device.  After that, errors come in op order: an overflowed u3 angle
(ValueError "math domain error"), an op outside {u3, cx} (RebaseError) or a
pair with no path (RouteError).  Running the `rebase` pass before routing
raises every rebase error before any routing error instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..circuit import Circuit, GateInstance
from ..devices import DeviceError, DeviceProfile
from ..gates import GateKind
from .rebase import RebaseError, _rebase_u3, basis_style


class RouteError(ValueError):
    """Routing is impossible on this coupling map."""


@dataclass(frozen=True)
class CompiledCircuit:
    """A circuit expressed in one device's basis, on its physical qubits."""

    device_name: str
    num_qubits: int
    ops: tuple[GateInstance, ...]
    depth: int
    fidelities: tuple[float, ...]
    layout: tuple[int, ...]  # logical -> physical after routing

    @property
    def gate_count(self) -> int:
        return len(self.ops)


def route(circ: Circuit, profile: DeviceProfile) -> tuple[CompiledCircuit, list[int]]:
    """Expand a lowered {u3, cx} circuit into the device basis and map it onto
    the device; returns (compiled, final layout).

    The layout lists the physical home of each logical qubit after all
    inserted SWAPs.  The initial layout is the identity.
    """
    basis, style = basis_style(profile)
    if circ.num_qubits > profile.num_qubits:
        raise RouteError(
            f"circuit needs {circ.num_qubits} qubits, device has {profile.num_qubits}"
        )
    n = profile.num_qubits
    l2p = list(range(n))
    p2l = list(range(n))
    level = [0] * n  # layer of the last op on each physical wire
    all_to_all = profile.coupling == "all-to-all"
    is_coupled = profile.is_coupled
    fidelity = profile.compiled_fidelity
    native_cx = profile.native_cx
    u3s: dict[tuple, tuple] = {}  # (physical qubit, angles) -> (ops, fidelities)
    ops: list[GateInstance] = []
    fidelities: list[float] = []

    for op in circ.ops:
        kind = op.kind
        if kind is GateKind.U3:
            a = l2p[op.qubits[0]]
            key = (a, op.params)
            entry = u3s.get(key)
            if entry is None:
                expansion = tuple(_rebase_u3(a, *op.params, style, basis))
                entry = u3s[key] = (expansion, tuple(map(fidelity, expansion)))
            expansion, scores = entry
            ops += expansion
            fidelities += scores
            level[a] += len(expansion)
        elif kind is GateKind.CX:
            a, b = l2p[op.qubits[0]], l2p[op.qubits[1]]
            expansion, scores, (split, (na, nb), (ra, rb)) = native_cx(a, b)
            la, lb = level[a] + na, level[b] + nb
            if all_to_all or is_coupled(a, b):
                ops += expansion
                fidelities += scores
            else:
                ops += expansion[:split]
                fidelities += scores[:split]
                level[a], level[b] = la, lb
                while not is_coupled(a, b):
                    try:
                        hop = profile.next_hop(a, b)
                    except DeviceError:
                        raise RouteError(f"no path between physical qubits {a} and {b}") from None
                    swap_ops, swap_fidelities, ((aa, ah), (ha, hh)) = profile.native_swap(a, hop)
                    ops += swap_ops
                    fidelities += swap_fidelities
                    la, lh = level[a], level[hop]
                    level[a] = max(la + aa, lh + ah)
                    level[hop] = max(la + ha, lh + hh)
                    la, lh = p2l[a], p2l[hop]
                    p2l[a], p2l[hop] = lh, la
                    l2p[la], l2p[lh] = hop, a
                    a = hop
                expansion, scores, _ = native_cx(a, b)
                ops += expansion[split:]
                fidelities += scores[split:]
                la, lb = level[a], level[b]
            top = la if la > lb else lb
            level[a], level[b] = top + ra, top + rb
        else:
            raise RebaseError(f"rebase expects canonical {{u3, cx}} input, got {kind.value}")

    layout = l2p[: circ.num_qubits]
    compiled = CompiledCircuit(
        device_name=profile.name,
        num_qubits=n,
        ops=tuple(ops),
        depth=max(level),
        fidelities=tuple(fidelities),
        layout=tuple(layout),
    )
    return compiled, layout
