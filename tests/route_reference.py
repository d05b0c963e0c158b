"""The route of qtp before it expanded ops as it routes, kept as a test oracle.

Verbatim except for the imports and this docstring: it takes a circuit that
`rebase` has already put in the device basis, and relabels, scores and levels
every native op on its own.  `tests/test_transpile.py::TestRouteAgainstReference`
compares `qtp.transpile.route` of a lowered circuit with this `route` of the
same circuit rebased.  Its own docstring follows.

Greedy SWAP routing onto a device coupling map, and the compiled record.

Walks the op list in order, keeping a logical-to-physical layout.  When a 2q
gate lands on uncoupled physical qubits, the first operand hops along a
shortest path until adjacent to the second.  Each hop goes to the
smallest-index neighbor one hop closer (`DeviceProfile.next_hop`), so routing
is deterministic.  Inserted SWAPs are the device's native SWAP
(`DeviceProfile.native_swap`: the three cx of a lowered SWAP, each from the
profile's `native_cx` memo), so the output stays inside the device basis.

The same walk collects what scoring needs: per-op fidelities from the
profile's memoized `compiled_fidelity`, which checks basis and coupling for
every distinct op, and per-wire levels, whose maximum is `circuit_depth` of
the output.  Output ops are never re-checked as a `Circuit`: the input was
checked when it was built, routing only permutes qubits, and each cx of a
SWAP was checked when its `native_cx` entry was filled.
"""

from __future__ import annotations

from qtp.circuit import Circuit, GateInstance
from qtp.devices import DeviceError, DeviceProfile
from qtp.transpile.route import CompiledCircuit, RouteError


def route(circ: Circuit, profile: DeviceProfile) -> tuple[CompiledCircuit, list[int]]:
    """Map a rebased circuit onto the device; returns (compiled, final layout).

    The layout lists the physical home of each logical qubit after all
    inserted SWAPs.  The initial layout is the identity.
    """
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
    ops: list[GateInstance] = []
    fidelities: list[float] = []

    for op in circ.ops:
        qubits = op.qubits
        if len(qubits) == 1:
            a = l2p[qubits[0]]
            level[a] += 1
            if a != qubits[0]:
                op = GateInstance(op.kind, (a,), op.params)
        elif len(qubits) == 2:
            a, b = l2p[qubits[0]], l2p[qubits[1]]
            while not (all_to_all or is_coupled(a, b)):
                try:
                    hop = profile.next_hop(a, b)
                except DeviceError:
                    raise RouteError(f"no path between physical qubits {a} and {b}") from None
                swap_ops, swap_fidelities, ((aa, ah), (ha, hh)) = profile.native_swap(a, hop)
                ops.extend(swap_ops)
                fidelities.extend(swap_fidelities)
                la, lh = level[a], level[hop]
                level[a] = max(la + aa, lh + ah)
                level[hop] = max(la + ha, lh + hh)
                la, lh = p2l[a], p2l[hop]
                p2l[a], p2l[hop] = lh, la
                l2p[la], l2p[lh] = hop, a
                a = hop
            level[a] = level[b] = max(level[a], level[b]) + 1
            if a != qubits[0] or b != qubits[1]:
                op = GateInstance(op.kind, (a, b), op.params)
        else:
            raise RouteError(f"cannot route {len(qubits)}-qubit gate {op.kind.value}")
        ops.append(op)
        fidelities.append(fidelity(op))

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
