"""Full lower -> route pipeline, and the wrapper for precompiled circuits.

Lowering to {u3, cx} does not depend on the device, so `compile_each` lowers
a circuit once and runs only `route`, which expands each op into the device
basis as it routes, per profile; `compile_for` is its one-profile case.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ..circuit import Circuit, circuit_depth
from ..devices import DeviceProfile
from .lower import lower_to_canonical
# rebase is not called here (route expands as it routes), but the benchmark's
# tracer (bench/spans.py) hooks it at this module's name
from .rebase import rebase  # noqa: F401
from .route import CompiledCircuit, RouteError, route


def compile_each(circ: Circuit, profiles: Iterable[DeviceProfile]) -> Iterator[CompiledCircuit]:
    """Compile a circuit for each profile in turn, lowering it once.

    Yields one CompiledCircuit per profile, in order.  Nothing runs until the
    caller asks for the first one, and each later profile is compiled only
    when asked for, so an error surfaces after the caller has used every
    compilation before it, as with one `compile_for` call per profile.
    """
    lowered = lower_to_canonical(circ)
    for profile in profiles:
        yield route(lowered, profile)[0]


def compile_for(circ: Circuit, profile: DeviceProfile) -> CompiledCircuit:
    """Compile a circuit for a device and collect its per-gate fidelities."""
    return next(compile_each(circ, (profile,)))


def compiled_from_circuit(circ: Circuit, profile: DeviceProfile) -> CompiledCircuit:
    """Wrap an already-compiled circuit; `gate_fidelity` checks each op's basis and
    coupling, with no `rebase.native_gates`, so a basis that compiles nothing scores it."""
    if circ.num_qubits > profile.num_qubits:
        raise RouteError(
            f"circuit needs {circ.num_qubits} qubits, {profile.name} has {profile.num_qubits}"
        )
    return CompiledCircuit(
        device_name=profile.name,
        num_qubits=profile.num_qubits,
        ops=tuple(circ.ops),
        depth=circuit_depth(circ),
        fidelities=tuple(map(profile.gate_fidelity, circ.ops)),
        layout=tuple(range(circ.num_qubits)),
    )
