"""Full lower -> rebase -> route pipeline, and the wrapper for precompiled circuits."""

from __future__ import annotations

from ..circuit import Circuit, circuit_depth
from ..devices import DeviceProfile
from .lower import lower_to_canonical
from .rebase import rebase
from .route import CompiledCircuit, route


def compile_for(circ: Circuit, profile: DeviceProfile) -> CompiledCircuit:
    """Compile a circuit for a device and collect its per-gate fidelities."""
    return route(rebase(lower_to_canonical(circ), profile), profile)[0]


def compiled_from_circuit(circ: Circuit, profile: DeviceProfile) -> CompiledCircuit:
    """Wrap an already-compiled circuit; its fidelity lookups check basis and coupling."""
    if circ.num_qubits > profile.num_qubits:
        raise ValueError(
            f"circuit needs {circ.num_qubits} qubits, {profile.name} has {profile.num_qubits}"
        )
    return CompiledCircuit(
        device_name=profile.name,
        num_qubits=profile.num_qubits,
        ops=tuple(circ.ops),
        depth=circuit_depth(circ),
        fidelities=tuple(map(profile.compiled_fidelity, circ.ops)),
        layout=tuple(range(circ.num_qubits)),
    )
