"""Full lower -> rebase -> route pipeline and its compiled artifact."""

from __future__ import annotations

from dataclasses import dataclass

from ..circuit import Circuit, GateInstance, circuit_depth
from ..devices import DeviceProfile
from .lower import lower_to_canonical
from .rebase import rebase
from .route import route


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


def compile_for(circ: Circuit, profile: DeviceProfile) -> CompiledCircuit:
    """Compile a circuit for a device and collect its per-gate fidelities."""
    routed, layout = route(rebase(lower_to_canonical(circ), profile), profile)
    return _finalize(routed.ops, layout, profile)


def compiled_from_circuit(circ: Circuit, profile: DeviceProfile) -> CompiledCircuit:
    """Wrap an already-compiled circuit; its fidelity lookups check basis and coupling."""
    if circ.num_qubits > profile.num_qubits:
        raise ValueError(
            f"circuit needs {circ.num_qubits} qubits, {profile.name} has {profile.num_qubits}"
        )
    layout = tuple(range(circ.num_qubits))
    return _finalize(list(circ.ops), layout, profile)


def _finalize(ops: list[GateInstance], layout, profile: DeviceProfile) -> CompiledCircuit:
    return CompiledCircuit(
        device_name=profile.name,
        num_qubits=profile.num_qubits,
        ops=tuple(ops),
        depth=circuit_depth(ops),
        fidelities=tuple(profile.gate_fidelity(op) for op in ops),
        layout=tuple(layout),
    )
