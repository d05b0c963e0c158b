"""Device profiles: gate set, topology and calibration-style fidelities.

Profiles are plain JSON so users can describe their own hardware.  Two
bundled profiles ship with the package, a trapped-ion device with all-to-all
coupling and a superconducting device on a heavy-hex style lattice.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .circuit import GateInstance
from .gates import gate_by_name

TECHNOLOGIES = ("trapped-ion", "superconducting")

# Trapped-ion technology is class 0, superconducting class 1.
TECHNOLOGY_CLASS = {"trapped-ion": 0, "superconducting": 1}


class DeviceError(ValueError):
    """Malformed profile or impossible fidelity/topology lookup."""


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    technology: str
    num_qubits: int
    basis_gates: tuple[str, ...]
    coupling: str | tuple[tuple[int, int], ...]  # "all-to-all" or undirected pairs
    fidelity_1q: dict[str, float]
    fidelity_2q: float | dict[tuple[int, int], float]
    _adjacency: dict[int, tuple[int, ...]] = field(default=None, repr=False, compare=False)
    # hop counts between every pair, -1 when unreachable; None for all-to-all
    _distance: tuple[tuple[int, ...], ...] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.technology not in TECHNOLOGIES:
            raise DeviceError(f"unknown technology {self.technology!r}")
        if self.num_qubits < 1:
            raise DeviceError("num_qubits must be positive")
        if not self.basis_gates:
            raise DeviceError("basis_gates must be non-empty")
        for g in self.basis_gates:
            try:
                gate_by_name(g)
            except KeyError:
                raise DeviceError(f"basis gate {g!r} is not in the vocabulary") from None
        adjacency: dict[int, list[int]] = {}
        if self.coupling != "all-to-all":
            for pair in self.coupling:
                a, b = pair
                if a == b:
                    raise DeviceError(f"coupling pair ({a},{b}) links a qubit to itself")
                for q in (a, b):
                    if not 0 <= q < self.num_qubits:
                        raise DeviceError(f"coupling qubit {q} out of range")
                adjacency.setdefault(a, []).append(b)
                adjacency.setdefault(b, []).append(a)
            table = []
            for src in range(self.num_qubits):
                dist = [-1] * self.num_qubits
                dist[src] = 0
                frontier = deque([src])
                while frontier:
                    v = frontier.popleft()
                    for w in adjacency.get(v, ()):
                        if dist[w] < 0:
                            dist[w] = dist[v] + 1
                            frontier.append(w)
                table.append(tuple(dist))
            object.__setattr__(self, "_distance", tuple(table))
        object.__setattr__(
            self,
            "_adjacency",
            {q: tuple(sorted(set(ns))) for q, ns in adjacency.items()},
        )
        for g, f in self.fidelity_1q.items():
            _check_fidelity(f, f"fidelity_1q[{g}]")
        if isinstance(self.fidelity_2q, dict):
            for pair, f in self.fidelity_2q.items():
                _check_fidelity(f, f"fidelity_2q[{pair}]")
                if not self.is_coupled(*pair):
                    raise DeviceError(f"fidelity_2q entry {pair} is not a coupled pair")
        else:
            _check_fidelity(self.fidelity_2q, "fidelity_2q")

    # --- topology ---------------------------------------------------------

    def is_coupled(self, a: int, b: int) -> bool:
        if a == b:
            return False
        if self.coupling == "all-to-all":
            return 0 <= a < self.num_qubits and 0 <= b < self.num_qubits
        return b in self._adjacency.get(a, ())

    def neighbors(self, q: int) -> tuple[int, ...]:
        if self.coupling == "all-to-all":
            return tuple(i for i in range(self.num_qubits) if i != q)
        return self._adjacency.get(q, ())

    def qubit_distance(self, a: int, b: int) -> int:
        """Hop count between two qubits on the coupling graph."""
        for q in (a, b):
            if not 0 <= q < self.num_qubits:
                raise DeviceError(f"qubit {q} out of range")
        if a == b:
            return 0
        if self.coupling == "all-to-all":
            return 1
        d = self._distance[a][b]
        if d < 0:
            raise DeviceError(f"qubits {a} and {b} are not connected on {self.name}")
        return d

    # --- fidelities ---------------------------------------------------------

    def gate_fidelity(self, op: GateInstance) -> float:
        """Fidelity of one basis-gate application on its qubits."""
        if op.kind.value not in self.basis_gates:
            raise DeviceError(f"{op.kind.value} is outside the {self.name} basis")
        if len(op.qubits) == 1:
            try:
                return self.fidelity_1q[op.kind.value]
            except KeyError:
                raise DeviceError(f"no 1q fidelity for {op.kind.value!r} on {self.name}") from None
        if len(op.qubits) != 2:
            raise DeviceError(f"no fidelity model for {len(op.qubits)}-qubit gates")
        a, b = op.qubits
        if not self.is_coupled(a, b):
            raise DeviceError(f"qubits {a},{b} are not coupled on {self.name}")
        if isinstance(self.fidelity_2q, dict):
            key = (a, b) if a < b else (b, a)
            try:
                return self.fidelity_2q[key]
            except KeyError:
                raise DeviceError(f"no 2q fidelity for pair {key} on {self.name}") from None
        return self.fidelity_2q


def _check_fidelity(f: float, what: str) -> None:
    if not isinstance(f, (int, float)) or not 0.0 < float(f) <= 1.0:
        raise DeviceError(f"{what} must be in (0, 1], got {f!r}")


def load_profile(source: str | Path | dict) -> DeviceProfile:
    """Build a profile from a JSON file path or an already-parsed dict."""
    if isinstance(source, (str, Path)):
        try:
            raw = json.loads(Path(source).read_text())
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DeviceError(f"{source}: invalid JSON ({exc})") from None
    else:
        raw = source
    required = ("name", "technology", "num_qubits", "basis_gates",
                "coupling", "fidelity_1q", "fidelity_2q")
    missing = [k for k in required if k not in raw]
    if missing:
        raise DeviceError(f"profile missing fields: {', '.join(missing)}")
    coupling = raw["coupling"]
    if coupling != "all-to-all":
        if not isinstance(coupling, list):
            raise DeviceError("coupling must be \"all-to-all\" or a list of pairs")
        coupling = tuple((int(a), int(b)) for a, b in coupling)
    f2q = raw["fidelity_2q"]
    if isinstance(f2q, dict):
        parsed = {}
        for key, val in f2q.items():
            try:
                a, b = (int(x) for x in key.split("-"))
            except ValueError:
                raise DeviceError(f"fidelity_2q key {key!r} is not of the form \"a-b\"") from None
            parsed[(a, b) if a < b else (b, a)] = float(val)
        f2q = parsed
    else:
        f2q = float(f2q)
    return DeviceProfile(
        name=str(raw["name"]),
        technology=str(raw["technology"]),
        num_qubits=int(raw["num_qubits"]),
        basis_gates=tuple(str(g) for g in raw["basis_gates"]),
        coupling=coupling,
        fidelity_1q={str(g): float(f) for g, f in raw["fidelity_1q"].items()},
        fidelity_2q=f2q,
    )


def save_profile(profile: DeviceProfile) -> dict:
    """Profile back to its JSON shape; load_profile(save_profile(p)) == p."""
    return {
        "name": profile.name,
        "technology": profile.technology,
        "num_qubits": profile.num_qubits,
        "basis_gates": list(profile.basis_gates),
        "coupling": (
            "all-to-all" if profile.coupling == "all-to-all"
            else [list(pair) for pair in profile.coupling]
        ),
        "fidelity_1q": dict(profile.fidelity_1q),
        "fidelity_2q": (
            {f"{a}-{b}": f for (a, b), f in profile.fidelity_2q.items()}
            if isinstance(profile.fidelity_2q, dict)
            else profile.fidelity_2q
        ),
    }


def bundled_profile_names() -> tuple[str, ...]:
    files = resources.files("qtp.profiles")
    return tuple(sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json")))


def bundled_profile(name: str) -> DeviceProfile:
    path = resources.files("qtp.profiles").joinpath(f"{name}.json")
    if not path.is_file():
        raise DeviceError(f"no bundled profile {name!r}; have {bundled_profile_names()}")
    return load_profile(json.loads(path.read_text()))


def bundled_profiles() -> tuple[DeviceProfile, ...]:
    return tuple(bundled_profile(n) for n in bundled_profile_names())
