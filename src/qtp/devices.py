"""Device profiles: gate set, topology and calibration-style fidelities.

Profiles are plain JSON so users can describe their own hardware.  Two
bundled profiles ship with the package, a trapped-ion device with all-to-all
coupling and a superconducting device on a heavy-hex style lattice.

A profile memoizes its hop rows on first use, and keeps the transpiler's
memos (`transpile.rebase.native_gates`) in one field; this module imports
nothing from the transpiler.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import DataError
from .circuit import GateInstance
from .gates import gate_by_name
from .jsonio import integer, loads, number, read_text, reading, string

TECHNOLOGIES = ("trapped-ion", "superconducting")

# Trapped-ion technology is class 0, superconducting class 1.
TECHNOLOGY_CLASS = {"trapped-ion": 0, "superconducting": 1}

# Largest num_qubits a profile file may give, far above any device built so
# far: routing keeps three lists of this length per call (a few MB at the
# bound), and each hop row is one more.
MAX_QUBITS = 100_000


class DeviceError(DataError):
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
    # Not init fields, so every instance, a dataclasses.replace copy too, derives
    # its own: the coupling's neighbor lists, set by __post_init__, and compiler
    # memos filled on first use so that building a profile stays cheap (hop
    # rows and `transpile.rebase.native_gates`).
    _adjacency: dict = field(default=None, init=False, repr=False, compare=False)
    _hops: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _native: object = field(default=None, init=False, repr=False, compare=False)

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
        object.__setattr__(
            self,
            "_adjacency",
            {q: tuple(sorted(set(ns))) for q, ns in adjacency.items()},
        )
        for g, f in self.fidelity_1q.items():
            _check_fidelity(f, f"fidelity_1q[{g}]")
        for g in self.basis_gates:
            if gate_by_name(g).arity == 1 and g not in self.fidelity_1q:
                raise DeviceError(f"fidelity_1q has no entry for basis gate {g!r}")
        if isinstance(self.fidelity_2q, dict):
            for pair, f in self.fidelity_2q.items():
                _check_fidelity(f, f"fidelity_2q[{pair}]")
                if not self.is_coupled(*pair):
                    raise DeviceError(f"fidelity_2q entry {pair} is not a coupled pair")
        else:
            _check_fidelity(self.fidelity_2q, "fidelity_2q")

    def __getstate__(self) -> dict:
        # NativeGates refers back weakly: a copy or unpickled profile makes its own
        return {**self.__dict__, "_native": None}

    # --- topology ---------------------------------------------------------

    def is_coupled(self, a: int, b: int) -> bool:
        if a == b:
            return False
        if self.coupling == "all-to-all":
            return 0 <= a < self.num_qubits and 0 <= b < self.num_qubits
        return b in self._adjacency.get(a, ())

    def _hop_row(self, src: int) -> list[int]:
        """Hop counts from src to every qubit, -1 when unreachable; one BFS on first use."""
        row = self._hops.get(src)
        if row is None:
            row = self._hops[src] = [-1] * self.num_qubits
            row[src] = 0
            frontier = deque([src])
            while frontier:
                v = frontier.popleft()
                for w in self._adjacency.get(v, ()):
                    if row[w] < 0:
                        row[w] = row[v] + 1
                        frontier.append(w)
        return row

    def next_hop(self, a: int, b: int) -> int:
        """Smallest-index neighbor of a that is one hop closer to b.

        a and b must be distinct, in range and not coupled on a coupling map
        (routing asks only that); raises DeviceError when no path joins them.
        """
        to_b = self._hop_row(b)  # coupling is undirected: w's distance to b
        if to_b[a] < 0:
            raise DeviceError(f"qubits {a} and {b} are not connected on {self.name}")
        return next(w for w in self._adjacency[a] if to_b[w] == to_b[a] - 1)

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
    if not 0.0 < f <= 1.0:
        raise DeviceError(f"{what} must be in (0, 1], got {f!r}")


def load_profile(source: str | Path | dict) -> DeviceProfile:
    """Build a profile from a JSON file path or an already-parsed dict."""
    if not isinstance(source, (str, Path)):
        return _profile_from_json(source)
    with reading(source, DeviceError):
        return _profile_from_json(loads(read_text(source)))


def _profile_from_json(raw) -> DeviceProfile:
    if not isinstance(raw, dict):
        raise DeviceError("a profile must be a JSON object")
    required = ("name", "technology", "num_qubits", "basis_gates",
                "coupling", "fidelity_1q", "fidelity_2q")
    missing = [k for k in required if k not in raw]
    if missing:
        raise DeviceError(f"profile missing fields: {', '.join(missing)}")
    coupling, f2q = raw["coupling"], raw["fidelity_2q"]
    if not isinstance(raw["basis_gates"], list):  # not a string, read as one gate a letter
        raise DeviceError("basis_gates must be a list of gate names")
    try:
        num_qubits = integer(raw["num_qubits"], "num_qubits")
        if coupling != "all-to-all":
            coupling = tuple((integer(a, "coupling qubit"), integer(b, "coupling qubit"))
                             for a, b in coupling)
        if isinstance(f2q, dict):
            f2q = {_pair(key): number(f, f"fidelity_2q[{key}]") for key, f in f2q.items()}
        else:
            f2q = number(f2q, "fidelity_2q")
        name = string(raw["name"], "name")
        basis = tuple(string(g, "basis gate") for g in raw["basis_gates"])
        f1q = {g: number(f, f"fidelity_1q[{g}]") for g, f in raw["fidelity_1q"].items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise DeviceError(f"malformed profile ({type(exc).__name__}: {exc})") from None
    if num_qubits > MAX_QUBITS:
        # an int's repr can run to thousands of digits, so it is not echoed
        raise DeviceError(f"num_qubits must be at most {MAX_QUBITS}")
    return DeviceProfile(name, raw["technology"], num_qubits, basis, coupling, f1q, f2q)


_PAIR_KEY = re.compile("[0-9]+-[0-9]+")


def _pair(key: str) -> tuple[int, int]:
    """A fidelity_2q key "a-b" as its ordered pair; ValueError for any other text."""
    if not _PAIR_KEY.fullmatch(key):
        raise ValueError(f"fidelity_2q key {key!r} is not of the form \"a-b\"")
    return tuple(sorted(map(int, key.split("-"))))


def bundled_profile_names() -> tuple[str, ...]:
    files = resources.files("qtp.profiles")
    return tuple(sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json")))


def bundled_profile(name: str) -> DeviceProfile:
    path = resources.files("qtp.profiles").joinpath(f"{name}.json")
    if not path.is_file():
        raise DeviceError(f"no bundled profile {name!r}; have {bundled_profile_names()}")
    return load_profile(loads(path.read_text(encoding="utf-8")))


def bundled_profiles() -> tuple[DeviceProfile, ...]:
    return tuple(bundled_profile(n) for n in bundled_profile_names())
