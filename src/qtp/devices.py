"""Device profiles: gate set, topology and calibration-style fidelities.

Profiles are plain JSON so users can describe their own hardware.  Two
bundled profiles ship with the package, a trapped-ion device with all-to-all
coupling and a superconducting device on a heavy-hex style lattice.

A profile memoizes what the compiler asks of it, each entry filled on first
use: hop rows, next hops, fidelities, each cx pair in the basis
(`native_cx`: the (0, 1) template relabelled, checked when filled, with its
fidelities and its split at the 2-qubit op that `transpile.route` routes) and
each SWAP pair (`native_swap`: the three cx that lowering writes for a SWAP,
each taken from `native_cx`).  The per-circuit u3 memo is `route`'s own.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .circuit import GateInstance, check_gate
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
    # Compiler memos, filled on first use so that building a profile stays
    # cheap.  They are not init fields: every instance, a dataclasses.replace
    # copy with other fidelities too, starts from empty ones.
    _hops: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _next_hop: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _fidelities: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _swaps: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _cxs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        d = self._hop_row(b)[a]
        if d < 0:
            raise DeviceError(f"qubits {a} and {b} are not connected on {self.name}")
        return d

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
        """Smallest-index neighbor of a that is one hop closer to b; memoized.

        a and b must be distinct and not coupled; raises DeviceError when no
        path joins them.
        """
        hop = self._next_hop.get((a, b))
        if hop is None:
            closer = self.qubit_distance(a, b) - 1
            to_b = self._hop_row(b)  # coupling is undirected: w's distance to b
            hop = next(w for w in self.neighbors(a) if to_b[w] == closer)
            self._next_hop[a, b] = hop
        return hop

    def native_cx(self, a: int, b: int) -> tuple:
        """cx(a, b) in basis gates: (ops, fidelities, shape); memoized, each op
        checked when its entry is filled.

        The (0, 1) entry is the template every other pair relabels.  a and b
        come from a checked cx, so the check is on the template's kinds,
        distinct qubits and angles.

        shape = (split, before, after) is the template's, shared by every
        entry.  ops[split] is the one 2-qubit op, so ops[:split] are 1q ops,
        after which wires a and b sit before[0] and before[1] levels higher.
        ops[split:] start on both wires, so after them wire a sits at
        after[0] and wire b at after[1] levels above the higher of the two
        wires' levels at their start.  Routing runs ops[:split] on the pair
        as it stands and ops[split:] on the pair that SWAPs made coupled.
        So the fidelities cover all of ops only when a and b are coupled; on
        an uncoupled pair they cover ops[:split], as a 2-qubit op there has
        no fidelity.
        """
        entry = self._cxs.get((a, b))
        if entry is None:
            if (a, b) == (0, 1):
                from .transpile.rebase import cx_template  # the transpiler imports this module

                ops = cx_template(self)
                split = next(i for i, op in enumerate(ops) if len(op.qubits) == 2)
                before = _reach(ops[:split], 0, 1)
                after = _reach(ops[split:], 0, 1)
                # the 1q ops before the split reach no other wire, and the
                # ops after it start from the higher of the two wires
                shape = (split, (before[0][0], before[1][1]), (after[0][0], after[1][0]))
            else:
                template, _, shape = self.native_cx(0, 1)
                wires = {(0,): (a,), (1,): (b,), (0, 1): (a, b), (1, 0): (b, a)}
                ops = tuple(GateInstance(op.kind, wires[op.qubits], op.params) for op in template)
            for op in ops:
                check_gate(op, max(a, b) + 1)
            scored = ops if self.is_coupled(a, b) else ops[:shape[0]]
            entry = self._cxs[a, b] = (ops, tuple(map(self.compiled_fidelity, scored)), shape)
        return entry

    def native_swap(self, u: int, v: int) -> tuple:
        """SWAP of coupled qubits u, v in basis gates: (ops, fidelities, reach); memoized.

        The ops are native_cx(u, v), native_cx(v, u), native_cx(u, v): lowering
        writes a SWAP as those three cx, and routing takes each from native_cx.
        After the SWAP, wire u sits at level max(level_u + reach[0][0],
        level_v + reach[0][1]) and wire v at max(level_u + reach[1][0],
        level_v + reach[1][1]), which is what circuit_depth counts op by op.
        """
        entry = self._swaps.get((u, v))
        if entry is None:
            (uv, f_uv, _), (vu, f_vu, _) = self.native_cx(u, v), self.native_cx(v, u)
            ops = uv + vu + uv
            reach = _reach(ops, u, v)
            entry = self._swaps[u, v] = (ops, f_uv + f_vu + f_uv,
                                         (tuple(map(int, reach[0])), tuple(map(int, reach[1]))))
        return entry

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

    def compiled_fidelity(self, op: GateInstance) -> float:
        """gate_fidelity(op), memoized on (kind, qubits); a failed lookup is not stored."""
        key = (op.kind, op.qubits)
        f = self._fidelities.get(key)
        if f is None:
            f = self._fidelities[key] = self.gate_fidelity(op)
        return f


def _reach(ops, u: int, v: int) -> tuple:
    """Levels each of wires u and v gains over ops, from each wire's start:
    result[w][x] for w, x in (u, v), -inf where no op links wire x to wire w."""
    reach = {u: (0, -math.inf), v: (-math.inf, 0)}
    for op in ops:
        after = tuple(max(reach[w][x] for w in op.qubits) + 1 for x in (0, 1))
        for w in op.qubits:
            reach[w] = after
    return reach[u], reach[v]


def _check_fidelity(f: float, what: str) -> None:
    if not isinstance(f, (int, float)) or not 0.0 < float(f) <= 1.0:
        raise DeviceError(f"{what} must be in (0, 1], got {f!r}")


def load_profile(source: str | Path | dict) -> DeviceProfile:
    """Build a profile from a JSON file path or an already-parsed dict."""
    if not isinstance(source, (str, Path)):
        return _profile_from_json(source)
    try:
        raw = json.loads(Path(source).read_text())
    except (RecursionError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise DeviceError(f"{source}: invalid JSON ({exc})") from None
    try:
        return _profile_from_json(raw)
    except DeviceError as exc:
        raise DeviceError(f"{source}: {exc}") from None


def _profile_from_json(raw) -> DeviceProfile:
    if not isinstance(raw, dict):
        raise DeviceError("a profile must be a JSON object")
    required = ("name", "technology", "num_qubits", "basis_gates",
                "coupling", "fidelity_1q", "fidelity_2q")
    missing = [k for k in required if k not in raw]
    if missing:
        raise DeviceError(f"profile missing fields: {', '.join(missing)}")
    # JSON gives exactly int, float, bool, str, None, list or dict: 1e7 and true are no count
    if type(raw["num_qubits"]) is not int:
        raise DeviceError(f"num_qubits must be an integer, got {raw['num_qubits']!r}")
    coupling = raw["coupling"]
    if coupling != "all-to-all" and not isinstance(coupling, list):
        raise DeviceError("coupling must be \"all-to-all\" or a list of pairs")
    try:
        if coupling != "all-to-all":
            coupling = tuple((int(a), int(b)) for a, b in coupling)
        f2q = raw["fidelity_2q"]
        if isinstance(f2q, dict):
            parsed = {}
            for key, val in f2q.items():
                try:
                    a, b = (int(x) for x in key.split("-"))
                except ValueError:
                    raise ValueError(f"fidelity_2q key {key!r} is not of the form \"a-b\"") from None
                parsed[(a, b) if a < b else (b, a)] = float(val)
            f2q = parsed
        else:
            f2q = float(f2q)
        fields = {
            "name": str(raw["name"]),
            "technology": str(raw["technology"]),
            "num_qubits": raw["num_qubits"],
            "basis_gates": tuple(str(g) for g in raw["basis_gates"]),
            "coupling": coupling,
            "fidelity_1q": {str(g): float(f) for g, f in raw["fidelity_1q"].items()},
            "fidelity_2q": f2q,
        }
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise DeviceError(f"malformed profile ({type(exc).__name__}: {exc})") from None
    return DeviceProfile(**fields)


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
