"""Rebase canonical {u3, cx} circuits onto a device's native gate set.

Single-qubit support requires either {rz, sx} (x optional) or {rx, ry, rz};
the two-qubit native must be one of cx, ecr, rxx.  u3 goes through a
ZXZXZ or ZYZ Euler form with exact-match shortcuts for gates that are
already native, and rotations within 1e-12 of the identity are dropped.

Expansions are made once and shared: each distinct u3 once per call, and
the rest once per profile, in its `NativeGates` (`native_gates(profile)`),
made on first use.  Making it works out the basis, the 1q style and the cx
template on (0, 1), and refuses a basis that cannot express arbitrary
circuits.  It memoizes, each entry on first use, the fidelity of each
distinct native op, each cx pair (the template relabelled), each SWAP of a
coupled pair and each SWAP chain of an uncoupled one.  The template is no
entry of its own: only the pairs a compiled circuit uses are scored, so a
per-pair `fidelity_2q` need cover no other pair.  `rebase` is the pass on
its own; the label path does not run it, as `route` expands each op with
`_rebase_u3` and `native_cx` as it routes.

No expansion is checked: kinds, arity and parameter counts come from the
templates above, and qubits from the checked input op.  A cx expansion's
angles are the template's constants.  Every emitted u3 angle is a finite
input angle or has passed `_is_zero`, whose `fmod` raises
ValueError ("math domain error") on a sum that overflowed to +-inf, which
`rebase` and `route` raise again as RebaseError; a sum of two finite floats
is never NaN.
"""

from __future__ import annotations

import math
import weakref

from .. import DataError
from ..circuit import Circuit, GateInstance
from ..gates import GateKind

_TOL = 1e-12
_TWO_PI = 2.0 * math.pi
PI = math.pi
HALF_PI = math.pi / 2


class RebaseError(DataError):
    """The device basis cannot express arbitrary circuits, or an angle sum overflowed."""


def _is_zero(angle: float) -> bool:
    a = math.fmod(angle, _TWO_PI)
    if a < 0:
        a += _TWO_PI
    return a < _TOL or _TWO_PI - a < _TOL


def _congruent(angle: float, target: float) -> bool:
    return _is_zero(angle - target)


def _g(kind: GateKind, q: int, *params: float) -> GateInstance:
    return GateInstance(kind, (q,), tuple(params))


def _rebase_u3(q: int, theta: float, phi: float, lam: float,
               style: str, basis: frozenset[str]) -> list[GateInstance]:
    if _is_zero(theta):
        if _is_zero(phi + lam):
            return []
        return [_g(GateKind.RZ, q, phi + lam)]
    if style == "zxzxz":
        if (_congruent(theta, HALF_PI) and _congruent(phi, -HALF_PI)
                and _congruent(lam, HALF_PI)):
            return [_g(GateKind.SX, q)]
        if ("x" in basis and _congruent(theta, PI) and _is_zero(phi)
                and _congruent(lam, PI)):
            return [_g(GateKind.X, q)]
        out = []
        if not _is_zero(lam + PI):
            out.append(_g(GateKind.RZ, q, lam + PI))
        out.append(_g(GateKind.SX, q))
        if not _is_zero(PI - theta):
            out.append(_g(GateKind.RZ, q, PI - theta))
        out.append(_g(GateKind.SX, q))
        if not _is_zero(phi):
            out.append(_g(GateKind.RZ, q, phi))
        return out
    # zyz
    if "rx" in basis and _congruent(phi, -HALF_PI) and _congruent(lam, HALF_PI):
        return [_g(GateKind.RX, q, theta)]
    if _is_zero(phi) and _is_zero(lam):
        return [_g(GateKind.RY, q, theta)]
    out = []
    if not _is_zero(lam):
        out.append(_g(GateKind.RZ, q, lam))
    out.append(_g(GateKind.RY, q, theta))
    if not _is_zero(phi):
        out.append(_g(GateKind.RZ, q, phi))
    return out


def _rebase_cx(a: int, b: int, native: str, style: str,
               basis: frozenset[str]) -> list[GateInstance]:
    if native == "cx":
        return [GateInstance(GateKind.CX, (a, b))]
    if native == "ecr":
        # cx = (x a) . ecr . (rz(pi/2) a, rx(pi/2) b), up to global phase
        return [
            *_rebase_u3(a, PI, 0, PI, style, basis),
            GateInstance(GateKind.ECR, (a, b)),
            *_rebase_u3(a, 0, 0, HALF_PI, style, basis),
            *_rebase_u3(b, HALF_PI, -HALF_PI, HALF_PI, style, basis),
        ]
    # rxx: conjugate the zx interaction onto xx with ry on the control
    return [
        *_rebase_u3(a, HALF_PI, 0, 0, style, basis),               # ry(pi/2)
        GateInstance(GateKind.RXX, (a, b), (-HALF_PI,)),
        *_rebase_u3(a, -HALF_PI, 0, 0, style, basis),              # ry(-pi/2)
        *_rebase_u3(a, 0, 0, HALF_PI, style, basis),               # rz(pi/2)
        *_rebase_u3(b, HALF_PI, -HALF_PI, HALF_PI, style, basis),  # rx(pi/2)
    ]


class NativeGates:
    """One profile's native cx, SWAPs, SWAP chains and op fidelities, memoized."""

    def __init__(self, profile):
        basis = frozenset(profile.basis_gates)
        native = next((g for g in ("cx", "ecr", "rxx") if g in basis), None)
        if native is None:
            raise RebaseError(f"no supported 2q native in basis {sorted(basis)}")
        if {"rz", "sx"} <= basis:
            self.style = "zxzxz"
        elif {"rx", "ry", "rz"} <= basis:
            self.style = "zyz"
        else:
            raise RebaseError(f"basis {sorted(basis)} lacks universal 1q coverage")
        self.basis = basis
        self.template = tuple(_rebase_cx(0, 1, native, self.style, basis))
        split = next(i for i, op in enumerate(self.template) if len(op.qubits) == 2)
        before = _reach(self.template[:split], 0, 1)
        after = _reach(self.template[split:], 0, 1)
        # the 1q ops before the split reach no other wire, and the ops after
        # it start from the higher of the two wires
        self.shape = (split, (before[0][0], before[1][1]), (after[0][0], after[1][0]))
        # the profile keeps this object: a strong reference back would be a cycle
        self.profile = weakref.proxy(profile)
        self._fidelities, self._cxs, self._cx_1q, self._swaps, self._chains = {}, {}, {}, {}, {}

    def compiled_fidelity(self, op: GateInstance) -> float:
        """gate_fidelity(op), memoized on (kind, qubits); a failed lookup is not stored."""
        key = (op.kind, op.qubits)
        f = self._fidelities.get(key)
        if f is None:
            f = self._fidelities[key] = self.profile.gate_fidelity(op)
        return f

    def native_cx(self, a: int, b: int) -> tuple:
        """cx(a, b) in basis gates: (ops, fidelities, shape); memoized.

        The template relabelled onto (a, b), which come from a checked cx, so
        its records, made from constants, need no check of their own.
        Template op i put on qubit q is one 1q record, made for the first
        entry that needs it and shared by every later one, so an entry adds
        only its 2-qubit op and the 1q ops no earlier entry has made.

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
            wires = {(0,): (a,), (1,): (b,), (0, 1): (a, b), (1, 0): (b, a)}
            ops = []
            for i, op in enumerate(self.template):
                qubits = wires[op.qubits]
                shared = len(qubits) == 1
                record = self._cx_1q.get((i, qubits)) if shared else None
                if record is None:
                    record = GateInstance(op.kind, qubits, op.params)
                    if shared:
                        self._cx_1q[i, qubits] = record
                ops.append(record)
            ops = tuple(ops)
            scored = ops if self.profile.is_coupled(a, b) else ops[:self.shape[0]]
            entry = self._cxs[a, b] = (ops, tuple(map(self.compiled_fidelity, scored)), self.shape)
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

    def swap_chain(self, a: int, b: int) -> tuple:
        """The SWAPs that make uncoupled a and b coupled: (hops, swaps); memoized.

        a hops to the profile's next_hop(a, b) until it is coupled to b: hops
        lists the qubits it reaches in turn, and swaps[i] is the native_swap
        entry itself (one joined tuple per chain ran no faster and held about
        1.3 MB more on the bundled heavy-hex profile after labelling
        corpus200) for the qubit it leaves and hops[i].  Raises DeviceError,
        and stores nothing, when no path joins a and b.
        """
        entry = self._chains.get((a, b))
        if entry is None:
            hops, swaps = [], []
            u = a
            while not self.profile.is_coupled(u, b):
                v = self.profile.next_hop(u, b)
                hops.append(v)
                swaps.append(self.native_swap(u, v))
                u = v
            entry = self._chains[a, b] = (tuple(hops), tuple(swaps))
        return entry


def native_gates(profile) -> NativeGates:
    """The profile's NativeGates, made on first use; raises RebaseError, and
    keeps nothing, for a basis that cannot express arbitrary circuits."""
    gates = profile._native
    if gates is None:
        gates = NativeGates(profile)
        object.__setattr__(profile, "_native", gates)  # the profile is a frozen dataclass
    return gates


def _reach(ops, u: int, v: int) -> tuple:
    """Levels each of wires u and v gains over ops, from each wire's start:
    result[w][x] for w, x in (u, v), -inf where no op links wire x to wire w."""
    reach = {u: (0, -math.inf), v: (-math.inf, 0)}
    for op in ops:
        after = tuple(max(reach[w][x] for w in op.qubits) + 1 for x in (0, 1))
        for w in op.qubits:
            reach[w] = after
    return reach[u], reach[v]


def rebase(circ: Circuit, profile) -> Circuit:
    """Rewrite a canonical circuit into profile.basis_gates.

    A u3 is keyed on its qubit and angles, compared by value: 0.0, -0.0 and
    the int 0 of lowering templates share a key, which is safe because a zero
    angle is never emitted.  An angle whose expansion overflows raises
    RebaseError ("math domain error") from the identity test.
    """
    gates = native_gates(profile)
    n = circ.num_qubits
    native_cx = gates.native_cx
    u3s: dict[tuple, list[GateInstance]] = {}
    out: list[GateInstance] = []
    for op in circ.ops:
        if op.kind is GateKind.CX:
            out.extend(native_cx(*op.qubits)[0])
        elif op.kind is GateKind.U3:
            key = (op.qubits, op.params)
            ops = u3s.get(key)
            if ops is None:
                try:
                    ops = u3s[key] = _rebase_u3(op.qubits[0], *op.params, gates.style, gates.basis)
                except ValueError as exc:  # "math domain error": an angle sum overflowed
                    raise RebaseError(*exc.args) from None
            out.extend(ops)
        else:
            raise RebaseError(f"rebase expects canonical {{u3, cx}} input, got {op.kind.value}")
    rebased = Circuit(n, name=circ.name)
    rebased.ops = out  # built from checked input by templates; see the module docstring
    return rebased
