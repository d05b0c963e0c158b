"""Rebase canonical {u3, cx} circuits onto a device's native gate set.

Single-qubit support requires either {rz, sx} (x optional) or {rx, ry, rz};
the two-qubit native must be one of cx, ecr, rxx.  u3 goes through a
ZXZXZ or ZYZ Euler form with exact-match shortcuts for gates that are
already native, and rotations within 1e-12 of the identity are dropped.

Expansions are made once and shared: each distinct u3 once per call, each cx
pair once per profile (`DeviceProfile.native_cx`, which relabels the cx
template on (0, 1) and checks each entry when it is filled).  `rebase` is the
pass on its own; the label path does not run it, as `route` expands each op
with this module's `_rebase_u3` and the profile's `native_cx` as it routes.

u3 expansions are not checked: kinds, arity and parameter counts come from
the templates above, and qubits from the checked input op.  Every emitted
angle is a finite input angle or has passed `_is_zero`, whose `fmod` raises
ValueError ("math domain error") on a sum that overflowed to +-inf, which
`rebase` and `route` raise again as RebaseError; a sum of two finite floats
is never NaN.
"""

from __future__ import annotations

import math

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


def _pick_native_2q(basis: frozenset[str]) -> str:
    for name in ("cx", "ecr", "rxx"):
        if name in basis:
            return name
    raise RebaseError(f"no supported 2q native in basis {sorted(basis)}")


def _pick_1q_style(basis: frozenset[str]) -> str:
    if "rz" in basis and "sx" in basis:
        return "zxzxz"
    if "rx" in basis and "ry" in basis and "rz" in basis:
        return "zyz"
    raise RebaseError(f"basis {sorted(basis)} lacks universal 1q coverage")


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


def cx_template(profile) -> tuple[GateInstance, ...]:
    """cx(0, 1) in the profile's basis; `DeviceProfile.native_cx` relabels it per pair."""
    basis = frozenset(profile.basis_gates)
    return tuple(_rebase_cx(0, 1, _pick_native_2q(basis), _pick_1q_style(basis), basis))


def basis_style(profile) -> tuple[frozenset[str], str]:
    """(basis, 1q style) of a profile; raises RebaseError when the basis cannot
    express arbitrary circuits, whether or not a circuit has a cx."""
    basis = frozenset(profile.basis_gates)
    _pick_native_2q(basis)
    return basis, _pick_1q_style(basis)


def rebase(circ: Circuit, profile) -> Circuit:
    """Rewrite a canonical circuit into profile.basis_gates.

    A u3 is keyed on its qubit and angles, compared by value: 0.0, -0.0 and
    the int 0 of lowering templates share a key, which is safe because a zero
    angle is never emitted.  An angle whose expansion overflows raises
    RebaseError ("math domain error") from the identity test.
    """
    basis, style = basis_style(profile)
    n = circ.num_qubits
    native_cx = profile.native_cx
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
                    ops = u3s[key] = _rebase_u3(op.qubits[0], *op.params, style, basis)
                except ValueError as exc:  # "math domain error": an angle sum overflowed
                    raise RebaseError(*exc.args) from None
            out.extend(ops)
        else:
            raise RebaseError(f"rebase expects canonical {{u3, cx}} input, got {op.kind.value}")
    rebased = Circuit(n, name=circ.name)
    rebased.ops = out  # built from checked input by templates; see the module docstring
    return rebased
