"""Lowering of the full vocabulary to the canonical {u3, cx} pair.

Single-qubit gates map to one u3.  Multi-qubit gates expand through fixed
templates; inside controlled templates every sub-gate uses its exact u3 form
(no hidden relative phases), so the expansion of any gate matches its matrix
up to at most a global phase.
"""

from __future__ import annotations

import math

from ..circuit import Circuit, GateInstance
from ..gates import GateKind

PI = math.pi
HALF_PI = math.pi / 2


def _u3(q: int, theta: float, phi: float, lam: float) -> GateInstance:
    return GateInstance(GateKind.U3, (q,), (theta, phi, lam))


def _cx(a: int, b: int) -> GateInstance:
    return GateInstance(GateKind.CX, (a, b))


# (theta, phi, lambda) per fixed 1q gate; all exact except sx/sxdg which
# carry a global phase (fine at whole-circuit level).
_ONE_QUBIT_ANGLES: dict[GateKind, tuple[float, float, float]] = {
    GateKind.ID: (0.0, 0.0, 0.0),
    GateKind.X: (PI, 0.0, PI),
    GateKind.Y: (PI, HALF_PI, HALF_PI),
    GateKind.Z: (0.0, 0.0, PI),
    GateKind.H: (HALF_PI, 0.0, PI),
    GateKind.S: (0.0, 0.0, HALF_PI),
    GateKind.SDG: (0.0, 0.0, -HALF_PI),
    GateKind.T: (0.0, 0.0, PI / 4),
    GateKind.TDG: (0.0, 0.0, -PI / 4),
    GateKind.SX: (HALF_PI, -HALF_PI, HALF_PI),
    GateKind.SXDG: (HALF_PI, HALF_PI, -HALF_PI),
}


def _lower_one(op: GateInstance) -> list[GateInstance]:
    k = op.kind
    q = op.qubits
    p = op.params
    if k is GateKind.CX:
        return [op]
    if k in (GateKind.U3, GateKind.U):
        return [_u3(q[0], *p)]
    if k in _ONE_QUBIT_ANGLES:
        return [_u3(q[0], *_ONE_QUBIT_ANGLES[k])]
    if k is GateKind.RX:
        return [_u3(q[0], p[0], -HALF_PI, HALF_PI)]
    if k is GateKind.RY:
        return [_u3(q[0], p[0], 0.0, 0.0)]
    if k in (GateKind.RZ, GateKind.P, GateKind.U1):
        return [_u3(q[0], 0.0, 0.0, p[0])]
    if k is GateKind.U2:
        return [_u3(q[0], HALF_PI, p[0], p[1])]

    a, b = q[0], q[1]
    if k is GateKind.CY:
        return [_u3(b, 0, 0, -HALF_PI), _cx(a, b), _u3(b, 0, 0, HALF_PI)]
    if k is GateKind.CZ:
        h = _ONE_QUBIT_ANGLES[GateKind.H]
        return [_u3(b, *h), _cx(a, b), _u3(b, *h)]
    if k is GateKind.CH:
        # qelib1 ch, inlined to exact u3 forms
        h = _ONE_QUBIT_ANGLES[GateKind.H]
        return [
            _u3(b, *h),
            _u3(b, 0, 0, -HALF_PI),
            _cx(a, b),
            _u3(b, *h),
            _u3(b, 0, 0, PI / 4),
            _cx(a, b),
            _u3(b, 0, 0, PI / 4),
            _u3(b, *h),
            _u3(b, 0, 0, HALF_PI),
            _u3(b, PI, 0, PI),
            _u3(a, 0, 0, HALF_PI),
        ]
    if k is GateKind.CP:
        lam = p[0]
        return [
            _u3(a, 0, 0, lam / 2),
            _cx(a, b),
            _u3(b, 0, 0, -lam / 2),
            _cx(a, b),
            _u3(b, 0, 0, lam / 2),
        ]
    if k is GateKind.CRX:
        th = p[0]
        return [
            _u3(b, 0, 0, HALF_PI),
            _cx(a, b),
            _u3(b, -th / 2, 0, 0),
            _cx(a, b),
            _u3(b, th / 2, -HALF_PI, 0),
        ]
    if k is GateKind.CRY:
        th = p[0]
        return [_u3(b, th / 2, 0, 0), _cx(a, b), _u3(b, -th / 2, 0, 0), _cx(a, b)]
    if k is GateKind.CRZ:
        th = p[0]
        return [_u3(b, 0, 0, th / 2), _cx(a, b), _u3(b, 0, 0, -th / 2), _cx(a, b)]
    if k is GateKind.CU:
        th, phi, lam = p
        return [
            _u3(a, 0, 0, (lam + phi) / 2),
            _u3(b, 0, 0, (lam - phi) / 2),
            _cx(a, b),
            _u3(b, -th / 2, 0, -(phi + lam) / 2),
            _cx(a, b),
            _u3(b, th / 2, phi, 0),
        ]
    if k is GateKind.SWAP:
        return [_cx(a, b), _cx(b, a), _cx(a, b)]
    if k is GateKind.RZZ:
        return [_cx(a, b), _u3(b, 0, 0, p[0]), _cx(a, b)]
    if k is GateKind.RXX:
        h = _ONE_QUBIT_ANGLES[GateKind.H]
        inner = _lower_one(GateInstance(GateKind.RZZ, (a, b), p))
        return [_u3(a, *h), _u3(b, *h), *inner, _u3(a, *h), _u3(b, *h)]
    if k is GateKind.RYY:
        # conjugate rzz by rx(pi/2) on both wires
        pre = (HALF_PI, -HALF_PI, HALF_PI)
        post = (HALF_PI, HALF_PI, -HALF_PI)  # rx(-pi/2)
        inner = _lower_one(GateInstance(GateKind.RZZ, (a, b), p))
        return [_u3(a, *pre), _u3(b, *pre), *inner, _u3(a, *post), _u3(b, *post)]
    if k is GateKind.ECR:
        # ecr = rzx(-pi/2) after x on the first qubit
        h = _ONE_QUBIT_ANGLES[GateKind.H]
        return [
            _u3(a, PI, 0, PI),
            _u3(b, *h),
            _cx(a, b),
            _u3(b, 0, 0, -HALF_PI),
            _cx(a, b),
            _u3(b, *h),
        ]
    if k is GateKind.CCX:
        c = q[2]
        h = _ONE_QUBIT_ANGLES[GateKind.H]
        t = (0.0, 0.0, PI / 4)
        tdg = (0.0, 0.0, -PI / 4)
        return [
            _u3(c, *h),
            _cx(b, c),
            _u3(c, *tdg),
            _cx(a, c),
            _u3(c, *t),
            _cx(b, c),
            _u3(c, *tdg),
            _cx(a, c),
            _u3(b, *t),
            _u3(c, *t),
            _cx(a, b),
            _u3(c, *h),
            _u3(a, *t),
            _u3(b, *tdg),
            _cx(a, b),
        ]
    if k is GateKind.CSWAP:
        c, t1, t2 = q
        inner = _lower_one(GateInstance(GateKind.CCX, (c, t1, t2)))
        return [_cx(t2, t1), *inner, _cx(t2, t1)]
    raise ValueError(f"no lowering for {k}")


def lower_to_canonical(circ: Circuit) -> Circuit:
    """Expand every op into u3/cx; output touches the same qubits."""
    out: list[GateInstance] = []
    for op in circ.ops:
        out.extend(_lower_one(op))
    return Circuit(circ.num_qubits, out, name=circ.name)
