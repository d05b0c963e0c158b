"""Dense unitary simulation of small circuits.

Test oracle only: every matrix is built by explicit kron-style embedding, so
it is independent of the template algebra in lower/rebase.  Capped at 3
qubits; the semantic checks never need more.

Convention: qubit 0 is the most significant bit of the state index, and for
controlled gates the first listed qubit is the control.
"""

from __future__ import annotations

import math

import numpy as np

from qtp.circuit import Circuit, GateInstance
from qtp.gates import GateKind

_SQ2 = 1.0 / math.sqrt(2.0)


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def _phase(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * lam)]])


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([
        [c, -np.exp(1j * lam) * s],
        [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
    ])


def _u2(phi: float, lam: float) -> np.ndarray:
    return _u3(math.pi / 2, phi, lam)


def _controlled(u: np.ndarray) -> np.ndarray:
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = u
    return out


def _two_axis(pauli: np.ndarray, theta: float) -> np.ndarray:
    # exp(-i theta/2 P x P) for a 1q Pauli P
    pp = np.kron(pauli, pauli)
    return math.cos(theta / 2) * np.eye(4) - 1j * math.sin(theta / 2) * pp


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_FIXED: dict[GateKind, np.ndarray] = {
    GateKind.ID: np.eye(2, dtype=complex),
    GateKind.X: _X,
    GateKind.Y: _Y,
    GateKind.Z: _Z,
    GateKind.H: _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex),
    GateKind.S: _phase(math.pi / 2),
    GateKind.SDG: _phase(-math.pi / 2),
    GateKind.T: _phase(math.pi / 4),
    GateKind.TDG: _phase(-math.pi / 4),
    GateKind.SX: 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    GateKind.SXDG: 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]),
    GateKind.CX: _controlled(_X),
    GateKind.CY: _controlled(_Y),
    GateKind.CZ: _controlled(_Z),
    GateKind.CH: _controlled(_SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)),
    GateKind.SWAP: np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
    # (X o I - Y o X) / sqrt(2), first qubit on the left factor
    GateKind.ECR: _SQ2 * (np.kron(_X, np.eye(2)) - np.kron(_Y, _X)),
}

_CCX = np.eye(8, dtype=complex)
_CCX[[6, 7], :] = _CCX[[7, 6], :]
_FIXED[GateKind.CCX] = _CCX

_CSWAP = np.eye(8, dtype=complex)
_CSWAP[[5, 6], :] = _CSWAP[[6, 5], :]
_FIXED[GateKind.CSWAP] = _CSWAP


def gate_matrix(op: GateInstance) -> np.ndarray:
    """Unitary of one gate on its own qubits, first qubit most significant."""
    k = op.kind
    if k in _FIXED:
        return _FIXED[k]
    p = op.params
    if k is GateKind.RX:
        return _rx(p[0])
    if k is GateKind.RY:
        return _ry(p[0])
    if k is GateKind.RZ:
        return _rz(p[0])
    if k in (GateKind.P, GateKind.U1):
        return _phase(p[0])
    if k is GateKind.U2:
        return _u2(p[0], p[1])
    if k in (GateKind.U3, GateKind.U):
        return _u3(p[0], p[1], p[2])
    if k is GateKind.CP:
        return _controlled(_phase(p[0]))
    if k is GateKind.CRX:
        return _controlled(_rx(p[0]))
    if k is GateKind.CRY:
        return _controlled(_ry(p[0]))
    if k is GateKind.CRZ:
        return _controlled(_rz(p[0]))
    if k is GateKind.CU:
        return _controlled(_u3(p[0], p[1], p[2]))
    if k is GateKind.RXX:
        return _two_axis(_X, p[0])
    if k is GateKind.RYY:
        return _two_axis(_Y, p[0])
    if k is GateKind.RZZ:
        return _two_axis(_Z, p[0])
    raise ValueError(f"no matrix for {k}")


def _embed(mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Lift a k-qubit matrix onto an n-qubit space at the given positions."""
    dim = 1 << n
    k = len(qubits)
    out = np.zeros((dim, dim), dtype=complex)
    shifts = [n - 1 - q for q in qubits]
    for col in range(dim):
        sub_col = 0
        for sh in shifts:
            sub_col = (sub_col << 1) | ((col >> sh) & 1)
        base = col
        for sh in shifts:
            base &= ~(1 << sh)
        for sub_row in range(1 << k):
            amp = mat[sub_row, sub_col]
            if amp == 0:
                continue
            row = base
            for i, sh in enumerate(shifts):
                row |= ((sub_row >> (k - 1 - i)) & 1) << sh
            out[row, col] += amp
    return out


def circuit_unitary(circ: Circuit | list[GateInstance], num_qubits: int | None = None) -> np.ndarray:
    """Full unitary of a circuit on at most 3 qubits."""
    if isinstance(circ, Circuit):
        ops, n = circ.ops, circ.num_qubits
    else:
        ops = circ
        n = num_qubits if num_qubits is not None else 1 + max(
            (q for op in ops for q in op.qubits), default=0
        )
    if n > 3:
        raise ValueError(f"unitary oracle capped at 3 qubits, got {n}")
    u = np.eye(1 << n, dtype=complex)
    for op in ops:
        u = _embed(gate_matrix(op), op.qubits, n) @ u
    return u


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Max elementwise distance between u and v after removing global phase."""
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch {u.shape} vs {v.shape}")
    idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    ref = v[idx] / u[idx]
    mag = abs(ref)
    if mag < 1e-12:
        return float(np.max(np.abs(u - v)))
    return float(np.max(np.abs(u - v * (mag / ref))))
