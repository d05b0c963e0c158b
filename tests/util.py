"""Shared helpers for the test suite: circuit building, random circuits and unitary oracles."""

import numpy as np

from qtp.circuit import Circuit, GateInstance
from qtp.gates import VOCABULARY
from unitary import circuit_unitary, phase_aligned_distance


def add(circ: Circuit, kind, qubits, params=()) -> None:
    """Append one gate, its qubits coerced to int and its parameters to float."""
    circ.append(GateInstance(kind, tuple(int(q) for q in qubits), tuple(float(p) for p in params)))


def random_circuit(rng, nq: int, n_ops: int, gate_pool=None, name="rand") -> Circuit:
    pool = [k for k in (gate_pool or VOCABULARY) if k.arity <= nq]
    circ = Circuit(nq, name=name)
    for _ in range(n_ops):
        kind = pool[rng.integers(len(pool))]
        qubits = tuple(int(q) for q in rng.choice(nq, size=kind.arity, replace=False))
        params = tuple(float(x) for x in rng.uniform(-2 * np.pi, 2 * np.pi, kind.param_count))
        circ.append(GateInstance(kind, qubits, params))
    return circ


def permutation_unitary(l2p_full, n: int) -> np.ndarray:
    """Permutation matrix moving each big-endian qubit q to position l2p_full[q]."""
    dim = 1 << n
    P = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        out = 0
        for q in range(n):
            bit = (b >> (n - 1 - q)) & 1
            out |= bit << (n - 1 - l2p_full[q])
        P[out, b] = 1.0
    return P


def ops_unitary(ops, num_qubits: int) -> np.ndarray:
    body = Circuit(num_qubits)
    for op in ops:
        body.append(op)
    return circuit_unitary(body)


def compiled_distance(circ: Circuit, compiled) -> float:
    """Max element error between the compiled unitary and the routed original.

    Routing may permute qubits; the oracle applies the final layout as a
    permutation on top of the input unitary (extra device qubits idle).
    """
    n = compiled.num_qubits
    u_compiled = ops_unitary(compiled.ops, n)
    u_orig = circuit_unitary(circ)
    pad = n - circ.num_qubits
    if pad:
        u_orig = np.kron(u_orig, np.eye(1 << pad))
    used = list(compiled.layout)
    full = used + [p for p in range(n) if p not in used]
    return phase_aligned_distance(u_compiled, permutation_unitary(full, n) @ u_orig)
