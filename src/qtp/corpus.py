"""Synthetic circuit corpus for training and benchmarks.

Four families, mixed by weight: GHZ-style chains (nearest-neighbor
entanglement), layered blocks of entangling gates over random pairs,
rotation-heavy circuits with sparse entanglement, and uniform-random
circuits over the whole vocabulary.  Generation is a pure function of
(n, seed, params).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import DataError
from .circuit import Circuit, GateInstance
from .dag import MAX_FEATURE_QUBITS
from .gates import GateKind

_TWO_PI = 2.0 * math.pi

FAMILIES = ("ghz", "layered", "rotations", "random")

_DEFAULT_MIX = (("ghz", 0.2), ("layered", 0.3), ("rotations", 0.2), ("random", 0.3))

_RANDOM_1Q = (
    GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S, GateKind.T,
    GateKind.SX, GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.P,
    GateKind.U2, GateKind.U3,
)
_RANDOM_2Q = (
    GateKind.CX, GateKind.CZ, GateKind.CY, GateKind.CH, GateKind.CP,
    GateKind.CRX, GateKind.CRY, GateKind.CRZ, GateKind.CU, GateKind.SWAP,
    GateKind.RXX, GateKind.RYY, GateKind.RZZ, GateKind.ECR,
)
_RANDOM_3Q = (GateKind.CCX, GateKind.CSWAP)

_LAYER_2Q = (GateKind.CX, GateKind.CZ, GateKind.CP, GateKind.RZZ)
_ROTATIONS = (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.U3)


class CorpusError(DataError):
    """Invalid generation parameters."""


@dataclass(frozen=True)
class CorpusParams:
    qubit_range: tuple[int, int] = (2, MAX_FEATURE_QUBITS)
    depth_range: tuple[int, int] = (3, 32)
    mix: tuple[tuple[str, float], ...] = _DEFAULT_MIX

    def __post_init__(self) -> None:
        lo, hi = self.qubit_range
        if not (2 <= lo <= hi <= MAX_FEATURE_QUBITS):
            raise CorpusError(
                f"qubit_range must satisfy 2 <= lo <= hi <= {MAX_FEATURE_QUBITS}"
            )
        dlo, dhi = self.depth_range
        if not (1 <= dlo <= dhi):
            raise CorpusError("depth_range must satisfy 1 <= lo <= hi")
        if not self.mix:
            raise CorpusError("gate mix is empty")
        for fam, w in self.mix:
            if fam not in FAMILIES:
                raise CorpusError(f"unknown family {fam!r}; have {FAMILIES}")
            if not 0 <= w < math.inf:  # also NaN, which would make every weight NaN
                raise CorpusError(f"mix weight for {fam!r} must be finite and non-negative")
        if not 0 < sum(w for _, w in self.mix) < math.inf:
            raise CorpusError("gate mix weights sum to zero or overflow to infinity")


def _angle(rng: random.Random) -> float:
    return rng.uniform(0.0, _TWO_PI)


def _params_for(kind: GateKind, rng: random.Random) -> tuple[float, ...]:
    return tuple(_angle(rng) for _ in range(kind.param_count))


def _ghz(nq: int, rng: random.Random) -> list[GateInstance]:
    ops = [GateInstance(GateKind.H, (0,))]
    ops += [GateInstance(GateKind.CX, (q, q + 1)) for q in range(nq - 1)]
    # a light dusting of local rotations so the family is not one circuit
    for q in range(nq):
        if rng.random() < 0.3:
            kind = rng.choice((GateKind.RZ, GateKind.RX))
            ops.append(GateInstance(kind, (q,), _params_for(kind, rng)))
    return ops


def _layered(nq: int, depth: int, rng: random.Random) -> list[GateInstance]:
    ops: list[GateInstance] = []
    layers = max(1, depth // 2)
    for _ in range(layers):
        order = list(range(nq))
        rng.shuffle(order)
        for i in range(0, nq - 1, 2):
            kind = rng.choice(_LAYER_2Q)
            ops.append(GateInstance(kind, (order[i], order[i + 1]), _params_for(kind, rng)))
        for q in range(nq):
            if rng.random() < 0.4:
                kind = rng.choice(_ROTATIONS)
                ops.append(GateInstance(kind, (q,), _params_for(kind, rng)))
    return ops


def _rotations(nq: int, depth: int, rng: random.Random) -> list[GateInstance]:
    ops: list[GateInstance] = []
    for _ in range(max(1, depth) * nq):
        if rng.random() < 0.12 and nq >= 2:
            q = rng.randrange(nq - 1)
            ops.append(GateInstance(GateKind.CX, (q, q + 1)))
        else:
            kind = rng.choice(_ROTATIONS + (GateKind.H, GateKind.T, GateKind.SX))
            ops.append(GateInstance(kind, (rng.randrange(nq),), _params_for(kind, rng)))
    return ops


def _random_ops(nq: int, depth: int, rng: random.Random) -> list[GateInstance]:
    ops: list[GateInstance] = []
    for _ in range(max(1, depth) * max(1, nq // 2)):
        r = rng.random()
        if nq >= 3 and r < 0.06:
            pool = _RANDOM_3Q
        elif nq >= 2 and r < 0.5:
            pool = _RANDOM_2Q
        else:
            pool = _RANDOM_1Q
        kind = rng.choice(pool)
        qubits = tuple(rng.sample(range(nq), kind.arity))
        ops.append(GateInstance(kind, qubits, _params_for(kind, rng)))
    return ops


def gen_corpus(n: int, seed: int, params: CorpusParams = CorpusParams()) -> list[Circuit]:
    """Generate n circuits; identical (n, seed, params) give identical output."""
    if n < 0:
        raise CorpusError(f"corpus size must be non-negative, got {n}")
    rng = random.Random(seed)
    total = sum(w for _, w in params.mix)
    weights = [(fam, w / total) for fam, w in params.mix]
    out: list[Circuit] = []
    for i in range(n):
        fam = _pick(weights, rng.random())
        nq = rng.randint(*params.qubit_range)
        depth = rng.randint(*params.depth_range)
        if fam == "ghz":
            ops = _ghz(nq, rng)
        elif fam == "layered":
            ops = _layered(nq, depth, rng)
        elif fam == "rotations":
            ops = _rotations(nq, depth, rng)
        else:
            ops = _random_ops(nq, depth, rng)
        out.append(Circuit(nq, ops, name=f"{fam}_q{nq:02d}_{i:04d}"))
    return out


def _pick(weights: list[tuple[str, float]], u: float) -> str:
    acc = 0.0
    for fam, w in weights:
        acc += w
        if u < acc:
            return fam
    return weights[-1][0]
