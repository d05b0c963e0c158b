"""Gate vocabulary shared by the parser, the featurizer and the transpiler.

The vocabulary is the qelib1 subset we accept on input: 35 gates.  The
order of VOCABULARY is load-bearing: the featurizer derives one-hot slots
from list position, so it must never be reordered.
"""

from __future__ import annotations

from enum import Enum


class GateKind(Enum):
    ID = "id"
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    SX = "sx"
    SXDG = "sxdg"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    P = "p"
    U1 = "u1"
    U2 = "u2"
    U3 = "u3"
    U = "u"
    CX = "cx"
    CY = "cy"
    CZ = "cz"
    CH = "ch"
    CP = "cp"
    CRX = "crx"
    CRY = "cry"
    CRZ = "crz"
    CU = "cu"
    SWAP = "swap"
    CCX = "ccx"
    CSWAP = "cswap"
    RXX = "rxx"
    RYY = "ryy"
    RZZ = "rzz"
    ECR = "ecr"

    # Set on every member by _register below: plain attributes, so the
    # per-gate check reads them without a property call or a dict lookup.
    arity: int
    param_count: int

    # Members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality; Enum's own hashes the name in Python,
    # and the (kind, qubits) memo keys of routing hash a kind per lookup.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"GateKind.{self.name}"


_ONE_QUBIT_FIXED = (
    GateKind.ID, GateKind.X, GateKind.Y, GateKind.Z, GateKind.H,
    GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
    GateKind.SX, GateKind.SXDG,
)


def _register(kind: GateKind, arity: int, params: int) -> None:
    kind.arity = arity
    kind.param_count = params


for _k in _ONE_QUBIT_FIXED:
    _register(_k, 1, 0)
for _k in (GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.P, GateKind.U1):
    _register(_k, 1, 1)
_register(GateKind.U2, 1, 2)
_register(GateKind.U3, 1, 3)
_register(GateKind.U, 1, 3)
for _k in (GateKind.CX, GateKind.CY, GateKind.CZ, GateKind.CH,
           GateKind.SWAP, GateKind.ECR):
    _register(_k, 2, 0)
for _k in (GateKind.CP, GateKind.CRX, GateKind.CRY, GateKind.CRZ,
           GateKind.RXX, GateKind.RYY, GateKind.RZZ):
    _register(_k, 2, 1)
# Controlled u3; three angles so it still fits the feature layout.
_register(GateKind.CU, 2, 3)
_register(GateKind.CCX, 3, 0)
_register(GateKind.CSWAP, 3, 0)

VOCABULARY: tuple[GateKind, ...] = tuple(GateKind)

_BY_NAME = {k.value: k for k in VOCABULARY}


def gate_by_name(name: str) -> GateKind:
    """Look up a vocabulary gate by its qelib1 name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown gate {name!r}") from None
