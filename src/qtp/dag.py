"""Circuit DAGs and their fixed-width feature encoding.

Every circuit becomes a directed acyclic graph: one source node per qubit
plus one node per gate, with edges following qubit wires from each op to the
next op touching that wire.  A source node is a feature slot, not a gate.

Node features are 66 floats:
  0..35   gate-type one-hot (35 gates + source slot)
  36..62  qubit participation multi-hot, one slot per qubit up to 27
  63..65  up to three angle parameters, normalized to [0, 1) by 2*pi

`featurize_circuit` walks the ops once, collecting edges and flat feature
positions, and then writes the features in two fancy assignments: the ones
(one-hot slots and qubit flags), and the angles, which `encode_angle`
encodes as one array.

A graph file (`*.dag.json`) stores the circuit's ops, not these features.
Loading rebuilds the `Circuit`, so `check_gate` checks every op, and then
featurizes it; the edges follow from op order.  This module owns the file's
layout: `write_graph` renders each op row itself, in the form
`jsonio.dumps` gives it, and `load_graph` reads it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import DataError
from .circuit import Circuit, GateInstance
from .gates import VOCABULARY, GateKind, gate_by_name
from .jsonio import (dumps as json_dumps, integer, loads, number, read_text, reading,
                     scalar as json_scalar, string, write_text)

MAX_FEATURE_QUBITS = 27
ONE_HOT_INDEX: dict[GateKind, int] = {k: i for i, k in enumerate(VOCABULARY)}
INPUT_SLOT = len(VOCABULARY)  # 35: the one-hot of a source node
GATE_SLOTS = INPUT_SLOT + 1  # 36
ANGLE_SLOTS = 3
FEATURE_DIM = GATE_SLOTS + MAX_FEATURE_QUBITS + ANGLE_SLOTS  # 66
_ANGLE_OFFSET = GATE_SLOTS + MAX_FEATURE_QUBITS

_TWO_PI = 2.0 * math.pi


class FeaturizeError(DataError):
    """Circuit cannot be encoded (too many qubits, bad graph file, ...)."""


def encode_angle(theta):
    """Map angles onto [0, 1) with period 2*pi, elementwise.

    Takes a float, giving a float, or a sequence or array, giving an array.
    """
    frac = np.fmod(np.asarray(theta, dtype=np.float64).reshape(-1), _TWO_PI)
    frac[frac < 0.0] += _TWO_PI
    frac /= _TWO_PI
    frac[~(frac < 1.0)] = 0.0
    return frac.reshape(np.shape(theta)) if np.ndim(theta) else float(frac[0])


@dataclass
class GraphData:
    """A stored graph: features plus edge list, ready for batching."""

    name: str
    num_qubits: int
    features: np.ndarray  # (n, 66)
    edges: np.ndarray  # (m, 2) int64, possibly empty
    label: int | None = None

    @property
    def num_nodes(self) -> int:
        return int(self.features.shape[0])


def check_width(num_qubits: int) -> None:
    """FeaturizeError for a circuit wider than the feature layout."""
    if num_qubits > MAX_FEATURE_QUBITS:
        raise FeaturizeError(
            f"{num_qubits} qubits exceed the {MAX_FEATURE_QUBITS}-qubit feature layout")


_ROW_HEAD = {k: f"[{json_scalar(k.value)},[" for k in GateKind}


def _ops_row(op: GateInstance) -> str:
    """["kind",[q,...],[p,...]]: the one-line row jsonio.dumps writes for the op.

    Each number goes through jsonio's scalar rendering, which raises on a
    non-finite float or a non-scalar.
    """
    qubits = ",".join(map(json_scalar, op.qubits))
    return f"{_ROW_HEAD[op.kind]}{qubits}],[{','.join(map(json_scalar, op.params))}]]"


def write_graph(circ: Circuit, path: str | Path, label: int | None = None) -> Path:
    """Write {name, num_qubits, label?, ops: [[gate, qubits, params], ...]} to
    exactly `path`; `labeling.write_graph_file` names graph files.

    The bytes are `jsonio.dumps` of that document.  The envelope goes through
    `jsonio.dumps`; the `ops` rows, nearly all of the file, are rendered one
    f-string each, not walked by the generic writer.  A circuit too wide for
    the feature layout is refused before anything is written, with
    featurize_circuit's FeaturizeError.
    """
    check_width(circ.num_qubits)
    path = Path(path)
    doc: dict = {"name": circ.name, "num_qubits": circ.num_qubits}
    if label is not None:
        doc["label"] = int(label)
    head = json_dumps(doc)[: -len("\n}\n")]  # reopened to add "ops" as the last key
    rows = ",\n    ".join(map(_ops_row, circ.ops))
    ops = f"[\n    {rows}\n  ]" if rows else "[]"
    write_text(path, f'{head},\n  "ops": {ops}\n}}\n')
    return path


def load_graph(path: str | Path) -> GraphData:
    """Featurize a stored circuit; any malformed content raises FeaturizeError naming the file."""
    with reading(path, FeaturizeError):
        raw = loads(read_text(path))
        ops = [GateInstance(gate_by_name(kind), tuple(map(integer, qubits)),
                            tuple(map(number, params))) for kind, qubits, params in raw["ops"]]
        circ = Circuit(integer(raw["num_qubits"], "num_qubits"), ops, string(raw["name"], "name"))
        label = raw.get("label")
        if label is not None and integer(label, "label") not in (0, 1):
            raise FeaturizeError(f"label {label} is not 0 or 1")
        return featurize_circuit(circ, label)


def featurize_circuit(circ: Circuit, label: int | None = None) -> GraphData:
    """One walk over the ops: source rows first, then one row per op.

    A source row is slot INPUT_SLOT plus its own qubit flag.  Each op gets an
    edge from the newest node on each of its wires, once per distinct node.
    The walk only collects flat feature positions: the one-hot slots and
    qubit flags are written in one fancy assignment, the encoded angles in
    another.
    """
    n = circ.num_qubits
    check_width(n)
    ops = circ.ops
    feats = np.zeros((n + len(ops), FEATURE_DIM), dtype=np.float64)
    ones: list[int] = []  # flat positions of the 1.0 entries
    for r in range(n):  # source rows
        ones += (r * FEATURE_DIM + INPUT_SLOT, r * FEATURE_DIM + GATE_SLOTS + r)
    angle_at: list[int] = []
    angles: list[float] = []
    edges: list[int] = []  # flat (pred, node) pairs
    last = list(range(n))  # qubit -> newest node on its wire
    for nid, op in enumerate(ops, start=n):
        row = nid * FEATURE_DIM
        flags = row + GATE_SLOTS
        qubits = op.qubits
        ones.append(row + ONE_HOT_INDEX[op.kind])
        if len(qubits) == 1:
            q = qubits[0]
            ones.append(flags + q)
            edges += (last[q], nid)
            last[q] = nid
        else:
            preds: list[int] = []
            for q in qubits:
                ones.append(flags + q)
                pred = last[q]
                if pred not in preds:
                    preds.append(pred)
                    edges += (pred, nid)
                last[q] = nid
        if op.params:
            at = row + _ANGLE_OFFSET
            angle_at.extend(range(at, at + len(op.params)))
            angles.extend(op.params)
    flat = feats.reshape(-1)
    flat[ones] = 1.0
    if angles:
        flat[angle_at] = encode_angle(angles)
    edge_array = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return GraphData(circ.name, n, feats, edge_array, label)
