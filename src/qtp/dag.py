"""Circuit DAGs and their fixed-width feature encoding.

Every circuit becomes a directed acyclic graph: one source node per qubit
plus one node per gate, with edges following qubit wires from each op to the
next op touching that wire.  A source node is a feature slot, not a gate.

Node features are 66 floats:
  0..35   gate-type one-hot (35 gates + source slot)
  36..62  qubit participation multi-hot, one slot per qubit up to 27
  63..65  up to three angle parameters, normalized to [0, 1) by 2*pi

A graph file (`*.dag.json`) stores the circuit's ops, not these features.
Loading rebuilds the `Circuit`, so `check_gate` checks every op, and then
featurizes it; the edges follow from op order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import Circuit, GateInstance
from .gates import VOCABULARY, GateKind, gate_by_name
from .jsonio import dumps as json_dumps

MAX_FEATURE_QUBITS = 27
ONE_HOT_INDEX: dict[GateKind, int] = {k: i for i, k in enumerate(VOCABULARY)}
INPUT_SLOT = len(VOCABULARY)  # 35: the one-hot of a source node
GATE_SLOTS = INPUT_SLOT + 1  # 36
ANGLE_SLOTS = 3
FEATURE_DIM = GATE_SLOTS + MAX_FEATURE_QUBITS + ANGLE_SLOTS  # 66
_ANGLE_OFFSET = GATE_SLOTS + MAX_FEATURE_QUBITS

_TWO_PI = 2.0 * math.pi

GRAPH_SUFFIX = ".dag.json"


class FeaturizeError(ValueError):
    """Circuit cannot be encoded (too many qubits, bad graph file, ...)."""


def encode_angle(theta: float) -> float:
    """Map an angle onto [0, 1) with period 2*pi."""
    frac = math.fmod(theta, _TWO_PI)
    if frac < 0.0:
        frac += _TWO_PI
    frac /= _TWO_PI
    return frac if frac < 1.0 else 0.0


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


def _check_width(num_qubits: int) -> None:
    if num_qubits > MAX_FEATURE_QUBITS:
        raise FeaturizeError(
            f"{num_qubits} qubits exceed the {MAX_FEATURE_QUBITS}-qubit feature layout")


def write_graph(circ: Circuit, path: str | Path, label: int | None = None) -> Path:
    """Write {name, num_qubits, label?, ops: [[gate, qubits, params], ...]}.

    A circuit too wide for the feature layout is refused before anything is
    written, with featurize_circuit's FeaturizeError.
    """
    _check_width(circ.num_qubits)
    path = Path(path)
    if not path.name.endswith(GRAPH_SUFFIX):
        path = path.with_name(path.name + GRAPH_SUFFIX)
    doc: dict = {"name": circ.name, "num_qubits": circ.num_qubits}
    if label is not None:
        doc["label"] = int(label)
    doc["ops"] = [[op.kind.value, list(op.qubits), list(op.params)] for op in circ.ops]
    path.write_text(json_dumps(doc))
    return path


def _int(x) -> int:
    # JSON gives exactly int, float, bool, str, None, list or dict; a bool is no qubit
    if type(x) is not int:
        raise TypeError(f"{x!r} is not an integer")
    return x


def _number(x) -> float:
    if type(x) not in (int, float):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def load_graph(path: str | Path) -> GraphData:
    """Featurize a stored circuit; any malformed content raises FeaturizeError."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
        ops = [
            GateInstance(gate_by_name(kind), tuple(map(_int, qubits)), tuple(map(_number, params)))
            for kind, qubits, params in raw["ops"]
        ]
        circ = Circuit(_int(raw["num_qubits"]), ops, str(raw["name"]))
        label = raw.get("label")
        return featurize_circuit(circ, None if label is None else _int(label))
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise FeaturizeError(f"{path}: malformed graph file ({exc})") from None


def featurize_circuit(circ: Circuit, label: int | None = None) -> GraphData:
    """One walk over the ops: source rows first, then one row per op.

    A source row is slot INPUT_SLOT plus its own qubit flag.  Each op gets an
    edge from the newest node on each of its wires, once per distinct node.
    """
    n = circ.num_qubits
    _check_width(n)
    feats = np.zeros((n + len(circ.ops), FEATURE_DIM), dtype=np.float64)
    sources = np.arange(n)
    feats[sources, INPUT_SLOT] = 1.0
    feats[sources, GATE_SLOTS + sources] = 1.0
    edges: list[tuple[int, int]] = []
    last = list(range(n))  # qubit -> newest node on its wire
    for nid, op in enumerate(circ.ops, start=n):
        row = feats[nid]
        row[ONE_HOT_INDEX[op.kind]] = 1.0
        seen: set[int] = set()
        for q in op.qubits:
            row[GATE_SLOTS + q] = 1.0
            pred = last[q]
            if pred not in seen:
                seen.add(pred)
                edges.append((pred, nid))
            last[q] = nid
        for j, theta in enumerate(op.params):
            row[_ANGLE_OFFSET + j] = encode_angle(theta)
    edge_array = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return GraphData(circ.name, n, feats, edge_array, label)
