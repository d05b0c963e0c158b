"""Circuit DAGs and their fixed-width feature encoding.

Every circuit becomes a directed acyclic graph: one source node per qubit
(the reserved INPUT kind) plus one node per gate, with edges following qubit
wires from each op to the next op touching that wire.

Node features are 66 floats:
  0..35   gate-type one-hot (35 gates + INPUT)
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
from .gates import ONE_HOT_INDEX, VOCABULARY_SIZE, GateKind, gate_by_name
from .jsonio import dumps as json_dumps

MAX_FEATURE_QUBITS = 27
GATE_SLOTS = VOCABULARY_SIZE  # 36
ANGLE_SLOTS = 3
FEATURE_DIM = GATE_SLOTS + MAX_FEATURE_QUBITS + ANGLE_SLOTS  # 66

_TWO_PI = 2.0 * math.pi

GRAPH_SUFFIX = ".dag.json"


class FeaturizeError(ValueError):
    """Circuit cannot be encoded (too many qubits, bad graph file, ...)."""


@dataclass
class CircuitDag:
    """Nodes are the INPUT sources then the circuit's ops; a node's id is its index."""

    name: str
    num_qubits: int
    nodes: list[GateInstance]
    edges: list[tuple[int, int]]


def build_dag(circ: Circuit) -> CircuitDag:
    """Wire-following DAG: INPUT sources, then one node per op in order."""
    if circ.num_qubits > MAX_FEATURE_QUBITS:
        raise FeaturizeError(
            f"{circ.num_qubits} qubits exceed the {MAX_FEATURE_QUBITS}-qubit feature layout"
        )
    nodes = [GateInstance(GateKind.INPUT, (q,)) for q in range(circ.num_qubits)]
    nodes += circ.ops
    edges: list[tuple[int, int]] = []
    last = list(range(circ.num_qubits))  # qubit -> newest node on its wire
    for nid, op in enumerate(circ.ops, start=circ.num_qubits):
        seen: set[int] = set()
        for q in op.qubits:
            pred = last[q]
            if pred not in seen:
                seen.add(pred)
                edges.append((pred, nid))
            last[q] = nid
    return CircuitDag(circ.name, circ.num_qubits, nodes, edges)


def encode_angle(theta: float) -> float:
    """Map an angle onto [0, 1) with period 2*pi."""
    frac = math.fmod(theta, _TWO_PI)
    if frac < 0.0:
        frac += _TWO_PI
    frac /= _TWO_PI
    return frac if frac < 1.0 else 0.0


def encode_features(dag: CircuitDag) -> np.ndarray:
    """(num_nodes, 66) float64 feature matrix in node-id order."""
    feats = np.zeros((len(dag.nodes), FEATURE_DIM), dtype=np.float64)
    for i, node in enumerate(dag.nodes):
        feats[i, ONE_HOT_INDEX[node.kind]] = 1.0
        for q in node.qubits:
            feats[i, GATE_SLOTS + q] = 1.0
        for j, theta in enumerate(node.params):
            feats[i, GATE_SLOTS + MAX_FEATURE_QUBITS + j] = encode_angle(theta)
    return feats


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


def graph_from_dag(dag: CircuitDag, label: int | None = None) -> GraphData:
    edges = np.asarray(dag.edges, dtype=np.int64).reshape(-1, 2)
    return GraphData(dag.name, dag.num_qubits, encode_features(dag), edges, label)


def write_graph(circ: Circuit, path: str | Path, label: int | None = None) -> Path:
    """Write {name, num_qubits, label?, ops: [[gate, qubits, params], ...]}."""
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
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FeaturizeError(f"{path}: malformed graph file ({exc})") from None


def featurize_circuit(circ: Circuit, label: int | None = None) -> GraphData:
    return graph_from_dag(build_dag(circ), label)
