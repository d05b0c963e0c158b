"""Circuit DAGs and their fixed-width feature encoding.

Every circuit becomes a directed acyclic graph: one source node per qubit
(the reserved INPUT kind) plus one node per gate, with edges following qubit
wires from each op to the next op touching that wire.

Node features are 66 floats:
  0..35   gate-type one-hot (35 gates + INPUT)
  36..62  qubit participation multi-hot, one slot per qubit up to 27
  63..65  up to three angle parameters, normalized to [0, 1) by 2*pi
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import Circuit, GateInstance
from .gates import ONE_HOT_INDEX, VOCABULARY_SIZE, GateKind
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


def graph_to_json(graph: GraphData) -> str:
    doc: dict = {"name": graph.name, "num_qubits": graph.num_qubits}
    if graph.label is not None:
        doc["label"] = int(graph.label)
    doc["nodes"] = [[float(x) for x in row] for row in graph.features]
    doc["edges"] = [[int(s), int(d)] for s, d in graph.edges]
    return json_dumps(doc)


def write_graph(graph: GraphData, path: str | Path) -> Path:
    path = Path(path)
    if not path.name.endswith(GRAPH_SUFFIX):
        path = path.with_name(path.name + GRAPH_SUFFIX)
    path.write_text(graph_to_json(graph))
    return path


def load_graph(path: str | Path) -> GraphData:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FeaturizeError(f"{path}: invalid graph JSON ({exc})") from None
    try:
        feats = np.asarray(raw["nodes"], dtype=np.float64)
        edges = np.asarray(raw["edges"], dtype=np.int64).reshape(-1, 2)
        graph = GraphData(
            name=str(raw["name"]),
            num_qubits=int(raw["num_qubits"]),
            features=feats,
            edges=edges,
            label=None if raw.get("label") is None else int(raw["label"]),
        )
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FeaturizeError(f"{path}: malformed graph file ({exc})") from None
    if feats.ndim != 2 or feats.shape[1] != FEATURE_DIM:
        raise FeaturizeError(f"{path}: nodes must be {FEATURE_DIM}-wide rows, got {feats.shape}")
    if not 1 <= graph.num_qubits <= MAX_FEATURE_QUBITS:
        raise FeaturizeError(
            f"{path}: num_qubits {graph.num_qubits} is outside 1..{MAX_FEATURE_QUBITS}"
        )
    gates = feats[:, :GATE_SLOTS]
    qubits = feats[:, GATE_SLOTS : GATE_SLOTS + MAX_FEATURE_QUBITS]
    angles = feats[:, GATE_SLOTS + MAX_FEATURE_QUBITS :]
    if not (((gates == 0.0) | (gates == 1.0)).all() and (gates.sum(axis=1) == 1.0).all()):
        raise FeaturizeError(f"{path}: every node needs exactly one gate slot set to 1")
    if not ((qubits == 0.0) | (qubits == 1.0)).all() or qubits[:, graph.num_qubits :].any():
        raise FeaturizeError(f"{path}: qubit slots must be 0/1 and below num_qubits")
    if not ((angles >= 0.0) & (angles < 1.0)).all():
        raise FeaturizeError(f"{path}: angle slots must lie in [0, 1)")
    if graph.edges.size and (graph.edges.min() < 0 or graph.edges.max() >= graph.num_nodes):
        raise FeaturizeError(f"{path}: edge endpoint out of range")
    return graph


def featurize_circuit(circ: Circuit, label: int | None = None) -> GraphData:
    return graph_from_dag(build_dag(circ), label)
