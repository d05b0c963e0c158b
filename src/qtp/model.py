"""Graph classifier: GAT/GCN first layer, residual GCN blocks, mean pool, FFNN.

Everything runs through the autodiff tape in :mod:`qtp.autodiff`; the only
dense linear algebra is the per-layer weight matmul.  Each graph layer is one
tape op (`autodiff.gcn_layer`, `autodiff.gat_layer`).  Message passing goes
through neighbor tables (:class:`qtp.autodiff.NeighborTable`) built once per
batch from the batch's edge list: one for the normalized adjacency, and one
per direction for GAT attention.  A batch's edges are offset per graph, so it
is block-diagonal for free.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dag import FEATURE_DIM, GraphData

GAT_HIDDEN = (32, 64)
GAT_HEADS = (4, 8)
GCN_HIDDEN = (32, 64, 128)
BLOCK_CHOICES = (1, 2)
FFNN_FIRST = (32, 64, 128, 256, 512, 1024, 2048)
FFNN_FLOOR = 16
LEAKY_SLOPE = 0.01  # GCN layers and the FFNN
ATTENTION_SLOPE = 0.2  # GAT attention logits

CHECKPOINT_MAGIC = b"QTPCKPT1"


class ModelError(ValueError):
    """Configuration or shape problem."""


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters.

    Structural validity (positive widths, heads only on GAT) is enforced here;
    membership in the search grid is a separate, stricter check so that small
    off-grid configs remain usable programmatically.
    """

    first_layer: str
    hidden: int
    blocks: int
    ffnn: tuple[int, ...]
    heads: int = 0

    def __post_init__(self):
        if self.first_layer not in ("gat", "gcn"):
            raise ModelError(f"unknown first layer {self.first_layer!r}")
        if self.hidden < 1:
            raise ModelError("hidden width must be positive")
        if self.first_layer == "gat":
            if self.heads < 1:
                raise ModelError("gat needs at least one head")
        elif self.heads != 0:
            raise ModelError("heads only apply to a gat first layer")
        if self.blocks < 0:
            raise ModelError("negative residual block count")
        object.__setattr__(self, "ffnn", tuple(int(w) for w in self.ffnn))
        if not self.ffnn or any(w < 1 for w in self.ffnn):
            raise ModelError("ffnn needs at least one positive width")

    @property
    def width(self) -> int:
        """Node-embedding width after the first layer (heads concatenate)."""
        return self.hidden * self.heads if self.first_layer == "gat" else self.hidden

    @property
    def name(self) -> str:
        # The FFNN count token is len-1 by convention; widths are listed in full.
        head = "GAT" if self.first_layer == "gat" else "GCN"
        dims = [self.hidden] + ([self.heads] if self.first_layer == "gat" else [])
        dims += list(self.ffnn)
        tail = "_".join(str(d) for d in dims)
        return f"{head}_{self.blocks}GCN_{len(self.ffnn) - 1}FFNN_{tail}"

    def in_grid(self) -> bool:
        if self.blocks not in BLOCK_CHOICES:
            return False
        if self.first_layer == "gat":
            if self.hidden not in GAT_HIDDEN or self.heads not in GAT_HEADS:
                return False
        elif self.hidden not in GCN_HIDDEN:
            return False
        if len(self.ffnn) not in (2, 3) or self.ffnn[0] not in FFNN_FIRST:
            return False
        for prev, cur in zip(self.ffnn, self.ffnn[1:]):
            if not _is_pow2(cur) or not FFNN_FLOOR <= cur <= prev:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "first_layer": self.first_layer,
            "hidden": self.hidden,
            "heads": self.heads,
            "blocks": self.blocks,
            "ffnn": list(self.ffnn),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        try:
            fields = {
                "first_layer": obj["first_layer"],
                "hidden": int(obj["hidden"]),
                "blocks": int(obj["blocks"]),
                "ffnn": tuple(int(w) for w in obj["ffnn"]),
                "heads": int(obj.get("heads", 0)),
            }
        except KeyError as exc:
            raise ModelError(f"config is missing field {exc}") from exc
        except (OverflowError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed config ({type(exc).__name__}: {exc})") from exc
        return cls(**fields)


def _ffnn_tuples() -> list[tuple[int, ...]]:
    out = []
    for first in FFNN_FIRST:
        seconds = [w for w in (2**k for k in range(4, 12)) if FFNN_FLOOR <= w <= first]
        for second in seconds:
            out.append((first, second))
            for third in (2**k for k in range(4, 12)):
                if FFNN_FLOOR <= third <= second:
                    out.append((first, second, third))
    return sorted(out)


def iter_grid():
    """Yield every grid config in canonical, reproducible order."""
    firsts = [("gat", h, k) for h in GAT_HIDDEN for k in GAT_HEADS]
    firsts += [("gcn", h, 0) for h in GCN_HIDDEN]
    ffnns = _ffnn_tuples()
    for kind, hidden, heads in firsts:
        for blocks in BLOCK_CHOICES:
            for ffnn in ffnns:
                yield ModelConfig(kind, hidden, blocks, ffnn, heads)


# --- adjacency ----------------------------------------------------------------


@dataclass(frozen=True)
class SparseAdj:
    """The normalized operator D̃^{-1/2}(A+I)D̃^{-1/2}: COO entries and their table."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray  # (nnz, 1) so it broadcasts as a column
    num_nodes: int
    table: ad.NeighborTable


def _checked_edges(edges, num_nodes: int) -> np.ndarray:
    if num_nodes < 1:
        raise ModelError("graph has no nodes")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ModelError(f"edge endpoint outside 0..{num_nodes - 1}")
    return edges


def normalize_adjacency(edges: np.ndarray, num_nodes: int) -> SparseAdj:
    """Symmetrize, add self-loops, and scale by inverse sqrt degrees.

    Entries come out sorted by row, then column, so each row of the table
    sums its terms in column order.
    """
    edges = _checked_edges(edges, num_nodes)
    loops = np.arange(num_nodes, dtype=np.int64)
    rows = np.concatenate([edges[:, 0], edges[:, 1], loops])
    cols = np.concatenate([edges[:, 1], edges[:, 0], loops])
    rows, cols = np.divmod(np.unique(rows * num_nodes + cols), num_nodes)
    deg = np.bincount(rows, minlength=num_nodes).astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(deg)
    vals = (inv_sqrt[rows] * inv_sqrt[cols]).reshape(-1, 1)
    return SparseAdj(rows, cols, vals, num_nodes, ad.NeighborTable(rows, cols, num_nodes, vals))


# --- layers -------------------------------------------------------------------


def gcn_forward(h: Tensor, adj: SparseAdj, w: Tensor, b: Tensor) -> Tensor:
    """LeakyReLU(Â H W + b)."""
    return ad.gcn_layer(h, adj.table, w, b, LEAKY_SLOPE, residual=False)


def residual_gcn(h: Tensor, adj: SparseAdj, w: Tensor, b: Tensor) -> Tensor:
    """H + LeakyReLU(Â H W + b), with a square W."""
    if w.shape[0] != w.shape[1] or w.shape[0] != h.shape[1]:
        raise ModelError(f"residual weight {w.shape} must be square at width {h.shape[1]}")
    return ad.gcn_layer(h, adj.table, w, b, LEAKY_SLOPE, residual=True)


def gat_forward(
    h: Tensor,
    edges: np.ndarray,
    num_nodes: int,
    heads: Sequence[tuple[Tensor, Tensor, Tensor]],
) -> Tensor:
    """Multi-head attention over each node's in-neighbors plus itself.

    Each head is (W, a_dst, a_src) with the attention vector split into the
    halves applied to the destination and source embeddings; head outputs are
    concatenated, with no bias and no activation beyond the internal LeakyReLU.
    A node's attention terms follow the edge list, with its self-loop last.
    All heads run as one op.
    """
    edges = _checked_edges(edges, num_nodes)
    loops = np.arange(num_nodes, dtype=np.int64)
    src = np.concatenate([edges[:, 0], loops])
    dst = np.concatenate([edges[:, 1], loops])
    into = ad.NeighborTable(dst, src, num_nodes)
    out_of = ad.NeighborTable(into.cols, into.rows, num_nodes)
    return ad.gat_layer(h, heads, into, out_of, ATTENTION_SLOPE)


def global_mean_pool(h: Tensor, graph_ids: np.ndarray, num_graphs: int) -> Tensor:
    return ad.segment_mean(h, graph_ids, num_graphs)


# --- batching -----------------------------------------------------------------


@dataclass(frozen=True)
class GraphBatch:
    """Several graphs stacked block-diagonally."""

    features: np.ndarray  # (total_nodes, FEATURE_DIM)
    edges: np.ndarray  # (total_edges, 2), offsets applied
    graph_ids: np.ndarray  # (total_nodes,)
    num_graphs: int
    labels: np.ndarray = field(default=None)  # (num_graphs,) or None


def batch_graphs(graphs: Sequence[GraphData]) -> GraphBatch:
    if not graphs:
        raise ModelError("empty batch")
    feats, edges, gids = [], [], []
    offset = 0
    for gid, g in enumerate(graphs):
        n = g.features.shape[0]
        feats.append(g.features)
        if g.edges.size:
            edges.append(g.edges + offset)
        gids.append(np.full(n, gid, dtype=np.int64))
        offset += n
    labels = None
    if all(g.label is not None for g in graphs):
        labels = np.array([g.label for g in graphs], dtype=np.int64)
    return GraphBatch(
        features=np.concatenate(feats, axis=0),
        edges=np.concatenate(edges, axis=0) if edges else np.zeros((0, 2), np.int64),
        graph_ids=np.concatenate(gids),
        num_graphs=len(graphs),
        labels=labels,
    )


# --- parameters ---------------------------------------------------------------


def param_shapes(config: ModelConfig, in_dim: int = FEATURE_DIM) -> dict[str, tuple[int, ...]]:
    """Canonical parameter order; initialization and checkpoints follow it."""
    shapes: dict[str, tuple[int, ...]] = {}
    if config.first_layer == "gat":
        for k in range(config.heads):
            shapes[f"first.h{k}.w"] = (in_dim, config.hidden)
            shapes[f"first.h{k}.a_dst"] = (config.hidden, 1)
            shapes[f"first.h{k}.a_src"] = (config.hidden, 1)
    else:
        shapes["first.w"] = (in_dim, config.hidden)
        shapes["first.b"] = (config.hidden,)
    width = config.width
    for i in range(1, config.blocks + 1):
        shapes[f"res{i}.w"] = (width, width)
        shapes[f"res{i}.b"] = (width,)
    prev = width
    for j, w in enumerate(config.ffnn, start=1):
        shapes[f"ffnn{j}.w"] = (prev, w)
        shapes[f"ffnn{j}.b"] = (w,)
        prev = w
    shapes["out.w"] = (prev, 2)
    shapes["out.b"] = (2,)
    return shapes


def init_weights(
    config: ModelConfig, seed: int, in_dim: int = FEATURE_DIM
) -> dict[str, np.ndarray]:
    """Glorot-uniform weights, zero biases, deterministic per seed.

    Attention vectors are the two halves of one Glorot draw over a 2h -> 1
    map, so their bound is sqrt(6 / (2h + 1)).
    """
    rng = np.random.default_rng(seed)
    weights: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config, in_dim).items():
        if name.endswith(".b"):
            weights[name] = np.zeros(shape)
        elif name.endswith(".a_dst") or name.endswith(".a_src"):
            bound = np.sqrt(6.0 / (2 * config.hidden + 1))
            weights[name] = rng.uniform(-bound, bound, shape)
        else:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            weights[name] = rng.uniform(-bound, bound, shape)
    return weights


def bind_params(tape: ad.Tape, weights: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: tape.param(name, arr) for name, arr in weights.items()}


# --- forward ------------------------------------------------------------------


def model_forward(config: ModelConfig, params: dict[str, Tensor], batch: GraphBatch) -> Tensor:
    """Per-graph class probabilities, shape (num_graphs, 2)."""
    expected = param_shapes(config, batch.features.shape[1])
    if set(expected) != set(params):
        raise ModelError("parameter set does not match the config")
    for name, shape in expected.items():
        if tuple(params[name].shape) != shape:
            raise ModelError(f"parameter {name} has shape {params[name].shape}, wants {shape}")

    tape = next(iter(params.values())).tape
    h = tape.const(batch.features)
    n = batch.features.shape[0]
    if config.first_layer == "gat":
        head_params = [
            (params[f"first.h{k}.w"], params[f"first.h{k}.a_dst"], params[f"first.h{k}.a_src"])
            for k in range(config.heads)
        ]
        h = gat_forward(h, batch.edges, n, head_params)
        adj = normalize_adjacency(batch.edges, n)
    else:
        adj = normalize_adjacency(batch.edges, n)
        h = gcn_forward(h, adj, params["first.w"], params["first.b"])
    for i in range(1, config.blocks + 1):
        h = residual_gcn(h, adj, params[f"res{i}.w"], params[f"res{i}.b"])
    h = global_mean_pool(h, batch.graph_ids, batch.num_graphs)
    for j in range(1, len(config.ffnn) + 1):
        h = ad.add(ad.matmul(h, params[f"ffnn{j}.w"]), params[f"ffnn{j}.b"])
        h = ad.leaky_relu(h, LEAKY_SLOPE)
    logits = ad.add(ad.matmul(h, params["out.w"]), params["out.b"])
    return ad.row_softmax(logits)


def predict_proba(
    config: ModelConfig, weights: dict[str, np.ndarray], graphs: Sequence[GraphData]
) -> np.ndarray:
    """Forward pass without gradient bookkeeping kept around."""
    tape = ad.Tape()
    batch = graphs if isinstance(graphs, GraphBatch) else batch_graphs(graphs)
    probs = model_forward(config, bind_params(tape, weights), batch).data
    tape.release()
    return probs


# --- checkpoints ----------------------------------------------------------------


def _checked_shapes(config: ModelConfig, weights: dict[str, np.ndarray], path) -> dict:
    """Config's shapes for the first weight's row count; CheckpointError on any mismatch."""
    first = np.shape(next(iter(weights.values()), None))
    if len(first) != 2:
        raise CheckpointError(f"{path}: first parameter has shape {first}, wants a matrix")
    expected = param_shapes(config, first[0])
    if set(expected) != set(weights):
        raise CheckpointError(f"{path}: parameter names do not match the config")
    for name, shape in expected.items():
        if np.shape(weights[name]) != shape:
            raise CheckpointError(
                f"{path}: parameter {name} has shape {np.shape(weights[name])}, wants {shape}"
            )
    return expected


def save_checkpoint(
    path,
    config: ModelConfig,
    weights: dict[str, np.ndarray],
    seed: int,
    metadata: dict | None = None,
) -> None:
    expected = _checked_shapes(config, weights, path)
    manifest = []
    offset = 0
    blobs = []
    for name, shape in expected.items():
        arr = np.ascontiguousarray(weights[name], dtype="<f8")
        manifest.append({"name": name, "shape": list(shape), "offset": offset})
        blobs.append(arr.tobytes())
        offset += arr.nbytes
    header = {
        "config": config.to_json(),
        "seed": int(seed),
        "metadata": metadata or {},
        "params": manifest,
    }
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(raw)))
        fh.write(raw)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray], int, dict]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    pos = len(CHECKPOINT_MAGIC)
    if len(data) < pos + 4:
        raise CheckpointError(f"{path}: truncated header")
    (hlen,) = struct.unpack_from("<I", data, pos)
    pos += 4
    try:
        header = json.loads(data[pos : pos + hlen])
    except (RecursionError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad header: {exc}") from exc
    pos += hlen
    try:
        config = ModelConfig.from_json(header["config"])
        seed = int(header.get("seed", 0))
        params = [(str(e["name"]), tuple(int(d) for d in e["shape"]), int(e["offset"]))
                  for e in header["params"]]
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed header ({type(exc).__name__}: {exc})") from None
    payload = data[pos:]
    weights: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape, start in params:
        if start != offset or name in weights or min(shape, default=0) < 0:
            raise CheckpointError(
                f"{path}: parameter {name} is duplicated, negative-sized or not contiguous"
            )
        end = start + 8 * int(np.prod(shape))
        if end > len(payload):
            raise CheckpointError(f"{path}: payload shorter than manifest")
        weights[name] = np.frombuffer(payload[start:end], dtype="<f8").reshape(shape).copy()
        if not np.isfinite(weights[name]).all():
            raise CheckpointError(f"{path}: parameter {name} holds a non-finite value")
        offset = end
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} bytes past the last parameter")
    _checked_shapes(config, weights, path)
    return config, weights, seed, header.get("metadata", {})
