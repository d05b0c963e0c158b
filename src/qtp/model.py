"""Graph classifier: GAT/GCN first layer, residual GCN blocks, mean pool, FFNN.

Training runs through the autodiff tape in :mod:`qtp.autodiff`
(`model_forward`); inference (`predict_proba`) runs the same forward math on
plain arrays, with no tape.  The only dense linear algebra is the per-layer
weight matmul.  Each graph layer is one tape op (`autodiff.gcn_layer`,
`autodiff.gat_layer`), whose forward is an array function that inference
calls directly.  Message passing goes through neighbor tables
(:class:`qtp.autodiff.NeighborTable`) built once per batch from the batch's
edge list: one for the normalized adjacency, built only when a GCN first
layer or a residual block reads it, and one of each node's in-neighbors for
GAT attention.  The GAT op's backward builds the transposed
attention table, so a forward-only pass never builds it.  A batch's edges are
offset per graph, so it is block-diagonal for free.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import DataError, autodiff as ad
from .autodiff import Tensor
from .dag import FEATURE_DIM, GraphData
from .jsonio import integer, loads, reading

GAT_HIDDEN = (32, 64)
GAT_HEADS = (4, 8)
GCN_HIDDEN = (32, 64, 128)
BLOCK_CHOICES = (1, 2)
FFNN_FIRST = (32, 64, 128, 256, 512, 1024, 2048)
FFNN_FLOOR = 16
LEAKY_SLOPE = 0.01  # GCN layers and the FFNN
ATTENTION_SLOPE = 0.2  # GAT attention logits

CHECKPOINT_MAGIC = b"QTPCKPT1"


class ModelError(DataError):
    """Configuration or shape problem."""


class CheckpointError(DataError):
    """Unreadable or inconsistent checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters.

    Only structural validity (positive widths, heads only on GAT) is enforced,
    so small off-grid configs stay usable; `iter_grid` lists the search grid.
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
            return cls(obj["first_layer"], integer(obj["hidden"], "hidden"),
                       integer(obj["blocks"], "blocks"),
                       tuple(integer(w, "ffnn width") for w in obj["ffnn"]),
                       integer(obj.get("heads", 0), "heads"))
        except KeyError as exc:
            raise ModelError(f"config is missing field {exc}") from exc


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


def normalize_adjacency(edges: np.ndarray, num_nodes: int) -> SparseAdj:
    """Symmetrize, add self-loops, and scale by inverse sqrt degrees.

    `edges` is an (m, 2) int64 array of endpoints in 0..num_nodes-1, and
    num_nodes >= 1.  Entries come out sorted by row, then column, so each row
    of the table sums its terms in column order.
    """
    loops = np.arange(num_nodes, dtype=np.int64)
    rows = np.concatenate([edges[:, 0], edges[:, 1], loops])
    cols = np.concatenate([edges[:, 1], edges[:, 0], loops])
    # sorted unique keys: np.unique's own sort and mask, without its overhead
    keys = np.sort(rows * num_nodes + cols)
    first = np.empty(len(keys), dtype=bool)
    first[0] = True  # num_nodes >= 1, so there is a key
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    rows, cols = np.divmod(keys[first], num_nodes)
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
    All heads run as one op, side by side in one pass over the in-neighbor
    table; the op's backward builds the transposed table it needs.
    """
    into = _in_neighbors(edges, num_nodes)
    return ad.gat_layer(h, heads, into, ATTENTION_SLOPE)


def _in_neighbors(edges: np.ndarray, num_nodes: int) -> ad.NeighborTable:
    """GAT's table: each node's sources in edge order, then itself."""
    loops = np.arange(num_nodes, dtype=np.int64)
    return ad.NeighborTable(
        np.concatenate([edges[:, 1], loops]), np.concatenate([edges[:, 0], loops]), num_nodes
    )


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
    """The graphs (at least one) stacked, with sorted graph ids."""
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


def weight_views(flat: np.ndarray, config: ModelConfig, in_dim: int = FEATURE_DIM) -> dict:
    """`param_shapes`' arrays as views of `flat`, their values back to back in `_layout` order."""
    shapes = param_shapes(config, in_dim)
    parts = np.split(flat, np.cumsum([math.prod(s) for s in shapes.values()])[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}


def bind_params(tape: ad.Tape, weights: dict[str, np.ndarray]) -> dict[str, Tensor]:
    return {name: tape.param(name, arr) for name, arr in weights.items()}


# --- forward ------------------------------------------------------------------


def _heads(config: ModelConfig, params: dict) -> list[tuple]:
    """(W, a_dst, a_src) of each GAT head, as Tensors or arrays as `params` holds them."""
    return [tuple(params[f"first.h{k}.{part}"] for part in ("w", "a_dst", "a_src"))
            for k in range(config.heads)]


def model_forward(config: ModelConfig, params: dict[str, Tensor], batch: GraphBatch) -> Tensor:
    """Per-graph class probabilities, shape (num_graphs, 2), recorded on the params' tape."""
    tape = next(iter(params.values())).tape
    h = tape.const(batch.features)
    n = batch.features.shape[0]
    adj = None  # read only by a GCN first layer and the residual blocks
    if config.first_layer == "gcn" or config.blocks:
        adj = normalize_adjacency(batch.edges, n)
    if config.first_layer == "gat":
        h = gat_forward(h, batch.edges, n, _heads(config, params))
    else:
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
    """Class probabilities, one row per graph of `graphs`: `model_forward`'s bits, forward only.

    The pass runs on plain arrays, with no tape, so nothing is recorded and
    no intermediate outlives its stage.  The graph layers and the pool call
    the forward functions of the tape ops (`autodiff.gat_arrays`,
    `gcn_arrays`, `run_means`); the FFNN layers and the softmax work in place
    on each product's buffer.  Each stage's output is checked once, with the
    tape's messages: every later op of a stage carries an inf or NaN through
    to the stage's output, so a pass fails in the stage and with the error
    that it would on the tape.  Weights and features are taken as float64,
    as `init_weights`, `load_checkpoint` and `featurize_circuit` make them.
    """
    batch = batch_graphs(graphs)
    x = batch.features
    n = x.shape[0]
    table = None
    if config.first_layer == "gcn" or config.blocks:
        table = normalize_adjacency(batch.edges, n).table
    if config.first_layer == "gat":
        into = _in_neighbors(batch.edges, n)
        h = ad.gat_arrays(x, _heads(config, weights), into, ATTENTION_SLOPE)[0]
    else:
        w, b = weights["first.w"], weights["first.b"]
        h = ad.gcn_arrays(x, table, w, b, LEAKY_SLOPE, residual=False)[0]
    ad.check_finite(h)
    for i in range(1, config.blocks + 1):
        w, b = weights[f"res{i}.w"], weights[f"res{i}.b"]
        h = ad.check_finite(ad.gcn_arrays(h, table, w, b, LEAKY_SLOPE, residual=True)[0])
    sizes = np.array([g.features.shape[0] for g in graphs])
    h = ad.check_finite(ad.run_means(h, sizes))
    for j in range(1, len(config.ffnn) + 1):
        h = h @ weights[f"ffnn{j}.w"]
        h += weights[f"ffnn{j}.b"]
        h *= ad.leaky_gain(h > 0, LEAKY_SLOPE)
        ad.check_finite(h)
    logits = h @ weights["out.w"]
    logits += weights["out.b"]
    return ad.check_finite(ad.softmax_rows(ad.check_finite(logits)))


# --- checkpoints ----------------------------------------------------------------


def _layout(config: ModelConfig, in_dim: int) -> list[dict]:
    """A checkpoint header's `params`: each parameter's name, shape and payload
    offset, in `param_shapes` order, with the float64 values back to back."""
    layout, offset = [], 0
    for name, shape in param_shapes(config, in_dim).items():
        layout.append({"name": name, "shape": list(shape), "offset": offset})
        offset += 8 * math.prod(shape)
    return layout


def save_checkpoint(
    path,
    config: ModelConfig,
    weights: dict[str, np.ndarray],
    seed: int,
    metadata: dict | None = None,
) -> None:
    """Write weights as `init_weights`, `train_fold` and `load_checkpoint` make them, unchecked."""
    layout = _layout(config, next(iter(weights.values())).shape[0])
    header = {"config": config.to_json(), "seed": int(seed), "metadata": metadata or {},
              "params": layout}
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<I", len(raw)) + raw)
        fh.writelines(np.ascontiguousarray(w, dtype="<f8") for w in weights.values())


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray], int, dict]:
    """Config, weights, seed and metadata; CheckpointError naming the file unless the
    header's `params` are `_layout`'s for its config and its first entry's row
    count, the payload has their length and every weight is finite."""
    with reading(path, CheckpointError):
        with open(path, "rb") as fh:
            data = fh.read()
        if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise CheckpointError("not a checkpoint file")
        pos = len(CHECKPOINT_MAGIC) + 4
        if len(data) < pos:
            raise CheckpointError("truncated header")
        (hlen,) = struct.unpack_from("<I", data, pos - 4)
        header = loads(data[pos : pos + hlen])
        config = ModelConfig.from_json(header["config"])
        seed = integer(header.get("seed", 0), "seed")
        in_dim = integer(header["params"][0]["shape"][0], "input width")
        if in_dim < 1:
            raise CheckpointError(f"input width {in_dim} is not positive")
        layout = _layout(config, in_dim)
        # equal as values, then as JSON text, where a float or a bool never
        # equals an int; only what has the layout's nesting is made text
        params = header["params"]
        if params != layout or (json.dumps(params, sort_keys=True)
                                != json.dumps(layout, sort_keys=True)):
            raise CheckpointError("parameters differ from the config's layout")
        size = sum(math.prod(e["shape"]) for e in layout)
        if len(data) - pos - hlen != 8 * size:
            raise CheckpointError("payload length differs from the layout's")
        flat = np.frombuffer(data, "<f8", size, pos + hlen).copy()
        weights = weight_views(flat, config, in_dim)
        if not np.isfinite(flat).all():
            name = next(n for n, w in weights.items() if not np.isfinite(w).all())
            raise CheckpointError(f"parameter {name} holds a non-finite value")
        return config, weights, seed, header.get("metadata", {})
