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
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import DataError, autodiff as ad
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
    All heads run as one op, side by side in one pass over the in-neighbor
    table; the op's backward builds the transposed table it needs.
    """
    into = _in_neighbors(_checked_edges(edges, num_nodes), num_nodes)
    return ad.gat_layer(h, heads, into, ATTENTION_SLOPE)


def _in_neighbors(edges: np.ndarray, num_nodes: int) -> ad.NeighborTable:
    """GAT's table of checked edges: each node's sources in edge order, then itself."""
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


def _check_params(config: ModelConfig, params: dict, in_dim: int) -> dict:
    """The config's shapes; ModelError unless `params` (Tensors or arrays) has them."""
    expected = param_shapes(config, in_dim)
    if set(expected) != set(params):
        raise ModelError("parameter set does not match the config")
    for name, shape in expected.items():
        if np.shape(params[name]) != shape:
            raise ModelError(f"parameter {name} has shape {np.shape(params[name])}, wants {shape}")
    return expected


def _heads(config: ModelConfig, params: dict) -> list[tuple]:
    """(W, a_dst, a_src) of each GAT head, as Tensors or arrays as `params` holds them."""
    return [tuple(params[f"first.h{k}.{part}"] for part in ("w", "a_dst", "a_src"))
            for k in range(config.heads)]


def model_forward(config: ModelConfig, params: dict[str, Tensor], batch: GraphBatch) -> Tensor:
    """Per-graph class probabilities, shape (num_graphs, 2), recorded on the params' tape."""
    _check_params(config, params, batch.features.shape[1])
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
    that it would on the tape.
    """
    params = {name: np.asarray(arr, dtype=np.float64) for name, arr in weights.items()}
    batch = batch_graphs(graphs)
    x = np.asarray(batch.features, dtype=np.float64)
    _check_params(config, params, x.shape[1])
    n = x.shape[0]
    edges = _checked_edges(batch.edges, n)
    table = None
    if config.first_layer == "gcn" or config.blocks:
        table = normalize_adjacency(edges, n).table
    if config.first_layer == "gat":
        into = _in_neighbors(edges, n)
        h = ad.gat_arrays(x, _heads(config, params), into, ATTENTION_SLOPE)[0]
    else:
        w, b = params["first.w"], params["first.b"]
        h = ad.gcn_arrays(x, table, w, b, LEAKY_SLOPE, residual=False)[0]
    ad.check_finite(h)
    for i in range(1, config.blocks + 1):
        w, b = params[f"res{i}.w"], params[f"res{i}.b"]
        h = ad.check_finite(ad.gcn_arrays(h, table, w, b, LEAKY_SLOPE, residual=True)[0])
    sizes = np.array([g.features.shape[0] for g in graphs])
    h = ad.check_finite(ad.run_means(h, sizes))
    for j in range(1, len(config.ffnn) + 1):
        h = h @ params[f"ffnn{j}.w"]
        h += params[f"ffnn{j}.b"]
        h *= ad.leaky_gain(h > 0, LEAKY_SLOPE)
        ad.check_finite(h)
    logits = h @ params["out.w"]
    logits += params["out.b"]
    return ad.check_finite(ad.softmax_rows(ad.check_finite(logits)))


# --- checkpoints ----------------------------------------------------------------


def _checked_shapes(config: ModelConfig, weights: dict[str, np.ndarray], path) -> dict:
    """Config's shapes for the first weight's row count; CheckpointError on any mismatch."""
    first = np.shape(next(iter(weights.values()), None))
    if len(first) != 2:
        raise CheckpointError(f"{path}: first parameter has shape {first}, wants a matrix")
    try:
        return _check_params(config, weights, first[0])
    except ModelError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


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
