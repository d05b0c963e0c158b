"""Graph classifier: GAT/GCN first layer, residual GCN blocks, mean pool, FFNN.

Training records the forward on the autodiff tape (`model_forward`);
inference (`predict_proba`) runs the same forward math on plain arrays, with
no tape.  The only dense linear algebra is the per-layer weight matmul.

Each graph layer is one tape op, defined here next to the array function
that computes its forward (`gcn_arrays`, `gat_arrays`): the op calls its
function and records a push, and `predict_proba` calls the same function
directly, so both executors give the same bits.  The layers read the fixed
slopes `LEAKY_SLOPE` and `ATTENTION_SLOPE`, and take weights of
`param_shapes`' shapes as a contract, not a check.

Message passing goes through neighbor tables (`NeighborTable`) built once
per batch from the batch's edge list: one for the normalized adjacency,
built only when a GCN first layer or a residual block reads it, and one of
each node's in-neighbors for GAT attention.  The GAT op's backward builds
the transposed attention table, so a forward-only pass never builds it.  A
batch's edges are offset per graph, so it is block-diagonal for free.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import DataError, autodiff as ad
from .autodiff import Array, Tensor, accumulate, check_finite, leaky_gain
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


# --- neighbor tables ----------------------------------------------------------

# Elements in one row block of a table op, so that a block's (rows, width)
# temporaries fit a core's L2: 256 rows at width 128, 64 rows at width 512.
BLOCK_ELEMENTS = 1 << 15


def block_rows(width: int) -> int:
    """Rows per table block at `width` columns."""
    return max(1, BLOCK_ELEMENTS // width)


class NeighborTable:
    """Entries (row, col[, val]) of a sparse matrix regrouped into degree-sorted slots.

    Rows are ordered by descending entry count, ties by id (`order`).  Slot k
    holds the k-th entry of every row that has more than k, so it covers the
    leading rows of `order` and the positions `slots[k]` of the position
    arrays ("jagged diagonal" storage).  A row's entries keep their input
    order, and every reduction below adds a row's terms slot by slot: the
    order in which a scatter-add over the input entries adds them.

    `entries[p]` is the input index of position p; `rows`, `cols` and `vals`
    are the input arrays taken in position order.

    Position values may carry trailing axes, one column per attention head:
    each column is reduced on its own, with the same bits as a 1-D call.
    """

    def __init__(self, rows, cols, num_rows: int, vals=None):
        rows = np.asarray(rows, dtype=np.int64)
        counts = np.bincount(rows, minlength=num_rows)
        self.num_rows = num_rows
        self.order = np.argsort(-counts, kind="stable")
        # rows with more than k entries, for k = 0 .. max count - 1
        widths = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]
        ends = np.cumsum(widths)
        starts = ends - widths
        self.slots = list(zip(starts.tolist(), ends.tolist()))
        slot = np.repeat(np.arange(widths.size), widths)
        rank = np.arange(rows.size) - np.repeat(starts, widths)
        first = np.cumsum(counts) - counts
        self.entries = np.argsort(rows, kind="stable")[first[self.order[rank]] + slot]
        self.rows = rows[self.entries]
        self.cols = np.asarray(cols, dtype=np.int64)[self.entries]
        self.vals = None if vals is None else np.asarray(vals).reshape(-1)[self.entries]

    def reduce(self, x: Array, op=np.add, start: float = 0.0) -> Array:
        """Per-row `op`-reduction of x (positions, ...); (num_rows, ...) in row-id order."""
        acc = np.full((self.num_rows,) + x.shape[1:], start)
        for lo, hi in self.slots:
            head = acc[: hi - lo]
            op(head, x[lo:hi], out=head)
        out = np.empty_like(acc)
        out[self.order] = acc
        return out

    def gather_sum(self, x: Array, weights: Array, add_to: Array | None = None) -> Array:
        """out[i] = sum of weights[p] * x[cols[p]] over the positions p of row i.

        `weights` is (positions,), or (positions, groups) with column k
        scaling the k-th of `groups` equal column groups of x.  Works through
        `order` `block_rows(width)` rows at a time: a block takes its part of
        every slot that reaches it, then goes straight to its rows of the
        output, so the (rows, width) temporaries stay in cache.

        With 1-D weights, `add_to` (num_rows, width) takes the sums added in
        place, with the bits of `add_to += out`, and is returned.
        """
        num_rows, width = self.num_rows, x.shape[1]
        # a row of x, split into its column groups when there are several
        row = (width,) if weights.ndim == 1 else (weights.shape[1], width // weights.shape[1])
        x = x.reshape((-1,) + row)
        weights = weights.reshape((-1,) + row[:-1] + (1,))
        out = np.empty((num_rows,) + row) if add_to is None else add_to
        step = block_rows(width)
        for r0 in range(0, num_rows, step):
            r1 = min(r0 + step, num_rows)
            acc = np.zeros((r1 - r0,) + row)
            for lo, hi in self.slots:
                end = min(hi - lo, r1)  # slot rows r0 .. end fall in this block
                if end <= r0:
                    break  # slots only narrow from here
                term = x[self.cols[lo + r0 : lo + end]]
                term *= weights[lo + r0 : lo + end]
                acc[: end - r0] += term
            if add_to is None:
                out[self.order[r0:r1]] = acc
            else:
                out[self.order[r0:r1]] += acc
        return out.reshape(num_rows, width)

    def pair_dots(self, left: Array, right: Array, groups: int) -> Array:
        """(positions, groups): left[rows[p]] . right[cols[p]] within each column group.

        Works through `order` in the row blocks of `gather_sum`, so its
        temporaries stay as small.
        """
        out = np.empty((self.cols.size, groups))
        step = block_rows(left.shape[1])
        left = left.reshape(self.num_rows, groups, -1)
        right = right.reshape(right.shape[0], groups, -1)
        for r0 in range(0, self.num_rows, step):
            r1 = min(r0 + step, self.num_rows)
            block = left[self.order[r0:r1]]
            for lo, hi in self.slots:
                end = min(hi - lo, r1)
                if end <= r0:
                    break
                term = right[self.cols[lo + r0 : lo + end]]
                out[lo + r0 : lo + end] = np.einsum("ikj,ikj->ik", block[: end - r0], term)
        return out


# --- adjacency ----------------------------------------------------------------


@dataclass(frozen=True)
class SparseAdj:
    """The normalized operator D̃^{-1/2}(A+I)D̃^{-1/2}: COO entries and their table."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray  # (nnz, 1) so it broadcasts as a column
    num_nodes: int
    table: NeighborTable


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
    return SparseAdj(rows, cols, vals, num_nodes, NeighborTable(rows, cols, num_nodes, vals))


# --- layers -------------------------------------------------------------------


def gcn_arrays(
    h: Array, table: NeighborTable, w: Array, b: Array, residual: bool
) -> tuple[Array, Array, Array]:
    """A GCN layer's forward on plain arrays of aligned shapes.

    Returns the output, ÂH, and the mask of positive pre-activations, from
    which `leaky_gain` rebuilds the slopes.
    """
    ah = table.gather_sum(h, table.vals)
    out = ah @ w
    out += b
    positive = out > 0
    out *= leaky_gain(positive, LEAKY_SLOPE)
    if residual:
        out += h
    return out, ah, positive


def _gcn_layer(h: Tensor, table: NeighborTable, w: Tensor, b: Tensor, residual: bool) -> Tensor:
    """LeakyReLU(Â H W + b), plus H itself when `residual`, as one tape op.

    `table` holds a symmetric Â with values, so the backward's Âᵀ G is the same
    table sum.  The forward works in place on the product's buffer, and only
    ÂH and the boolean mask of positive pre-activations (one byte an element)
    are kept for the backward, which rebuilds the slopes from the mask in the
    buffer of the pre-activation's gradient.
    """
    out, ah, positive = gcn_arrays(h.data, table, w.data, b.data, residual)

    def push(g: Array) -> None:
        nonlocal ah
        d = leaky_gain(positive, LEAKY_SLOPE)
        d *= g  # gain * g: the bits of g * gain
        if residual:
            accumulate(h, g)
        accumulate(b, d.sum(axis=0))
        accumulate(w, ah.T @ d)
        ah = None  # a push runs once, so ÂH can go before the table sum allocates
        if h.requires_grad:
            back = d @ w.data.T
            del d
            if h.grad is None:
                accumulate(h, table.gather_sum(back, table.vals))
            else:  # an earlier adjoint, already h's own: the sum goes straight in
                table.gather_sum(back, table.vals, add_to=h.grad)

    return h.tape.record(out, push)


def gcn_forward(h: Tensor, adj: SparseAdj, w: Tensor, b: Tensor) -> Tensor:
    """LeakyReLU(Â H W + b)."""
    return _gcn_layer(h, adj.table, w, b, residual=False)


def residual_gcn(h: Tensor, adj: SparseAdj, w: Tensor, b: Tensor) -> Tensor:
    """H + LeakyReLU(Â H W + b), with a square W."""
    return _gcn_layer(h, adj.table, w, b, residual=True)


def gat_arrays(
    h: Array, heads: Sequence[tuple[Array, Array, Array]], into: NeighborTable
) -> tuple[Array, Array, Array, Array]:
    """A GAT layer's forward on plain arrays of fitting shapes.

    Returns the output, HW (every head's H @ W in its column group), and the
    attention weights and score slopes, both (positions, heads).  Raises
    FloatingPointError on a non-finite attention score.
    """
    num_heads = len(heads)
    width = heads[0][0].shape[1]
    n = h.shape[0]
    hw = np.empty((n, num_heads * width))
    s_dst = np.empty((n, num_heads))
    s_src = np.empty((n, num_heads))
    for k, (w, a_dst, a_src) in enumerate(heads):
        wh = h @ w
        hw[:, k * width : (k + 1) * width] = wh
        s_dst[:, k] = (wh @ a_dst)[:, 0]
        s_src[:, k] = (wh @ a_src)[:, 0]
    # an overflowed score of -inf would give a zero weight, not a non-finite output
    z = check_finite(s_dst[into.rows] + s_src[into.cols], "attention score")
    gain = leaky_gain(z > 0, ATTENTION_SLOPE)
    logit = z * gain
    e = np.exp(logit - into.reduce(logit, np.maximum, -np.inf)[into.rows])
    alpha = e / into.reduce(e)[into.rows]
    return into.gather_sum(hw, alpha), hw, alpha, gain


def gat_forward(
    h: Tensor,
    edges: np.ndarray,
    num_nodes: int,
    heads: Sequence[tuple[Tensor, Tensor, Tensor]],
) -> Tensor:
    """Multi-head attention over each node's in-neighbors plus itself, as one tape op.

    Each head is (W, a_dst, a_src) with the attention vector split into the
    halves applied to the destination and source embeddings, and every head
    has the same width.  With HW = H @ W, output row i of a head is the sum
    over the positions p of in-neighbor table row i of alpha_p HW[src_p],
    where alpha is the row softmax of LeakyReLU(HW[i] a_dst + HW[src_p] a_src,
    ATTENTION_SLOPE).  A node's sources follow the edge list, with its
    self-loop last.  Head outputs fill their own column groups of one output,
    with no bias and no activation beyond the internal LeakyReLU.

    Each head keeps its own matmuls and writes its HW into its column group
    of one (n, heads * width) array.  The per-position work (scores,
    softmax and message sum; in the backward the dot products and score
    gradients) runs once on (positions, heads) arrays, so one pass over the
    in-neighbor table serves every head, and every column adds its terms in
    the order of a per-head pass.  The backward's transposed message sum runs
    per head, so only one head's (n, width) gradient is alive at a time.

    Finiteness is checked on the output, as for every op, and on the
    attention scores.  The backward builds the transposed table (over the
    in-neighbor positions, so its `entries` map back to them), reaches
    sources through it and never scatters.  It takes the heads last to first
    and, within a head, adds HW's gradient terms as separate ops would:
    attention, then a_src, then a_dst, then W.
    """
    into = _in_neighbors(edges, num_nodes)
    width = heads[0][0].data.shape[1]
    num_heads = len(heads)
    out, hw, alpha, gain = gat_arrays(
        h.data, [(w.data, a_dst.data, a_src.data) for w, a_dst, a_src in heads], into
    )

    def push(g: Array) -> None:
        out_of = NeighborTable(into.cols, into.rows, into.num_rows)
        back = out_of.entries
        d_alpha = into.pair_dots(g, hw, num_heads)
        d_z = alpha * (d_alpha - into.reduce(alpha * d_alpha)[into.rows]) * gain
        d_src = out_of.reduce(d_z[back]).T.copy()
        d_dst = into.reduce(d_z).T.copy()
        for k in reversed(range(num_heads)):
            w, a_dst, a_src = heads[k]
            cut = slice(k * width, (k + 1) * width)
            # one head's (n, width) gradient alive at a time, as in a per-head pass
            d_wh = out_of.gather_sum(g[:, cut], alpha[back, k])
            # Matmul operands are contiguous, as in a per-head pass: BLAS may
            # round a strided operand differently (OpenBLAS does at width <= 3).
            wh = hw[:, cut].copy()
            d_src_k, d_dst_k = d_src[k][:, None], d_dst[k][:, None]
            d_wh += d_src_k @ a_src.data.T
            accumulate(a_src, wh.T @ d_src_k)
            d_wh += d_dst_k @ a_dst.data.T
            accumulate(a_dst, wh.T @ d_dst_k)
            accumulate(w, h.data.T @ d_wh)
            if h.requires_grad:
                accumulate(h, d_wh @ w.data.T)

    return h.tape.record(out, push)


def _in_neighbors(edges: np.ndarray, num_nodes: int) -> NeighborTable:
    """GAT's table: each node's sources in edge order, then itself."""
    loops = np.arange(num_nodes, dtype=np.int64)
    return NeighborTable(
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
    the forward functions of the tape ops (`gat_arrays`, `gcn_arrays` and
    `autodiff.run_means`); the FFNN layers and the softmax work in place on
    each product's buffer.  Each stage's output is checked once, with the
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
        h = gat_arrays(x, _heads(config, weights), into)[0]
    else:
        w, b = weights["first.w"], weights["first.b"]
        h = gcn_arrays(x, table, w, b, residual=False)[0]
    check_finite(h)
    for i in range(1, config.blocks + 1):
        w, b = weights[f"res{i}.w"], weights[f"res{i}.b"]
        h = check_finite(gcn_arrays(h, table, w, b, residual=True)[0])
    sizes = np.array([g.features.shape[0] for g in graphs])
    h = check_finite(ad.run_means(h, sizes))
    for j in range(1, len(config.ffnn) + 1):
        h = h @ weights[f"ffnn{j}.w"]
        h += weights[f"ffnn{j}.b"]
        h *= leaky_gain(h > 0, LEAKY_SLOPE)
        check_finite(h)
    logits = h @ weights["out.w"]
    logits += weights["out.b"]
    return check_finite(ad.softmax_rows(check_finite(logits)))


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
