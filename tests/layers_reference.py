"""The graph layers as separate tape ops, kept as an oracle for the fused ones.

Before `autodiff.gcn_layer` and `autodiff.gat_layer`, a GCN layer was a
table sum, a matmul, a bias add and a LeakyReLU, and the GAT layer was three
matmuls and an attention op per head plus a `concat`.  Those layers, the two
table ops, and the one-head `NeighborTable.reduce`, `pair_dots` and unblocked
`gather_sum` they called, are copied here unchanged but for imports, with
`leaky_relu` in its `np.where` form and a `model_forward` that calls them.
The fused layers, which run every head in one pass over the tables, must give
the same bits: outputs, losses and every gradient.

`adam_step` is the per-parameter Adam update that the blocked pass over one
weight buffer replaced, copied unchanged: a name → array dict of weights and
of gradients, and m and v as dicts filled on first use.  The blocked pass
must give the same bits in the weights and in both moments.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from qtp import autodiff as ad
from qtp.autodiff import Array, NeighborTable, Tensor, accumulate
from qtp.model import (
    GraphBatch,
    ModelError,
    SparseAdj,
    global_mean_pool,
    normalize_adjacency,
    param_shapes,
)

# --- ops ----------------------------------------------------------------------


def leaky_relu(a: Tensor, alpha: float) -> Tensor:
    mask = a.data > 0
    slope = np.where(mask, 1.0, alpha)

    def push(g: Array) -> None:
        accumulate(a, g * slope)

    return a.tape.record(a.data * slope, push)


def _unsort(table: NeighborTable, acc: Array) -> Array:
    out = np.empty_like(acc)
    out[table.order] = acc
    return out


def reduce(table: NeighborTable, x: Array, op=np.add, start: float = 0.0) -> Array:
    """Per-row `op`-reduction of a value per position; (num_rows,) in row-id order."""
    acc = np.full(table.num_rows, start)
    for lo, hi in table.slots:
        head = acc[: hi - lo]
        op(head, x[lo:hi], out=head)
    return _unsort(table, acc)


def pair_dots(table: NeighborTable, left: Array, right: Array) -> Array:
    """left[rows[p]] . right[cols[p]] for every position p."""
    left = left[table.order]
    out = np.empty(table.cols.size)
    for lo, hi in table.slots:
        out[lo:hi] = np.einsum("ij,ij->i", left[: hi - lo], right[table.cols[lo:hi]])
    return out


def gather_sum(table: NeighborTable, x: Array, weights: Array) -> Array:
    """out[i] = sum of weights[p] * x[cols[p]] over the positions p of row i."""
    acc = np.zeros((table.num_rows, x.shape[1]))
    for lo, hi in table.slots:
        term = x[table.cols[lo:hi]]
        term *= weights[lo:hi, None]
        acc[: hi - lo] += term
    return _unsort(table, acc)


def sym_spmm(h: Tensor, adj: NeighborTable) -> Tensor:
    """A @ H for a symmetric A held as a table with values; its backward is A @ G."""

    def push(g: Array) -> None:
        if h.requires_grad:
            accumulate(h, gather_sum(adj, g, adj.vals))

    return h.tape.record(gather_sum(adj, h.data, adj.vals), push)


def neighbor_attention(
    wh: Tensor,
    score_dst: Tensor,
    score_src: Tensor,
    into: NeighborTable,
    out_of: NeighborTable,
    slope: float,
) -> Tensor:
    """out[i] = sum_p alpha_p wh[src_p] over the positions p of `into` row i.

    `into` lists each destination's sources (rows = destinations, cols =
    sources); `out_of` is its transpose, built over `into` positions so that
    `out_of.entries` maps back to them.  The attention weights alpha are the
    row softmax of LeakyReLU(score_dst[dst_p] + score_src[src_p], slope).
    The backward reaches sources through `out_of` and never scatters.
    """
    z = score_dst.data[into.rows, 0] + score_src.data[into.cols, 0]
    gain = np.where(z > 0, 1.0, slope)
    logit = z * gain
    e = np.exp(logit - reduce(into, logit, np.maximum, -np.inf)[into.rows])
    alpha = e / reduce(into, e)[into.rows]

    def push(g: Array) -> None:
        d_alpha = pair_dots(into, g, wh.data)
        d_z = alpha * (d_alpha - reduce(into, alpha * d_alpha)[into.rows]) * gain
        back = out_of.entries
        accumulate(wh, gather_sum(out_of, g, alpha[back]))
        accumulate(score_dst, reduce(into, d_z)[:, None])
        accumulate(score_src, reduce(out_of, d_z[back])[:, None])

    return wh.tape.record(gather_sum(into, wh.data, alpha), push)


# --- layers -------------------------------------------------------------------


def spmm(adj: SparseAdj, h: Tensor) -> Tensor:
    """Â @ H; Â is symmetric, so the backward is the same table sum."""
    return sym_spmm(h, adj.table)


def gcn_forward(h: Tensor, adj: SparseAdj, w: Tensor, b: Tensor) -> Tensor:
    return leaky_relu(ad.add(ad.matmul(spmm(adj, h), w), b), 0.01)


def residual_gcn(h: Tensor, adj: SparseAdj, w: Tensor, b: Tensor) -> Tensor:
    if w.shape[0] != w.shape[1] or w.shape[0] != h.shape[1]:
        raise ModelError(f"residual weight {w.shape} must be square at width {h.shape[1]}")
    return ad.add(h, gcn_forward(h, adj, w, b))


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
    """
    edges = np.asarray(edges, np.int64).reshape(-1, 2)
    loops = np.arange(num_nodes, dtype=np.int64)
    src = np.concatenate([edges[:, 0], loops])
    dst = np.concatenate([edges[:, 1], loops])
    into = NeighborTable(dst, src, num_nodes)
    out_of = NeighborTable(into.cols, into.rows, num_nodes)
    outs = []
    for w, a_dst, a_src in heads:
        wh = ad.matmul(h, w)
        outs.append(neighbor_attention(
            wh, ad.matmul(wh, a_dst), ad.matmul(wh, a_src), into, out_of, 0.2
        ))
    return outs[0] if len(outs) == 1 else ad.concat(outs)


def model_forward(config, params: dict[str, Tensor], batch: GraphBatch) -> Tensor:
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
        h = leaky_relu(ad.add(ad.matmul(h, params[f"ffnn{j}.w"]), params[f"ffnn{j}.b"]), 0.01)
    logits = ad.add(ad.matmul(h, params["out.w"]), params["out.b"])
    return ad.row_softmax(logits)


# --- optimizer ----------------------------------------------------------------


def adam_step(params, grads, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """Bias-corrected Adam, one parameter at a time; `state` has dicts `m` and `v`
    and a step count `t`."""
    state.t += 1
    t = state.t
    for name, g in grads.items():
        m = state.m.setdefault(name, np.zeros_like(g))
        v = state.v.setdefault(name, np.zeros_like(g))
        m += (1 - beta1) * (g - m)
        v += (1 - beta2) * (g * g - v)
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
