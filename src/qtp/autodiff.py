"""Reverse-mode autodiff over float64 numpy arrays.

A Tape records every op in execution order together with a closure that
pushes the output adjoint back to the inputs; backward() replays the records
in reverse (execution order is already topological).  The op set is what
the graph network and its loss need.  Each graph layer is one op:
`gcn_layer` and `gat_layer` run their message passing on `NeighborTable`
row blocks and keep only the buffers their backward reads.  `concat`,
`segment_sum`, `segment_softmax` and `gather_rows` are no longer called by
the model, but `bench/spans.py` still traces them by name.

LeakyReLU slopes are computed without a branch, as (x > 0) * (1 - alpha) +
alpha; for every slope the model uses, (1 - alpha) + alpha is exactly 1.0,
so this gives the same bits as selecting 1 or alpha.

A gradient buffer exists only where backward reaches: the first adjoint
pushed into a tensor becomes its gradient, later ones add to it, and
constants never get one.  Parameters alone start from zeros.

All data is float64.  Every op checks that its output is finite, so silent
overflow cannot leak into training or prediction.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

Array = np.ndarray


class Tensor:
    """A value in the computation graph; gradients live alongside the data."""

    __slots__ = ("data", "grad", "tape", "name", "requires_grad")

    def __init__(self, data: Array, tape: "Tape", name: str = "", requires_grad: bool = True):
        self.data = data
        self.grad: Array | None = None
        self.tape = tape
        self.name = name
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape})"


class Tape:
    """Op recorder and parameter registry for one forward/backward pass."""

    def __init__(self) -> None:
        self._records: list[tuple[Tensor, Callable[[Array], None]]] = []
        self.params: dict[str, Tensor] = {}

    def const(self, value) -> Tensor:
        return Tensor(np.asarray(value, dtype=np.float64), self, requires_grad=False)

    def param(self, name: str, value) -> Tensor:
        if name in self.params:
            raise ValueError(f"parameter {name!r} registered twice")
        t = Tensor(np.asarray(value, dtype=np.float64), self, name)
        self.params[name] = t
        return t

    def record(self, data: Array, backward: Callable[[Array], None]) -> Tensor:
        """Adopt an op's output; `backward(g)` pushes g into the inputs with `accumulate`."""
        if not np.all(np.isfinite(data)):
            raise FloatingPointError("op produced a non-finite value")
        out = Tensor(data, self)
        self._records.append((out, backward))
        return out

    def backward(self, loss: Tensor) -> dict[str, Array]:
        """Seed the scalar loss with 1 and replay adjoints in reverse order.

        Returns every parameter's gradient, zeros where backward never reached.
        """
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        for out, _ in self._records:
            out.grad = None
        for p in self.params.values():
            p.grad = np.zeros_like(p.data)
        loss.grad = np.ones_like(loss.data)
        for out, push in reversed(self._records):
            if out.grad is not None:
                push(out.grad)
        return {name: p.grad.copy() for name, p in self.params.items()}

    def release(self) -> None:
        """Drop all records so the batch's buffers free immediately.

        Tape and Tensor reference each other, so a discarded tape waits for
        the cycle collector; a loop building one tape per batch would pile up
        several batches of intermediates before that runs.  Call this once a
        tape's outputs have been read.  The tape must not be reused after.
        """
        self._records.clear()
        self.params.clear()


def accumulate(t: Tensor, g: Array) -> None:
    """Add adjoint g into t.grad; the first one becomes the buffer itself.

    g is adopted without a copy, so a push must hand one array to at most one
    input.  An output's own adjoint is free to pass on: backward never reads
    it again once the output's push has run.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _same_tape(tensors: Sequence[Tensor]) -> "Tape":
    tape = tensors[0].tape
    if any(t.tape is not tape for t in tensors):
        raise ValueError("operands recorded on different tapes")
    return tape


def _pair(a: Tensor, b) -> tuple[Tensor, Tensor]:
    if not isinstance(a, Tensor):
        raise TypeError("first operand must be a Tensor")
    if not isinstance(b, Tensor):
        b = a.tape.const(b)
    if a.tape is not b.tape:
        raise ValueError("operands recorded on different tapes")
    return a, b


# --- primitives -------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _pair(a, b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shapes {a.data.shape} x {b.data.shape} do not align")

    def push(g: Array) -> None:
        if a.requires_grad:
            accumulate(a, g @ b.data.T)
        if b.requires_grad:
            accumulate(b, a.data.T @ g)

    return a.tape.record(a.data @ b.data, push)


def add(a: Tensor, b) -> Tensor:
    """Elementwise add; also accepts a (F,) bias against (N, F) rows."""
    a, b = _pair(a, b)
    bias = b.data.ndim == 1 and a.data.ndim == 2 and a.data.shape[1] == b.data.shape[0]
    if not bias and a.data.shape != b.data.shape:
        raise ValueError(f"add shapes {a.data.shape} vs {b.data.shape}")

    def push(g: Array) -> None:
        if bias:
            accumulate(b, g.sum(axis=0))
        elif b.requires_grad:
            # a adopts g below, so b takes a copy unless it only adds g in
            accumulate(b, g.copy() if b.grad is None and a.requires_grad else g)
        accumulate(a, g)

    return a.tape.record(a.data + b.data, push)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; one side may be an (N, 1) column against (N, F)."""
    a, b = _pair(a, b)
    sa, sb = a.data.shape, b.data.shape
    col_a = a.data.ndim == 2 and b.data.ndim == 2 and sa[1] == 1 and sb[0] == sa[0]
    col_b = a.data.ndim == 2 and b.data.ndim == 2 and sb[1] == 1 and sa[0] == sb[0]
    if not (sa == sb or col_a or col_b):
        raise ValueError(f"mul shapes {sa} vs {sb}")

    def push(g: Array) -> None:
        ga = g * b.data
        gb = g * a.data
        accumulate(a, ga.sum(axis=1, keepdims=True) if (col_a and sa != sb) else ga)
        accumulate(b, gb.sum(axis=1, keepdims=True) if (col_b and sa != sb) else gb)

    return a.tape.record(a.data * b.data, push)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def push(g: Array) -> None:
        accumulate(a, c * g)

    return a.tape.record(a.data * c, push)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    if not tensors:
        raise ValueError("concat of nothing")
    tape = _same_tape(tensors)
    widths = [t.data.shape[-1] for t in tensors]
    bounds = np.cumsum([0] + widths)

    def push(g: Array) -> None:
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            accumulate(t, g[..., lo:hi])  # disjoint views of g

    return tape.record(np.concatenate([t.data for t in tensors], axis=-1), push)


def _gain(x: Array, alpha: float) -> Array:
    """LeakyReLU's slope at x: 1.0 where x > 0, alpha elsewhere.

    Exact when (1.0 - alpha) + alpha == 1.0, which holds for the model's
    slopes (a test pins them).
    """
    gain = (x > 0) * (1.0 - alpha)
    gain += alpha
    return gain


def leaky_relu(a: Tensor, alpha: float) -> Tensor:
    slope = _gain(a.data, alpha)

    def push(g: Array) -> None:
        accumulate(a, g * slope)

    return a.tape.record(a.data * slope, push)


def row_softmax(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"row_softmax expects a matrix, got shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def push(g: Array) -> None:
        dot = (g * out).sum(axis=1, keepdims=True)
        accumulate(a, out * (g - dot))

    return a.tape.record(out, push)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log needs strictly positive inputs")

    def push(g: Array) -> None:
        accumulate(a, g / a.data)

    return a.tape.record(np.log(a.data), push)


def _check_ids(ids: Array, n_rows: int, num_segments: int) -> Array:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] != n_rows:
        raise ValueError(f"segment ids shape {ids.shape} does not match {n_rows} rows")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise ValueError("segment id out of range")
    return ids


def segment_sum(a: Tensor, ids, num_segments: int) -> Tensor:
    ids = _check_ids(ids, a.data.shape[0], num_segments)
    out = np.zeros((num_segments,) + a.data.shape[1:], dtype=np.float64)
    np.add.at(out, ids, a.data)

    def push(g: Array) -> None:
        accumulate(a, g[ids])

    return a.tape.record(out, push)


def segment_mean(a: Tensor, ids, num_segments: int) -> Tensor:
    ids = _check_ids(ids, a.data.shape[0], num_segments)
    counts = np.bincount(ids, minlength=num_segments)
    if np.any(counts == 0):
        empty = int(np.argmin(counts))
        raise ValueError(f"segment {empty} is empty")
    rows = a.data
    if np.any(ids[1:] < ids[:-1]):
        rows = rows[np.argsort(ids, kind="stable")]
    # With two or more columns a slice sum adds its rows in order, as a
    # scatter-add does; numpy pairs terms up only along one contiguous axis.
    ends = np.cumsum(counts)
    out = np.stack([rows[lo:hi].sum(axis=0) for lo, hi in zip(ends - counts, ends)])
    shape = (num_segments,) + (1,) * (a.data.ndim - 1)
    counts = counts.astype(np.float64).reshape(shape)
    out /= counts

    def push(g: Array) -> None:
        accumulate(a, (g / counts)[ids])

    return a.tape.record(out, push)


def segment_softmax(a: Tensor, ids, num_segments: int) -> Tensor:
    """Softmax over rows sharing a segment id, per trailing column."""
    ids = _check_ids(ids, a.data.shape[0], num_segments)
    seg_shape = (num_segments,) + a.data.shape[1:]
    peak = np.full(seg_shape, -np.inf)
    np.maximum.at(peak, ids, a.data)
    e = np.exp(a.data - peak[ids])
    denom = np.zeros(seg_shape)
    np.add.at(denom, ids, e)
    out = e / denom[ids]

    def push(g: Array) -> None:
        dot = np.zeros(seg_shape)
        np.add.at(dot, ids, g * out)
        accumulate(a, out * (g - dot[ids]))

    return a.tape.record(out, push)


def gather_rows(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("gather_rows takes a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ValueError("row index out of range")

    def push(g: Array) -> None:
        grad = np.zeros_like(a.data)
        np.add.at(grad, idx, g)
        accumulate(a, grad)

    return a.tape.record(a.data[idx], push)


def pick_columns(a: Tensor, idx) -> Tensor:
    """out[i] = a[i, idx[i]]; the per-row class pick used by the loss."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.data.ndim != 2 or idx.shape != (a.data.shape[0],):
        raise ValueError(f"pick_columns shapes {a.data.shape} vs {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[1]):
        raise ValueError("column index out of range")
    rows = np.arange(a.data.shape[0])

    def push(g: Array) -> None:
        grad = np.zeros_like(a.data)
        grad[rows, idx] = g  # one pick per row, so no two land on one cell
        accumulate(a, grad)

    return a.tape.record(a.data[rows, idx], push)


def mean_all(a: Tensor) -> Tensor:
    size = a.data.size
    if size == 0:
        raise ValueError("mean of an empty tensor")

    def push(g: Array) -> None:
        accumulate(a, np.full_like(a.data, float(g) / size))

    return a.tape.record(np.asarray(a.data.mean()), push)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); keeps log well-defined for near-zero probabilities."""
    mask = (a.data > floor).astype(np.float64)

    def push(g: Array) -> None:
        accumulate(a, g * mask)

    return a.tape.record(np.maximum(a.data, floor), push)


# --- neighbor tables ----------------------------------------------------------

BLOCK = 256  # rows per gather_sum block; at width 128 its temporaries fit a core's L2


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
        """Per-row `op`-reduction of a value per position; (num_rows,) in row-id order."""
        acc = np.full(self.num_rows, start)
        for lo, hi in self.slots:
            head = acc[: hi - lo]
            op(head, x[lo:hi], out=head)
        out = np.empty_like(acc)
        out[self.order] = acc
        return out

    def gather_sum(self, x: Array, weights: Array, out: Array | None = None) -> Array:
        """out[i] = sum of weights[p] * x[cols[p]] over the positions p of row i.

        Works through `order` BLOCK rows at a time: a block takes its part of
        every slot that reaches it, then goes straight to its rows of `out`,
        so the (rows, width) temporaries stay in cache.  `out` may be a
        column slice of a wider array.
        """
        if out is None:
            out = np.empty((self.num_rows, x.shape[1]))
        weights = weights.reshape(-1, 1)
        for r0 in range(0, self.num_rows, BLOCK):
            r1 = min(r0 + BLOCK, self.num_rows)
            acc = np.zeros((r1 - r0, x.shape[1]))
            for lo, hi in self.slots:
                end = min(hi - lo, r1)  # slot rows r0 .. end fall in this block
                if end <= r0:
                    break  # slots only narrow from here
                term = x[self.cols[lo + r0 : lo + end]]
                term *= weights[lo + r0 : lo + end]
                acc[: end - r0] += term
            out[self.order[r0:r1]] = acc
        return out

    def pair_dots(self, left: Array, right: Array) -> Array:
        """left[rows[p]] . right[cols[p]] for every position p."""
        left = left[self.order]
        out = np.empty(self.cols.size)
        for lo, hi in self.slots:
            out[lo:hi] = np.einsum("ij,ij->i", left[: hi - lo], right[self.cols[lo:hi]])
        return out


# --- graph layers ---------------------------------------------------------------


def gcn_layer(
    h: Tensor, table: NeighborTable, w: Tensor, b: Tensor, slope: float, residual: bool
) -> Tensor:
    """LeakyReLU(Â H W + b, slope), plus H itself when `residual`, as one op.

    `table` holds a symmetric Â with values, so the backward's Âᵀ G is the same
    table sum.  The forward works in place on the product's buffer, and only
    ÂH and the slopes are kept for the backward.
    """
    tape = _same_tape((h, w, b))
    width = w.data.shape[1]
    if h.data.shape[1] != w.data.shape[0] or b.data.shape != (width,) or (
        residual and h.data.shape[1] != width
    ):
        raise ValueError(
            f"gcn_layer shapes {h.data.shape}, {w.data.shape}, {b.data.shape} do not align"
        )
    ah = table.gather_sum(h.data, table.vals)
    out = ah @ w.data
    out += b.data
    gain = _gain(out, slope)
    out *= gain
    if residual:
        out += h.data

    def push(g: Array) -> None:
        d = g * gain
        if residual:
            accumulate(h, g)
        accumulate(b, d.sum(axis=0))
        accumulate(w, ah.T @ d)
        if h.requires_grad:
            accumulate(h, table.gather_sum(d @ w.data.T, table.vals))

    return tape.record(out, push)


def gat_layer(
    h: Tensor,
    heads: Sequence[tuple[Tensor, Tensor, Tensor]],
    into: NeighborTable,
    out_of: NeighborTable,
    slope: float,
) -> Tensor:
    """Multi-head graph attention as one op; head k fills its own column slice.

    Each head is (W, a_dst, a_src).  With HW = H @ W, output row i of a head
    is the sum over the positions p of `into` row i of alpha_p HW[src_p],
    where alpha is the row softmax of LeakyReLU(HW[dst_p] a_dst + HW[src_p]
    a_src, slope).  `into` lists each destination's sources (rows =
    destinations, cols = sources); `out_of` is its transpose, built over
    `into` positions so that `out_of.entries` maps back to them.

    Finiteness is checked on the output, as for every op, and on the
    attention scores.  The backward reaches sources through `out_of` and
    never scatters.  It takes the heads last to first and, within a head,
    adds HW's gradient terms as separate ops would: attention, then a_src,
    then a_dst, then W.
    """
    if not heads:
        raise ValueError("gat_layer needs at least one head")
    tape = _same_tape([h] + [t for head in heads for t in head])
    bounds = np.cumsum([0] + [w.data.shape[1] for w, _, _ in heads]).tolist()
    for w, a_dst, a_src in heads:
        score = (w.data.shape[1], 1)
        if h.data.shape[1] != w.data.shape[0] or not a_dst.shape == a_src.shape == score:
            raise ValueError(
                f"gat_layer head shapes {w.data.shape}, {a_dst.data.shape}, {a_src.data.shape} "
                f"do not fit input {h.data.shape}"
            )
    out = np.empty((h.data.shape[0], bounds[-1]))
    kept = []
    for (w, a_dst, a_src), lo, hi in zip(heads, bounds, bounds[1:]):
        wh = h.data @ w.data
        z = (wh @ a_dst.data)[into.rows, 0] + (wh @ a_src.data)[into.cols, 0]
        if not np.all(np.isfinite(z)):
            # an overflowed score of -inf would give a zero weight, not a non-finite output
            raise FloatingPointError("op produced a non-finite attention score")
        gain = _gain(z, slope)
        logit = z * gain
        e = np.exp(logit - into.reduce(logit, np.maximum, -np.inf)[into.rows])
        alpha = e / into.reduce(e)[into.rows]
        into.gather_sum(wh, alpha, out=out[:, lo:hi])
        kept.append((wh, alpha, gain))

    def push(g: Array) -> None:
        back = out_of.entries
        for k in reversed(range(len(heads))):
            (w, a_dst, a_src), (wh, alpha, gain) = heads[k], kept[k]
            g_head = g[:, bounds[k] : bounds[k + 1]]
            d_alpha = into.pair_dots(g_head, wh)
            d_z = alpha * (d_alpha - into.reduce(alpha * d_alpha)[into.rows]) * gain
            d_wh = out_of.gather_sum(g_head, alpha[back])
            d_src = out_of.reduce(d_z[back])[:, None]
            d_dst = into.reduce(d_z)[:, None]
            d_wh += d_src @ a_src.data.T
            accumulate(a_src, wh.T @ d_src)
            d_wh += d_dst @ a_dst.data.T
            accumulate(a_dst, wh.T @ d_dst)
            accumulate(w, h.data.T @ d_wh)
            if h.requires_grad:
                accumulate(h, d_wh @ w.data.T)

    return tape.record(out, push)


# --- gradient verification ---------------------------------------------------


def finite_diff_check(
    f: Callable[[dict[str, Tensor]], Tensor],
    params: dict[str, Array],
    eps: float = 1e-5,
) -> float:
    """Compare tape gradients of f against central differences.

    f must build a scalar loss from a dict of parameter Tensors.  Returns the
    worst relative error over every parameter coordinate, with the usual
    max(|analytic|, |numeric|, 1e-8) denominator.
    """
    tape = Tape()
    tensors = {k: tape.param(k, v) for k, v in params.items()}
    grads = tape.backward(f(tensors))

    def value(vals: dict[str, Array]) -> float:
        probe = Tape()
        return float(f({k: probe.param(k, v) for k, v in vals.items()}).data)

    worst = 0.0
    for name, arr in params.items():
        arr = np.asarray(arr, dtype=np.float64)
        for i in range(arr.size):
            plus = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
            minus = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
            plus[name].flat[i] += eps
            minus[name].flat[i] -= eps
            numeric = (value(plus) - value(minus)) / (2.0 * eps)
            analytic = float(grads[name].flat[i])
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
