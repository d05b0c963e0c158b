"""Reverse-mode autodiff over float64 numpy arrays.

A Tape records every op in execution order together with a closure that
pushes the output adjoint back to the inputs; backward() replays the records
in reverse (execution order is already topological).  The op set is what
the graph network and its loss need; `segment_sum`, `segment_softmax` and
`gather_rows` are no longer called by the model, but `bench/spans.py` still
traces them by name.

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
    tape = tensors[0].tape
    for t in tensors:
        if t.tape is not tape:
            raise ValueError("operands recorded on different tapes")
    widths = [t.data.shape[-1] for t in tensors]
    bounds = np.cumsum([0] + widths)

    def push(g: Array) -> None:
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            accumulate(t, g[..., lo:hi])  # disjoint views of g

    return tape.record(np.concatenate([t.data for t in tensors], axis=-1), push)


def leaky_relu(a: Tensor, alpha: float) -> Tensor:
    mask = a.data > 0
    slope = np.where(mask, 1.0, alpha)

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

    def _unsort(self, acc: Array) -> Array:
        out = np.empty_like(acc)
        out[self.order] = acc
        return out

    def reduce(self, x: Array, op=np.add, start: float = 0.0) -> Array:
        """Per-row `op`-reduction of a value per position; (num_rows,) in row-id order."""
        acc = np.full(self.num_rows, start)
        for lo, hi in self.slots:
            head = acc[: hi - lo]
            op(head, x[lo:hi], out=head)
        return self._unsort(acc)

    def gather_sum(self, x: Array, weights: Array) -> Array:
        """out[i] = sum of weights[p] * x[cols[p]] over the positions p of row i."""
        acc = np.zeros((self.num_rows, x.shape[1]))
        for lo, hi in self.slots:
            term = x[self.cols[lo:hi]]
            term *= weights[lo:hi, None]
            acc[: hi - lo] += term
        return self._unsort(acc)

    def pair_dots(self, left: Array, right: Array) -> Array:
        """left[rows[p]] . right[cols[p]] for every position p."""
        left = left[self.order]
        out = np.empty(self.cols.size)
        for lo, hi in self.slots:
            out[lo:hi] = np.einsum("ij,ij->i", left[: hi - lo], right[self.cols[lo:hi]])
        return out


def sym_spmm(h: Tensor, adj: NeighborTable) -> Tensor:
    """A @ H for a symmetric A held as a table with values; its backward is A @ G."""

    def push(g: Array) -> None:
        if h.requires_grad:
            accumulate(h, adj.gather_sum(g, adj.vals))

    return h.tape.record(adj.gather_sum(h.data, adj.vals), push)


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
    e = np.exp(logit - into.reduce(logit, np.maximum, -np.inf)[into.rows])
    alpha = e / into.reduce(e)[into.rows]

    def push(g: Array) -> None:
        d_alpha = into.pair_dots(g, wh.data)
        d_z = alpha * (d_alpha - into.reduce(alpha * d_alpha)[into.rows]) * gain
        back = out_of.entries
        accumulate(wh, out_of.gather_sum(g, alpha[back]))
        accumulate(score_dst, into.reduce(d_z)[:, None])
        accumulate(score_src, out_of.reduce(d_z[back])[:, None])

    return wh.tape.record(into.gather_sum(wh.data, alpha), push)


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
