"""Reverse-mode autodiff over float64 numpy arrays.

A Tape records every op in execution order together with a closure that
pushes the output adjoint back to the inputs; backward() replays the records
in reverse (execution order is already topological).  The op set is exactly
what the graph network and its loss need, nothing more.

All data is float64.  Every op checks that its output is finite, so silent
overflow cannot leak into training or prediction.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

Array = np.ndarray


class Tensor:
    """A value in the computation graph; gradients live alongside the data."""

    __slots__ = ("data", "grad", "tape", "name")

    def __init__(self, data: Array, tape: "Tape", name: str = ""):
        self.data = data
        self.grad: Array | None = None
        self.tape = tape
        self.name = name

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
        self._tensors: list[Tensor] = []
        self.params: dict[str, Tensor] = {}

    def _adopt(self, data: Array, name: str = "") -> Tensor:
        t = Tensor(data, self, name)
        self._tensors.append(t)
        return t

    def const(self, value) -> Tensor:
        return self._adopt(np.asarray(value, dtype=np.float64))

    def param(self, name: str, value) -> Tensor:
        if name in self.params:
            raise ValueError(f"parameter {name!r} registered twice")
        t = self._adopt(np.asarray(value, dtype=np.float64), name)
        self.params[name] = t
        return t

    def record(self, data: Array, backward: Callable[[Array], None]) -> Tensor:
        if not np.all(np.isfinite(data)):
            raise FloatingPointError("op produced a non-finite value")
        out = self._adopt(data)
        self._records.append((out, backward))
        return out

    def backward(self, loss: Tensor) -> dict[str, Array]:
        """Seed the scalar loss with 1 and replay adjoints in reverse order."""
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        for t in self._tensors:
            t.grad = np.zeros_like(t.data)
        loss.grad = np.ones_like(loss.data)
        for out, push in reversed(self._records):
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
        self._tensors.clear()
        self.params.clear()


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
        a.grad += g @ b.data.T
        b.grad += a.data.T @ g

    return a.tape.record(a.data @ b.data, push)


def add(a: Tensor, b) -> Tensor:
    """Elementwise add; also accepts a (F,) bias against (N, F) rows."""
    a, b = _pair(a, b)
    bias = b.data.ndim == 1 and a.data.ndim == 2 and a.data.shape[1] == b.data.shape[0]
    if not bias and a.data.shape != b.data.shape:
        raise ValueError(f"add shapes {a.data.shape} vs {b.data.shape}")

    def push(g: Array) -> None:
        a.grad += g
        b.grad += g.sum(axis=0) if bias else g

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
        a.grad += ga.sum(axis=1, keepdims=True) if (col_a and sa != sb) else ga
        b.grad += gb.sum(axis=1, keepdims=True) if (col_b and sa != sb) else gb

    return a.tape.record(a.data * b.data, push)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def push(g: Array) -> None:
        a.grad += c * g

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
            t.grad += g[..., lo:hi]

    return tape.record(np.concatenate([t.data for t in tensors], axis=-1), push)


def leaky_relu(a: Tensor, alpha: float) -> Tensor:
    mask = a.data > 0
    slope = np.where(mask, 1.0, alpha)

    def push(g: Array) -> None:
        a.grad += g * slope

    return a.tape.record(a.data * slope, push)


def row_softmax(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"row_softmax expects a matrix, got shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def push(g: Array) -> None:
        dot = (g * out).sum(axis=1, keepdims=True)
        a.grad += out * (g - dot)

    return a.tape.record(out, push)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log needs strictly positive inputs")

    def push(g: Array) -> None:
        a.grad += g / a.data

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
        a.grad += g[ids]

    return a.tape.record(out, push)


def segment_mean(a: Tensor, ids, num_segments: int) -> Tensor:
    ids = _check_ids(ids, a.data.shape[0], num_segments)
    counts = np.bincount(ids, minlength=num_segments).astype(np.float64)
    if np.any(counts == 0):
        empty = int(np.argmin(counts))
        raise ValueError(f"segment {empty} is empty")
    out = np.zeros((num_segments,) + a.data.shape[1:], dtype=np.float64)
    np.add.at(out, ids, a.data)
    shape = (num_segments,) + (1,) * (a.data.ndim - 1)
    out /= counts.reshape(shape)

    def push(g: Array) -> None:
        a.grad += (g / counts.reshape(shape))[ids]

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
        a.grad += out * (g - dot[ids])

    return a.tape.record(out, push)


def gather_rows(a: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("gather_rows takes a 1-D index array")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ValueError("row index out of range")

    def push(g: Array) -> None:
        np.add.at(a.grad, idx, g)

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
        np.add.at(a.grad, (rows, idx), g)

    return a.tape.record(a.data[rows, idx], push)


def mean_all(a: Tensor) -> Tensor:
    size = a.data.size
    if size == 0:
        raise ValueError("mean of an empty tensor")

    def push(g: Array) -> None:
        a.grad += np.full_like(a.data, float(g) / size)

    return a.tape.record(np.asarray(a.data.mean()), push)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); keeps log well-defined for near-zero probabilities."""
    mask = (a.data > floor).astype(np.float64)

    def push(g: Array) -> None:
        a.grad += g * mask

    return a.tape.record(np.maximum(a.data, floor), push)


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
