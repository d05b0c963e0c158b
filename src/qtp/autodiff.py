"""Reverse-mode autodiff over float64 numpy arrays.

A Tape records every op in execution order together with a closure that
pushes the output adjoint back to the inputs; backward() replays the records
in reverse (execution order is already topological).  The op set is what
the graph network and its loss need, and no more general.

The op shapes are a contract, not a check: the operands of one op share a
tape; `matmul` takes aligned matrices, `add` equal shapes or a (F,) bias
against (N, F) rows, `mul` equal shapes, `log` positive entries (`clamp_min`
runs first), `pick_columns` one in-range column per row, and `segment_mean`
sorted ids with a row in every segment.  `batch_graphs`, `init_weights`,
`load_checkpoint` and `train_fold`'s views of its weight buffer make exactly
that.  The graph layers are tape ops of their own, defined in `qtp.model`
with this module's `Tape.record` and `accumulate`.

The forward math of `segment_mean` and of `row_softmax` lives in array
functions (`run_means`, `softmax_rows`): each op calls its function and
records a push, and forward-only inference calls the same functions with no
tape, so both give the same bits.  `concat`, `segment_sum`,
`segment_softmax` and `gather_rows` are no longer called by the model, but
`bench/spans.py` still traces them by name.

LeakyReLU slopes are computed without a branch, as (x > 0) * (1 - alpha) +
alpha; for every slope the model uses, (1 - alpha) + alpha is exactly 1.0,
so this gives the same bits as selecting 1 or alpha.

A gradient buffer exists only where backward reaches: the first adjoint
pushed into a tensor becomes its gradient, later ones add to it, and
constants never get one.

All data is float64.  Every op checks that its output is finite
(`check_finite`), and inference checks every stage's output with the same
messages, so silent overflow cannot leak into training or prediction.

Memory: a training step allocates n×width arrays (an n×128 batch array is
4–5 MB).  A step keeps only what its backward still reads: each op keeps
the buffers its push reads (a GCN layer's slopes as a one-byte mask), and
backward pops each record and drops its output before the push runs, so a
buffer goes once no remaining push reads it.  On the largest 32-graph batch
of the benchmark's train corpus at seed 11 (6,183 nodes), a step of the
acceptance GAT config peaks in backward at 33.5 MiB under tracemalloc, 5.5
n×128 arrays.

By default glibc hands freed memory back to the OS (it trims the heap top
and unmaps chunks above its mmap threshold), so the next step faults every
page in again: about 120 k minor faults and 0.4 s of system time in a 3 s
5-fold unit of the acceptance GAT config on `gen_corpus(200, seed=11)`
(2-core x86-64 host, one BLAS thread).  Importing this module therefore sets
glibc's allocator policy once, so freed buffers stay in the process.  The
heap then grows to the step's peak once, in the first unit (10.5 k faults),
and every later unit takes under 500 faults and under 0.01 s of system
time.  Where `mallopt` does not exist (macOS, Windows) nothing is changed.
"""

from __future__ import annotations

import ctypes
from collections.abc import Callable, Sequence

import numpy as np

Array = np.ndarray

# The ceiling glibc's own dynamic mmap threshold climbs to (DEFAULT_MMAP_THRESHOLD_MAX
# on 64-bit), so every array up to that size comes from the heap and is reused.
# Setting any threshold pins it: trim alone would leave it at 128 KiB.
MMAP_THRESHOLD = 32 << 20
# Above the whole process's peak RSS for the widest grid config (GAT 64×8 with two
# blocks: 286 MiB in a 5-fold run on the benchmark's train corpus), so a step's freed
# transient memory is never trimmed from the heap top.
TRIM_THRESHOLD = 1 << 30


def _keep_freed_memory() -> None:
    """Set glibc's mmap and trim thresholds; a no-op where mallopt is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD in glibc's <malloc.h>
    mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


_keep_freed_memory()


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
        self._spent = False

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
        out = Tensor(check_finite(data), self)
        self._records.append((out, backward))
        return out

    def backward(self, loss: Tensor) -> dict[str, Array]:
        """Seed the scalar loss with 1 and replay adjoints in reverse order.

        Returns every parameter's gradient buffer, which the tape owns, and
        zeros for a parameter backward never reached, in `bind_params` order,
        which `train_fold`'s gather into one buffer relies on.  Each record
        is popped before its push runs and its output is dropped, so a buffer
        goes as soon as no remaining push reads it.  The tape is spent
        afterwards: a second call raises ValueError.
        """
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        if loss.data.size != 1:
            raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
        if self._spent:
            raise ValueError("backward already ran on this tape")
        self._spent = True
        loss.grad = np.ones_like(loss.data)
        records = self._records
        while records:
            out, push = records.pop()
            g = out.grad
            # the later ops' pushes that read `out` have run and gone, so this
            # frees it unless the caller holds it
            del out
            if g is not None:
                push(g)
        return {name: np.zeros_like(p.data) if p.grad is None else p.grad
                for name, p in self.params.items()}

    def release(self) -> None:
        """Drop all records and parameters so the batch's buffers free immediately.

        Tape and Tensor reference each other, so a discarded tape waits for
        the cycle collector; a loop building one tape per batch would pile up
        several batches of intermediates before that runs.  `backward` has
        already dropped the records; this drops the rest, and the records of a
        tape backward never ran on.  Call it once a tape's outputs have been
        read.  The tape must not be reused after.
        """
        self._records.clear()
        self.params.clear()


def check_finite(data: Array, what: str = "value") -> Array:
    """`data` itself, once every entry is finite; FloatingPointError otherwise.

    The tape runs it on every op's output, and forward-only inference on every
    stage's output, so both raise the same messages.
    """
    # the method form skips np.all's Python-level dispatch, which costs
    # as much as the check itself on a small graph's arrays
    if not np.isfinite(data).all():
        raise FloatingPointError(f"op produced a non-finite {what}")
    return data


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


# --- primitives -------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    def push(g: Array) -> None:
        if a.requires_grad:
            accumulate(a, g @ b.data.T)
        if b.requires_grad:
            accumulate(b, a.data.T @ g)

    return a.tape.record(a.data @ b.data, push)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; also takes a (F,) bias against (N, F) rows."""
    bias = b.data.ndim < a.data.ndim

    def push(g: Array) -> None:
        if bias:
            accumulate(b, g.sum(axis=0))
        elif b.requires_grad:
            # a adopts g below, so b takes a copy unless it only adds g in
            accumulate(b, g.copy() if b.grad is None and a.requires_grad else g)
        accumulate(a, g)

    return a.tape.record(a.data + b.data, push)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two arrays of one shape."""

    def push(g: Array) -> None:
        accumulate(a, g * b.data)
        accumulate(b, g * a.data)

    return a.tape.record(a.data * b.data, push)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def push(g: Array) -> None:
        accumulate(a, c * g)

    return a.tape.record(a.data * c, push)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    widths = [t.data.shape[-1] for t in tensors]
    bounds = np.cumsum([0] + widths)

    def push(g: Array) -> None:
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            accumulate(t, g[..., lo:hi])  # disjoint views of g

    return tensors[0].tape.record(np.concatenate([t.data for t in tensors], axis=-1), push)


def leaky_gain(positive: Array, alpha: float) -> Array:
    """LeakyReLU's slopes from the mask `x > 0`: 1.0 where it is set, alpha elsewhere.

    Exact when (1.0 - alpha) + alpha == 1.0, which holds for the model's
    slopes (a test pins them).
    """
    gain = positive * (1.0 - alpha)
    gain += alpha
    return gain


def leaky_relu(a: Tensor, alpha: float) -> Tensor:
    slope = leaky_gain(a.data > 0, alpha)

    def push(g: Array) -> None:
        accumulate(a, g * slope)

    return a.tape.record(a.data * slope, push)


def softmax_rows(x: Array) -> Array:
    """The softmax of each row of the matrix x, computed in x's own buffer."""
    x -= x.max(axis=1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=1, keepdims=True)
    return x


def row_softmax(a: Tensor) -> Tensor:
    out = softmax_rows(a.data.copy())

    def push(g: Array) -> None:
        dot = (g * out).sum(axis=1, keepdims=True)
        accumulate(a, out * (g - dot))

    return a.tape.record(out, push)


def log(a: Tensor) -> Tensor:
    def push(g: Array) -> None:
        accumulate(a, g / a.data)

    return a.tape.record(np.log(a.data), push)


def segment_sum(a: Tensor, ids, num_segments: int) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    out = np.zeros((num_segments,) + a.data.shape[1:], dtype=np.float64)
    np.add.at(out, ids, a.data)

    def push(g: Array) -> None:
        accumulate(a, g[ids])

    return a.tape.record(out, push)


def run_means(rows: Array, counts: Array) -> Array:
    """Mean of each run of rows: run k is the next counts[k] >= 1 rows.

    Each run is one slice sum.  With two or more columns a slice sum adds its
    rows in order, as a scatter-add does; numpy pairs terms up only along one
    contiguous axis.
    """
    out = np.empty((counts.size,) + rows.shape[1:])
    lo = 0
    for k, hi in enumerate(counts.cumsum().tolist()):
        rows[lo:hi].sum(axis=0, out=out[k, ...])
        lo = hi
    out /= counts.astype(np.float64).reshape((-1,) + (1,) * (rows.ndim - 1))
    return out


def segment_mean(a: Tensor, ids: Array, num_segments: int) -> Tensor:
    """Mean of the rows of each segment; ids are sorted and every segment has a row."""
    counts = np.bincount(ids, minlength=num_segments)
    out = run_means(a.data, counts)

    def push(g: Array) -> None:
        accumulate(a, (g / counts.reshape((num_segments,) + (1,) * (g.ndim - 1)))[ids])

    return a.tape.record(out, push)


def segment_softmax(a: Tensor, ids, num_segments: int) -> Tensor:
    """Softmax over rows sharing a segment id, per trailing column."""
    ids = np.asarray(ids, dtype=np.int64)
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

    def push(g: Array) -> None:
        grad = np.zeros_like(a.data)
        np.add.at(grad, idx, g)
        accumulate(a, grad)

    return a.tape.record(a.data[idx], push)


def pick_columns(a: Tensor, idx) -> Tensor:
    """out[i] = a[i, idx[i]]; the per-row class pick used by the loss."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(a.data.shape[0])

    def push(g: Array) -> None:
        grad = np.zeros_like(a.data)
        grad[rows, idx] = g  # one pick per row, so no two land on one cell
        accumulate(a, grad)

    return a.tape.record(a.data[rows, idx], push)


def mean_all(a: Tensor) -> Tensor:
    size = a.data.size

    def push(g: Array) -> None:
        accumulate(a, np.full_like(a.data, float(g) / size))

    return a.tape.record(np.asarray(a.data.mean()), push)


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor); keeps log well-defined for near-zero probabilities."""
    mask = (a.data > floor).astype(np.float64)

    def push(g: Array) -> None:
        accumulate(a, g * mask)

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
