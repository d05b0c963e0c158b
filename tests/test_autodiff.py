"""Tape autodiff: finite-difference checks per primitive, mechanics, errors."""

import math
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtp import autodiff as ad

TOL = 1e-6


def _rng():
    return np.random.default_rng(42)


def _weighted_mean(t, w):
    """Scalar loss with distinct per-coordinate weights.

    mean_all alone is blind to ops whose output sums are constant (softmax
    rows, for one), so every check routes through a fixed random weighting.
    """
    return ad.mean_all(ad.mul(t, t.tape.const(w)))


class TestFiniteDiff:
    def test_matmul(self):
        rng = _rng()
        w = rng.standard_normal((3, 2))
        params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((4, 2))}
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.matmul(ts["a"], ts["b"]), w), params
        )
        assert err < TOL

    def test_add_elementwise(self):
        rng = _rng()
        w = rng.standard_normal((3, 4))
        params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 4))}
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.add(ts["a"], ts["b"]), w), params
        )
        assert err < TOL

    def test_add_bias_broadcast(self):
        rng = _rng()
        w = rng.standard_normal((3, 4))
        params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.add(ts["a"], ts["b"]), w), params
        )
        assert err < TOL

    def test_mul_elementwise(self):
        rng = _rng()
        w = rng.standard_normal((2, 5))
        params = {"a": rng.standard_normal((2, 5)), "b": rng.standard_normal((2, 5))}
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.mul(ts["a"], ts["b"]), w), params
        )
        assert err < TOL

    def test_scale(self):
        rng = _rng()
        w = rng.standard_normal((4, 2))
        params = {"a": rng.standard_normal((4, 2))}
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.scale(ts["a"], -2.5), w), params
        )
        assert err < TOL

    def test_concat(self):
        rng = _rng()
        w = rng.standard_normal((4, 6))
        params = {
            "a": rng.standard_normal((4, 2)),
            "b": rng.standard_normal((4, 3)),
            "c": rng.standard_normal((4, 1)),
        }
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.concat([ts["a"], ts["b"], ts["c"]]), w),
            params,
        )
        assert err < TOL

    def test_leaky_relu(self):
        rng = _rng()
        # keep inputs off the kink so central differences stay clean
        x = rng.uniform(0.1, 1.0, (4, 3)) * rng.choice([-1.0, 1.0], (4, 3))
        w = rng.standard_normal((4, 3))
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.leaky_relu(ts["x"], 0.01), w), {"x": x}
        )
        assert err < TOL

    def test_row_softmax(self):
        rng = _rng()
        w = rng.standard_normal((5, 3))
        params = {"x": rng.standard_normal((5, 3))}
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.row_softmax(ts["x"]), w), params
        )
        assert err < TOL

    def test_log(self):
        rng = _rng()
        w = rng.standard_normal((3, 3))
        params = {"x": rng.uniform(0.5, 2.0, (3, 3))}
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.log(ts["x"]), w), params
        )
        assert err < TOL

    def test_segment_sum(self):
        rng = _rng()
        ids = np.array([0, 0, 2, 1, 2])
        w = rng.standard_normal((3, 2))
        params = {"x": rng.standard_normal((5, 2))}
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.segment_sum(ts["x"], ids, 3), w), params
        )
        assert err < TOL

    def test_segment_mean(self):
        rng = _rng()
        ids = np.array([0, 1, 1, 1])
        w = rng.standard_normal((2, 3))
        params = {"x": rng.standard_normal((4, 3))}
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.segment_mean(ts["x"], ids, 2), w), params
        )
        assert err < TOL

    def test_segment_softmax(self):
        rng = _rng()
        ids = np.array([0, 0, 1, 1, 1, 2])
        w = rng.standard_normal((6, 2))
        params = {"x": rng.standard_normal((6, 2))}
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.segment_softmax(ts["x"], ids, 3), w), params
        )
        assert err < TOL

    def test_gather_rows_accumulates_duplicates(self):
        rng = _rng()
        idx = np.array([0, 1, 1, 3, 1])
        w = rng.standard_normal((5, 3))
        params = {"x": rng.standard_normal((4, 3))}
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.gather_rows(ts["x"], idx), w), params
        )
        assert err < TOL

    def test_pick_columns(self):
        rng = _rng()
        idx = np.array([2, 0, 1, 1])
        w = rng.standard_normal(4)
        params = {"x": rng.standard_normal((4, 3))}
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.pick_columns(ts["x"], idx), w), params
        )
        assert err < TOL

    def test_clamp_min(self):
        rng = _rng()
        # values at least 0.1 away from the floor
        x = np.where(rng.random((4, 3)) < 0.5, 0.2, 0.9)
        x += rng.uniform(-0.05, 0.05, x.shape)
        w = rng.standard_normal((4, 3))
        err = ad.finite_diff_check(
            lambda ts: _weighted_mean(ad.clamp_min(ts["x"], 0.5), w), {"x": x}
        )
        assert err < TOL

    def test_composite_chain(self):
        rng = _rng()
        params = {
            "w1": rng.standard_normal((4, 3)) * 0.5,
            "b1": rng.standard_normal(3) * 0.1,
            "w2": rng.standard_normal((3, 2)) * 0.5,
        }
        x = rng.standard_normal((6, 4))

        def f(ts):
            h = ad.leaky_relu(ad.add(ad.matmul(ts["w1"].tape.const(x), ts["w1"]), ts["b1"]), 0.01)
            p = ad.row_softmax(ad.matmul(h, ts["w2"]))
            return ad.mean_all(ad.log(ad.clamp_min(p, 1e-12)))

        assert ad.finite_diff_check(f, params) < TOL

    def test_detects_wrong_gradient(self):
        # a deliberately broken op must fail the check loudly
        def f(ts):
            x = ts["x"]

            def push(g):
                x.grad += 2.0 * g  # true jacobian is 3

            return ad.mean_all(x.tape.record(x.data * 3.0, push))

        err = ad.finite_diff_check(f, {"x": np.array([1.0, -2.0])})
        assert err > 0.1


class TestForward:
    def test_row_softmax_rows_sum_to_one(self):
        rng = _rng()
        tape = ad.Tape()
        out = ad.row_softmax(tape.const(rng.standard_normal((6, 4)) * 50)).data
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0)

    def test_segment_softmax_sums_per_segment(self):
        rng = _rng()
        ids = np.array([0, 1, 0, 2, 1, 0])
        tape = ad.Tape()
        out = ad.segment_softmax(tape.const(rng.standard_normal((6, 3))), ids, 3).data
        totals = np.zeros((3, 3))
        np.add.at(totals, ids, out)
        assert np.allclose(totals, 1.0, atol=1e-12)

    def test_leaky_relu_values(self):
        tape = ad.Tape()
        out = ad.leaky_relu(tape.const([-2.0, 0.0, 3.0]), 0.5).data
        assert np.array_equal(out, [-1.0, 0.0, 3.0])

    def test_clamp_min_values(self):
        tape = ad.Tape()
        out = ad.clamp_min(tape.const([0.1, 0.5, 0.9]), 0.5).data
        assert np.array_equal(out, [0.5, 0.5, 0.9])

    def test_gather_pick_concat_values(self):
        tape = ad.Tape()
        a = tape.const(np.arange(12.0).reshape(4, 3))
        assert np.array_equal(ad.gather_rows(a, [2, 0]).data, [[6, 7, 8], [0, 1, 2]])
        assert np.array_equal(ad.pick_columns(a, [0, 2, 1, 0]).data, [0, 5, 7, 9])
        b = tape.const(np.ones((4, 1)))
        assert ad.concat([a, b]).data.shape == (4, 4)

    def test_segment_sum_empty_segment_is_zero(self):
        tape = ad.Tape()
        out = ad.segment_sum(tape.const([[1.0], [2.0]]), [0, 0], 3).data
        assert np.array_equal(out, [[3.0], [0.0], [0.0]])

    def test_mean_all_and_scale(self):
        tape = ad.Tape()
        t = tape.const([[1.0, 2.0], [3.0, 4.0]])
        assert float(ad.mean_all(t).data) == 2.5
        assert np.array_equal(ad.scale(t, -1.0).data, -t.data)


class TestTapeMechanics:
    def test_reused_tensor_accumulates(self):
        tape = ad.Tape()
        x = tape.param("x", [1.0, 2.0, 3.0])
        grads = tape.backward(ad.mean_all(ad.add(x, x)))
        assert np.allclose(grads["x"], 2.0 / 3.0)

    def test_second_backward_raises(self):
        # backward consumes the records, so the tape is spent once it has run
        tape = ad.Tape()
        x = tape.param("x", [[1.0, -1.0]])
        loss = ad.mean_all(ad.mul(x, x))
        assert np.array_equal(tape.backward(loss)["x"], [[1.0, -1.0]])
        with pytest.raises(ValueError, match="already ran"):
            tape.backward(loss)

    def test_backward_frees_outputs_no_push_reads(self):
        tape = ad.Tape()
        x = tape.param("x", [1.0, 2.0])
        data = x.data * 2.0
        freed = weakref.ref(data)
        mid = tape.record(data, lambda g: ad.accumulate(x, 2.0 * g))
        loss = ad.mean_all(ad.scale(mid, 3.0))
        del data, mid
        assert freed() is not None  # the record and scale's push hold it
        grads = tape.backward(loss)
        assert freed() is None  # gone before release()
        assert np.array_equal(grads["x"], [3.0, 3.0])

    def test_gradients_only_where_backward_reaches(self):
        tape = ad.Tape()
        x = tape.param("x", [1.0, 2.0])
        tape.param("unused", [[3.0]])
        c = tape.const([5.0, 7.0])
        side = ad.scale(x, 2.0)  # recorded, but the loss never reads it
        grads = tape.backward(ad.mean_all(ad.mul(x, c)))
        assert c.grad is None and side.grad is None
        assert np.array_equal(grads["x"], [2.5, 3.5])
        assert np.array_equal(grads["unused"], [[0.0]])

    def test_pass_through_adjoint_is_not_shared(self):
        # add hands its adjoint to both operands; a later push into one of
        # them must not leak into the other's gradient
        tape = ad.Tape()
        x = tape.param("x", [1.0, -2.0])
        q = ad.scale(x, 3.0)
        p = ad.scale(x, 2.0)
        r = ad.scale(p, 5.0)
        grads = tape.backward(ad.mean_all(ad.add(ad.add(p, q), r)))
        assert np.array_equal(grads["x"], [7.5, 7.5])

    def test_backward_returns_copies(self):
        tape = ad.Tape()
        x = tape.param("x", [1.0])
        grads = tape.backward(ad.mean_all(x))
        assert grads["x"] is not x.grad
        grads["x"][0] = 99.0
        assert x.grad[0] == 1.0

    def test_release_drops_graph_but_keeps_read_data(self):
        tape = ad.Tape()
        x = tape.param("x", [[1.0, 2.0]])
        out = ad.mul(x, x)
        grads = tape.backward(ad.mean_all(out))
        kept = out.data
        tape.release()
        tape.release()  # idempotent
        assert tape.params == {}
        assert np.array_equal(kept, [[1.0, 4.0]])
        assert np.array_equal(grads["x"], [[1.0, 2.0]])

    def test_unused_param_gets_zero_grad(self):
        tape = ad.Tape()
        x = tape.param("x", [1.0, 2.0])
        tape.param("dead", np.ones((2, 2)))
        grads = tape.backward(ad.mean_all(x))
        assert np.array_equal(grads["dead"], np.zeros((2, 2)))

    def test_exact_quadratic_gradient(self):
        tape = ad.Tape()
        x = tape.param("x", [0.5, -1.5, 2.0])
        grads = tape.backward(ad.mean_all(ad.mul(x, x)))
        assert np.allclose(grads["x"], 2.0 * np.array([0.5, -1.5, 2.0]) / 3.0, rtol=1e-15)

    def test_exact_log_gradient(self):
        x = np.array([0.5, 1.0, 4.0])
        tape = ad.Tape()
        t = tape.param("x", x)
        grads = tape.backward(ad.mean_all(ad.log(t)))
        assert np.allclose(grads["x"], 1.0 / (3.0 * x), rtol=1e-15)


class TestErrors:
    def test_duplicate_param_name(self):
        tape = ad.Tape()
        tape.param("w", [1.0])
        with pytest.raises(ValueError, match="registered twice"):
            tape.param("w", [2.0])

    def test_loss_from_other_tape(self):
        a, b = ad.Tape(), ad.Tape()
        loss = ad.mean_all(b.const([1.0]))
        with pytest.raises(ValueError, match="belong"):
            a.backward(loss)

    def test_non_scalar_loss(self):
        tape = ad.Tape()
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(tape.const([1.0, 2.0]))

    def test_non_finite_output_trips_guard(self):
        tape = ad.Tape()
        with pytest.raises(FloatingPointError):
            ad.scale(tape.const([1.0]), math.inf)


@given(
    st.lists(
        st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
    )
)
def test_quadratic_gradient_property(values):
    x = np.array(values)
    tape = ad.Tape()
    t = tape.param("x", x)
    grads = tape.backward(ad.mean_all(ad.mul(t, t)))
    assert np.allclose(grads["x"], 2.0 * x / x.size, rtol=1e-14, atol=1e-300)


@given(
    st.integers(1, 6),
    st.integers(1, 5),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
def test_row_softmax_normalization_property(rows, cols, offset):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((rows, cols)) + offset
    tape = ad.Tape()
    out = ad.row_softmax(tape.const(x)).data
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


# Eight live 4 MiB arrays a round, freed at its end: the shape of a training
# step's transient buffers.  Prints the minor page faults per measured round.
_FAULTS_PER_ROUND = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import qtp.autodiff

def one_round():
    held = [np.ones(1 << 19) for _ in range(8)]
    del held

one_round()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    one_round()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="allocator policy is glibc-only")
def test_freed_buffers_stay_in_the_process():
    # the default policy returns the rounds' memory to the OS and re-faults
    # it every round (about 4 k faults); importing autodiff keeps it
    src = str(Path(ad.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_ROUND, src],
                          capture_output=True, text=True, timeout=120, check=True)
    assert float(proc.stdout) < 100
