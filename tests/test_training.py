"""Training stack: splitting, loss, Adam, metrics, and the fold loop."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import layers_reference as ref
from qtp import training as tr
from qtp.dag import FEATURE_DIM, GraphData, featurize_circuit
from qtp.model import ModelConfig, batch_graphs, bind_params, init_weights, model_forward
from qtp.training import (
    QUBIT_BUCKETS,
    AdamState,
    FoldReport,
    TrainingError,
    adam_step,
    aggregate,
    class_weights,
    evaluate,
    metrics,
    stratified_split,
    train,
    weighted_cross_entropy,
)
from qtp import autodiff as ad


# --- splitting -------------------------------------------------------------------


class TestSplit:
    def test_two_minority_ten_total(self):
        # 2 samples of class 0 among 10: every fold still lands at exactly 2
        labels = [0, 0, 1, 1, 1, 1, 1, 1, 1, 1]
        splits = stratified_split(labels, k=5, seed=0)
        assert len(splits) == 5
        for train_idx, test_idx in splits:
            assert len(test_idx) == 2
            assert len(train_idx) == 8
        zeros_per_fold = [int(np.sum(np.array(labels)[te] == 0)) for _, te in splits]
        assert sorted(zeros_per_fold) == [0, 0, 0, 1, 1]

    def test_cv_folds_partition(self):
        labels = [0, 1] * 13
        splits = stratified_split(labels, k=5, seed=3)
        tests = np.concatenate([te for _, te in splits])
        assert np.array_equal(np.sort(tests), np.arange(26))
        for train_idx, test_idx in splits:
            assert np.intersect1d(train_idx, test_idx).size == 0
            merged = np.sort(np.concatenate([train_idx, test_idx]))
            assert np.array_equal(merged, np.arange(26))

    def test_shuffle_mode_counts(self):
        labels = [0] * 8 + [1] * 12
        splits = stratified_split(labels, k=4, seed=1, mode="shuffle")
        assert len(splits) == 4
        arr = np.array(labels)
        for train_idx, test_idx in splits:
            assert len(test_idx) == 5
            assert int(np.sum(arr[test_idx] == 0)) == 2
            assert int(np.sum(arr[test_idx] == 1)) == 3
            merged = np.sort(np.concatenate([train_idx, test_idx]))
            assert np.array_equal(merged, np.arange(20))
        assert any(
            not np.array_equal(splits[0][1], te) for _, te in splits[1:]
        ), "shuffle replicates should draw different test sets"

    def test_deterministic(self):
        labels = [0, 1] * 10
        for mode in ("cv", "shuffle"):
            a = stratified_split(labels, k=5, seed=7, mode=mode)
            b = stratified_split(labels, k=5, seed=7, mode=mode)
            assert all(
                np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
                for x, y in zip(a, b)
            )
        a = stratified_split(labels, k=5, seed=7)
        c = stratified_split(labels, k=5, seed=8)
        assert any(not np.array_equal(x[1], y[1]) for x, y in zip(a, c))

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(labels=[0, 1, 0, 1], k=2, mode="loo"), "mode"),
            (dict(labels=[0, 1, 0, 1], k=1), "folds"),
            (dict(labels=[0, 1], k=3), "cannot fill"),
            (dict(labels=[1, 1, 1, 1], k=2), "class 0"),
            (dict(labels=[0, 0, 0, 0], k=2), "class 1"),
        ],
    )
    def test_rejects(self, kwargs, msg):
        with pytest.raises(TrainingError, match=msg):
            stratified_split(**kwargs)

    @settings(max_examples=100, deadline=None)
    @given(
        labels=st.lists(st.integers(0, 1), min_size=5, max_size=40),
        k=st.integers(2, 5),
        seed=st.integers(0, 999),
    )
    def test_balance_property(self, labels, k, seed):
        assume(len(labels) >= k and 0 in labels and 1 in labels)
        splits = stratified_split(labels, k=k, seed=seed)
        arr = np.array(labels)
        tests = [te for _, te in splits]
        assert np.array_equal(
            np.sort(np.concatenate(tests)), np.arange(len(labels))
        )
        sizes = [len(te) for te in tests]
        assert max(sizes) - min(sizes) <= 1
        for cls in (0, 1):
            counts = [int(np.sum(arr[te] == cls)) for te in tests]
            assert max(counts) - min(counts) <= 1


class TestClassWeights:
    def test_imbalanced_counts(self):
        labels = [0] * 93 + [1] * 405
        w = class_weights(labels)
        assert w[0] == 498 / (2.0 * 93)
        assert w[1] == 498 / (2.0 * 405)
        assert w[0] == pytest.approx(2.67742, abs=1e-5)
        assert w[1] == pytest.approx(0.61481, abs=1e-5)

    def test_balanced(self):
        assert np.array_equal(class_weights([0, 1, 0, 1]), [1.0, 1.0])

    def test_mass_identity(self):
        labels = [0] * 7 + [1] * 29
        w = class_weights(labels)
        assert w[0] * 7 == pytest.approx(18.0, abs=1e-12)
        assert w[1] * 29 == pytest.approx(18.0, abs=1e-12)

    def test_missing_class(self):
        with pytest.raises(TrainingError, match="both classes"):
            class_weights([1, 1, 1])


# --- loss ------------------------------------------------------------------------


def _loss(probs, labels, weights):
    tape = ad.Tape()
    return float(
        weighted_cross_entropy(tape.const(np.asarray(probs, float)), labels, weights).data
    )


class TestLoss:
    def test_reference_batch(self):
        probs = [[0.5, 0.5], [0.25, 0.75], [0.2, 0.8]]
        got = _loss(probs, [0, 0, 1], (2.0, 0.5))
        oracle = (2 * math.log(2) + 2 * math.log(4) + 0.5 * math.log(1.25)) / 3
        assert got == pytest.approx(oracle, abs=1e-15)
        assert got == 1.4234849530055922

    def test_perfect_predictions(self):
        assert _loss([[1.0, 0.0], [0.0, 1.0]], [0, 1], (2.0, 0.5)) == 0.0

    def test_uniform_balanced(self):
        probs = np.full((4, 2), 0.5)
        assert _loss(probs, [0, 1, 0, 1], (1.0, 1.0)) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_unit_weights_match_unweighted(self):
        rng = np.random.default_rng(3)
        p1 = rng.uniform(0.05, 0.95, 8)
        probs = np.stack([p1, 1 - p1], axis=1)
        labels = rng.integers(0, 2, 8)
        got = _loss(probs, labels, (1.0, 1.0))
        plain = -np.log(probs[np.arange(8), labels]).mean()
        assert got == plain

    def test_probability_floor(self):
        got = _loss([[0.0, 1.0]], [0], (1.0, 1.0))
        assert got == pytest.approx(-math.log(1e-12), rel=1e-15)

    def test_gradient_direction(self):
        # pushing up the true-class probability lowers the loss
        tape = ad.Tape()
        probs = tape.param("p", [[0.3, 0.7]])
        loss = weighted_cross_entropy(probs, [0], (1.0, 1.0))
        grads = tape.backward(loss)
        assert grads["p"][0, 0] < 0
        assert grads["p"][0, 1] == 0.0


# --- optimizer ---------------------------------------------------------------------


def _adam_buffers(w):
    w = np.array(w, dtype=np.float64)
    return w, AdamState(np.zeros_like(w), np.zeros_like(w))


class TestAdam:
    def test_first_step_closed_form(self):
        g = np.array([0.5, -1.5, 0.02])
        w, state = _adam_buffers([1.0, -2.0, 0.3])
        adam_step(w, g.copy(), state)
        m = (1 - 0.9) * g
        v = (1 - 0.999) * (g * g)
        m_hat = m / (1 - 0.9**1)
        v_hat = v / (1 - 0.999**1)
        expected = np.array([1.0, -2.0, 0.3]) - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(w, expected)

    def test_zero_gradient_fresh_state_is_identity(self):
        w, state = _adam_buffers([0.25, -0.75])
        adam_step(w, np.zeros(2), state)
        assert np.array_equal(w, [0.25, -0.75])

    def test_state_advances(self):
        w, state = _adam_buffers([1.0])
        m, v = state.m, state.v
        adam_step(w, np.array([0.5]), state)
        adam_step(w, np.array([0.5]), state)
        assert state.t == 2
        assert state.m is m and state.v is v
        assert m.shape == v.shape == (1,) and m[0] != 0.0 and v[0] != 0.0

    def test_minimizes_quadratic(self):
        x, state = _adam_buffers([5.0])
        for _ in range(300):
            adam_step(x, 2.0 * x, state, lr=0.05)
        assert abs(x[0]) < 0.5

    def test_updates_in_place(self):
        w, state = _adam_buffers([1.0])
        view = w[:]
        adam_step(w, np.array([1.0]), state)
        assert view[0] == w[0] != 1.0

    def test_blocked_pass_matches_the_per_parameter_update(self):
        # GAT32's 66,530 weights span three blocks, and each block boundary
        # falls inside a parameter
        config = ModelConfig("gat", 32, 1, (256, 32), heads=4)
        weights = init_weights(config, 3)
        flat = np.concatenate(list(weights.values()), axis=None)
        bounds = np.cumsum([w.size for w in weights.values()])
        assert -(-flat.size // ad.BLOCK_ELEMENTS) == 3
        assert not set(range(0, flat.size, ad.BLOCK_ELEMENTS)) & set(bounds)
        state = AdamState(np.zeros_like(flat), np.zeros_like(flat))
        old = SimpleNamespace(m={}, v={}, t=0)
        rng = np.random.default_rng(4)
        for _ in range(4):
            grads = {name: rng.normal(size=w.shape) for name, w in weights.items()}
            ref.adam_step(weights, grads, old)
            adam_step(flat, np.concatenate(list(grads.values()), axis=None), state)
        for got, want in ((flat, weights), (state.m, old.m), (state.v, old.v)):
            assert np.array_equal(got, np.concatenate(list(want.values()), axis=None))

    def test_no_temporary_is_parameter_sized(self):
        n = 4 * ad.BLOCK_ELEMENTS + 3
        w, state = _adam_buffers(np.linspace(-1.0, 1.0, n))
        g = np.linspace(2.0, -2.0, n)
        tracemalloc.start()
        try:
            adam_step(w, g, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w.nbytes


# --- metrics -----------------------------------------------------------------------


def _recount(preds, labels):
    """Independent loop-based confusion and P/R/F1."""
    conf = [[0, 0], [0, 0]]
    for p, y in zip(preds, labels):
        conf[y][p] += 1
    out = {"confusion": conf}
    for c in (0, 1):
        tp = conf[c][c]
        pred_c = conf[0][c] + conf[1][c]
        true_c = conf[c][0] + conf[c][1]
        p = tp / pred_c if pred_c else 0.0
        r = tp / true_c if true_c else 0.0
        out[f"p{c}"] = p
        out[f"r{c}"] = r
        out[f"f{c}"] = 2 * p * r / (p + r) if p + r else 0.0
    out["acc"] = (conf[0][0] + conf[1][1]) / len(preds)
    return out


class TestMetrics:
    def test_all_correct(self):
        body = metrics([0, 1, 0, 1], [0, 1, 0, 1], [2, 3, 9, 20])
        assert body["accuracy"] == 1.0
        assert body["precision"] == [1.0, 1.0]
        assert body["recall"] == [1.0, 1.0]
        assert body["f1"] == [1.0, 1.0]
        assert body["confusion"] == [[2, 0], [0, 2]]

    def test_degenerate_all_class1(self):
        labels = np.array([0] * 93 + [1] * 405)
        body = metrics(np.ones(498, dtype=int), labels, np.full(498, 5))
        assert body["accuracy"] == 405 / 498
        assert body["f1"][0] == 0.0
        assert body["precision"][0] == 0.0
        assert body["recall"][0] == 0.0
        assert body["recall"][1] == 1.0
        assert body["precision"][1] == 405 / 498
        assert body["confusion"] == [[0, 93], [0, 405]]

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            preds = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            body = metrics(preds, labels, rng.integers(2, 28, n))
            ref = _recount(list(preds), list(labels))
            assert body["confusion"] == ref["confusion"]
            assert body["accuracy"] == pytest.approx(ref["acc"], abs=1e-15)
            for c in (0, 1):
                assert body["precision"][c] == pytest.approx(ref[f"p{c}"], abs=1e-15)
                assert body["recall"][c] == pytest.approx(ref[f"r{c}"], abs=1e-15)
                assert body["f1"][c] == pytest.approx(ref[f"f{c}"], abs=1e-15)

    def test_f1_consistent_with_confusion(self):
        rng = np.random.default_rng(9)
        preds = rng.integers(0, 2, 40)
        labels = rng.integers(0, 2, 40)
        body = metrics(preds, labels, np.full(40, 10))
        conf = np.array(body["confusion"])
        for c in (0, 1):
            p = conf[c, c] / conf[:, c].sum() if conf[:, c].sum() else 0.0
            r = conf[c, c] / conf[c, :].sum() if conf[c, :].sum() else 0.0
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            assert abs(body["f1"][c] - f1) <= 1e-12

    def test_buckets(self):
        body = metrics([0, 1, 0, 1], [0, 1, 1, 1], [2, 7, 8, 27])
        b = body["buckets"]
        assert set(b) == {tag for tag, _, _ in QUBIT_BUCKETS}
        assert b["2-7"] == {
            "count": 2, "accuracy": 1.0, "f1_class0": 1.0, "f1_class1": 1.0,
        }
        assert b["8-15"]["count"] == 1
        assert b["8-15"]["accuracy"] == 0.0
        assert b["16-27"] == {
            "count": 1, "accuracy": 1.0, "f1_class0": 0.0, "f1_class1": 1.0,
        }

    def test_empty_bucket_reports_zeros(self):
        body = metrics([0, 1], [0, 1], [2, 3])
        assert body["buckets"]["16-27"] == {
            "count": 0, "accuracy": 0.0, "f1_class0": 0.0, "f1_class1": 0.0,
        }


class TestReports:
    def _body(self):
        return metrics([0, 1, 1], [0, 1, 0], [2, 9, 20])

    def test_fold_report_round_trip(self):
        report = FoldReport.from_metrics(2, self._body(), [0.9, 0.5, 0.3])
        again = FoldReport(**report.to_json())
        assert again == report
        assert again.fold_id == 2
        assert again.loss_curve == [0.9, 0.5, 0.3]

    def test_aggregate_identical_reports(self):
        report = FoldReport.from_metrics(0, self._body(), [])
        agg = aggregate([report, report, report])
        for stats in agg.values():
            assert stats["std"] == 0.0

    def test_aggregate_two_accuracies(self):
        a = FoldReport.from_metrics(0, self._body(), [])
        b = FoldReport.from_metrics(1, self._body(), [])
        a.accuracy, b.accuracy = 0.9, 1.0
        agg = aggregate([a, b])
        assert agg["accuracy"]["mean"] == pytest.approx(0.95, abs=1e-15)
        assert agg["accuracy"]["std"] == pytest.approx(0.05, abs=1e-15)

    def test_aggregate_keys(self):
        agg = aggregate([FoldReport.from_metrics(0, self._body(), [])])
        assert set(agg) == {
            "accuracy",
            "f1_class0", "f1_class1",
            "precision_class0", "precision_class1",
            "recall_class0", "recall_class1",
        }


# --- training loop -------------------------------------------------------------------


def _toy_dataset(n=24, seed=0):
    """Linearly separable graphs: the label is written into the features."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(n):
        label = i % 2
        nodes = int(rng.integers(2, 5))
        feats = rng.normal(0.0, 0.05, (nodes, FEATURE_DIM))
        feats[:, label] += 1.0
        edges = np.array([[j, j + 1] for j in range(nodes - 1)], dtype=np.int64)
        graphs.append(
            GraphData(f"toy{i}", int(rng.integers(2, 28)), feats, edges.reshape(-1, 2), label)
        )
    return graphs


_TOY_CONFIG = ModelConfig("gcn", 8, 1, (8,))


class TestTrainLoop:
    def test_learns_separable_data(self):
        result = train(_TOY_CONFIG, _toy_dataset(), k=3, epochs=25, seed=1)
        assert len(result.folds) == 3
        assert result.aggregate["accuracy"]["mean"] >= 0.9
        for report in result.folds:
            assert len(report.loss_curve) == 25
            assert report.loss_curve[-1] < report.loss_curve[0]

    def test_bit_reproducible(self):
        graphs = _toy_dataset()
        a = train(_TOY_CONFIG, graphs, k=3, epochs=4, seed=9)
        b = train(_TOY_CONFIG, graphs, k=3, epochs=4, seed=9)
        assert a.aggregate == b.aggregate
        for ra, rb in zip(a.folds, b.folds):
            assert ra.to_json() == rb.to_json()
        for wa, wb in zip(a.weights, b.weights):
            assert set(wa) == set(wb)
            for name in wa:
                assert np.array_equal(wa[name], wb[name])

    def test_seed_changes_weights(self):
        graphs = _toy_dataset()
        a = train(_TOY_CONFIG, graphs, k=3, epochs=2, seed=1)
        b = train(_TOY_CONFIG, graphs, k=3, epochs=2, seed=2)
        assert any(
            not np.array_equal(a.weights[0][name], b.weights[0][name])
            for name in a.weights[0]
        )

    def test_class_weights_use_train_split_only(self, monkeypatch):
        seen = []
        original = tr.class_weights

        def spy(labels):
            seen.append(np.asarray(labels).size)
            return original(labels)

        monkeypatch.setattr(tr, "class_weights", spy)
        train(_TOY_CONFIG, _toy_dataset(12), k=3, epochs=1, seed=0)
        assert seen == [8, 8, 8]

    def test_shuffle_mode_runs(self):
        result = train(
            _TOY_CONFIG, _toy_dataset(12), k=2, epochs=1, seed=0, split_mode="shuffle"
        )
        assert len(result.folds) == 2

    def test_rejects_empty_and_unlabeled(self):
        with pytest.raises(TrainingError, match="empty"):
            train(_TOY_CONFIG, [], k=2, epochs=1)
        graphs = _toy_dataset(8)
        graphs[3] = GraphData("u", 4, graphs[3].features, graphs[3].edges, None)
        with pytest.raises(TrainingError, match="labels"):
            train(_TOY_CONFIG, graphs, k=2, epochs=1)

    def test_evaluate_returns_predictions(self):
        graphs = _toy_dataset(12)
        result = train(_TOY_CONFIG, graphs, k=3, epochs=10, seed=4)
        body, preds = evaluate(_TOY_CONFIG, result.weights[0], graphs)
        assert preds.shape == (12,)
        assert set(np.unique(preds)) <= {0, 1}
        assert 0.0 <= body["accuracy"] <= 1.0

    def test_evaluate_predicts_at_most_a_training_batch_per_call(self, monkeypatch):
        # held-out scoring must not build arrays wider than a training step's
        graphs = _toy_dataset(70)
        weights = train(_TOY_CONFIG, graphs[:12], k=2, epochs=1, seed=0).weights[0]
        whole = tr.predict_proba(_TOY_CONFIG, weights, graphs).argmax(axis=1)
        sizes = []
        original = tr.predict_proba

        def spy(config, w, chunk):
            sizes.append(len(chunk))
            return original(config, w, chunk)

        monkeypatch.setattr(tr, "predict_proba", spy)
        _, preds = evaluate(_TOY_CONFIG, weights, graphs)
        assert sizes == [32, 32, 6]
        assert tr.EVAL_BATCH == 32
        assert np.array_equal(preds, whole)

    def test_evaluate_rejects_negative_labels(self):
        graphs = _toy_dataset(4)
        bad = [GraphData("n", 4, g.features, g.edges, -1) for g in graphs]
        weights = train(_TOY_CONFIG, graphs, k=2, epochs=1, seed=0).weights[0]
        with pytest.raises(TrainingError, match="labels"):
            evaluate(_TOY_CONFIG, weights, bad)


# --- step memory -------------------------------------------------------------------


def test_gat32_backward_peak(corpus200):
    """One step of the acceptance GAT config peaks in backward at no more than
    7.5 (n, width) float64 arrays: what the forward keeps plus what backward
    builds, with each buffer freed once no remaining push reads it.  The tape
    that kept every buffer to the end peaked at about 9.5."""
    circuits = sorted(corpus200, key=lambda c: (-len(c.ops), c.name))[:32]
    batch = batch_graphs([featurize_circuit(c, label=i % 2) for i, c in enumerate(circuits)])
    config = ModelConfig("gat", 32, 1, (256, 32), heads=4)
    params = init_weights(config, 0)
    tracemalloc.start()
    try:
        tape = ad.Tape()
        probs = model_forward(config, bind_params(tape, params), batch)
        loss = weighted_cross_entropy(probs, batch.labels, class_weights(batch.labels))
        tracemalloc.reset_peak()
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = peak / (batch.features.shape[0] * config.width * 8)
    assert arrays <= 7.5, f"backward peaked at {arrays:.2f} (n, width) arrays"
