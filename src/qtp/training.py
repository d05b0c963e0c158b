"""Class-weighted training with Adam, stratified splitting, and fold metrics.

Splitting deals shuffled per-class indices round-robin into folds with one
rolling pointer, which keeps fold sizes equal and every class balanced to
within one sample per fold.  Training is bit-reproducible: all randomness
flows from numpy generators seeded with (seed, fold) tuples, and no report
field depends on wall-clock time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import DataError, autodiff as ad
from .autodiff import Tensor
from .dag import GraphData
from .model import (
    ModelConfig,
    batch_graphs,
    bind_params,
    init_weights,
    model_forward,
    predict_proba,
)

QUBIT_BUCKETS = (("2-7", 2, 7), ("8-15", 8, 15), ("16-27", 16, 27))
PROB_FLOOR = 1e-12
# graphs per predict_proba call in evaluate: the training batch size, so held-out
# scoring never needs larger arrays than a training step
EVAL_BATCH = 32


class TrainingError(DataError):
    """Bad dataset or split request."""


# --- splitting ------------------------------------------------------------------


def stratified_split(
    labels: Sequence[int], k: int = 5, seed: int = 0, mode: str = "cv"
) -> list[tuple[np.ndarray, np.ndarray]]:
    """k (train, test) index pairs, class-balanced to within one sample.

    mode "cv" is a stratified k-fold partition; mode "shuffle" draws k
    independent stratified splits at the same 1/k test fraction.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if mode not in ("cv", "shuffle"):
        raise TrainingError(f"unknown split mode {mode!r}")
    if k < 2:
        raise TrainingError("need at least 2 folds")
    if labels.size < k:
        raise TrainingError(f"{labels.size} samples cannot fill {k} folds")
    for cls in (0, 1):
        if not np.count_nonzero(labels == cls):
            raise TrainingError(f"class {cls} has no samples")

    def deal(rng: np.random.Generator) -> list[np.ndarray]:
        folds: list[list[int]] = [[] for _ in range(k)]
        ptr = 0
        for cls in np.unique(labels):
            idx = np.flatnonzero(labels == cls)
            rng.shuffle(idx)
            for i in idx:
                folds[ptr % k].append(int(i))
                ptr += 1
        return [np.array(sorted(f), dtype=np.int64) for f in folds]

    everything = np.arange(labels.size)
    if mode == "cv":
        folds = deal(np.random.default_rng(seed))
        return [(np.setdiff1d(everything, f), f) for f in folds]
    splits = []
    for rep in range(k):
        test = deal(np.random.default_rng([seed, rep]))[0]
        splits.append((np.setdiff1d(everything, test), test))
    return splits


def class_weights(labels: Sequence[int]) -> np.ndarray:
    """Balanced inverse-frequency weights w_c = N / (2 N_c)."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise TrainingError("both classes must be present")
    return labels.size / (2.0 * counts.astype(np.float64))


# --- loss and optimizer -----------------------------------------------------------


def weighted_cross_entropy(probs: Tensor, labels, weights) -> Tensor:
    """Mean over the batch of -w_y * ln p[y], probabilities floored at 1e-12."""
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    picked = ad.clamp_min(ad.pick_columns(probs, labels), PROB_FLOOR)
    weighted = ad.mul(ad.log(picked), probs.tape.const(weights[labels]))
    return ad.scale(ad.mean_all(weighted), -1.0)


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Standard bias-corrected Adam update, in place; each gradient has its parameter's shape."""
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


# --- metrics -------------------------------------------------------------------


def _prf(confusion: np.ndarray) -> tuple[list[float], list[float], list[float]]:
    precision, recall, f1 = [], [], []
    for c in (0, 1):
        tp = confusion[c, c]
        p = tp / confusion[:, c].sum() if confusion[:, c].sum() else 0.0
        r = tp / confusion[c, :].sum() if confusion[c, :].sum() else 0.0
        precision.append(float(p))
        recall.append(float(r))
        f1.append(float(2 * p * r / (p + r)) if p + r else 0.0)
    return precision, recall, f1


def metrics(predictions, labels, qubit_counts) -> dict:
    """Confusion matrix, accuracy, per-class P/R/F1, and per-qubit buckets."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    qubit_counts = np.asarray(qubit_counts, dtype=np.int64)
    if predictions.size == 0:
        raise TrainingError("no predictions to score")
    if predictions.shape != labels.shape or labels.shape != qubit_counts.shape:
        raise TrainingError("predictions, labels and qubit counts must align")
    confusion = np.zeros((2, 2), dtype=np.int64)
    np.add.at(confusion, (labels, predictions), 1)
    precision, recall, f1 = _prf(confusion)
    buckets = {}
    for tag, lo, hi in QUBIT_BUCKETS:
        mask = (qubit_counts >= lo) & (qubit_counts <= hi)
        n = int(mask.sum())
        if n:
            sub = np.zeros((2, 2), dtype=np.int64)
            np.add.at(sub, (labels[mask], predictions[mask]), 1)
            _, _, bucket_f1 = _prf(sub)
            acc = float(np.trace(sub) / n)
        else:
            bucket_f1, acc = [0.0, 0.0], 0.0
        buckets[tag] = {
            "count": n,
            "accuracy": acc,
            "f1_class0": bucket_f1[0],
            "f1_class1": bucket_f1[1],
        }
    return {
        "confusion": confusion.tolist(),
        "accuracy": float(np.trace(confusion) / predictions.size),
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "buckets": buckets,
    }


@dataclass
class FoldReport:
    fold_id: int
    confusion: list
    accuracy: float
    precision: list
    recall: list
    f1: list
    buckets: dict
    loss_curve: list

    @classmethod
    def from_metrics(cls, fold_id: int, body: dict, loss_curve: list) -> "FoldReport":
        return cls(fold_id=fold_id, loss_curve=list(loss_curve), **body)

    def to_json(self) -> dict:
        return asdict(self)  # the fields, in their order


def aggregate(reports: Sequence[FoldReport]) -> dict:
    """Mean and population standard deviation of each headline metric."""
    if not reports:
        raise TrainingError("nothing to aggregate")
    series = {
        "accuracy": [r.accuracy for r in reports],
        "f1_class0": [r.f1[0] for r in reports],
        "f1_class1": [r.f1[1] for r in reports],
        "precision_class0": [r.precision[0] for r in reports],
        "precision_class1": [r.precision[1] for r in reports],
        "recall_class0": [r.recall[0] for r in reports],
        "recall_class1": [r.recall[1] for r in reports],
    }
    return {
        key: {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
        for key, vals in series.items()
    }


# --- training loop ----------------------------------------------------------------


@dataclass
class TrainResult:
    config: ModelConfig
    seed: int
    folds: list  # of FoldReport
    weights: list  # per-fold parameter dicts
    aggregate: dict


def evaluate(
    config: ModelConfig, weights: dict[str, np.ndarray], graphs: Sequence[GraphData]
) -> tuple[dict, np.ndarray]:
    """Score a weight set on labeled graphs; returns (metrics body, predictions)."""
    labels = np.array([g.label for g in graphs], dtype=np.int64)
    if np.any(labels < 0):
        raise TrainingError("evaluation graphs must carry labels")
    probs = np.concatenate([
        predict_proba(config, weights, graphs[lo : lo + EVAL_BATCH])
        for lo in range(0, len(graphs), EVAL_BATCH)
    ])
    preds = probs.argmax(axis=1)
    qubits = np.array([g.num_qubits for g in graphs], dtype=np.int64)
    return metrics(preds, labels, qubits), preds


def train_fold(
    config: ModelConfig,
    graphs: Sequence[GraphData],
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    fold_id: int,
    seed: int,
    epochs: int = 50,
    batch_size: int = 32,
) -> tuple[FoldReport, dict[str, np.ndarray]]:
    """Train one fold from scratch and score it on its held-out indices."""
    train_labels = np.array([graphs[i].label for i in train_idx], dtype=np.int64)
    weights_per_class = class_weights(train_labels)
    params = init_weights(config, [seed, fold_id])
    state = AdamState()
    shuffler = np.random.default_rng([seed, fold_id, 1])
    curve = []
    for _ in range(epochs):
        order = train_idx[shuffler.permutation(len(train_idx))]
        total, count = 0.0, 0
        for lo in range(0, len(order), batch_size):
            chunk = [graphs[i] for i in order[lo : lo + batch_size]]
            batch = batch_graphs(chunk)
            tape = ad.Tape()
            probs = model_forward(config, bind_params(tape, params), batch)
            loss = weighted_cross_entropy(probs, batch.labels, weights_per_class)
            grads = tape.backward(loss)
            adam_step(params, grads, state)
            total += float(loss.data) * len(chunk)
            count += len(chunk)
            tape.release()
        curve.append(total / count)
    body, _ = evaluate(config, params, [graphs[i] for i in test_idx])
    return FoldReport.from_metrics(fold_id, body, curve), params


def train(
    config: ModelConfig,
    graphs: Sequence[GraphData],
    k: int = 5,
    epochs: int = 50,
    seed: int = 0,
    batch_size: int = 32,
    split_mode: str = "cv",
) -> TrainResult:
    """Full k-fold run; deterministic given (config, graphs, seed, flags)."""
    if not graphs:
        raise TrainingError("empty dataset")
    if batch_size < 1 or epochs < 0:
        raise TrainingError(f"need batch_size >= 1 and epochs >= 0, got {batch_size} and {epochs}")
    labels = [g.label for g in graphs]
    if any(lbl is None or lbl < 0 for lbl in labels):
        raise TrainingError("all graphs must carry labels")
    reports, fold_weights = [], []
    for fold_id, (tr, te) in enumerate(stratified_split(labels, k, seed, split_mode)):
        report, params = train_fold(
            config, graphs, tr, te, fold_id, seed, epochs=epochs, batch_size=batch_size
        )
        reports.append(report)
        fold_weights.append(params)
    return TrainResult(
        config=config,
        seed=seed,
        folds=reports,
        weights=fold_weights,
        aggregate=aggregate(reports),
    )
