"""Class-weighted training with Adam, stratified splitting, and fold metrics.

Splitting deals shuffled per-class indices round-robin into folds with one
rolling pointer, which keeps fold sizes equal and every class balanced to
within one sample per fold.  Training is bit-reproducible: all randomness
flows from numpy generators seeded with (seed, fold) tuples, and no report
field depends on wall-clock time.  A fold lays each parameter role out once,
as one float64 buffer in checkpoint layout order: the weights, whose views
each step's tape binds, the gradients each step gathers, and Adam's m and v.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import DataError, autodiff as ad
from .autodiff import Tensor
from .dag import GraphData
from .model import (
    BLOCK_ELEMENTS,
    ModelConfig,
    batch_graphs,
    bind_params,
    init_weights,
    model_forward,
    predict_proba,
    weight_views,
)

QUBIT_BUCKETS = (("2-7", 2, 7), ("8-15", 8, 15), ("16-27", 16, 27))
PROB_FLOOR = 1e-12
# Adam's step size, moment decays and denominator floor: Kingma & Ba's defaults
ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
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
    m: np.ndarray  # first moments, one per element of the weight buffer
    v: np.ndarray  # second moments
    t: int = 0


def adam_step(weights: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """Bias-corrected Adam with the fixed `ADAM_*` constants, on the weight buffer, in
    place: one pass over four equal-length buffers in blocks of `model.BLOCK_ELEMENTS`,
    each running a per-parameter update's ufuncs in its order, so the bits hold and no
    temporary outgrows a block."""
    state.t += 1
    t = state.t
    for lo in range(0, weights.size, BLOCK_ELEMENTS):
        block = slice(lo, lo + BLOCK_ELEMENTS)
        g, m, v = grad[block], state.m[block], state.v[block]
        m += (1 - ADAM_BETA1) * (g - m)
        v += (1 - ADAM_BETA2) * (g * g - v)
        step = ADAM_LR * (m / (1 - ADAM_BETA1**t))
        step /= np.sqrt(v / (1 - ADAM_BETA2**t)) + ADAM_EPS
        weights[block] -= step


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
    """Confusion matrix, accuracy, per-class P/R/F1, and per-qubit buckets, from
    aligned, non-empty arrays, as `evaluate` makes them."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    qubit_counts = np.asarray(qubit_counts, dtype=np.int64)
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
    """Mean and population standard deviation of each headline metric over at
    least one report (`train` makes two or more)."""
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
    flat = np.concatenate(list(init_weights(config, [seed, fold_id]).values()), axis=None)
    params = weight_views(flat, config)
    grad = np.empty_like(flat)
    state = AdamState(np.zeros_like(flat), np.zeros_like(flat))
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
            np.concatenate(list(tape.backward(loss).values()), axis=None, out=grad)
            adam_step(flat, grad, state)
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
    return TrainResult(folds=reports, weights=fold_weights, aggregate=aggregate(reports))
