"""Stacked generalization: out-of-fold base predictions and a logistic meta-learner.

For every fold, each base learner is trained on the training samples outside
that fold and predicts the samples inside it, so no meta-training row was
ever seen by the model that produced it.  The provenance of every row is
recorded and auditable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .data import FoldAssignment, LabeledSample
from .errors import ConfigError, DataError, NumericError
from .weighting import MAX_HALVINGS, mean_bce, sigmoid, weighted_predict


class BaseLearner(Protocol):
    def fit(self, samples: list[LabeledSample]) -> None: ...

    def predict(self, samples: list[LabeledSample]) -> np.ndarray: ...


LearnerFactory = Callable[[int], "BaseLearner"]


@dataclass
class OofTable:
    """Out-of-fold probabilities for the training set, with provenance.

    `matrix[i, k]` is base learner k's prediction for training row i, made by
    the model trained without fold `fold_of[i]`; `fold_train_ids[f]` records
    exactly which training indices that model saw.
    """

    matrix: np.ndarray
    labels: np.ndarray
    train_ids: list[int]
    fold_of: np.ndarray
    fold_train_ids: dict[int, tuple[int, ...]]

    def training_set_of(self, row: int) -> tuple[int, ...]:
        return self.fold_train_ids[int(self.fold_of[row])]

    def audit_leakage(self) -> int:
        """Count rows predicted by a model whose training set contained them."""
        leaks = 0
        for row, sample_id in enumerate(self.train_ids):
            if sample_id in self.training_set_of(row):
                leaks += 1
        return leaks


@dataclass
class MetaLearner:
    """Logistic regression over the K base probabilities."""

    w: np.ndarray
    b: float

    def to_dict(self) -> dict:
        return {"w": [float(x) for x in self.w], "b": float(self.b)}


def _fit_predict(job: tuple) -> np.ndarray:
    """Fit learner k of one fold and predict that fold's holdout samples.
    Failures carry the learner and fold ids; taxonomy errors keep their
    type, anything else becomes a RuntimeError."""
    factory, k, fold, fit_samples, holdout_samples = job
    try:
        learner = factory(fold)
        learner.fit(fit_samples)
        return np.asarray(learner.predict(holdout_samples), dtype=np.float64)
    except (ConfigError, DataError, NumericError) as exc:
        raise type(exc)(f"base learner {k} failed on fold {fold}: {exc}") from exc
    except Exception as exc:
        raise RuntimeError(f"base learner {k} failed on fold {fold}: {exc}") from exc


def oof_predictions(
    samples: list[LabeledSample],
    train_ids: list[int],
    folds: FoldAssignment,
    factories: Sequence[LearnerFactory],
    map: Callable = map,
) -> OofTable:
    """Train len(factories) base learners per fold and fill the OOF matrix.

    Each factory is called with the fold id and must return a fresh learner
    whose behaviour is fully determined by that id (seeding is the caller's
    business).  The (fold, k) jobs share no state, so `map` may run them in
    any order or process; a process pool's `map` needs picklable factories.
    The first failing job in (fold, k) order raises, as `_fit_predict` does.
    """
    if not factories:
        raise ValueError("need at least one base-learner factory")
    n = len(train_ids)
    matrix = np.full((n, len(factories)), np.nan)
    row_of = {sample_id: row for row, sample_id in enumerate(train_ids)}
    fold_train_ids: dict[int, tuple[int, ...]] = {}
    holdouts, jobs = [], []
    for fold in range(folds.k):
        holdout = [i for i in train_ids if folds.fold_of[i] == fold]
        fit_ids = [i for i in train_ids if folds.fold_of[i] != fold]
        fold_train_ids[fold] = tuple(fit_ids)
        holdouts.append(holdout)
        fit_samples = [samples[i] for i in fit_ids]
        holdout_samples = [samples[i] for i in holdout]
        jobs += [(f, k, fold, fit_samples, holdout_samples) for k, f in enumerate(factories)]
    for (_, k, fold, _, _), preds in zip(jobs, map(_fit_predict, jobs)):
        for i, p in zip(holdouts[fold], preds):
            matrix[row_of[i], k] = p
    if np.isnan(matrix).any():
        raise RuntimeError("out-of-fold matrix has unfilled rows")
    labels = np.array([samples[i].label for i in train_ids], dtype=np.int64)
    fold_of = np.array([folds.fold_of[i] for i in train_ids], dtype=np.int64)
    return OofTable(
        matrix=matrix,
        labels=labels,
        train_ids=list(train_ids),
        fold_of=fold_of,
        fold_train_ids=fold_train_ids,
    )


def meta_predict(m: MetaLearner, p: np.ndarray) -> float | np.ndarray:
    """sigmoid(w . p + b) for one feature row or an (N, K) matrix."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != m.w.shape[0]:
        raise ValueError(f"dimension mismatch: w has {m.w.shape[0]}, p has {p.shape[-1]}")
    z = p @ m.w + m.b
    out = sigmoid(np.atleast_1d(z))
    return float(out[0]) if np.ndim(z) == 0 else out


def _meta_loss(w: np.ndarray, b: float, feats: np.ndarray, y: np.ndarray, l2: float) -> float:
    return mean_bce(sigmoid(feats @ w + b), y) + 0.5 * l2 * float(w @ w)


def meta_gradient(
    w: np.ndarray, b: float, feats: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """Analytic gradient of mean BCE + (l2/2)||w||^2 in (w, b)."""
    r = sigmoid(feats @ w + b) - y
    n = len(y)
    return feats.T @ r / n + l2 * w, float(np.sum(r) / n)


def train_meta(
    oof_matrix: np.ndarray,
    labels: np.ndarray,
    epochs: int = 400,
    lr: float = 0.5,
    l2: float = 0.0,
) -> MetaLearner:
    """Full-batch gradient descent on ridge-regularized BCE from (w, b) = 0.

    A step that would increase the objective is retried at half the rate, so
    the final loss never exceeds the initial one.
    """
    feats = np.asarray(oof_matrix, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != y.shape[0]:
        raise ValueError(f"OOF matrix {feats.shape} does not match {y.shape[0]} labels")
    w = np.zeros(feats.shape[1])
    b = 0.0
    loss = _meta_loss(w, b, feats, y, l2)
    for epoch in range(epochs):
        gw, gb = meta_gradient(w, b, feats, y, l2)
        if not (np.all(np.isfinite(gw)) and np.isfinite(gb) and np.isfinite(loss)):
            raise NumericError(f"non-finite meta-learner loss or gradient at epoch {epoch}")
        rate = lr
        accepted = False
        for _ in range(MAX_HALVINGS):
            wt, bt = w - rate * gw, b - rate * gb
            lt = _meta_loss(wt, bt, feats, y, l2)
            if lt <= loss:
                w, b, loss = wt, bt, lt
                accepted = True
                break
            rate *= 0.5
        if not accepted:
            break
    return MetaLearner(w=w, b=b)


def hybrid_predict(
    alpha: np.ndarray,
    m: MetaLearner,
    p: np.ndarray,
    rule: str = "mean",
) -> float | np.ndarray:
    """Combine the weighted-average and stacked predictions per the rule."""
    if rule == "mean":
        return (weighted_predict(alpha, p) + meta_predict(m, p)) / 2.0
    if rule == "weighted_only":
        return weighted_predict(alpha, p)
    if rule == "stacked_only":
        return meta_predict(m, p)
    raise ValueError(f"unknown combine rule {rule!r} (want mean/weighted_only/stacked_only)")
