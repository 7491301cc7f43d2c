"""Stacked generalization: out-of-fold base predictions and a logistic meta-learner.

For every fold, each base learner is trained on the training samples outside
that fold and predicts the samples inside it, so no meta-training row was
ever seen by the model that produced it.  Each row records its fold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import FoldAssignment, LabeledSample
from .errors import NumericError
from .weighting import GRAD_TOL, MAX_NEWTON_STEPS, halving_rate, sigmoid


@dataclass
class OofTable:
    """Out-of-fold probabilities for the training set.

    `matrix[i, k]` is base learner k's prediction for training row i, made by
    the model trained on the training rows outside fold `fold_of[i]`.
    """

    matrix: np.ndarray
    labels: np.ndarray
    train_ids: list[int]
    fold_of: np.ndarray


@dataclass
class MetaLearner:
    """Logistic regression over the K base probabilities."""

    w: np.ndarray
    b: float

    def to_dict(self) -> dict:
        return {"w": [float(x) for x in self.w], "b": float(self.b)}


def oof_predictions(
    samples: list[LabeledSample],
    train_ids: list[int],
    folds: FoldAssignment,
    fit_predict: Callable[[list[tuple]], Sequence[np.ndarray]],
) -> OofTable:
    """Split the training samples by fold and fill the OOF matrix.

    `fit_predict` takes the (fold, fit_samples, holdout_samples) split of each
    fold, in fold order: the training samples in the fold are held out, and
    all the others fit on.  It returns each split's (len(holdout_samples), K)
    probabilities, column k from base learner k fitted afresh on the fit
    samples, fully determined by the splits (seeding is the caller's
    business).  A fold whose result has another shape, with fold 0's K, or
    holds a NaN raises a RuntimeError that names the fold.
    """
    held = [[r for r, i in enumerate(train_ids) if folds.fold_of[i] == fold]
            for fold in range(folds.k)]
    splits = [(fold, [samples[i] for i in train_ids if folds.fold_of[i] != fold],
               [samples[train_ids[r]] for r in rows]) for fold, rows in enumerate(held)]
    results = list(fit_predict(splits))
    k = np.shape(results[0])[-1] if results and np.ndim(results[0]) == 2 else 0
    matrix = np.full((len(train_ids), k), np.nan)
    for fold, (rows, preds) in enumerate(zip(held, results)):
        preds = np.asarray(preds, dtype=np.float64)
        if k < 1 or preds.shape != (len(rows), k) or np.isnan(preds).any():
            raise RuntimeError(f"fold {fold}: want ({len(rows)}, K) out-of-fold probabilities "
                               f"without NaN, K = {k} as in fold 0; got shape {preds.shape}")
        matrix[rows] = preds
    if np.isnan(matrix).any():
        raise RuntimeError("out-of-fold matrix has unfilled rows")
    labels = np.array([samples[i].label for i in train_ids], dtype=np.int64)
    fold_of = np.array([folds.fold_of[i] for i in train_ids], dtype=np.int64)
    return OofTable(matrix=matrix, labels=labels, train_ids=list(train_ids), fold_of=fold_of)


def meta_predict(m: MetaLearner, p: np.ndarray) -> np.ndarray:
    """sigmoid(p w + b) for an (N, K) feature matrix."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != m.w.shape[0]:
        raise ValueError(f"dimension mismatch: w has {m.w.shape[0]}, p has {p.shape[-1]}")
    return sigmoid(p @ m.w + m.b)


def meta_gradient(
    p: np.ndarray, w: np.ndarray, feats: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    """Gradient in (w, b) of mean BCE + (l2/2)||w||^2, where p = sigmoid(feats w + b)."""
    r = p - y
    n = len(y)
    return feats.T @ r / n + l2 * w, float(np.sum(r) / n)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing trial step is just rejected
def train_meta(
    oof_matrix: np.ndarray,
    labels: np.ndarray,
    ridge: float = 1.0,
) -> MetaLearner:
    """Ridge-regularised logistic regression, fitted to its optimum by Newton's method.

    Minimises mean BCE + (ridge / 2N)||w||^2 over N rows, with the intercept b
    unpenalised; ridge 1 is scikit-learn's default strength (C = 1).  From
    (w, b) = 0, each step solves the (K+1)-square Newton system (IRLS) by
    least squares, so a singular system (collinear columns at ridge 0) gets
    its minimum-norm step; if that solve fails, the step is the gradient.  A
    step that would raise the objective is retried at half the length, so
    the objective never rises.  The fit stops once every gradient entry is
    at most GRAD_TOL, after MAX_NEWTON_STEPS steps, or when no halving
    lowers the objective.  A non-finite gradient or Hessian raises NumericError.

    The halving guard weighs each step by its exact change in the objective,
    row by row: fold row i onto the side where its logit z is non-positive
    (m = sigmoid(-|z|), and the label and step flip with the side), and a
    move of v in the folded logit changes its BCE by log1p(m expm1(v)) - y v.
    This stays accurate to rounding however small the step, where the
    difference of two whole losses would drown in their rounding close to
    the optimum.
    """
    feats = np.asarray(oof_matrix, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != y.shape[0]:
        raise ValueError(f"OOF matrix {feats.shape} does not match {y.shape[0]} labels")
    n, k = feats.shape
    l2 = ridge / max(n, 1)  # zero rows give a NaN gradient, so a NumericError
    w, b = np.zeros(k), 0.0
    z = np.zeros(n)
    for step in range(MAX_NEWTON_STEPS):
        small = sigmoid(-np.abs(z))  # min(p, 1 - p) at full precision
        flip = z > 0
        gw, gb = meta_gradient(np.where(flip, 1.0 - small, small), w, feats, y, l2)
        grad = np.append(gw, gb)
        if np.max(np.abs(grad)) <= GRAD_TOL:
            break
        s = small * (1.0 - small)
        sx = s[:, None] * feats  # the step's one (N, K) temporary
        hess = np.empty((k + 1, k + 1))
        hess[:k, :k] = feats.T @ sx / n + l2 * np.eye(k)
        hess[:k, k] = hess[k, :k] = s @ feats / n
        hess[k, k] = s.sum() / n
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            raise NumericError(f"non-finite meta-learner gradient or Hessian at step {step}")
        try:  # least squares: a singular system gets its minimum-norm step
            d = np.linalg.lstsq(hess, grad, rcond=None)[0]
        except np.linalg.LinAlgError:
            d = grad
        dz = feats @ d[:k] + d[k]
        c = np.where(flip, dz, -dz)  # the folded logit moves by rate * c
        y_folded = np.where(flip, 1.0 - y, y)
        dw2, wdw = float(d[:k] @ d[:k]), float(w @ d[:k])
        rate = halving_rate(lambda r: np.mean(np.log1p(small * np.expm1(r * c)) - y_folded * r * c)
                            + l2 * r * (0.5 * r * dw2 - wdw))
        if rate is None:  # no halving lowered the objective
            break
        w, b = w - rate * d[:k], b - rate * float(d[k])
        z = feats @ w + b
    return MetaLearner(w=w, b=b)


def hybrid_predict(weighted: np.ndarray, stacked: np.ndarray, rule: str = "mean") -> np.ndarray:
    """Combine the weighted-average and stacked predictions per the rule."""
    if rule == "mean":
        return (weighted + stacked) / 2.0
    if rule == "weighted_only":
        return weighted
    if rule == "stacked_only":
        return stacked
    raise ValueError(f"unknown combine rule {rule!r} (want mean/weighted_only/stacked_only)")
