"""Convex-combination ensemble weights.

The weights live on the probability simplex and are fit by projected
gradient descent on mean binary cross-entropy over a validation prediction
matrix.  The problem is convex in the weights, so descent with backtracking
reaches the optimum; projection keeps every iterate feasible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

BCE_EPS = 1e-12
CONVERGENCE_TOL = 1e-10
MAX_HALVINGS = 30
MAX_STEPS = 500
STEP_SIZE = 0.5


def weighted_predict(alpha: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Convex combination p alpha of an (N, K) probability matrix."""
    alpha = np.asarray(alpha, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] != alpha.shape[0]:
        raise ValueError(f"dimension mismatch: alpha has {alpha.shape[0]}, p has {p.shape[-1]}")
    return p @ alpha


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function of a float64 array, without overflow for any sign of z."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) elsewhere: never above 1
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def mean_bce(p_hat: np.ndarray, labels: np.ndarray) -> float:
    q = np.clip(np.asarray(p_hat, dtype=np.float64), BCE_EPS, 1.0 - BCE_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(-np.mean(y * np.log(q) + (1.0 - y) * np.log(1.0 - q)))


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-and-threshold)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NumericError("cannot project a non-finite vector onto the simplex")
    out = _sort_and_threshold(v)
    if out is None or abs(out.sum() - 1.0) > 1e-9:
        # Entries beyond about 2**52 absorb the threshold's -1.  The projection
        # is invariant to a common shift, and after it the largest entry is 0.
        out = _sort_and_threshold(v - v.max())
    return out


def _sort_and_threshold(v: np.ndarray) -> np.ndarray | None:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    hits = np.flatnonzero(u * np.arange(1, v.size + 1) > css)
    if not hits.size:
        return None
    return np.maximum(v - css[hits[-1]] / (hits[-1] + 1.0), 0.0)


def bce_gradient(alpha: np.ndarray, preds: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of mean BCE with respect to the ensemble weights."""
    q = np.clip(preds @ alpha, BCE_EPS, 1.0 - BCE_EPS)
    y = np.asarray(labels, dtype=np.float64)
    coeff = (q - y) / (q * (1.0 - q))
    return preds.T @ coeff / len(y)


@dataclass
class WeightFit:
    """Learned simplex weights plus the diagnostics the run report persists."""

    alpha: np.ndarray
    val_bce: float
    steps_used: int

    def to_dict(self) -> dict:
        return {
            "alpha": [float(a) for a in self.alpha],
            "val_bce": self.val_bce,
            "steps_used": self.steps_used,
        }


def optimize_weights(preds: np.ndarray, labels: np.ndarray) -> WeightFit:
    """Projected gradient descent from uniform weights: at most MAX_STEPS
    steps of size STEP_SIZE.

    A step that would increase the objective is retried at half the step
    size (up to 30 halvings), so the accepted objective sequence is
    non-increasing and the returned weights never score worse than uniform.
    Stops early once the iterate moves less than 1e-10 in max norm.
    """
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.ndim != 2 or preds.shape[0] != labels.shape[0]:
        raise ValueError(f"predictions {preds.shape} do not match {labels.shape[0]} labels")
    n, k = preds.shape
    if n < 1:
        raise ValueError("need at least one validation row")
    if labels.min() == labels.max():
        warnings.warn("optimizing ensemble weights on a single-class validation set")
    alpha = np.full(k, 1.0 / k)
    loss = mean_bce(preds @ alpha, labels)
    used = 0
    for _ in range(MAX_STEPS):
        grad = bce_gradient(alpha, preds, labels)
        if not np.all(np.isfinite(grad)) or not np.isfinite(loss):
            raise NumericError(
                f"non-finite objective or gradient after {used} accepted steps"
            )
        size = STEP_SIZE
        candidate, cand_loss = alpha, loss
        for _ in range(MAX_HALVINGS):
            trial = project_simplex(alpha - size * grad)
            trial_loss = mean_bce(preds @ trial, labels)
            if trial_loss <= loss:
                candidate, cand_loss = trial, trial_loss
                break
            size *= 0.5
        if candidate is alpha:
            break
        used += 1
        moved = float(np.max(np.abs(candidate - alpha)))
        alpha, loss = candidate, cand_loss
        if moved < CONVERGENCE_TOL:
            break
    return WeightFit(alpha=alpha, val_bce=loss, steps_used=used)
