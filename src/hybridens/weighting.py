"""Convex-combination ensemble weights.

The weights live on the probability simplex and are fit to the minimum of
mean binary cross-entropy over a validation prediction matrix by Newton's
method on the simplex (Bertsekas, 1982).  The problem is convex in the
weights, and every iterate is a convex combination of simplex points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

BCE_EPS = 1e-12
GRAD_TOL = 1e-10
MAX_HALVINGS = 30
MAX_NEWTON_STEPS = 50


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
        return {"alpha": [float(a) for a in self.alpha], "val_bce": self.val_bce,
                "steps_used": self.steps_used}


def halving_rate(change) -> float | None:
    """The first rate of 1, 1/2, 1/4, ... (MAX_HALVINGS of them) at which
    the objective's change `change(rate)` is not positive, or None."""
    rate = 1.0
    for _ in range(MAX_HALVINGS):
        if change(rate) <= 0.0:  # a NaN change is rejected too
            return rate
        rate *= 0.5
    return None


def _simplex_qp(alpha: np.ndarray, grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """The simplex point beta that minimises the model grad d + d hess d / 2, d = beta - alpha,
    by an active-set method from alpha's support: a solution on the support that leaves the
    simplex is followed until a weight reaches 0, whose index leaves the support; otherwise the
    index outside with the most negative multiplier joins it.  No support is solved twice."""
    beta, free, seen = alpha.copy(), alpha > 0, set()
    while free.tobytes() not in seen:
        seen.add(free.tobytes())
        s = np.flatnonzero(free)
        kkt = np.ones((s.size + 1, s.size + 1))
        kkt[:-1, :-1], kkt[-1, -1] = hess[np.ix_(s, s)], 0.0
        # Solve for the move from beta: near the optimum its right side is small.
        rhs = np.append(-(grad + hess @ (beta - alpha))[s], 0.0)
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        z = beta[s] + sol[:-1]
        z /= z.sum()  # a support of one index gets exactly 1
        if z.min() < 0.0:
            neg = np.flatnonzero(z < 0.0)
            ratios = beta[s[neg]] / (beta[s[neg]] - z[neg])
            drop = s[neg[ratios.argmin()]]
            beta[s] = np.maximum(beta[s] + ratios.min() * (z - beta[s]), 0.0)
            beta[drop], free[drop] = 0.0, False
            continue
        beta[s] = z  # the weights outside the support are 0 already
        multipliers = np.where(free, 0.0, grad + hess @ (beta - alpha) + sol[-1])
        if multipliers.min() >= 0.0:
            break
        free[multipliers.argmin()] = True
    return beta


@np.errstate(all="ignore")  # non-finite values raise below, and a trial step past q = 0 is rejected
def optimize_weights(preds: np.ndarray, labels: np.ndarray) -> WeightFit:
    """Simplex weights at the minimum of mean BCE, by Newton's method from uniform weights.

    Each step moves to the minimiser over the simplex of the objective's quadratic model
    (`_simplex_qp`), at half the length while the move raises the objective (MAX_HALVINGS
    times at most); a full step lands on it exactly.  The guard takes the exact change row by
    row: with likelihood L = q for label 1 and 1 - q for label 0, and c = +-(preds d) / L, a
    move of rate d changes mean BCE by -mean(log1p(rate c)).  The fit stops once the KKT gap
    (largest gradient entry on the support less the smallest entry) is at most GRAD_TOL, or
    when no halving lowers the objective, and warns if MAX_NEWTON_STEPS steps do not get
    there; `steps_used` counts the steps taken.  A non-finite gradient or Hessian raises
    NumericError."""
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.ndim != 2 or preds.shape[0] != labels.shape[0]:
        raise ValueError(f"predictions {preds.shape} do not match {labels.shape[0]} labels")
    n, k = preds.shape
    if n < 1:
        raise ValueError("need at least one validation row")
    if labels.min() == labels.max():
        warnings.warn("optimizing ensemble weights on a single-class validation set")
    sign = np.where(labels == 1, 1.0, -1.0)
    alpha = np.full(k, 1.0 / k)
    for steps in range(MAX_NEWTON_STEPS + 1):  # steps taken so far
        grad = bce_gradient(alpha, preds, labels)
        if grad[alpha > 0].max() - grad.min() <= GRAD_TOL:  # a NaN gap goes on, to raise
            break
        q = np.clip(preds @ alpha, BCE_EPS, 1.0 - BCE_EPS)
        like = np.where(sign > 0, q, 1.0 - q)
        hess = preds.T @ (preds / (like * like)[:, None]) / n
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            raise NumericError(f"non-finite weight gradient or Hessian at step {steps}")
        if steps == MAX_NEWTON_STEPS:
            warnings.warn(f"ensemble weights stopped at the step limit ({steps}) before converging")
            break
        beta = _simplex_qp(alpha, grad, hess)
        move = beta - alpha
        if not move.any():
            break
        move[move != 0.0] -= move[move != 0.0].mean()  # the sum's rounding is no move
        c = sign * (preds @ move) / like
        rate = halving_rate(lambda r: -np.mean(np.log1p(r * c)))
        if rate is None:
            break
        alpha = beta - (1.0 - rate) * (beta - alpha)  # beta itself at rate 1
    return WeightFit(alpha=alpha, val_bce=mean_bce(preds @ alpha, labels), steps_used=steps)
