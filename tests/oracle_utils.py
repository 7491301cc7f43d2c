"""Independent oracles shared across the test suite.

These deliberately avoid the library's own code paths: AUC by brute-force
pair counting, gradients by central finite differences, simplex optima by
grid search and by their optimality conditions.  Expected values asserted
elsewhere were computed with these.
`weight_iterates` and `recording_learner` are the exceptions: they watch the
library's own weight fit and out-of-fold jobs.
"""

from __future__ import annotations

import numpy as np

from hybridens import weighting


def mw_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney statistic: fraction of pos/neg pairs ranked correctly, ties half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


def fd_gradient(f, theta: np.ndarray, h_scale: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f at theta, h = h_scale*max(1,|t|)."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    it = np.nditer(theta, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        h = h_scale * max(1.0, abs(theta[idx]))
        bumped = theta.copy()
        bumped[idx] = theta[idx] + h
        fp = f(bumped)
        bumped[idx] = theta[idx] - h
        fm = f(bumped)
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-wise relative disagreement between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)


def grid_simplex2_bce(preds: np.ndarray, labels: np.ndarray, step: float = 1e-3):
    """Best mean BCE over the K=2 simplex by grid search on the first weight."""
    best_loss, best_a = np.inf, None
    y = np.asarray(labels, dtype=np.float64)
    for a1 in np.arange(0.0, 1.0 + step / 2, step):
        q = np.clip(preds @ np.array([a1, 1.0 - a1]), 1e-12, 1 - 1e-12)
        loss = float(-np.mean(y * np.log(q) + (1 - y) * np.log(1 - q)))
        if loss < best_loss:
            best_loss, best_a = loss, a1
    return best_loss, best_a


def simplex_kkt_gap(alpha, preds, labels) -> float:
    """How far simplex weights are from minimising mean BCE (clipped as the
    library clips): the largest gradient entry where alpha > 0 less the
    smallest entry, 0 at the optimum.  The gradient is written out here, as
    d(-log L)/dq per row, with L the likelihood of the row's label."""
    alpha = np.asarray(alpha, dtype=np.float64)
    assert alpha.min() >= 0.0 and abs(alpha.sum() - 1.0) <= 1e-12, alpha
    q = np.clip(np.asarray(preds) @ alpha, 1e-12, 1 - 1e-12)
    per_row = np.where(np.asarray(labels) == 1, -1.0 / q, 1.0 / (1.0 - q))
    grad = np.asarray(preds).T @ per_row / len(per_row)
    return float(grad[alpha > 0].max() - grad.min())


def logistic_objective(w, b, feats, y, l2: float) -> float:
    """Mean BCE of sigmoid(feats w + b) plus (l2/2)||w||^2, through logaddexp."""
    z = feats @ w + b
    return float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * float(w @ w))


def logistic_objective_gradient(w, b, feats, y, l2: float) -> np.ndarray:
    """Gradient of `logistic_objective` as one vector: the w entries, then b."""
    r = np.exp(-np.logaddexp(0.0, -(feats @ w + b))) - y
    return np.append(feats.T @ r / len(y) + l2 * w, np.mean(r))


def weight_iterates(preds, labels):
    """`optimize_weights(preds, labels)` and the weights of every step: the
    fit evaluates `bce_gradient` once per step at the current weights, so
    the iterates are those arguments, then the returned alpha."""
    seen, gradient = [], weighting.bce_gradient

    def recording(alpha, *args):
        seen.append(np.array(alpha))
        return gradient(alpha, *args)

    weighting.bce_gradient = recording
    try:
        fit = weighting.optimize_weights(preds, labels)
    finally:
        weighting.bce_gradient = gradient
    return fit, seen + [fit.alpha]


def recording_learner(learner, calls: list):
    """`learner`, appending (fold, fit ids, holdout ids) to `calls` on each call."""

    def recording(fold, fit_samples, holdout_samples):
        calls.append((fold, {s.sample_id for s in fit_samples},
                      {s.sample_id for s in holdout_samples}))
        return learner(fold, fit_samples, holdout_samples)

    return recording


def assert_holdouts_are_folds(calls: list, samples, train_ids, folds) -> None:
    """Each recorded holdout is exactly its fold's training samples, and each
    fit set is the rest of the training samples: the two never overlap."""
    train = {samples[i].sample_id for i in train_ids}
    for fold, fit, held in calls:
        assert held == {samples[i].sample_id for i in train_ids if folds.fold_of[i] == fold}
        assert held and not fit & held and fit | held == train, fold
