import concurrent.futures
import functools
import time

import numpy as np
import pytest

from hybridens import pipeline, stacking
from hybridens.data import FoldAssignment, LabeledSample
from hybridens.errors import ConfigError, DataError, NumericError
from hybridens.stacking import (
    MetaLearner,
    hybrid_predict,
    meta_gradient,
    meta_predict,
    oof_predictions,
    train_meta,
)
from hybridens.weighting import weighted_predict
from oracle_utils import (
    RecordingPool,
    assert_holdouts_are_folds,
    fd_gradient,
    logistic_objective,
    logistic_objective_gradient,
    recording_learner,
    rel_error,
)


def mean_label(fold, fit_samples, holdout_samples):
    """Predicts the mean training label for every query; the OOF hand oracle."""
    return np.full(len(holdout_samples), float(np.mean([s.label for s in fit_samples])))


def make_samples(labels):
    return [
        LabeledSample(f"s{i}", 0, np.zeros((2, 2)), label) for i, label in enumerate(labels)
    ]


def test_oof_hand_computation_two_folds():
    # Labels (1, 1, 0, 0) with one positive and one negative per fold: the
    # mean-label learner trained on the other fold predicts 0.5 everywhere.
    samples = make_samples([1, 1, 0, 0])
    folds = FoldAssignment(fold_of={0: 0, 1: 1, 2: 0, 3: 1}, k=2)
    table = oof_predictions(samples, [0, 1, 2, 3], folds, [mean_label])
    assert np.allclose(table.matrix, 0.5)
    assert table.labels.tolist() == [1, 1, 0, 0]


def test_oof_no_leakage_provenance():
    samples = make_samples([1, 0, 1, 0, 1, 0])
    folds = FoldAssignment(fold_of={i: i % 3 for i in range(6)}, k=3)
    calls = []
    learner = recording_learner(mean_label, calls)
    table = oof_predictions(samples, list(range(6)), folds, [learner] * 2)
    assert sorted(fold for fold, _, _ in calls) == [0, 0, 1, 1, 2, 2]
    assert_holdouts_are_folds(calls, samples, range(6), folds)
    assert table.fold_of.tolist() == [i % 3 for i in range(6)]


def test_oof_leave_one_out_boundary():
    n = 5
    samples = make_samples([1, 0, 1, 0, 1])
    folds = FoldAssignment(fold_of={i: i for i in range(n)}, k=n)
    calls = []
    table = oof_predictions(samples, list(range(n)), folds, [recording_learner(mean_label, calls)])
    assert [fold for fold, _, _ in calls] == list(range(n))
    assert_holdouts_are_folds(calls, samples, range(n), folds)
    assert all(len(fit) == n - 1 for _, fit, _ in calls)
    # leave-one-out mean-label predictions are computable by hand
    labels = np.array([1, 0, 1, 0, 1])
    for i in range(n):
        expected = (labels.sum() - labels[i]) / (n - 1)
        assert table.matrix[i, 0] == pytest.approx(expected)


def test_oof_learner_failure_names_fold():
    def exploding(fold, fit_samples, holdout_samples):
        raise RuntimeError("boom")

    samples = make_samples([1, 0, 1, 0])
    folds = FoldAssignment(fold_of={0: 0, 1: 0, 2: 1, 3: 1}, k=2)
    with pytest.raises(RuntimeError, match="fold 0"):
        oof_predictions(samples, [0, 1, 2, 3], folds, [exploding])


@pytest.mark.parametrize("error", [ConfigError, DataError, NumericError])
def test_oof_learner_taxonomy_error_keeps_its_type(error):
    def failing(fold, fit_samples, holdout_samples):
        if fold == 1:
            raise error("no good")
        return mean_label(fold, fit_samples, holdout_samples)

    samples = make_samples([1, 0, 1, 0])
    folds = FoldAssignment(fold_of={0: 0, 1: 0, 2: 1, 3: 1}, k=2)
    with pytest.raises(error, match="base learner 1 failed on fold 1: no good") as info:
        oof_predictions(samples, [0, 1, 2, 3], folds, [mean_label, failing])
    assert type(info.value) is error


def recording(root, fold, fit_samples, holdout_samples):
    """Touches `fit<fold>` under `root` when it starts fitting.  Fold 1 fails
    late with a NumericError, fold 2 early with a DataError, the rest after a
    short fit."""
    (root / f"fit{fold}").touch()
    if fold == 2:
        raise DataError("fold 2 failed first")
    time.sleep(0.2 if fold == 1 else 0.05)
    if fold == 1:
        raise NumericError("fold 1 failed last")
    return mean_label(fold, fit_samples, holdout_samples)


def test_pool_raises_the_lowest_failing_job_and_cancels_the_rest(tmp_path, monkeypatch):
    # Workers import this module to unpickle the learner; the patch acts here.
    monkeypatch.setattr(pipeline, "_worker_count", lambda jobs: 2)
    n_folds = 32
    samples = make_samples([i % 2 for i in range(2 * n_folds)])
    folds = FoldAssignment(fold_of={i: i % n_folds for i in range(2 * n_folds)}, k=n_folds)
    learners = [functools.partial(recording, tmp_path)]
    with pytest.raises(NumericError, match="base learner 0 failed on fold 1: fold 1 failed last"):
        oof_predictions(samples, list(range(2 * n_folds)), folds, learners, pipeline.pool_map)
    # The DataError of fold 2 arrived first; jobs still queued were cancelled.
    assert (tmp_path / "fit2").exists()
    assert len(list(tmp_path.glob("fit*"))) < n_folds


def shifted(shift, fold, fit_samples, holdout_samples):
    return mean_label(fold, fit_samples, holdout_samples) + shift


def fails_at(fold_to_fail, delay, fold, fit_samples, holdout_samples):
    """`mean_label`, except on fold `fold_to_fail`, where it fails after `delay` seconds."""
    if fold == fold_to_fail:
        time.sleep(delay)
        raise NumericError(f"fold {fold} failed")
    return mean_label(fold, fit_samples, holdout_samples)


def test_pool_submits_each_fold_longest_first_and_raises_in_fold_order(monkeypatch):
    monkeypatch.setattr(pipeline, "_worker_count", lambda jobs: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "submitted", [])
    samples = make_samples([1, 0, 1, 0, 1, 0])
    folds = FoldAssignment(fold_of={i: i % 3 for i in range(6)}, k=3)
    # A cheap learner, a costly one and a cheap one that ties with the first.
    learners = [functools.partial(shifted, shift) for shift in (0.0, 0.1, 0.2)]
    table = oof_predictions(samples, list(range(6)), folds, learners, pipeline.pool_map, [1, 3, 1])
    assert [(job[3], job[2]) for job in RecordingPool.submitted] == [
        (fold, k) for fold in range(3) for k in (1, 0, 2)
    ]
    serial = oof_predictions(samples, list(range(6)), folds, learners)
    assert table.matrix.tobytes() == serial.matrix.tobytes()

    # The cheap learner fails at fold 0 and is submitted after the costly
    # one, which fails at fold 1: the error is still the serial run's.
    RecordingPool.submitted.clear()
    learners = [functools.partial(fails_at, 0, 0.0), functools.partial(fails_at, 1, 0.0)]
    with pytest.raises(NumericError, match="base learner 0 failed on fold 0: fold 0 failed"):
        oof_predictions(samples, list(range(6)), folds, learners, pipeline.pool_map, [1, 3])
    assert [(job[3], job[2]) for job in RecordingPool.submitted] == [
        (fold, k) for fold in range(3) for k in (1, 0)
    ]


@pytest.mark.parametrize("costly_fails_at", [0, 1])
def test_pool_raises_the_first_failing_job_in_fold_order_not_the_first_to_fail(
    monkeypatch, costly_fails_at
):
    # On two workers the costly learner, submitted first in each fold, fails
    # at once, while the cheap learner's fold-0 fit still runs.
    monkeypatch.setattr(pipeline, "_worker_count", lambda jobs: 2)
    samples = make_samples([1, 0, 1, 0, 1, 0])
    folds = FoldAssignment(fold_of={i: i % 3 for i in range(6)}, k=3)
    learners = [functools.partial(fails_at, 0, 0.5), functools.partial(fails_at, costly_fails_at, 0)]
    with pytest.raises(NumericError, match="base learner 0 failed on fold 0: fold 0 failed"):
        oof_predictions(samples, list(range(6)), folds, learners, pipeline.pool_map, [1, 3])


def test_meta_predict_zero_parameters_is_half():
    m = MetaLearner(w=np.zeros(3), b=0.0)
    assert meta_predict(m, np.array([[0.3, 0.9, 0.1], [1.0, 0.0, 0.5]])).tolist() == [0.5, 0.5]


def test_meta_predict_saturates_in_weight_direction():
    m = MetaLearner(w=np.array([30.0, 0.0]), b=0.0)
    assert meta_predict(m, np.array([[1.0, 0.2]]))[0] > 0.99


def test_meta_predict_direct_evaluation():
    m = MetaLearner(w=np.array([1.0, 1.0]), b=-1.0)
    assert meta_predict(m, np.array([[0.5, 0.5], [1.0, 1.0]])) == pytest.approx(
        [0.5, 1.0 / (1.0 + np.exp(-1.0))]
    )


def test_meta_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    feats = rng.random((30, 3))
    y = rng.integers(0, 2, 30).astype(np.float64)
    for _ in range(20):
        w = rng.normal(size=3)
        b = float(rng.normal())
        l2 = float(rng.random())
        p = 1.0 / (1.0 + np.exp(-(feats @ w + b)))
        gw, gb = meta_gradient(p, w, feats, y, l2)
        fw = fd_gradient(lambda t: logistic_objective(t, b, feats, y, l2), w, h_scale=1e-6)
        fb = fd_gradient(lambda t: logistic_objective(w, float(t[0]), feats, y, l2),
                         np.array([b]), h_scale=1e-6)[0]
        assert rel_error(np.append(gw, gb), np.append(fw, fb)) <= 1e-5


def _optimality_gap(m, feats, y, ridge):
    """Largest gradient entry of the ridge objective at the fitted (w, b)."""
    y = np.asarray(y, dtype=np.float64)
    return np.max(np.abs(logistic_objective_gradient(m.w, m.b, feats, y, ridge / len(y))))


def test_train_meta_separable_reaches_perfect_accuracy():
    # The ridge keeps the optimum finite on separable rows, and it classifies them.
    feats = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    y = np.array([1, 1, 0, 0])
    m = train_meta(feats, y, ridge=1.0)
    preds = (np.asarray(meta_predict(m, feats)) > 0.5).astype(int)
    assert preds.tolist() == y.tolist()
    assert _optimality_gap(m, feats, y, 1.0) <= 1e-9
    assert m.w[0] == pytest.approx(m.w[1], abs=1e-9)  # the two equal columns share the weight


def test_train_meta_loss_never_increases_from_start():
    # The fit is the global minimum of a convex objective: no lower than the
    # start (ln 2 at zero), and no lower anywhere near it.
    rng = np.random.default_rng(5)
    feats = rng.random((40, 3))
    y = rng.integers(0, 2, 40).astype(np.float64)
    m = train_meta(feats, y, ridge=0.1)
    assert _optimality_gap(m, feats, y, 0.1) <= 1e-9
    final = logistic_objective(m.w, m.b, feats, y, 0.1 / 40)
    assert final <= logistic_objective(np.zeros(3), 0.0, feats, y, 0.1 / 40) == np.log(2.0)
    for _ in range(100):
        dw, db = 1e-3 * rng.standard_normal(3), 1e-3 * rng.standard_normal()
        assert final <= logistic_objective(m.w + dw, m.b + db, feats, y, 0.1 / 40)


def test_train_meta_huge_ridge_pins_weights_near_zero():
    # As the ridge grows, w goes to zero and b to the intercept-only optimum.
    rng = np.random.default_rng(6)
    feats = rng.random((30, 2))
    y = rng.integers(0, 2, 30)
    m = train_meta(feats, y, ridge=1e9)
    assert np.linalg.norm(m.w) <= 1e-6
    assert 1.0 / (1.0 + np.exp(-m.b)) == pytest.approx(y.mean(), abs=1e-6)
    assert _optimality_gap(m, feats, y, 1e9) <= 1e-9


def test_train_meta_intercept_only_matches_positive_rate():
    # One constant feature column: the ridge puts the whole fit in b, at the
    # base-rate logit.
    y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    feats = np.full((10, 1), 0.7)
    m = train_meta(feats, y, ridge=1.0)
    assert abs(m.w[0]) <= 1e-9
    assert meta_predict(m, np.array([[0.7]]))[0] == pytest.approx(0.3, abs=1e-9)
    assert _optimality_gap(m, feats, y, 1.0) <= 1e-9


def _reference_newton(feats, y, ridge, steps=100):
    """Damped Newton on the augmented design [feats, 1]: the whole-loss
    halving guard and the tolerance of an independent implementation."""
    a = np.column_stack([feats, np.ones(len(y))])
    n, k = feats.shape
    pen = np.append(np.full(k, ridge / n), 0.0)

    def objective(theta):
        return logistic_objective(theta[:k], theta[k], feats, y, ridge / n)

    theta = np.zeros(k + 1)
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(a @ theta)))
        grad = a.T @ (p - y) / n + pen * theta
        if np.max(np.abs(grad)) <= 1e-12:
            break
        hess = (a * (p * (1 - p))[:, None]).T @ a / n + np.diag(pen)
        step, rate = np.linalg.solve(hess, grad), 1.0
        while objective(theta - rate * step) > objective(theta) and rate > 1e-9:
            rate /= 2
        theta = theta - rate * step
    return theta


NEWTON_CAP = stacking.MAX_NEWTON_STEPS


def _fit_in_steps(monkeypatch, feats, y, ridge, steps):
    """The fit stopped after at most `steps` Newton steps."""
    monkeypatch.setattr(stacking, "MAX_NEWTON_STEPS", steps)
    return train_meta(feats, y, ridge=ridge)


def _objective_path(monkeypatch, feats, y, ridge):
    """The objective after 0, 1, 2, ... steps, up to the fit's last step."""
    n = len(y)
    path, last = [], None
    for steps in range(NEWTON_CAP + 1):
        m = _fit_in_steps(monkeypatch, feats, y, ridge, steps)
        if last is not None and m.w.tobytes() == last.w.tobytes() and m.b == last.b:
            break
        path.append(logistic_objective(m.w, m.b, feats, y, ridge / n))
        last = m
    return np.array(path), last


@pytest.mark.parametrize("ridge", [0.0, 1.0, 30.0])
def test_train_meta_never_raises_the_objective_and_matches_a_reference_newton(monkeypatch, ridge):
    rng = np.random.default_rng(21)
    y = rng.integers(0, 2, 300).astype(np.float64)
    signal = (y[:, None] - 0.5) * rng.random(3)
    feats = np.clip(0.5 + signal + 0.3 * rng.standard_normal((300, 3)), 0.0, 1.0)
    path, m = _objective_path(monkeypatch, feats, y, ridge)
    assert 3 <= len(path) <= NEWTON_CAP
    # Each step lowers the objective, up to the rounding of its evaluation.
    assert np.all(np.diff(path) <= 1e-15 * path[:-1]), np.diff(path)
    assert path[-1] < path[0] == pytest.approx(np.log(2.0))
    # A gradient within 1e-10 of zero, over the Hessian's smallest eigenvalue
    # (1.4e-4 at ridge 0 here), puts either fit within 7e-7 of the optimum.
    reference = _reference_newton(feats, y, ridge)
    assert np.max(np.abs(np.append(m.w, m.b) - reference)) <= 1e-6
    assert _optimality_gap(m, feats, y, ridge) <= 1e-9


@pytest.mark.parametrize("seed", [89, 176])
def test_train_meta_resolves_steps_below_the_rounding_of_the_loss(seed):
    # Nearly separable rows at ridge 0.1: the last steps change the mean
    # loss by less than its rounding.  A guard that compared two whole
    # losses stalled here at a gradient of 5.5e-10 (seed 89) and 9.7e-10
    # (seed 176); the row-wise change reaches the stopping tolerance.
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, 100).astype(np.float64)
    feats = np.clip(0.5 + (y[:, None] - 0.5) * 10 * rng.random(3)
                    + 0.3 * rng.standard_normal((100, 3)), 0.0, 1.0)
    m = train_meta(feats, y, ridge=0.1)
    assert _optimality_gap(m, feats, y, 0.1) <= 1e-10


def test_train_meta_takes_the_minimum_norm_step_on_collinear_columns(monkeypatch):
    # At ridge 0, two equal columns make the Newton system singular.  Any
    # split of the weight between them is optimal; the minimum-norm steps
    # split it evenly and never raise the objective.
    rng = np.random.default_rng(86)
    y = rng.integers(0, 2, 57).astype(np.float64)
    col = np.clip(0.5 + (y - 0.5) * 0.6 + 0.3 * rng.standard_normal(57), 0, 1)
    feats = np.column_stack([col, col])
    path, m = _objective_path(monkeypatch, feats, y, 0.0)
    assert np.all(np.diff(path) <= 1e-15 * path[:-1]), np.diff(path)
    assert m.w[0] == pytest.approx(m.w[1], rel=1e-12)
    assert _optimality_gap(m, feats, y, 0.0) <= 1e-9


def test_train_meta_falls_back_to_gradient_steps_when_the_solve_fails(monkeypatch):
    # Columns on a 0-10 scale make a unit gradient step overshoot, so the
    # halving guard shortens the steps.
    rng = np.random.default_rng(8)
    y = rng.integers(0, 2, 60).astype(np.float64)
    feats = 10 * np.clip(0.5 + (y[:, None] - 0.5) * 0.6 + 0.2 * rng.standard_normal((60, 2)), 0, 1)
    g0 = logistic_objective_gradient(np.zeros(2), 0.0, feats, y, 1.0 / 60)

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", failing)
    path, _ = _objective_path(monkeypatch, feats, y, 1.0)
    assert len(path) == NEWTON_CAP + 1  # gradient steps do not converge within the cap
    assert np.all(np.diff(path) <= 1e-15 * path[:-1]) and path[-1] < path[0] - 0.05
    first = _fit_in_steps(monkeypatch, feats, y, 1.0, 1)
    rate = -first.b / g0[-1]
    assert rate < 1 and np.log2(rate) == round(np.log2(rate))  # a halved unit step
    assert np.append(first.w, first.b) == pytest.approx(-rate * g0, rel=1e-12)


def fused(alpha, meta, p, rule):
    """The hybrid prediction as `pipeline._model_scores` builds it."""
    return hybrid_predict(weighted_predict(alpha, p), meta_predict(meta, p), rule)


def test_hybrid_predict_rules():
    alpha = np.array([1.0, 0.0])
    meta = MetaLearner(w=np.array([0.0, 0.0]), b=np.log(0.6 / 0.4))
    p = np.array([[0.8, 0.3], [0.2, 0.9]])
    # weighted components 0.8 and 0.2, stacked components 0.6 and 0.6
    assert fused(alpha, meta, p, "mean") == pytest.approx([0.7, 0.4])
    assert fused(alpha, meta, p, "weighted_only") == pytest.approx([0.8, 0.2])
    assert fused(alpha, meta, p, "stacked_only") == pytest.approx([0.6, 0.6])
    with pytest.raises(ValueError, match="unknown combine rule"):
        fused(alpha, meta, p, "vote")


def test_hybrid_mean_is_symmetric_in_components():
    # Swap which side supplies 0.8 and which supplies 0.6; the mean agrees.
    p = np.array([[0.8, 0.3]])
    a = fused(np.array([1.0, 0.0]), MetaLearner(w=np.zeros(2), b=np.log(0.6 / 0.4)), p, "mean")
    b = fused(
        np.array([0.0, 1.0]),
        MetaLearner(w=np.zeros(2), b=np.log(0.8 / 0.2)),
        np.array([[0.6, 0.6]]),
        "mean",
    )
    assert a == pytest.approx(b)


def test_hybrid_idempotent_when_components_agree():
    alpha = np.array([1.0, 0.0])
    meta = MetaLearner(w=np.zeros(2), b=np.log(0.8 / 0.2))
    assert fused(alpha, meta, np.array([[0.8, 0.1]]), "mean") == pytest.approx([0.8])
