import functools
import time

import numpy as np
import pytest

from hybridens import pipeline
from hybridens.data import FoldAssignment, LabeledSample
from hybridens.errors import ConfigError, DataError, NumericError
from hybridens.stacking import (
    MetaLearner,
    hybrid_predict,
    meta_gradient,
    meta_predict,
    oof_predictions,
    train_meta,
    _meta_loss,
)
from hybridens.weighting import weighted_predict
from oracle_utils import fd_gradient, rel_error


class MeanLabelLearner:
    """Predicts the mean training label for every query; the OOF hand oracle."""

    def __init__(self, fold):
        self.fold = fold
        self.mean = None

    def fit(self, samples):
        self.mean = float(np.mean([s.label for s in samples]))

    def predict(self, samples):
        return np.full(len(samples), self.mean)


def make_samples(labels):
    return [
        LabeledSample(f"s{i}", 0, np.zeros((2, 2)), label) for i, label in enumerate(labels)
    ]


def test_oof_hand_computation_two_folds():
    # Labels (1, 1, 0, 0) with one positive and one negative per fold: the
    # mean-label learner trained on the other fold predicts 0.5 everywhere.
    samples = make_samples([1, 1, 0, 0])
    folds = FoldAssignment(fold_of={0: 0, 1: 1, 2: 0, 3: 1}, k=2)
    table = oof_predictions(samples, [0, 1, 2, 3], folds, [MeanLabelLearner])
    assert np.allclose(table.matrix, 0.5)
    assert table.labels.tolist() == [1, 1, 0, 0]


def test_oof_no_leakage_provenance():
    samples = make_samples([1, 0, 1, 0, 1, 0])
    folds = FoldAssignment(fold_of={i: i % 3 for i in range(6)}, k=3)
    table = oof_predictions(samples, list(range(6)), folds, [MeanLabelLearner] * 2)
    assert table.audit_leakage() == 0
    for row in range(6):
        assert table.train_ids[row] not in table.training_set_of(row)


def test_oof_leave_one_out_boundary():
    n = 5
    samples = make_samples([1, 0, 1, 0, 1])
    folds = FoldAssignment(fold_of={i: i for i in range(n)}, k=n)
    table = oof_predictions(samples, list(range(n)), folds, [MeanLabelLearner])
    assert table.audit_leakage() == 0
    for fold in range(n):
        assert len(table.fold_train_ids[fold]) == n - 1
    # leave-one-out mean-label predictions are computable by hand
    labels = np.array([1, 0, 1, 0, 1])
    for i in range(n):
        expected = (labels.sum() - labels[i]) / (n - 1)
        assert table.matrix[i, 0] == pytest.approx(expected)


def test_oof_factory_failure_names_fold():
    class Exploding(MeanLabelLearner):
        def fit(self, samples):
            raise RuntimeError("boom")

    samples = make_samples([1, 0, 1, 0])
    folds = FoldAssignment(fold_of={0: 0, 1: 0, 2: 1, 3: 1}, k=2)
    with pytest.raises(RuntimeError, match="fold 0"):
        oof_predictions(samples, [0, 1, 2, 3], folds, [Exploding])


@pytest.mark.parametrize("error", [ConfigError, DataError, NumericError])
def test_oof_learner_taxonomy_error_keeps_its_type(error):
    class Failing(MeanLabelLearner):
        def fit(self, samples):
            if self.fold == 1:
                raise error("no good")
            super().fit(samples)

    samples = make_samples([1, 0, 1, 0])
    folds = FoldAssignment(fold_of={0: 0, 1: 0, 2: 1, 3: 1}, k=2)
    with pytest.raises(error, match="base learner 1 failed on fold 1: no good") as info:
        oof_predictions(samples, [0, 1, 2, 3], folds, [MeanLabelLearner, Failing])
    assert type(info.value) is error


class RecordingLearner(MeanLabelLearner):
    """Touches `fit<fold>` under `root` when it starts fitting.  Fold 1 fails
    late with a NumericError, fold 2 early with a DataError, the rest after a
    short fit."""

    def __init__(self, root, fold):
        super().__init__(fold)
        self.root = root

    def fit(self, samples):
        (self.root / f"fit{self.fold}").touch()
        if self.fold == 2:
            raise DataError("fold 2 failed first")
        time.sleep(0.2 if self.fold == 1 else 0.05)
        if self.fold == 1:
            raise NumericError("fold 1 failed last")
        super().fit(samples)


def test_pool_raises_the_lowest_failing_job_and_cancels_the_rest(tmp_path, monkeypatch):
    # Workers import this module to unpickle the learner; the patch acts here.
    monkeypatch.setattr(pipeline, "_worker_count", lambda jobs: 2)
    n_folds = 32
    samples = make_samples([i % 2 for i in range(2 * n_folds)])
    folds = FoldAssignment(fold_of={i: i % n_folds for i in range(2 * n_folds)}, k=n_folds)
    factories = [functools.partial(RecordingLearner, tmp_path)]
    with pipeline.job_map(n_folds) as pool_map:
        with pytest.raises(NumericError, match="base learner 0 failed on fold 1: fold 1 failed last"):
            oof_predictions(samples, list(range(2 * n_folds)), folds, factories, pool_map)
    # The DataError of fold 2 arrived first; jobs still queued were cancelled.
    assert (tmp_path / "fit2").exists()
    assert len(list(tmp_path.glob("fit*"))) < n_folds


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
        gw, gb = meta_gradient(_meta_loss(w, b, feats, y, l2)[1], w, feats, y, l2)
        fw = fd_gradient(lambda t: _meta_loss(t, b, feats, y, l2)[0], w, h_scale=1e-6)
        fb = fd_gradient(lambda t: _meta_loss(w, float(t[0]), feats, y, l2)[0],
                         np.array([b]), h_scale=1e-6)[0]
        assert rel_error(np.append(gw, gb), np.append(fw, fb)) <= 1e-5


def test_train_meta_separable_reaches_perfect_accuracy():
    feats = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    y = np.array([1, 1, 0, 0])
    m = train_meta(feats, y, epochs=800, lr=1.0, l2=0.0)
    preds = (np.asarray(meta_predict(m, feats)) > 0.5).astype(int)
    assert preds.tolist() == y.tolist()


def test_train_meta_loss_never_increases_from_start():
    rng = np.random.default_rng(5)
    feats = rng.random((40, 3))
    y = rng.integers(0, 2, 40)
    m = train_meta(feats, y, epochs=200, lr=2.0, l2=0.1)
    initial = _meta_loss(np.zeros(3), 0.0, feats, y.astype(float), 0.1)[0]
    final = _meta_loss(m.w, m.b, feats, y.astype(float), 0.1)[0]
    assert final <= initial


def test_train_meta_huge_ridge_pins_weights_near_zero():
    rng = np.random.default_rng(6)
    feats = rng.random((30, 2))
    y = rng.integers(0, 2, 30)
    m = train_meta(feats, y, epochs=500, lr=0.5, l2=1e6)
    assert np.linalg.norm(m.w) <= 1e-3


def test_train_meta_intercept_only_matches_positive_rate():
    # One constant feature column: the optimum is the base-rate sigmoid.
    y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    feats = np.full((10, 1), 0.7)
    m = train_meta(feats, y, epochs=4000, lr=1.0, l2=0.0)
    assert meta_predict(m, np.array([[0.7]]))[0] == pytest.approx(0.3, abs=1e-3)


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


def _recomputing_train_meta(feats, y, epochs, lr, l2):
    """The loop that scored every accepted step twice, kept as the reference;
    returns (w, b, halvings taken)."""
    from hybridens.weighting import MAX_HALVINGS, mean_bce, sigmoid

    def loss_at(w, b):
        return mean_bce(sigmoid(feats @ w + b), y) + 0.5 * l2 * float(w @ w)

    w, b, halvings = np.zeros(feats.shape[1]), 0.0, 0
    loss = loss_at(w, b)
    for _ in range(epochs):
        r = sigmoid(feats @ w + b) - y
        gw, gb = feats.T @ r / len(y) + l2 * w, float(np.sum(r) / len(y))
        rate = lr
        for _ in range(MAX_HALVINGS):
            wt, bt = w - rate * gw, b - rate * gb
            lt = loss_at(wt, bt)
            if lt <= loss:
                w, b, loss = wt, bt, lt
                break
            rate *= 0.5
            halvings += 1
        else:
            break
    return w, b, halvings


@pytest.mark.parametrize("l2", [0.0, 0.05])
def test_train_meta_matches_the_recomputing_loop_bit_for_bit(l2):
    rng = np.random.default_rng(21)
    y = rng.integers(0, 2, 300).astype(np.float64)
    signal = (y[:, None] - 0.5) * rng.random(3)
    feats = np.clip(0.5 + signal + 0.3 * rng.standard_normal((300, 3)), 0.0, 1.0)
    w, b, halvings = _recomputing_train_meta(feats, y, 150, 40.0, l2)
    assert halvings > 0  # a rate this large overshoots, so steps are retried
    m = train_meta(feats, y, epochs=150, lr=40.0, l2=l2)
    assert m.w.tobytes() == w.tobytes() and repr(m.b) == repr(b)
