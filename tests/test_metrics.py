import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridens.errors import DataError
from hybridens.metrics import (
    ConfusionMatrix,
    acc_sen_spe,
    auc,
    confusion,
    roc_curve,
    roc_points_csv,
)
from hybridens.pipeline import roc_curves, score_rows
from oracle_utils import mw_auc


def points(curve):
    """The curve's (FPR, TPR) points as Python float pairs."""
    return list(zip(curve.fpr.tolist(), curve.tpr.tolist()))


@pytest.mark.parametrize(
    "p,tau,expected",
    [(0.7, 0.5, 1), (0.5, 0.5, 0), (0.49, 0.3, 1), (0.3, 0.3, 0)],
)
def test_threshold_is_strict(p, tau, expected):
    # score_rows labels a score positive iff it exceeds tau: a tie is negative.
    scores, labels = {"m": np.array([p, p])}, np.array([1, 0])
    row = score_rows(scores, labels, tau, roc_curves(labels, scores))[0]
    assert (row["sen"], row["spe"]) == (expected, 1 - expected)


def test_confusion_direct_count():
    cm = confusion([1, 1, 0, 0], [1, 0, 0, 1])
    assert (cm.tp, cm.fn, cm.tn, cm.fp) == (1, 1, 1, 1)
    assert cm.total == 4


def test_confusion_perfect_and_degenerate():
    cm = confusion([1, 0, 1], [1, 0, 1])
    assert cm.fp == 0 and cm.fn == 0
    cm = confusion([1, 1, 1], [0, 0, 0])
    assert (cm.tn, cm.fp, cm.fn) == (0, 0, 3)


def test_confusion_rejects_mismatch_and_empty():
    with pytest.raises(DataError):
        confusion([1, 0], [1])
    with pytest.raises(DataError):
        confusion([], [])


def test_acc_sen_spe_reference_counts():
    acc, sen, spe = acc_sen_spe(ConfusionMatrix(tp=31, fn=5, tn=48, fp=2))
    assert round(100 * sen, 2) == 86.11
    assert round(100 * spe, 2) == 96.00
    assert acc == (31 + 48) / 86


def test_acc_sen_spe_perfect():
    assert acc_sen_spe(ConfusionMatrix(tp=3, fn=0, tn=4, fp=0)) == (1.0, 1.0, 1.0)


def test_acc_sen_spe_undefined_is_nan_not_zero():
    acc, sen, spe = acc_sen_spe(ConfusionMatrix(tp=0, fn=0, tn=5, fp=1))
    assert math.isnan(sen)
    assert spe == 5 / 6


def test_acc_sen_spe_invariant_under_permutation():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 50)
    preds = rng.integers(0, 2, 50)
    base = acc_sen_spe(confusion(labels, preds))
    perm = rng.permutation(50)
    assert acc_sen_spe(confusion(labels[perm], preds[perm])) == base


def test_roc_perfect_separation_passes_through_corner():
    curve = roc_curve([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])
    assert (0.0, 1.0) in points(curve)
    assert auc(curve) == 1.0


def test_roc_all_tied_scores_is_diagonal():
    curve = roc_curve([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5])
    assert points(curve) == [(0.0, 0.0), (1.0, 1.0)]
    assert auc(curve) == 0.5


def test_roc_worked_example_area():
    # Pair counting: (0.9, 0.6) and (0.9, 0.2) and (0.4, 0.2) rank correctly,
    # (0.4, 0.6) does not -> 3 of 4 pairs.
    curve = roc_curve([1, 1, 0, 0], [0.9, 0.4, 0.6, 0.2])
    assert auc(curve) == 0.75
    assert mw_auc(np.array([1, 1, 0, 0]), np.array([0.9, 0.4, 0.6, 0.2])) == 0.75


def test_roc_invariants_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 2)  # rounding forces ties
        curve = roc_curve(labels, scores)
        xs, ys = curve.fpr, curve.tpr
        assert points(curve)[0] == (0.0, 0.0)
        assert points(curve)[-1] == (1.0, 1.0)
        assert all(a <= b + 1e-15 for a, b in zip(xs, xs[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(ys, ys[1:]))
        assert abs(auc(curve) - mw_auc(labels, scores)) <= 1e-12


def test_auc_matches_pair_counting_with_heavy_ties():
    labels = np.array([1, 1, 1, 0, 0, 0, 1, 0])
    scores = np.array([0.7, 0.7, 0.3, 0.7, 0.3, 0.1, 0.1, 0.1])
    assert abs(auc(roc_curve(labels, scores)) - mw_auc(labels, scores)) <= 1e-12


def test_negating_scores_flips_auc_and_class_swap_restores_it():
    rng = np.random.default_rng(7)
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 0, 1
    scores = rng.random(30)
    a = auc(roc_curve(labels, scores))
    assert abs(auc(roc_curve(labels, -scores)) - (1.0 - a)) <= 1e-12
    assert abs(auc(roc_curve(1 - labels, -scores)) - a) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_monotone_transform_leaves_curve_unchanged(seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, 25)
    labels[0], labels[1] = 0, 1
    scores = np.round(rng.random(25), 1)
    base = roc_curve(labels, scores)
    warped = roc_curve(labels, np.exp(3.0 * scores) + 1.0)
    assert points(base) == points(warped)


def test_roc_rejects_single_class():
    with pytest.raises(DataError):
        roc_curve([1, 1, 1], [0.1, 0.2, 0.3])


def test_roc_rejects_labels_other_than_0_and_1():
    with pytest.raises(DataError, match="must be 0 or 1"):
        roc_curve([0, 1, 2], [0.1, 0.2, 0.3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_roc_rejects_non_finite_scores(bad):
    with pytest.raises(DataError, match="finite"):
        roc_curve([0, 1, 1], [0.2, bad, 0.7])


def test_roc_csv_round_trips_points():
    curve = roc_curve([1, 0, 1, 0], [0.9, 0.1, 0.8, 0.4])
    text = roc_points_csv(curve)
    lines = text.strip().splitlines()
    assert lines[0] == "fpr,tpr"
    parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert parsed == points(curve)


def _scalar_roc_points(labels, scores):
    """The per-point group sweep the array code replaced, kept as its reference."""
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    order = np.argsort(-scores, kind="stable")
    points, tp, fp, i = [(0.0, 0.0)], 0, 0, 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            if labels[order[j]] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j
    return points


def _scalar_auc(points):
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def _scalar_csv(points):
    return "\n".join(["fpr,tpr"] + [f"{x!r},{y!r}" for x, y in points]) + "\n"


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["rounded", "signed_zeros", "few", "normal"]))
def test_roc_auc_and_csv_match_the_scalar_sweep_bit_for_bit(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    labels = rng.integers(0, 2, n)
    labels[rng.permutation(n)[:2]] = (0, 1)
    scores = {
        "rounded": lambda: np.round(rng.random(n), int(rng.integers(0, 3))),
        "signed_zeros": lambda: rng.choice([0.0, -0.0, 0.25, -0.25], n),
        "few": lambda: rng.choice(rng.standard_normal(3), n),
        "normal": lambda: rng.standard_normal(n),
    }[kind]()
    ref = _scalar_roc_points(labels, scores)
    curve = roc_curve(labels, scores)
    assert _bits(curve.fpr) == _bits([x for x, _ in ref])
    assert _bits(curve.tpr) == _bits([y for _, y in ref])
    assert _bits([auc(curve)]) == _bits([_scalar_auc(ref)])
    assert roc_points_csv(curve) == _scalar_csv(ref)


@pytest.mark.parametrize(
    "labels,scores",
    [([0, 1], [0.5, 0.5]), ([1, 0], [0.0, -0.0]), ([0, 1, 1], [-0.0, 0.0, -0.0])],
)
def test_two_point_curves_match_the_scalar_sweep(labels, scores):
    ref = _scalar_roc_points(labels, scores)
    curve = roc_curve(labels, scores)
    assert len(ref) == 2 and points(curve) == ref
    assert auc(curve) == _scalar_auc(ref) == 0.5
    assert roc_points_csv(curve) == _scalar_csv(ref) == "fpr,tpr\n0.0,0.0\n1.0,1.0\n"
