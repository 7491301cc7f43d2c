import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridens.errors import DataError
from hybridens.metrics import acc_sen_spe, auc, roc_curve, roc_points_csv
from hybridens.pipeline import roc_curves, score_rows, write_rocs
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


def outcomes(tp=0, fn=0, tn=0, fp=0):
    """Labels and 0/1 predictions with the given confusion counts."""
    labels = [1] * (tp + fn) + [0] * (tn + fp)
    return labels, [1] * tp + [0] * fn + [0] * tn + [1] * fp


def test_confusion_direct_count():
    # One of each outcome: every rate is one half.
    assert acc_sen_spe([1, 1, 0, 0], [1, 0, 0, 1]) == (0.5, 0.5, 0.5)
    assert acc_sen_spe(*outcomes(tp=1, fn=2, tn=3, fp=4)) == (4 / 10, 1 / 3, 3 / 7)


def test_confusion_perfect_and_degenerate():
    assert acc_sen_spe([1, 0, 1], [1, 0, 1]) == (1.0, 1.0, 1.0)
    acc, sen, spe = acc_sen_spe([1, 1, 1], [0, 0, 0])
    assert (acc, sen) == (0.0, 0.0) and math.isnan(spe)


def test_confusion_rejects_mismatch_and_empty():
    with pytest.raises(DataError, match="different lengths"):
        acc_sen_spe([1, 0], [1])
    with pytest.raises(DataError, match="empty"):
        acc_sen_spe([], [])


def test_acc_sen_spe_reference_counts():
    acc, sen, spe = acc_sen_spe(*outcomes(tp=31, fn=5, tn=48, fp=2))
    assert round(100 * sen, 2) == 86.11
    assert round(100 * spe, 2) == 96.00
    assert acc == (31 + 48) / 86


def test_acc_sen_spe_perfect():
    assert acc_sen_spe(*outcomes(tp=3, tn=4)) == (1.0, 1.0, 1.0)


def test_acc_sen_spe_undefined_is_nan_not_zero():
    acc, sen, spe = acc_sen_spe(*outcomes(tn=5, fp=1))
    assert math.isnan(sen)
    assert spe == 5 / 6


def test_acc_sen_spe_invariant_under_permutation():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 50)
    preds = rng.integers(0, 2, 50)
    base = acc_sen_spe(labels, preds)
    perm = rng.permutation(50)
    assert acc_sen_spe(labels[perm], preds[perm]) == base


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


def _parsed(text):
    lines = text.strip().splitlines()
    assert lines[0] == "fpr,tpr"
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def test_roc_csv_round_trips_points():
    # (0, 0), (0, 1/2), (0, 1), (1/2, 1), (1, 1): the points halfway up the
    # vertical run and halfway along the horizontal one are not corners.
    curve = roc_curve([1, 0, 1, 0], [0.9, 0.1, 0.8, 0.4])
    assert _parsed(roc_points_csv(curve)) == [points(curve)[i] for i in (0, 2, 4)]
    # Alternating labels turn at every point, so every point is written.
    curve = roc_curve([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1])
    assert _parsed(roc_points_csv(curve)) == points(curve)


def _scalar_roc_counts(labels, scores):
    """The per-point group sweep the array code replaced, kept as its reference:
    the (fp, tp) counts as Python ints, one pair per threshold step."""
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    counts, tp, fp, i = [(0, 0)], 0, 0, 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            if labels[order[j]] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        counts.append((fp, tp))
        i = j
    return counts


def _scalar_rates(counts):
    n_neg, n_pos = counts[-1]
    return [(fp / n_neg, tp / n_pos) for fp, tp in counts]


def _scalar_roc_points(labels, scores):
    return _scalar_rates(_scalar_roc_counts(labels, scores))


def _scalar_corners(counts):
    """The counts where the curve turns, plus both ends: a point is dropped when the
    steps into and out of it, each reduced by the gcd of its two counts, point the
    same way (no step is (0, 0), since each adds at least one sample)."""

    def direction(a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        g = math.gcd(dx, dy)
        return dx // g, dy // g

    kept = [counts[0]]
    for prev, here, nxt in zip(counts, counts[1:], counts[2:]):
        if direction(prev, here) != direction(here, nxt):
            kept.append(here)
    return kept + counts[-1:]


def _scalar_corner_csv(labels, scores):
    return _scalar_csv(_scalar_rates(_scalar_corners(_scalar_roc_counts(labels, scores))))


def _scalar_auc(points):
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def _scalar_csv(points):
    return "\n".join(["fpr,tpr"] + [f"{x!r},{y!r}" for x, y in points]) + "\n"


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _labels_and_scores(seed, kind):
    """Both classes and up to 199 scores of one kind; all but "normal" tie."""
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
    return labels, scores, rng


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["rounded", "signed_zeros", "few", "normal"]))
def test_roc_auc_and_csv_match_the_scalar_sweep_bit_for_bit(seed, kind):
    labels, scores, _ = _labels_and_scores(seed, kind)
    ref = _scalar_roc_points(labels, scores)
    curve = roc_curve(labels, scores)
    assert _bits(curve.fpr) == _bits([x for x, _ in ref])
    assert _bits(curve.tpr) == _bits([y for _, y in ref])
    assert _bits([auc(curve)]) == _bits([_scalar_auc(ref)])
    assert roc_points_csv(curve) == _scalar_corner_csv(labels, scores)


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["rounded", "signed_zeros", "few"]))
def test_tie_order_cannot_change_the_curve(seed, kind):
    """`roc_curve` sorts without `kind="stable"`: permuting the rows reorders
    the members of each run of equal scores, and must not move a point."""
    labels, scores, rng = _labels_and_scores(seed, kind)
    perm = rng.permutation(labels.size)
    base, permuted = roc_curve(labels, scores), roc_curve(labels[perm], scores[perm])
    assert base.fp.tobytes() == permuted.fp.tobytes()
    assert base.tp.tobytes() == permuted.tp.tobytes()


def test_roc_csv_writes_exponent_cells_like_the_scalar_sweep(tmp_path):
    """20,011 negatives, each at its own score, with positives right after the
    first and the third: the curve turns at fpr 1/20011, below 1e-4, so its
    `repr` is in exponent form, and at 3/20011, which, like some other
    fractions in [1e-4, 1e-3), fills all 22 bytes of a cell."""
    n_neg, positions = 20_011, [1, 4, 9_000, 20_014]
    labels = np.zeros(n_neg + len(positions), dtype=np.int64)
    labels[positions] = 1
    scores = -np.arange(labels.size, dtype=np.float64)
    curve = roc_curve(labels, scores)
    text = roc_points_csv(curve)
    assert text == _scalar_corner_csv(labels, scores)
    lines = text.splitlines()[1:]
    assert lines[:5] == ["0.0,0.0", f"{1 / n_neg!r},0.0", f"{1 / n_neg!r},0.25",
                         f"{3 / n_neg!r},0.25", f"{3 / n_neg!r},0.5"]
    assert repr(1 / n_neg) == "4.997251511668582e-05"
    cells = [cell for line in lines for cell in line.split(",")]
    assert max(map(len, cells)) == len(repr(3 / n_neg)) == 22
    # A second curve of the same labels shares the denominators' tables.
    curves = {"a": curve, "b": roc_curve(labels, scores[::-1])}
    files = write_rocs(tmp_path, curves)
    for name, other in curves.items():
        assert (tmp_path / files[name]).read_text() == roc_points_csv(other)
    assert (tmp_path / files["b"]).read_text() == _scalar_corner_csv(labels, scores[::-1])


def test_roc_csv_joins_its_row_blocks_like_the_scalar_sweep():
    """Alternating labels at distinct scores turn the curve at every point:
    131,075 corners, two full blocks of 2**16 rows and three rows after them."""
    labels = np.arange((1 << 17) + 2) % 2
    scores = -np.arange(labels.size, dtype=np.float64)
    text = roc_points_csv(roc_curve(labels, scores))
    assert text.count("\n") == 1 + 2 * (1 << 16) + 3
    assert text == _scalar_corner_csv(labels, scores) == _scalar_csv(
        _scalar_roc_points(labels, scores))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["rounded", "signed_zeros", "few", "normal"]))
def test_roc_csv_drops_only_points_on_a_segment_and_keeps_the_area(seed, kind):
    """Every point the file leaves out lies on the segment between the written
    points around it (exact on the counts), and the trapezoid area of the
    text, read back, is the curve's AUC to 1e-12."""
    labels, scores, _ = _labels_and_scores(seed, kind)
    curve = roc_curve(labels, scores)
    written = _parsed(roc_points_csv(curve))
    index = {p: i for i, p in enumerate(points(curve))}
    kept = [index[p] for p in written]  # a KeyError is a point the curve lacks
    assert kept[0] == 0 and kept[-1] == curve.fp.size - 1 and kept == sorted(set(kept))
    fp, tp = curve.fp.tolist(), curve.tp.tolist()
    for a, b in zip(kept, kept[1:]):
        for i in range(a + 1, b):
            assert (fp[i] - fp[a]) * (tp[b] - tp[a]) == (tp[i] - tp[a]) * (fp[b] - fp[a]), i
    assert abs(_scalar_auc(written) - auc(curve)) <= 1e-12
