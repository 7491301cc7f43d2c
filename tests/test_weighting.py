import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridens import weighting
from hybridens.errors import NumericError
from hybridens.weighting import (
    bce_gradient,
    mean_bce,
    optimize_weights,
    project_simplex,
    sigmoid,
    weighted_predict,
)
from oracle_utils import fd_gradient, grid_simplex2_bce, rel_error, weight_iterates


def test_weighted_predict_one_hot_returns_component():
    alpha = np.array([0.0, 1.0, 0.0])
    p = np.array([[0.2, 0.8, 0.5], [0.9, 0.1, 0.4]])
    assert weighted_predict(alpha, p).tolist() == [0.8, 0.1]


def test_weighted_predict_uniform_on_equal_inputs():
    assert weighted_predict(np.full(4, 0.25), np.full((3, 4), 0.37)) == pytest.approx([0.37] * 3)


def test_weighted_predict_direct_arithmetic():
    p = np.array([[0.5, 1.0], [1.0, 0.0]])
    assert weighted_predict(np.array([0.6, 0.4]), p) == pytest.approx([0.7, 0.6])


def test_weighted_predict_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        weighted_predict(np.array([0.5, 0.5]), np.array([[0.1, 0.2, 0.3]]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_weighted_predict_stays_in_unit_interval(seed, k):
    rng = np.random.default_rng(seed)
    alpha = project_simplex(rng.normal(size=k))
    out = weighted_predict(alpha, rng.random((8, k)))
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_bce_known_values():
    def bce(p, y):
        return mean_bce(np.array([p]), np.array([y]))

    assert bce(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)
    assert bce(1.0, 1) <= 1e-11
    assert bce(0.9, 0) == pytest.approx(-math.log(0.1), rel=1e-12)
    assert bce(0.0, 0) <= 1e-11


def test_project_simplex_fixed_point():
    v = np.array([0.2, 0.5, 0.3])
    assert np.allclose(project_simplex(v), v, atol=1e-15)


def test_project_simplex_uniform_shift():
    # Symmetric input must project to the barycenter (KKT: equal shift).
    assert np.allclose(project_simplex(np.array([0.2, 0.2, 0.2])), 1 / 3, atol=1e-15)


def test_project_simplex_clips_to_vertex():
    # Brute-force over the K=2 simplex confirms (1, 0) minimizes the distance.
    v = np.array([1.2, -0.2])
    grid = np.linspace(0, 1, 100001)
    dists = (grid - 1.2) ** 2 + ((1 - grid) + 0.2) ** 2
    assert grid[np.argmin(dists)] == 1.0
    assert np.allclose(project_simplex(v), [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize(
    "v, expected",
    [([-1.8e16], [1.0]), ([1e17, 0.0], [1.0, 0.0]), ([-1e17, 0.5, 0.25], [0.0, 0.625, 0.375])],
)
def test_project_simplex_survives_entries_beyond_float_precision(v, expected):
    # Past 2**52 the threshold's -1 vanishes in the sum of the sorted entries.
    assert np.allclose(project_simplex(np.array(v)), expected, atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_project_simplex_rejects_non_finite_entries(bad):
    with pytest.raises(NumericError, match="non-finite"):
        project_simplex(np.array([0.5, bad]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_project_simplex_feasible_and_idempotent(seed, k):
    v = np.random.default_rng(seed).normal(scale=3.0, size=k)
    x = project_simplex(v)
    assert x.min() >= 0.0
    assert abs(x.sum() - 1.0) <= 1e-12
    assert np.allclose(project_simplex(x), x, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_project_simplex_beats_random_feasible_points(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(scale=2.0, size=4)
    x = project_simplex(v)
    best = np.sum((x - v) ** 2)
    for _ in range(50):
        z = rng.dirichlet(np.ones(4))
        assert best <= np.sum((z - v) ** 2) + 1e-12


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    preds = np.clip(rng.random((40, 3)), 0.05, 0.95)
    labels = rng.integers(0, 2, 40)
    for _ in range(20):
        alpha = rng.dirichlet(np.ones(3))
        analytic = bce_gradient(alpha, preds, labels)
        numeric = fd_gradient(lambda a: mean_bce(preds @ a, labels), alpha, h_scale=1e-6)
        assert rel_error(analytic, numeric) <= 1e-5


def test_optimize_weights_prefers_perfect_model():
    rng = np.random.default_rng(1)
    y = rng.integers(0, 2, 60)
    preds = np.column_stack([y.astype(float), np.full(60, 0.5)])
    # Oracle: BCE is strictly decreasing in the first weight on this table.
    grid = [mean_bce(preds @ np.array([a, 1 - a]), y) for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    fit = optimize_weights(preds, y)
    assert fit.alpha[0] >= 0.99


def test_optimize_weights_symmetric_for_identical_columns():
    rng = np.random.default_rng(2)
    col = rng.random(30)
    preds = np.column_stack([col, col, col])
    fit = optimize_weights(preds, (col > 0.5).astype(int))
    assert np.allclose(fit.alpha, 1 / 3, atol=1e-12)


def test_optimize_weights_zero_steps_returns_uniform(monkeypatch):
    monkeypatch.setattr(weighting, "MAX_STEPS", 0)
    preds = np.array([[0.2, 0.8], [0.6, 0.4]])
    fit = optimize_weights(preds, np.array([0, 1]))
    assert np.allclose(fit.alpha, 0.5, atol=0)
    assert fit.steps_used == 0


def test_optimize_weights_never_worse_than_uniform_and_feasible_iterates(monkeypatch):
    monkeypatch.setattr(weighting, "MAX_STEPS", 120)
    rng = np.random.default_rng(3)
    for _ in range(10):
        preds = rng.random((25, 4))
        labels = rng.integers(0, 2, 25)
        fit, iterates = weight_iterates(preds, labels)
        uniform = mean_bce(preds @ np.full(4, 0.25), labels)
        assert fit.val_bce <= uniform + 1e-15
        for it in iterates:
            assert it.min() >= 0.0
            assert abs(it.sum() - 1.0) <= 1e-12


def test_optimize_weights_objective_non_increasing_along_iterates(monkeypatch):
    monkeypatch.setattr(weighting, "MAX_STEPS", 200)
    rng = np.random.default_rng(8)
    preds = rng.random((40, 3))
    labels = rng.integers(0, 2, 40)
    # At step size 50 the first trial of a step raises the objective, so the guard halves it.
    for step_size in (0.5, 50.0):
        monkeypatch.setattr(weighting, "STEP_SIZE", step_size)
        fit, iterates = weight_iterates(preds, labels)
        assert len(iterates) >= fit.steps_used + 1
        losses = [mean_bce(preds @ a, labels) for a in iterates]
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))


def test_optimize_weights_warns_on_single_class(monkeypatch):
    monkeypatch.setattr(weighting, "MAX_STEPS", 5)
    preds = np.random.default_rng(10).random((10, 2))
    with pytest.warns(UserWarning, match="single-class"):
        optimize_weights(preds, np.ones(10, dtype=int))


def test_optimize_weights_matches_grid_search_k2():
    rng = np.random.default_rng(4)
    for _ in range(10):
        preds = rng.random((30, 2))
        labels = rng.integers(0, 2, 30)
        fit = optimize_weights(preds, labels)
        best, _ = grid_simplex2_bce(preds, labels, step=1e-3)
        assert fit.val_bce <= best + 1e-4


def test_optimize_weights_rejects_non_finite():
    preds = np.array([[np.nan, 0.5], [0.2, 0.8]])
    with pytest.raises(NumericError):
        optimize_weights(preds, np.array([1, 0]))


def _masked_sigmoid(z):
    """The two-branch sigmoid the one-pass form replaced, kept as its reference."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_the_masked_form_bit_for_bit():
    edges = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 5e-324, -5e-324,
                      36.7, -36.7, 709.8, -709.8, 745.2, -745.2, math.inf, -math.inf])
    rng = np.random.default_rng(3)
    spread = rng.standard_normal(4001) * 10.0 ** rng.uniform(-300, 3, 4001)
    for z in (edges, spread, rng.standard_normal((7, 5)), np.float64(-2.5)):
        assert sigmoid(z).tobytes() == _masked_sigmoid(z).tobytes()
    assert str(sigmoid(np.array([-0.0]))[0]) == "0.5"
    # NaN stays NaN; its sign bit is not kept, and no output prints it.
    assert np.isnan(sigmoid(np.array([math.nan, -math.nan]))).all()
