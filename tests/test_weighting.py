import math
import warnings

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
    sigmoid,
    weighted_predict,
)
from oracle_utils import (
    fd_gradient,
    grid_simplex2_bce,
    rel_error,
    simplex_kkt_gap,
    weight_iterates,
)


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
    alpha = rng.dirichlet(np.ones(k))
    out = weighted_predict(alpha, rng.random((8, k)))
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_bce_known_values():
    def bce(p, y):
        return mean_bce(np.array([p]), np.array([y]))

    assert bce(0.5, 1) == pytest.approx(math.log(2), abs=1e-12)
    assert bce(1.0, 1) <= 1e-11
    assert bce(0.9, 0) == pytest.approx(-math.log(0.1), rel=1e-12)
    assert bce(0.0, 0) <= 1e-11


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
    monkeypatch.setattr(weighting, "MAX_NEWTON_STEPS", 0)
    preds = np.array([[0.2, 0.8], [0.6, 0.4]])
    with pytest.warns(UserWarning, match=r"step limit \(0\)"):
        fit = optimize_weights(preds, np.array([0, 1]))
    assert np.allclose(fit.alpha, 0.5, atol=0)
    assert fit.steps_used == 0


def test_optimize_weights_never_worse_than_uniform_and_feasible_iterates():
    rng = np.random.default_rng(3)
    for _ in range(10):
        preds = rng.random((25, 4))
        labels = rng.integers(0, 2, 25)
        fit, iterates = weight_iterates(preds, labels)
        uniform = mean_bce(preds @ np.full(4, 0.25), labels)
        assert fit.val_bce <= uniform + 1e-15
        assert len(iterates) == fit.steps_used + 2  # each step's weights, the last twice
        for it in iterates:
            assert it.min() >= 0.0 and it.max() <= 1.0
            assert abs(it.sum() - 1.0) <= 1e-12


def test_halving_rate_returns_the_first_rate_that_does_not_raise_the_objective():
    assert weighting.halving_rate(lambda r: r - 0.3) == 0.25
    assert weighting.halving_rate(lambda r: 0.0) == 1.0
    tried = []
    assert weighting.halving_rate(lambda r: tried.append(r) or math.nan) is None
    assert tried == [0.5**i for i in range(weighting.MAX_HALVINGS)]


# Column 1 is right on 10 rows and gives 0 to the positive last row: near
# uniform weights the quadratic model misses how fast that row's loss grows,
# so the first full Newton step raises the objective and the guard halves it.
_OVERSHOOT = (np.array([[0.9, 0.4]] * 5 + [[0.1, 0.6]] * 5 + [[0.0, 1.0]]),
              np.array([1] * 5 + [0] * 5 + [1]))


def test_optimize_weights_objective_non_increasing_along_iterates(monkeypatch):
    rates, halving_rate = [], weighting.halving_rate

    def recording(change):
        rates.append(halving_rate(change))
        return rates[-1]

    monkeypatch.setattr(weighting, "halving_rate", recording)
    rng = np.random.default_rng(8)
    for preds, labels in ((rng.random((40, 3)), rng.integers(0, 2, 40)), _OVERSHOOT):
        rates.clear()
        fit, iterates = weight_iterates(preds, labels)
        losses = [mean_bce(preds @ a, labels) for a in iterates]
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
        assert len(rates) == fit.steps_used and None not in rates
    assert rates[0] == 0.5 and rates[1:] == [1.0] * (len(rates) - 1), rates
    assert simplex_kkt_gap(fit.alpha, *_OVERSHOOT) <= 1e-9


def test_optimize_weights_warns_on_single_class():
    preds = np.random.default_rng(10).random((10, 2))
    with pytest.warns(UserWarning, match="single-class"):
        optimize_weights(preds, np.ones(10, dtype=int))


def test_optimize_weights_warns_when_it_stops_at_the_step_limit(monkeypatch):
    rng = np.random.default_rng(8)
    preds = rng.random((40, 3))
    labels = rng.integers(0, 2, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a fit that converges does not warn
        assert optimize_weights(preds, labels).steps_used > 1
    monkeypatch.setattr(weighting, "MAX_NEWTON_STEPS", 1)
    with pytest.warns(UserWarning, match=r"step limit \(1\) before converging"):
        fit = optimize_weights(preds, labels)
    assert fit.steps_used == 1 and simplex_kkt_gap(fit.alpha, preds, labels) > 1e-10


def test_optimize_weights_matches_grid_search_k2():
    rng = np.random.default_rng(4)
    for _ in range(10):
        preds = rng.random((30, 2))
        labels = rng.integers(0, 2, 30)
        fit = optimize_weights(preds, labels)
        best, _ = grid_simplex2_bce(preds, labels, step=1e-3)
        assert fit.val_bce <= best + 1e-4


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 60))
def test_optimize_weights_feasible_and_kkt_optimal(seed, k, n):
    rng = np.random.default_rng(seed)
    preds = rng.random((n, k)) ** rng.uniform(0.2, 5.0)
    labels = rng.integers(0, 2, n)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "optimizing ensemble weights on a single-class")
        fit = optimize_weights(preds, labels)
    assert simplex_kkt_gap(fit.alpha, preds, labels) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_optimize_weights_beats_random_feasible_points(seed):
    rng = np.random.default_rng(seed)
    preds = rng.random((20, 4))
    labels = rng.integers(0, 2, 20)
    fit = optimize_weights(preds, labels)
    for z in rng.dirichlet(np.ones(4), 50):
        assert fit.val_bce <= mean_bce(preds @ z, labels) + 1e-12


def test_optimize_weights_lands_exactly_on_a_vertex():
    # Column 1 ranks every row right and column 2 is uninformative, so BCE
    # falls all the way to the vertex (1, 0); one full step lands on it.
    preds = np.array([[0.9, 0.5], [0.2, 0.5], [0.8, 0.5], [0.1, 0.5]])
    labels = np.array([1, 0, 1, 0])
    fit = optimize_weights(preds, labels)
    assert fit.alpha.tolist() == [1.0, 0.0] and fit.steps_used == 1
    assert simplex_kkt_gap(fit.alpha, preds, labels) <= 0.0


def test_optimize_weights_reaches_the_optimum_on_fuse_large_shaped_rows():
    # 50,000 rows shaped as `fuse_only` fits them on the benchmark's table:
    # three columns of rounded sigmoid scores, separations 0.5, 1.0 and 1.5.
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 50_000)
    preds = np.stack([np.round(sigmoid(s * (2 * labels - 1) + rng.standard_normal(50_000)), 6)
                      for s in (0.5, 1.0, 1.5)], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = optimize_weights(preds, labels)
    assert simplex_kkt_gap(fit.alpha, preds, labels) <= 1e-9


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_optimize_weights_rejects_non_finite_entries(bad):
    with pytest.raises(NumericError, match="non-finite"):
        optimize_weights(np.array([[0.5, bad], [0.2, 0.8]]), np.array([1, 0]))


def test_optimize_weights_rejects_non_finite(monkeypatch):
    def no_lstsq(*args, **kwargs):
        raise AssertionError("lstsq reached with a non-finite system")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    # A finite gradient, but the Hessian's squares of 1e150 overflow.
    preds = np.array([[1e150, 0.5], [0.5, 0.2]])
    assert np.all(np.isfinite(bce_gradient(np.full(2, 0.5), preds, np.array([0, 1]))))
    with pytest.raises(NumericError, match="Hessian"):
        optimize_weights(preds, np.array([0, 1]))


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
