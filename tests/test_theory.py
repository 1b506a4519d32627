"""Tests for the discrete-support analysis of the re-weighting game."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advclf.errors import ConfigError
from advclf.theory import (
    TheoryConfig,
    fixed_point_residual,
    generator_objective,
    generator_objective_grad,
    minimize_generator,
    optimal_discriminator,
    validate_distribution,
    value_v,
)

LOG4 = float(np.log(4.0))


def tv(p, q):
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


@st.composite
def distribution_pairs(draw, k_min=2, k_max=6):
    k = draw(st.integers(k_min, k_max))
    def dist():
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
        arr = np.asarray(raw)
        return arr / arr.sum()
    return dist(), dist()


# --- validation ---


@pytest.mark.parametrize(
    "bad",
    [
        [],
        [[0.5, 0.5]],
        [0.5, -0.1, 0.6],
        [0.5, np.nan, 0.5],
        [0.5, np.inf],
        [0.3, 0.3],
        [0.7, 0.7],
    ],
)
def test_validate_distribution_rejects(bad):
    with pytest.raises(ConfigError):
        validate_distribution(bad)


def test_validate_distribution_accepts_zeros():
    p = validate_distribution([1.0, 0.0, 0.0])
    np.testing.assert_array_equal(p, [1.0, 0.0, 0.0])


# --- optimal discriminator ---


def test_optimal_discriminator_hand_cases():
    np.testing.assert_allclose(
        optimal_discriminator([0.8, 0.2], [0.2, 0.8]), [0.8, 0.2], atol=1e-15
    )
    np.testing.assert_allclose(
        optimal_discriminator([0.3, 0.7], [0.3, 0.7]), [0.5, 0.5], atol=1e-15
    )
    # disjoint supports: certainty on both points
    np.testing.assert_allclose(optimal_discriminator([1.0, 0.0], [0.0, 1.0]), [1.0, 0.0])


def test_optimal_discriminator_errors():
    with pytest.raises(ConfigError, match="share a support"):
        optimal_discriminator([0.5, 0.5], [0.2, 0.3, 0.5])
    with pytest.raises(ConfigError, match="zero mass"):
        optimal_discriminator([0.5, 0.5, 0.0], [0.5, 0.5, 0.0])


def test_optimal_discriminator_is_maximal():
    """V(d*) beats random perturbations of d* clipped into (0, 1)."""
    rng = np.random.default_rng(17)
    for _ in range(5):
        k = int(rng.integers(2, 9))
        p_plus = rng.dirichlet(np.ones(k))
        p_neg = rng.dirichlet(np.ones(k))
        d_star = optimal_discriminator(p_plus, p_neg)
        v_star = value_v(p_plus, p_neg, d_star)
        for _ in range(50):
            d = np.clip(d_star + rng.normal(scale=0.2, size=k), 1e-9, 1.0 - 1e-9)
            assert value_v(p_plus, p_neg, d) <= v_star + 1e-12


# --- value function ---


def test_value_at_flat_half_is_minus_log4():
    for p_plus, p_neg in [([0.5, 0.5], [0.5, 0.5]), ([0.9, 0.1], [0.2, 0.8])]:
        v = value_v(p_plus, p_neg, np.full(2, 0.5))
        assert v == pytest.approx(-LOG4, abs=1e-12)


def test_value_hand_case():
    # disjoint masses: only the log(0.9) terms survive
    v = value_v([1.0, 0.0], [0.0, 1.0], [0.9, 0.1])
    assert v == pytest.approx(2.0 * np.log(0.9), abs=1e-12)
    # a perfect discriminator on disjoint supports scores 0
    assert value_v([1.0, 0.0], [0.0, 1.0], [1.0, 0.0]) == pytest.approx(0.0, abs=0.0)


def test_value_error_paths():
    with pytest.raises(ConfigError, match="lie in"):
        value_v([0.5, 0.5], [0.5, 0.5], [0.5, 1.5])
    with pytest.raises(ConfigError, match="-inf"):
        value_v([0.5, 0.5], [0.5, 0.5], [0.0, 0.5])
    with pytest.raises(ConfigError, match="-inf"):
        value_v([0.5, 0.5], [0.5, 0.5], [0.5, 1.0])
    with pytest.raises(ConfigError, match="support size"):
        value_v([0.5, 0.5], [0.5, 0.5], [0.5, 0.5, 0.5])


def test_equal_distributions_value_at_optimum():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = rng.dirichlet(np.ones(4))
        d_star = optimal_discriminator(p, p)
        assert value_v(p, p, d_star) == pytest.approx(-LOG4, abs=1e-9)


# --- generator objective ---


def test_objective_at_matching_distributions():
    p = np.array([0.2, 0.5, 0.3])
    assert generator_objective(p, p, 0.0) == pytest.approx(-LOG4, abs=1e-12)


def test_objective_uniform_with_entropy_term():
    # uniform p and p_plus: J = -log 4 - lam * log k
    k, lam = 5, 0.7
    u = np.full(k, 1.0 / k)
    assert generator_objective(u, u, lam) == pytest.approx(-LOG4 - lam * np.log(k), abs=1e-12)


def test_objective_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        generator_objective([0.5, 0.5], [0.2, 0.3, 0.5], 0.0)
    with pytest.raises(ConfigError):
        generator_objective([0.5, 0.5], [0.5, 0.5], -0.1)


@settings(max_examples=60, deadline=None)
@given(distribution_pairs())
def test_objective_equals_value_at_optimal_discriminator(pair):
    """With lam = 0, J(p) is exactly the value at the pointwise-optimal discriminator."""
    p_neg, p_plus = pair
    d_star = optimal_discriminator(p_plus, p_neg)
    j = generator_objective(p_neg, p_plus, 0.0)
    v = value_v(p_plus, p_neg, d_star)
    assert j == pytest.approx(v, abs=1e-12)


def test_objective_grad_matches_directional_differences():
    # central differences along sum-zero directions keep the iterate on the simplex
    rng = np.random.default_rng(8)
    p = rng.dirichlet(np.ones(4)) * 0.8 + 0.05  # bounded away from the boundary
    p = p / p.sum()
    p_plus = rng.dirichlet(np.ones(4))
    for lam in (0.0, 0.5):
        grad = generator_objective_grad(p, p_plus, lam)
        for _ in range(10):
            u = rng.standard_normal(4)
            u -= u.mean()
            eps = 1e-6
            num = (
                generator_objective(p + eps * u, p_plus, lam)
                - generator_objective(p - eps * u, p_plus, lam)
            ) / (2 * eps)
            assert num == pytest.approx(float(grad @ u), rel=1e-5, abs=1e-8)


def test_objective_grad_needs_positive_p():
    with pytest.raises(ConfigError, match="strictly positive"):
        generator_objective_grad([1.0, 0.0], [0.5, 0.5], 0.0)


# --- solver ---


def test_theory_config_validation():
    with pytest.raises(ConfigError):
        TheoryConfig(lam=-1.0)
    with pytest.raises(ConfigError):
        TheoryConfig(max_iters=0)
    with pytest.raises(ConfigError):
        TheoryConfig(tol=-1e-9)


def test_minimizer_recovers_target_at_lambda_zero():
    for p_plus in ([0.7, 0.2, 0.1], [0.4, 0.1, 0.3, 0.2]):
        p_plus = np.asarray(p_plus)
        res = minimize_generator(p_plus, TheoryConfig(lam=0.0))
        assert res.converged
        assert tv(res.p, p_plus) < 1e-6
        assert res.objective == pytest.approx(-LOG4, abs=1e-9)
        assert fixed_point_residual(res.p, p_plus, 0.0) < 1e-6


def test_uniform_target_gives_uniform_minimizer():
    k = 4
    u = np.full(k, 0.25)
    res = minimize_generator(u, TheoryConfig(lam=0.7))
    assert tv(res.p, u) < 1e-9


def test_residual_identity_at_lambda_zero():
    # lam = 0: the stationarity gap is just max|p - p_plus| / 2
    p = np.array([0.5, 0.3, 0.2])
    p_plus = np.array([0.2, 0.2, 0.6])
    expected = 0.5 * float(np.max(np.abs(p - p_plus)))
    assert fixed_point_residual(p, p_plus, 0.0) == pytest.approx(expected, abs=1e-15)


def test_residual_small_at_minimum_with_entropy():
    p_plus = np.array([0.7, 0.2, 0.1])
    res = minimize_generator(p_plus, TheoryConfig(lam=0.1, tol=1e-13))
    assert fixed_point_residual(res.p, p_plus, 0.1) < 1e-8


def test_solver_path_is_monotone_on_the_simplex():
    """The solver is deterministic, so the run cut at max_iters = n is the path's n-th point."""
    p_plus = np.array([0.6, 0.3, 0.1])
    full = minimize_generator(p_plus, TheoryConfig(lam=0.2))
    assert full.iterations >= 1
    path = [
        minimize_generator(p_plus, TheoryConfig(lam=0.2, max_iters=n)) for n in range(1, full.iterations + 1)
    ]
    objs = [generator_objective(np.full(3, 1.0 / 3.0), p_plus, 0.2)] + [res.objective for res in path]
    assert all(b <= a + 1e-15 for a, b in zip(objs, objs[1:]))
    for res in path:
        assert np.all(res.p >= 0.0)
        assert float(res.p.sum()) == pytest.approx(1.0, abs=1e-9)
    assert objs[-1] == pytest.approx(full.objective)


def test_solver_path_absent_by_default():
    res = minimize_generator(np.array([0.5, 0.5]), TheoryConfig())
    assert not hasattr(res, "path")
    assert res.iterations >= 1


def grid_search_objective(p_plus, lam, resolution):
    """Brute-force minimum of the objective over a simplex grid (k = 3)."""
    n = int(round(1.0 / resolution))
    pts = []
    for i in range(n + 1):
        for j in range(n + 1 - i):
            pts.append((i / n, j / n, (n - i - j) / n))
    pts = np.asarray(pts)
    mix = pts + p_plus[None, :]
    safe_mix = np.where(mix > 0.0, mix, 1.0)

    def xlogy(x, y):
        out = np.zeros_like(x)
        mask = x > 0
        out[mask] = x[mask] * np.log(y[mask])
        return out

    vals = (
        xlogy(np.broadcast_to(p_plus, pts.shape).copy(), p_plus / safe_mix).sum(axis=1)
        + xlogy(pts, pts / safe_mix).sum(axis=1)
        + lam * xlogy(pts, np.where(pts > 0, pts, 1.0)).sum(axis=1)
    )
    best = int(np.argmin(vals))
    return pts[best], float(vals[best])


def test_solver_agrees_with_grid_search():
    p_plus = np.array([0.7, 0.2, 0.1])
    res = minimize_generator(p_plus, TheoryConfig(lam=0.1))
    grid_p, grid_obj = grid_search_objective(p_plus, 0.1, 0.01)
    assert res.objective <= grid_obj + 1e-12  # the continuous solver can only do better
    assert tv(res.p, grid_p) < 0.02


def test_residual_input_validation():
    with pytest.raises(ConfigError):
        fixed_point_residual([0.5, 0.5], [0.2, 0.3, 0.5], 0.0)
    with pytest.raises(ConfigError):
        fixed_point_residual([0.5, 0.5], [0.5, 0.5], -0.5)
