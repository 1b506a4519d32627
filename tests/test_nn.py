import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advclf.errors import ConfigError, TrainingError
from advclf.nn import (
    backward,
    clone_params,
    finite_difference_grad,
    forward,
    init_mlp,
    sgd_step,
    sigmoid,
    softplus,
    stable_log_one_minus_sigmoid,
    stable_log_sigmoid,
)
from helpers import check_backward_vs_fd, sigmoid_two_branch


def tiny_net():
    # 2 -> 1 sigmoid, then 1 -> 1 identity, weights chosen for hand computation
    return [
        (np.array([[1.0], [2.0]]), np.array([-0.5])),
        (np.array([[1.0]]), np.array([0.25])),
    ]


def test_forward_hand_computed():
    acts = forward(tiny_net(), np.array([[1.0, 0.5]]))
    hidden = 1.0 / (1.0 + np.exp(-1.5))
    assert acts[1][0, 0] == pytest.approx(hidden, abs=1e-15)
    assert acts[2][0, 0] == pytest.approx(hidden + 0.25, abs=1e-15)


def test_forward_rejects_wrong_input_dim():
    with pytest.raises(ConfigError):
        forward(tiny_net(), np.ones((3, 5)))


def test_finite_difference_on_quadratic():
    # loss = w^2 at w=3 has gradient 6; the oracle itself must be right
    params = [(np.array([[3.0]]), np.zeros(1))]
    grads = finite_difference_grad(lambda p: float(p[0][0][0, 0] ** 2), params)
    assert grads[0][0][0, 0] == pytest.approx(6.0, abs=1e-8)
    assert grads[0][1][0] == 0.0


# ids name the hidden activation; a one-layer net is linear
@pytest.mark.parametrize("dims", [
    pytest.param((3, 1), id="dims0-identity"),
    pytest.param((4, 8, 1), id="dims1-sigmoid"),
    pytest.param((2, 6, 4, 1), id="dims2-sigmoid"),
    pytest.param((5, 10, 8, 6, 1), id="dims3-sigmoid"),
])
def test_backward_matches_finite_differences(dims):
    rng = np.random.default_rng(hash(dims) % 2**32)
    params = init_mlp(dims, rng)
    batch = rng.standard_normal((7, dims[0]))
    target = rng.standard_normal((7, dims[-1]))

    def loss_and_grads(p):
        acts = forward(p, batch)
        diff = acts[-1] - target
        grads, _ = backward(p, acts, 2.0 * diff)
        return float(np.sum(diff**2)), grads

    assert check_backward_vs_fd(params, loss_and_grads) < 1e-6


def test_backward_input_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    params = init_mlp((3, 5, 1), rng)
    batch = rng.standard_normal((4, 3))

    acts = forward(params, batch)
    _, input_grad = backward(params, acts, np.ones_like(acts[-1]))

    eps = 1e-6
    numeric = np.zeros_like(batch)
    for i in range(batch.shape[0]):
        for j in range(batch.shape[1]):
            hi = batch.copy()
            hi[i, j] += eps
            lo = batch.copy()
            lo[i, j] -= eps
            numeric[i, j] = (forward(params, hi)[-1].sum() - forward(params, lo)[-1].sum()) / (2 * eps)
    assert np.abs(input_grad - numeric).max() < 1e-7


def test_sgd_step_signed_rate_in_place():
    weight, bias = np.array([[1.0]]), np.array([2.0])
    params = [(weight, bias)]
    grads = [(np.array([[0.5]]), np.array([0.25]))]
    assert sgd_step(params, grads, 0.1) is params
    # the arrays themselves were updated, not replaced
    assert params[0][0] is weight and params[0][1] is bias
    assert weight[0, 0] == pytest.approx(1.05)
    assert bias[0] == pytest.approx(2.025)
    sgd_step(params, grads, -0.2)
    assert weight[0, 0] == pytest.approx(0.95)
    assert bias[0] == pytest.approx(1.975)


def test_sgd_step_validates():
    """A non-finite gradient in any layer, or a missing layer, raises before any layer changes."""
    params = init_mlp((2, 3, 1), np.random.default_rng(0))
    before = clone_params(params)
    grads = [(np.ones_like(weight), np.ones_like(bias)) for weight, bias in params]
    grads[-1][1][0] = np.nan
    with pytest.raises(TrainingError):
        sgd_step(params, grads, 0.1)
    with pytest.raises(ValueError):
        sgd_step(params, grads[:1], 0.1)
    for (weight, bias), (old_weight, old_bias) in zip(params, before):
        np.testing.assert_array_equal(weight, old_weight)
        np.testing.assert_array_equal(bias, old_bias)


def test_init_respects_glorot_bounds():
    rng = np.random.default_rng(0)
    params = init_mlp((100, 50, 1), rng)
    for weight, bias in params:
        limit = np.sqrt(6.0 / sum(weight.shape))
        assert np.abs(weight).max() <= limit
        assert np.all(bias == 0.0)


def test_init_mlp_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        init_mlp((5,), rng)
    with pytest.raises(ConfigError):
        init_mlp((5, 0, 1), rng)


def test_forward_is_bitwise_repeatable():
    rng = np.random.default_rng(5)
    params = init_mlp((4, 8, 1), rng)
    batch = rng.standard_normal((6, 4))
    a = forward(params, batch)[-1]
    b = forward(params, batch)[-1]
    assert np.array_equal(a, b)
    cloned = clone_params(params)
    assert np.array_equal(forward(cloned, batch)[-1], a)


def test_sigmoid_and_softplus_extremes():
    assert sigmoid(1000.0) == 1.0
    assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(softplus(1000.0))
    assert softplus(1000.0) == pytest.approx(1000.0)
    assert softplus(-745.0) >= 0.0
    assert np.isfinite(stable_log_sigmoid(-1000.0))
    assert stable_log_sigmoid(-1000.0) == pytest.approx(-1000.0)
    assert stable_log_one_minus_sigmoid(1000.0) == pytest.approx(-1000.0)


def test_sigmoid_bit_identical_to_two_branch_formula():
    special = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.float64(np.nan),
        745.0, -745.0, 710.0, -710.0,
    ])
    draws = np.random.default_rng(20).normal(scale=10.0, size=(1000, 37))
    for z in (special, draws, draws.T, special[4], special[1]):
        got = sigmoid(z)
        want = sigmoid_two_branch(z)
        assert got.shape == want.shape and got.dtype == np.float64
        # compare raw bits: distinguishes -0.0 from 0.0 and each NaN's sign
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-30.0, max_value=30.0))
def test_stable_log_identities(z):
    # log sigma(z) - log(1 - sigma(z)) telescopes back to z
    assert stable_log_sigmoid(z) - stable_log_one_minus_sigmoid(z) == pytest.approx(z, abs=1e-9)
    assert stable_log_sigmoid(z) == pytest.approx(np.log(sigmoid(z)), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-700.0, max_value=700.0))
def test_sigmoid_bounded_and_monotone_nearby(z):
    v = float(sigmoid(z))
    assert 0.0 <= v <= 1.0
    assert float(sigmoid(z + 1e-3)) >= v
