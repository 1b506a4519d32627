"""Tests for the adversarial re-weighting training loop."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advclf.adversarial
from advclf.adversarial import (
    TrainConfig,
    _gen_terms,
    _normalized_weights,
    batch_weight_entropy,
    discriminator_logits,
    discriminator_step,
    generator_batch_weights,
    generator_step,
    init_discriminator,
    init_generator,
    predict,
    pretrain_step,
    train,
)
from advclf.data import (
    LabeledDataset,
    SynthSpec,
    oversample_minority,
    synth_gaussian_imbalanced,
    undersample_majority,
)
from advclf.errors import ConfigError, DataError, TrainingError
from advclf.nn import (
    forward,
    softplus,
    stable_log_one_minus_sigmoid,
    stable_log_sigmoid,
)
from advclf.theory import minimize_generator

from helpers import (
    array_bits,
    best_response,
    finite_difference_grad,
    flatten_param_grads,
    grad_rel_error,
    per_net,
    stack_of,
    train_four_alone,
    warmup_only,
)


def linear_params(w, b):
    """Single identity layer with explicit weight matrix and bias vector."""
    return [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))]


def zeroed(params):
    return [(np.zeros_like(weight), np.zeros_like(bias)) for weight, bias in params]


def assert_params_equal(a, b, atol=0.0):
    assert len(a) == len(b)
    for (wa, ba), (wb, bb) in zip(a, b):
        np.testing.assert_allclose(wa, wb, atol=atol, rtol=0.0)
        np.testing.assert_allclose(ba, bb, atol=atol, rtol=0.0)


def max_param_diff(a, b):
    return max(
        max(np.max(np.abs(wa - wb)), np.max(np.abs(ba - bb)))
        for (wa, ba), (wb, bb) in zip(a, b)
    )


# --- configuration ---


def test_config_gamma_defaults_to_inverse_batch_size():
    cfg = TrainConfig(batch_size=64)
    assert cfg.gamma == pytest.approx(1.0 / 64.0)
    cfg = TrainConfig(batch_size=10, gamma=0.25)
    assert cfg.gamma == 0.25


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_size": 0},
        {"pretrain_iters": -1},
        {"train_iters": -2},
        {"eta_d": 0.0},
        {"eta_g": -0.1},
        {"gamma": -0.5},
        {"lam": -1.0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: TrainConfig(eta_d=NAN),
    lambda: TrainConfig(eta_g=INF),
    lambda: TrainConfig(gamma=NAN),
    lambda: TrainConfig(gamma=INF),
    lambda: TrainConfig(lam=NAN),
    lambda: TrainConfig(lam=INF),
    lambda: minimize_generator([0.5, 0.5], NAN),
    lambda: SynthSpec(n_total=100, imbalance_ratio=4.0, class_separation=NAN),
    lambda: SynthSpec(n_total=100, imbalance_ratio=4.0, class_separation=INF),
], ids=["train-eta_d-nan", "train-eta_g-inf", "train-gamma-nan", "train-gamma-inf", "train-lam-nan",
        "train-lam-inf", "theory-lam-nan",
        "synth-class_separation-nan", "synth-class_separation-inf"])
def test_float_settings_reject_nan_and_inf(make):
    """A library caller is not behind the CLI's finite_float converters; each float field checks itself."""
    with pytest.raises(ConfigError, match="finite"):
        make()


# --- generator weights ---


def test_zero_generator_gives_uniform_weights():
    gen = linear_params(np.zeros((3, 1)), np.zeros(1))
    batch = np.arange(12.0).reshape(4, 3)
    w, _ = generator_batch_weights(gen, batch)
    np.testing.assert_allclose(w, np.full(4, 0.25), atol=1e-15)


def test_known_raw_weights_normalize():
    # identity 1x1 net, inputs chosen so softplus gives raw weights 1 and 3
    gen = linear_params([[1.0]], [0.0])
    batch = np.array([[np.log(np.e - 1.0)], [np.log(np.exp(3.0) - 1.0)]])
    w, _ = generator_batch_weights(gen, batch)
    np.testing.assert_allclose(w, [0.25, 0.75], atol=1e-12)


def test_single_sample_weight_is_one():
    gen = linear_params([[2.0]], [-1.0])
    w, _ = generator_batch_weights(gen, np.array([[0.3]]))
    assert w.shape == (1,)
    assert w[0] == pytest.approx(1.0, abs=1e-15)


def test_degenerate_generator_raises():
    # softplus(-1000) underflows to exactly 0, so the batch total is 0
    gen = linear_params([[0.0]], [-1000.0])
    with pytest.raises(TrainingError, match="degenerate generator"):
        generator_batch_weights(gen, np.array([[1.0], [2.0]]))
    disc = linear_params([[1.0]], [0.0])
    with pytest.raises(TrainingError, match="degenerate generator"):
        generator_step(TrainConfig(batch_size=2), disc, gen, forward(gen, np.array([[1.0], [2.0]])))


def test_generator_batch_weights_validates_shape():
    gen = linear_params([[1.0]], [0.0])
    with pytest.raises(ConfigError):
        generator_batch_weights(gen, np.array([1.0, 2.0]))
    with pytest.raises(ConfigError):
        generator_batch_weights(gen, np.zeros((0, 1)))


def test_entropy_of_uniform_weights():
    assert batch_weight_entropy(np.full(8, 1.0 / 8.0)) == pytest.approx(np.log(8.0), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_features=st.integers(1, 4),
    m=st.integers(1, 8),
)
def test_weights_are_a_distribution(seed, n_features, m):
    """Any finite generator yields positive weights summing to one, with entropy <= log m."""
    rng = np.random.default_rng(seed)
    gen = init_generator(n_features, hidden=(3,), rng=rng)
    batch = rng.standard_normal((m, n_features))
    w, _ = generator_batch_weights(gen, batch)
    assert w.shape == (m,)
    assert np.all(w > 0)
    assert float(w.sum()) == pytest.approx(1.0, abs=1e-9)
    assert batch_weight_entropy(w) <= np.log(m) + 1e-9


# --- discriminator updates ---


def test_gamma_zero_ignores_negatives():
    rng = np.random.default_rng(5)
    disc = init_discriminator(2, rng)
    gen = linear_params(np.zeros((2, 1)), np.zeros(1))
    cfg = TrainConfig(batch_size=3, gamma=0.0, eta_d=0.1)
    pos = rng.standard_normal((3, 2))
    neg1 = rng.standard_normal((3, 2))
    neg2 = rng.standard_normal((3, 2)) + 7.0
    # the step updates its model in place, so each starts from its own copy
    d1, _ = discriminator_step(cfg, copy.deepcopy(disc), pos, neg1, generator_batch_weights(gen, neg1)[0])
    d2, _ = discriminator_step(cfg, copy.deepcopy(disc), pos, neg2, generator_batch_weights(gen, neg2)[0])
    assert max_param_diff(d1, disc) > 0.0
    assert_params_equal(d1, d2)


def test_reduction_identity_matches_pretrain():
    # gamma = 1/m with uniform generator weights must reproduce a warm-up step
    m = 4
    rng = np.random.default_rng(11)
    disc = init_discriminator(3, rng)
    gen = zeroed(init_generator(3, (5,), rng))
    pos = rng.standard_normal((m, 3))
    neg = rng.standard_normal((m, 3))
    cfg = TrainConfig(batch_size=m, gamma=1.0 / m, lam=0.0, eta_d=0.2)
    w, _ = generator_batch_weights(gen, neg)
    d_adv, loss_adv = discriminator_step(cfg, copy.deepcopy(disc), pos, neg, w)
    d_pre, loss_pre = pretrain_step(copy.deepcopy(disc), pos, neg, cfg.eta_d)
    assert max_param_diff(d_pre, disc) > 0.0
    assert max_param_diff(d_adv, d_pre) <= 1e-12
    assert abs(loss_adv - loss_pre) <= 1e-12


def test_disc_step_recovers_gradient():
    """(theta_new - theta_old) / eta matches the finite-difference gradient of the ascent objective."""
    rng = np.random.default_rng(42)
    m = 6
    disc = init_discriminator(3, rng)
    gen = init_generator(3, (4,), rng)
    pos = rng.standard_normal((m, 3))
    neg = rng.standard_normal((m, 3))
    cfg = TrainConfig(batch_size=m, gamma=0.07, eta_d=0.7)
    w, _ = generator_batch_weights(gen, neg)
    coeff = cfg.gamma * m * w

    def objective(stack):
        s_pos = forward(stack, per_net(stack, pos))[-1][..., 0]
        s_neg = forward(stack, per_net(stack, neg))[-1][..., 0]
        return np.mean(stable_log_sigmoid(s_pos), axis=-1) + np.sum(
            coeff * stable_log_one_minus_sigmoid(s_neg), axis=-1
        )

    new_disc, _ = discriminator_step(cfg, copy.deepcopy(disc), pos, neg, w)
    assert max_param_diff(new_disc, disc) > 0.0
    analytic = [
        ((w_new - w_old) / cfg.eta_d, (b_new - b_old) / cfg.eta_d)
        for (w_old, b_old), (w_new, b_new) in zip(disc, new_disc)
    ]
    numeric = finite_difference_grad(objective, disc)
    assert grad_rel_error(flatten_param_grads(analytic), flatten_param_grads(numeric)) < 1e-6


def test_gen_step_recovers_gradient():
    """Generator descent direction matches the finite-difference gradient, normalization included."""
    rng = np.random.default_rng(43)
    m = 5
    disc = init_discriminator(2, rng)
    gen = init_generator(2, (3,), rng)
    neg = rng.standard_normal((m, 2))
    cfg = TrainConfig(batch_size=m, lam=0.3, eta_g=0.5)
    log_one_minus_d = stable_log_one_minus_sigmoid(discriminator_logits(disc, neg))

    def objective(stack):
        raw = softplus(forward(stack, per_net(stack, neg))[-1][..., 0])
        w = raw / raw.sum(axis=-1, keepdims=True)
        return np.sum(w * log_one_minus_d, axis=-1) + cfg.lam * np.sum(w * np.log(w), axis=-1)

    new_gen, _ = generator_step(cfg, disc, copy.deepcopy(gen), forward(gen, neg))
    assert max_param_diff(new_gen, gen) > 0.0
    analytic = [
        ((w_old - w_new) / cfg.eta_g, (b_old - b_new) / cfg.eta_g)
        for (w_old, b_old), (w_new, b_new) in zip(gen, new_gen)
    ]
    numeric = finite_difference_grad(objective, gen)
    assert grad_rel_error(flatten_param_grads(analytic), flatten_param_grads(numeric)) < 1e-6


def bits(params):
    return [a.view(np.uint64).copy() for layer in params for a in layer]


@pytest.mark.parametrize("cause", ["gradient", "loss"])
@pytest.mark.parametrize("step", ["pretrain", "discriminator", "generator"])
def test_step_that_raises_leaves_its_model_unchanged(step, cause, monkeypatch):
    """Each step checks its loss and every gradient before it updates its model in place."""
    rng = np.random.default_rng(7)
    disc = init_discriminator(2, rng)
    gen = init_generator(2, (3,), rng)
    pos = rng.standard_normal((4, 2))
    neg = rng.standard_normal((4, 2))
    cfg = TrainConfig(batch_size=4, eta_d=0.1, eta_g=0.1)
    if cause == "loss":
        # finite weights whose logit on neg[0] overflows: log(1 - D) is -inf there
        disc = linear_params([[1e308], [0.0]], [0.0])
        neg[0] = [10.0, 0.0]
    else:
        real_backward = advclf.adversarial.backward

        def backward_with_inf(params, acts, delta):
            grads, input_grad = real_backward(params, acts, delta)
            grads[-1][1][0] = np.inf  # the last array a layer-by-layer update would reach
            return grads, input_grad

        monkeypatch.setattr(advclf.adversarial, "backward", backward_with_inf)
    model = gen if step == "generator" else disc
    before = bits(model)
    with pytest.raises(TrainingError, match="non-finite"), np.errstate(over="ignore"):
        if step == "pretrain":
            pretrain_step(disc, pos, neg, cfg.eta_d)
        elif step == "discriminator":
            discriminator_step(cfg, disc, pos, neg, generator_batch_weights(gen, neg)[0])
        else:
            generator_step(cfg, disc, gen, forward(gen, neg))
    for got, old in zip(bits(model), before, strict=True):
        np.testing.assert_array_equal(got, old)


# --- generator dynamics ---


def test_generator_upweights_confident_false_positives():
    # D(x1) ~ 0.9, D(x2) ~ 0.1: with lam = 0 the weight must shift toward x1,
    # the negative the discriminator is most wrong about.
    disc = linear_params([[2.197224577]], [0.0])
    gen = linear_params([[0.0]], [0.0])
    neg = np.array([[1.0], [-1.0]])
    before, acts = generator_batch_weights(gen, neg)
    np.testing.assert_allclose(before, [0.5, 0.5])
    cfg = TrainConfig(batch_size=2, lam=0.0, eta_g=0.5)
    gen2, _ = generator_step(cfg, disc, gen, acts)
    after, _ = generator_batch_weights(gen2, neg)
    assert after[0] > 0.5 + 1e-6
    assert after[1] < 0.5 - 1e-6


def test_large_lambda_pushes_weights_toward_uniform():
    # flat discriminator, so only the entropy term drives the generator
    disc = linear_params([[0.0]], [0.0])
    gen = linear_params([[1.0]], [0.0])
    neg = np.array([[np.log(np.e - 1.0)], [np.log(np.exp(3.0) - 1.0)]])
    w0, _ = generator_batch_weights(gen, neg)
    np.testing.assert_allclose(w0, [0.25, 0.75], atol=1e-12)
    cfg = TrainConfig(batch_size=2, lam=5.0, eta_g=0.01)
    for _ in range(500):
        gen, _ = generator_step(cfg, disc, gen, forward(gen, neg))
    w, _ = generator_batch_weights(gen, neg)
    assert batch_weight_entropy(w) > batch_weight_entropy(w0)
    assert abs(w[0] - 0.5) < 0.05


@settings(max_examples=200, deadline=None)
@given(
    draws=st.integers(1, 32).flatmap(lambda m: st.tuples(
        st.lists(st.floats(-20.0, 0.0), min_size=m, max_size=m),
        st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m),
    )),
    lam=st.floats(1e-3, 10.0),
    scale=st.floats(0.1, 100.0),
)
def test_generator_loss_exceeds_its_best_response_by_lambda_kl(draws, lam, scale):
    """_gen_terms against the closed-form best response w* proportional to exp(-a / lam), a = log(1 - D).

    Its loss minus the minimum is lam * KL(w || w*), never negative, and its
    gradient vanishes at raw outputs t whose softplus is scale * w*. a / lam
    stays in [-20, 0], so that w* is representable.
    """
    a_over_lam, t = map(np.array, draws)
    a = lam * a_over_lam
    w_star, log_w_star, minimum = best_response(a, lam)
    tol = 1e-12 * (lam + abs(minimum))
    loss, _ = _gen_terms(t, a, lam)
    w = _normalized_weights(t)[0]
    gap = loss - minimum
    assert gap >= -tol
    assert abs(gap - lam * float(np.sum(w * (np.log(w) - log_w_star)))) <= tol
    _, grad = _gen_terms(np.log(np.expm1(scale * w_star)), a, lam)
    # the gradient is sigmoid(t) * (score - its w-mean) / scale, where score = a + lam * (1 + log w)
    score = np.max(np.abs(a) + lam * (1.0 + np.abs(log_w_star)))
    assert np.max(np.abs(grad)) <= 1e-12 * score / scale


# --- training loops ---


def small_data(seed=0, n=400, sep=3.0):
    return synth_gaussian_imbalanced(
        SynthSpec(n_total=n, imbalance_ratio=4.0, dim=2, class_separation=sep, seed=seed)
    )


def test_pretrain_requires_both_classes():
    data = LabeledDataset(np.zeros((4, 2)), np.zeros(4, dtype=np.int64))
    with pytest.raises(DataError, match="both classes"):
        train(TrainConfig(), data, gen_spec=(8,))


def test_train_is_deterministic():
    data = small_data()
    cfg = TrainConfig(batch_size=16, pretrain_iters=20, train_iters=15, seed=9)
    d1, g1, t1, _ = train(cfg, data, gen_spec=(8,))
    d2, g2, t2, _ = train(cfg, data, gen_spec=(8,))
    assert_params_equal(d1, d2)
    assert_params_equal(g1, g2)
    assert t1.d_loss == t2.d_loss
    assert t1.g_loss == t2.g_loss
    assert t1.weight_entropy == t2.weight_entropy


def test_train_zero_iters_matches_pretrain_only_baseline():
    data = small_data(seed=2)
    cfg = TrainConfig(batch_size=16, pretrain_iters=30, train_iters=0, seed=4)
    disc_adv, _, trace_adv, _ = train(cfg, data, gen_spec=(64, 32, 32))
    # the generator draws its init from its own stream, so its widths cannot move the discriminator
    disc_base, _, trace_base, _ = train(warmup_only(cfg), data, gen_spec=(3,))
    assert_params_equal(disc_adv, disc_base)
    assert trace_adv.pretrain_d_loss == trace_base.pretrain_d_loss


def test_train_zero_iters_leaves_generator_at_init():
    data = small_data(seed=3)
    cfg = TrainConfig(batch_size=8, pretrain_iters=5, train_iters=0, seed=21)
    _, gen, _, _ = train(cfg, data, gen_spec=(6, 4))
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    expected = init_generator(data.n_features, (6, 4), np.random.default_rng(seeds[1]))
    assert_params_equal(gen, expected)


def test_baseline_pairs_with_adversarial_warmup():
    """The warm-up segment of the baseline replays the adversarial run's warm-up batches."""
    data = small_data(seed=6)
    cfg = TrainConfig(batch_size=16, pretrain_iters=25, train_iters=10, seed=13)
    _, _, trace_adv, _ = train(cfg, data, gen_spec=(64, 32, 32))
    _, _, trace_base, _ = train(warmup_only(cfg), data, gen_spec=(64, 32, 32))
    assert len(trace_base.pretrain_d_loss) == cfg.pretrain_iters + cfg.train_iters
    assert trace_base.pretrain_d_loss[: cfg.pretrain_iters] == trace_adv.pretrain_d_loss


def test_trace_lengths_and_checkpoints():
    data = small_data(seed=1)
    cfg = TrainConfig(batch_size=8, pretrain_iters=7, train_iters=5, seed=0)
    seen = []

    def snap(iteration, disc):
        seen.append(iteration)
        return iteration

    _, _, trace, _ = train(cfg, data, (64, 32, 32), checkpoint=(2, snap))
    assert len(trace.pretrain_d_loss) == 7
    assert len(trace.d_loss) == len(trace.g_loss) == 5
    assert len(trace.weight_entropy) == len(trace.weight_min) == len(trace.weight_max) == 5
    assert seen == [2, 4]
    assert trace.checkpoints == [2, 4]
    with pytest.raises(ConfigError, match="checkpoint interval"):
        train(cfg, data, (64, 32, 32), checkpoint=(0, snap))


def test_trace_entropy_bounds():
    data = small_data(seed=8)
    m = 16
    cfg = TrainConfig(batch_size=m, pretrain_iters=10, train_iters=40, seed=5, lam=0.1)
    _, _, trace, _ = train(cfg, data, gen_spec=(8,))
    ent = np.array(trace.weight_entropy)
    assert np.all(ent > 0.0)
    assert np.all(ent <= np.log(m) + 1e-9)
    assert np.all(np.array(trace.weight_min) > 0.0)
    assert np.all(np.array(trace.weight_max) < 1.0)


def test_pretrain_separates_easy_data():
    data = small_data(seed=7, n=500, sep=6.0)
    cfg = TrainConfig(batch_size=32, pretrain_iters=300, eta_d=0.5, train_iters=0, seed=2)
    disc, _, _, _ = train(cfg, data, gen_spec=(8,))
    acc = float(np.mean((predict(disc, data.features) >= 0.5) == data.labels))
    assert acc >= 0.95


def test_single_pair_sign():
    # one positive at +1, one negative at -1: the logit must order them
    data = LabeledDataset(np.array([[1.0], [-1.0]]), np.array([1, 0], dtype=np.int64))
    cfg = TrainConfig(batch_size=2, pretrain_iters=100, eta_d=1.0, train_iters=0, seed=0)
    disc, _, _, _ = train(cfg, data, gen_spec=(8,))
    p = predict(disc, data.features)
    assert p[0] > 0.5 > p[1]
    assert (predict(disc, data.features) >= 0.5).tolist() == [True, False]


# --- the adversarial run and its baselines as one stack ---


def net_bits(params):
    return array_bits(*(a for layer in params for a in layer))


def trace_lists(trace):
    return (trace.pretrain_d_loss, trace.d_loss, trace.g_loss, trace.weight_entropy,
            trace.weight_min, trace.weight_max, trace.checkpoints)


def baseline_rows(data, seed):
    """All rows, the CLI's two resampled row sets and a subsample: four different class counts."""
    rng = np.random.default_rng(seed)
    return [
        np.arange(data.n),
        undersample_majority(data.labels, rng),
        oversample_minority(data.labels, rng),
        np.sort(rng.choice(data.n, size=data.n // 3, replace=False)),
    ]


@pytest.mark.parametrize(
    "seed, batch_size, dim, gen_spec, n_baselines, pretrain_iters, train_iters",
    [
        pytest.param(41, 16, 2, (8,), 3, 11, 17, id="41-16-2-gen_spec0-3"),
        pytest.param(57, 1, 3, (6, 4), 4, 11, 17, id="57-1-3-gen_spec1-4"),
        pytest.param(68, 7, 5, (64, 32, 32), 2, 11, 17, id="68-7-5-gen_spec2-2"),
        pytest.param(93, 32, 1, (3,), 0, 11, 17, id="93-32-1-gen_spec3-0"),
        pytest.param(3301, 8, 2, (5,), 2, 0, 17, id="3301-fork-before-the-first-step"),
        pytest.param(5077, 4, 3, (8,), 3, 11, 0, id="5077-fork-after-the-last-step"),
    ],
)
def test_stacked_train_matches_lone_runs(seed, batch_size, dim, gen_spec, n_baselines, pretrain_iters,
                                         train_iters):
    """Every discriminator of the stack, the generator and the trace equal the separate runs bit for bit.

    The pretraining-only baseline forks from the adversarial discriminator
    when the warm-up ends; the last two cases have no warm-up steps and no
    adversarial steps.
    """
    data = synth_gaussian_imbalanced(
        SynthSpec(n_total=240, imbalance_ratio=5.0, dim=dim, class_separation=1.5, seed=seed)
    )
    baselines = baseline_rows(data, seed)[:n_baselines]
    cfg = TrainConfig(batch_size=batch_size, pretrain_iters=pretrain_iters, train_iters=train_iters,
                      eta_d=0.3, seed=seed)

    def snap(iteration, disc):
        return iteration, net_bits(disc)

    disc, gen, trace, base_discs = train(cfg, data, gen_spec, checkpoint=(4, snap), baselines=baselines)
    o_disc, o_gen, o_trace, o_base = train_four_alone(cfg, data, gen_spec, baselines, checkpoint=(4, snap))
    assert len(base_discs) == 1 + n_baselines
    for got, want in zip([disc, gen, *base_discs], [o_disc, o_gen, *o_base], strict=True):
        assert net_bits(got) == net_bits(want)
    assert trace_lists(trace) == trace_lists(o_trace)
    assert len(trace.checkpoints) == train_iters // 4 and len(trace.d_loss) == train_iters


def test_train_on_rows_of_a_table_matches_lone_runs_and_shares_equal_draws(monkeypatch):
    """Rows of one table, as advclf train passes them, give the lone runs on copies of those rows.

    The pretraining-only baseline takes model 0's draws: three row sets among
    four models make six index draws per step, not eight.
    """
    table = synth_gaussian_imbalanced(SynthSpec(n_total=300, imbalance_ratio=4.0, dim=3, seed=4099))
    rng = np.random.default_rng(4099)
    rows = rng.permutation(table.n)[:180]  # unordered rows of the table, as a split returns them
    part = LabeledDataset(table.features[rows], table.labels[rows])
    positions = [undersample_majority(part.labels, rng), oversample_minority(part.labels, rng)]
    cfg = TrainConfig(batch_size=8, pretrain_iters=6, train_iters=9, eta_d=0.3, seed=4099)
    draws = []

    class CountingGenerator:
        def __init__(self, seed):
            self.rng = np.random.Generator(np.random.PCG64(seed))

        def integers(self, *args, **kwargs):
            draws.append(args)
            return self.rng.integers(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    with monkeypatch.context() as patch:
        patch.setattr(advclf.adversarial.np.random, "default_rng", CountingGenerator)
        baselines = [rows[p] for p in positions]
        disc, gen, trace, base_discs = train(cfg, table, (5,), baselines=baselines, rows=rows)
    o_disc, o_gen, o_trace, o_base = train_four_alone(cfg, part, (5,), positions)
    for got, want in zip([disc, gen, *base_discs], [o_disc, o_gen, *o_base], strict=True):
        assert net_bits(got) == net_bits(want)
    assert trace_lists(trace) == trace_lists(o_trace)
    assert len(draws) == 6 * (cfg.pretrain_iters + cfg.train_iters)


def test_baseline_without_a_class_fails_before_any_step(monkeypatch):
    data = small_data(seed=4)
    one_class = np.flatnonzero(data.labels == 0)

    def no_step(*args):
        raise AssertionError("a model stepped")

    monkeypatch.setattr(advclf.adversarial, "_disc_update", no_step)
    with pytest.raises(DataError, match="both classes"):
        train(TrainConfig(batch_size=8, seed=47), data, (8,), baselines=[np.arange(data.n), one_class])


@pytest.mark.parametrize("failing", [0, 2, 3])
@pytest.mark.parametrize("cause", ["gradient", "loss"])
@pytest.mark.parametrize("step", ["pretrain", "discriminator"])
def test_stacked_step_that_raises_leaves_every_model_unchanged(step, cause, failing, monkeypatch):
    """A non-finite loss or gradient of one model stops the step before any of the four changes."""
    rng = np.random.default_rng(59)
    nets = [init_discriminator(2, rng) for _ in range(4)]
    gen = init_generator(2, (3,), rng)
    pos = rng.standard_normal((4, 6, 2))
    neg = rng.standard_normal((4, 6, 2))
    cfg = TrainConfig(batch_size=6, eta_d=0.1)
    if cause == "loss":
        # finite weights whose logit on one negative overflows: log(1 - D) is -inf there
        nets[failing] = linear_params([[1e308], [0.0]], [0.0])
        neg[failing, 0] = [10.0, 0.0]
    else:
        real_backward = advclf.adversarial.backward

        def backward_with_inf(params, acts, delta):
            grads, input_grad = real_backward(params, acts, delta)
            grads[-1][1][failing] = np.inf  # one model's bias, the last array an update would reach
            return grads, input_grad

        monkeypatch.setattr(advclf.adversarial, "backward", backward_with_inf)
    stack = stack_of(nets)
    before = bits(stack)
    with pytest.raises(TrainingError, match="non-finite"), np.errstate(over="ignore"):
        if step == "pretrain":
            pretrain_step(stack, pos, neg, cfg.eta_d)
        else:
            discriminator_step(cfg, stack, pos, neg, generator_batch_weights(gen, neg[0])[0])
    for got, old in zip(bits(stack), before, strict=True):
        assert np.array_equal(got, old)


def test_stacked_steps_match_lone_steps():
    """pretrain_step and discriminator_step on a stack equal each model's lone step bit for bit."""
    rng = np.random.default_rng(71)
    nets = [init_discriminator(3, rng) for _ in range(4)]
    gen = init_generator(3, (5,), rng)
    pos = rng.standard_normal((4, 9, 3))
    neg = rng.standard_normal((4, 9, 3))
    cfg = TrainConfig(batch_size=9, gamma=0.3, eta_d=0.4)
    w, _ = generator_batch_weights(gen, neg[0])
    stack, losses = discriminator_step(cfg, stack_of(nets), pos, neg, w)
    lone = [discriminator_step(cfg, copy.deepcopy(nets[0]), pos[0], neg[0], w)]
    for net, p, n in zip(nets[1:], pos[1:], neg[1:]):
        lone.append(pretrain_step(copy.deepcopy(net), p, n, cfg.eta_d))
    assert losses == [loss for _, loss in lone]
    assert net_bits(stack) == net_bits(stack_of([net for net, _ in lone]))
    stack, losses = pretrain_step(stack, pos, neg, cfg.eta_d)
    lone = [pretrain_step(net, p, n, cfg.eta_d) for (net, _), p, n in zip(lone, pos, neg)]
    assert losses == [loss for _, loss in lone]
    assert net_bits(stack) == net_bits(stack_of([net for net, _ in lone]))
