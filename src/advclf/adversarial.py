"""Adversarially re-weighted discriminator training for imbalanced data.

A generator network assigns each majority-class (negative) sample a positive
weight, normalized to a distribution within every mini-batch. The
discriminator first warms up on uniformly weighted batches, then trains by
gradient ascent against the re-weighted negatives while the generator
descends on the opposite objective plus an entropy penalty that keeps the
weights from collapsing onto a few samples. The discriminator is the final
classifier.

Update rules, per mini-batch of m positives and m negatives with normalized
weights w (sum 1) and logits s:

  warm-up D ascent:      mean(log sig(s_pos)) + mean(log (1 - sig(s_neg)))
  adversarial D ascent:  mean(log sig(s_pos)) + gamma * m * sum(w * log(1 - sig(s_neg)))
  G descent:             sum(w * log(1 - sig(s_neg))) + lam * sum(w * log w)

The negative coefficient gamma * m * w_i reads the weights relative to
uniform, so gamma = 1/m with uniform weights reproduces a warm-up step
exactly. All log terms route through the softplus forms on logits, never
through probabilities. The objective lives once, in score space (_disc_terms,
_normalized_weights, _gen_terms); graph.py reuses it with its own forward and
backward passes.

Both models are advclf.nn nets, lists of (weight, bias) pairs: a logistic
discriminator (one linear unit) and a generator whose raw sample weight is
softplus of its one output. Each step updates its model in place and
returns it with the loss; on a non-finite loss or gradient it raises
TrainingError before changing anything.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, TrainingError
from .nn import (
    backward,
    forward,
    init_mlp,
    sgd_step,
    sigmoid,
    softplus,
    stable_log_one_minus_sigmoid,
    stable_log_sigmoid,
)


@dataclass
class TrainConfig:
    """Settings for the warm-up and adversarial loops.

    gamma scales the re-weighted negative term of the discriminator update;
    None resolves to 1/batch_size, which balances it against the positive
    average. lam scales the generator entropy penalty.
    """

    batch_size: int = 64
    pretrain_iters: int = 200
    train_iters: int = 500
    eta_d: float = 0.05
    eta_g: float = 0.05
    gamma: float | None = None
    lam: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.pretrain_iters < 0 or self.train_iters < 0:
            raise ConfigError("iteration counts must be >= 0")
        if not (0.0 < self.eta_d < math.inf and 0.0 < self.eta_g < math.inf):
            raise ConfigError("learning rates must be finite and positive")
        if self.gamma is None:
            self.gamma = 1.0 / self.batch_size
        if not 0.0 <= self.gamma < math.inf:
            raise ConfigError("gamma must be finite and >= 0")
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError("lam must be finite and >= 0")


@dataclass
class TrainTrace:
    pretrain_d_loss: list = field(default_factory=list)
    d_loss: list = field(default_factory=list)
    g_loss: list = field(default_factory=list)
    weight_entropy: list = field(default_factory=list)
    weight_min: list = field(default_factory=list)
    weight_max: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)

    def record(self, d_loss, g_loss, w):
        """Append one adversarial iteration's losses and weight statistics."""
        self.d_loss.append(d_loss)
        self.g_loss.append(g_loss)
        self.weight_entropy.append(batch_weight_entropy(w))
        self.weight_min.append(float(w.min()))
        self.weight_max.append(float(w.max()))


def init_discriminator(n_features, rng):
    return init_mlp((n_features, 1), rng)


def init_generator(n_features, hidden, rng):
    return init_mlp((n_features, *hidden, 1), rng)


def discriminator_logits(disc, x):
    return forward(disc, x)[-1][:, 0]


def predict(disc, x):
    """P(label 1 | x) for each row of x."""
    return sigmoid(discriminator_logits(disc, x))


def _normalized_weights(t):
    """softplus(t) / its sum, and that sum, from raw generator outputs t."""
    raw = softplus(t)
    total = raw.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise TrainingError("degenerate generator: raw batch weights underflowed to zero")
    return raw / total, total


def generator_batch_weights(gen, negatives):
    """Per-sample weights normalized to sum to 1 over the batch, and the generator's activations.

    generator_step takes the activations, so one forward serves an iteration.
    """
    negatives = np.asarray(negatives, dtype=np.float64)
    if negatives.ndim != 2 or negatives.shape[0] == 0:
        raise ConfigError("negatives must be a nonempty 2-d batch")
    acts = forward(gen, negatives)
    return _normalized_weights(acts[-1][:, 0])[0], acts


def batch_weight_entropy(weights):
    w = np.asarray(weights, dtype=np.float64)
    return float(-np.sum(w * np.log(w)))


def _disc_terms(s_pos, s_neg, coeff):
    """mean(log D(pos)) + sum(coeff * log(1 - D(neg))) and its gradients in the logits.

    coeff is held constant, so nothing differentiates through the generator.
    """
    loss = float(np.mean(stable_log_sigmoid(s_pos)) + np.sum(coeff * stable_log_one_minus_sigmoid(s_neg)))
    if not np.isfinite(loss):
        raise TrainingError("non-finite discriminator loss")
    return loss, (1.0 - sigmoid(s_pos)) / len(s_pos), -coeff * sigmoid(s_neg)


def _gen_terms(t, log1m_d, lam):
    """The G loss on w = _normalized_weights(t) and its gradient in t, with D held constant."""
    w, total = _normalized_weights(t)
    log_w = np.log(w)
    loss = float(np.sum(w * log1m_d) + lam * np.sum(w * log_w))
    if not np.isfinite(loss):
        raise TrainingError("non-finite generator loss")
    # d loss / d raw_i: centered per-sample score divided by the batch total;
    # the centering is exactly the normalization coupling.
    score = log1m_d + lam * (1.0 + log_w)
    centered = score - np.sum(w * score)
    return loss, sigmoid(t) * centered / total


def _disc_update(params, pos_batch, neg_batch, neg_coeff, eta_d):
    """One ascent step of _disc_terms through the MLP, in place."""
    acts_pos = forward(params, pos_batch)
    acts_neg = forward(params, neg_batch)
    loss, g_pos, g_neg = _disc_terms(acts_pos[-1][:, 0], acts_neg[-1][:, 0], neg_coeff)
    grads_pos, _ = backward(params, acts_pos, g_pos[:, None])
    grads_neg, _ = backward(params, acts_neg, g_neg[:, None])
    grads = [(gw_p + gw_n, gb_p + gb_n) for (gw_p, gb_p), (gw_n, gb_n) in zip(grads_pos, grads_neg)]
    return sgd_step(params, grads, eta_d), loss


def pretrain_step(disc, pos_batch, neg_batch, eta_d):
    """Uniformly weighted warm-up update: both terms are plain batch means."""
    coeff = np.full(len(neg_batch), 1.0 / len(neg_batch))
    return _disc_update(disc, pos_batch, neg_batch, coeff, eta_d)


def discriminator_step(config, disc, pos_batch, neg_batch, weights):
    """One ascent step of the re-weighted objective.

    The negative coefficient is gamma * m * w_i with w the batch-normalized
    generator weights, so gamma = 1/m and uniform weights reduce exactly to
    pretrain_step on the same batches.
    """
    coeff = config.gamma * len(neg_batch) * np.asarray(weights, dtype=np.float64)
    return _disc_update(disc, pos_batch, neg_batch, coeff, config.eta_d)


def generator_step(config, disc, gen, acts):
    """One descent step of _gen_terms: sum(w * log(1 - D)) + lam * sum(w * log w).

    acts is gen's forward on the negatives, as generator_batch_weights
    returns it; the negatives are acts[0].
    """
    log_one_minus_d = stable_log_one_minus_sigmoid(discriminator_logits(disc, acts[0]))
    loss, out_grad = _gen_terms(acts[-1][:, 0], log_one_minus_d, config.lam)
    grads, _ = backward(gen, acts, out_grad[:, None])
    return sgd_step(gen, grads, -config.eta_g), loss


def pretrain_discriminator(config, data, disc, rng):
    """Run the warm-up loop for config.pretrain_iters uniform batches."""
    x_pos = data.pos_features()
    x_neg = data.neg_features()
    if len(x_pos) == 0 or len(x_neg) == 0:
        raise DataError("training data must contain both classes")
    trace = TrainTrace()
    m = config.batch_size
    for i in range(config.pretrain_iters):
        pos = x_pos[rng.integers(0, len(x_pos), size=m)]
        neg = x_neg[rng.integers(0, len(x_neg), size=m)]
        try:
            disc, loss = pretrain_step(disc, pos, neg, config.eta_d)
        except TrainingError as exc:
            raise TrainingError(f"pretraining iteration {i}: {exc}") from exc
        trace.pretrain_d_loss.append(loss)
    return disc, trace


def train(config, data, gen_spec, checkpoint=None):
    """Warm-up followed by alternating discriminator/generator updates.

    gen_spec holds the generator's hidden-layer widths; the discriminator is
    logistic. Batches are uniform with replacement; iteration counts are fixed,
    there is no early stopping. All randomness derives from config.seed.
    checkpoint is None or a pair (every, fn): after adversarial iteration i,
    for i a multiple of every, fn(i, disc) goes to trace.checkpoints.
    Returns (disc, gen, trace).
    """
    every, checkpoint_fn = checkpoint or (1, None)
    if every < 1:
        raise ConfigError(f"checkpoint interval must be >= 1, got {every}")
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    rng_init_d = np.random.default_rng(seeds[0])
    rng_init_g = np.random.default_rng(seeds[1])
    rng_batches = np.random.default_rng(seeds[2])
    disc = init_discriminator(data.n_features, rng_init_d)
    gen = init_generator(data.n_features, gen_spec, rng_init_g)
    disc, trace = pretrain_discriminator(config, data, disc, rng_batches)
    x_pos = data.pos_features()
    x_neg = data.neg_features()
    m = config.batch_size
    for i in range(config.train_iters):
        pos = x_pos[rng_batches.integers(0, len(x_pos), size=m)]
        neg = x_neg[rng_batches.integers(0, len(x_neg), size=m)]
        try:
            w, gen_acts = generator_batch_weights(gen, neg)
            disc, d_loss = discriminator_step(config, disc, pos, neg, w)
            gen, g_loss = generator_step(config, disc, gen, gen_acts)
        except TrainingError as exc:
            raise TrainingError(f"adversarial iteration {i}: {exc}") from exc
        trace.record(d_loss, g_loss, w)
        if checkpoint_fn is not None and (i + 1) % every == 0:
            trace.checkpoints.append(checkpoint_fn(i + 1, disc))
    return disc, gen, trace

