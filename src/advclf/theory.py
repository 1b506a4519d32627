"""Numerical checks of the re-weighting game on finite discrete supports.

For distributions p_plus (positives) and p (re-weighted negatives) over k
support points, the discriminating value

    V(d) = sum(p_plus * log d) + sum(p * log(1 - d))

is maximized pointwise by d* = p_plus / (p_plus + p), and substituting d*
leaves the cost the re-weighting distribution minimizes:

    J(p) = sum(p_plus * log(p_plus / (p_plus + p)))
         + sum(p * log(p / (p_plus + p)))
         + lam * sum(p * log p)

with the 0 * log 0 = 0 convention. J is convex on the simplex and is
minimized here by multiplicative-weight updates. The candidate stationarity
condition

    normalize(p^(lam + 1)) = (p + p_plus) / 2

is measured rather than assumed: fixed_point_residual reports its max-norm
gap, which collapses to p = p_plus when lam = 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def validate_distribution(p):
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ConfigError("distribution must be a nonempty 1-d array")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ConfigError("distribution entries must be finite and >= 0")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ConfigError(f"distribution must sum to 1, got {float(p.sum())!r}")
    return p


def _xlogy(x, y):
    """x * log(y) with 0 * log(0) = 0; x must be >= 0."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    out = np.zeros(x.shape)
    mask = x > 0
    out[mask] = x[mask] * np.log(y[mask])
    return out


def optimal_discriminator(p_plus, p_neg):
    """Pointwise maximizer p_plus / (p_plus + p_neg) of the value function."""
    p_plus = validate_distribution(p_plus)
    p_neg = validate_distribution(p_neg)
    if p_plus.shape != p_neg.shape:
        raise ConfigError("distributions must share a support")
    denom = p_plus + p_neg
    if np.any(denom == 0.0):
        raise ConfigError("support point with zero mass under both distributions")
    return p_plus / denom


def value_v(p_plus, p_neg, d):
    """sum(p_plus * log d) + sum(p_neg * log(1 - d)); raises where it would be -inf."""
    p_plus = validate_distribution(p_plus)
    p_neg = validate_distribution(p_neg)
    d = np.asarray(d, dtype=np.float64)
    if d.shape != p_plus.shape:
        raise ConfigError("d must match the support size")
    if np.any(d < 0.0) or np.any(d > 1.0):
        raise ConfigError("d entries must lie in [0, 1]")
    if np.any((d == 0.0) & (p_plus > 0.0)) or np.any((d == 1.0) & (p_neg > 0.0)):
        raise ConfigError("value is -inf: d hits 0 or 1 where the paired mass is positive")
    t_pos = float(np.sum(_xlogy(p_plus, np.where(d > 0.0, d, 1.0))))
    t_neg = float(np.sum(_xlogy(p_neg, np.where(d < 1.0, 1.0 - d, 1.0))))
    return t_pos + t_neg


def generator_objective(p, p_plus, lam):
    """Cost J(p) of the re-weighting distribution at the optimal discriminator."""
    p = validate_distribution(p)
    p_plus = validate_distribution(p_plus)
    if p.shape != p_plus.shape:
        raise ConfigError("distributions must share a support")
    if lam < 0:
        raise ConfigError("lam must be >= 0")
    mix = p_plus + p
    safe_mix = np.where(mix > 0.0, mix, 1.0)
    t1 = float(np.sum(_xlogy(p_plus, p_plus / safe_mix)))
    t2 = float(np.sum(_xlogy(p, p / safe_mix)))
    t3 = float(lam * np.sum(_xlogy(p, p)))
    return t1 + t2 + t3


def generator_objective_grad(p, p_plus, lam):
    """dJ/dp_i = log(p_i / (p_plus_i + p_i)) + lam * (1 + log p_i); needs p > 0."""
    p = validate_distribution(p)
    p_plus = validate_distribution(p_plus)
    if np.any(p <= 0):
        raise ConfigError("gradient needs strictly positive p")
    return np.log(p / (p_plus + p)) + lam * (1.0 + np.log(p))


@dataclass(frozen=True)
class TheoryConfig:
    lam: float = 0.0
    max_iters: int = 200_000
    tol: float = 1e-12

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError("lam must be finite and >= 0")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if not 0.0 < self.tol < math.inf:
            raise ConfigError("tol must be finite and positive")


@dataclass
class MinimizeResult:
    p: np.ndarray
    converged: bool
    iterations: int
    objective: float


def minimize_generator(p_plus, config):
    """Minimize generator_objective over the simplex from the uniform start.

    Multiplicative-weight updates p <- normalize(p * exp(-step * grad)), with
    the step starting at 1 each iteration and halved whenever a trial update
    would increase the objective, so the objective is non-increasing along
    the path. Stops once the largest coordinate change of an accepted update
    falls below config.tol; the converged flag reports whether that happened
    within max_iters.
    """
    p_plus = validate_distribution(p_plus)
    k = p_plus.size
    p = np.full(k, 1.0 / k)
    obj = generator_objective(p, p_plus, config.lam)
    converged = False
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
        grad = generator_objective_grad(p, p_plus, config.lam)
        grad = grad - grad.min()  # additive shifts cancel in the normalization
        step = 1.0
        accepted = False
        for _ in range(60):
            q = p * np.exp(-step * grad)
            q = np.maximum(q / q.sum(), 1e-300)
            q = q / q.sum()
            new_obj = generator_objective(q, p_plus, config.lam)
            if new_obj <= obj:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            # no representable step decreases the objective: numerically at the minimum
            converged = True
            break
        delta = float(np.max(np.abs(q - p)))
        p, obj = q, new_obj
        if delta < config.tol:
            converged = True
            break
    return MinimizeResult(p=p, converged=converged, iterations=iterations, objective=obj)


def fixed_point_residual(p, p_plus, lam):
    """Max-norm gap of normalize(p^(lam+1)) = (p + p_plus) / 2 at the point p."""
    p = validate_distribution(p)
    p_plus = validate_distribution(p_plus)
    if p.shape != p_plus.shape:
        raise ConfigError("distributions must share a support")
    if lam < 0:
        raise ConfigError("lam must be >= 0")
    powered = np.power(p, lam + 1.0)
    total = float(powered.sum())
    if total <= 0.0:
        raise ConfigError("p^(lam+1) sums to zero")
    return float(np.max(np.abs(powered / total - 0.5 * (p + p_plus))))
