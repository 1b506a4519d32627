"""Numerical checks of the re-weighting game on finite discrete supports.

For distributions p_plus (positives) and p (re-weighted negatives) over k
support points, the discriminating value

    V(d) = sum(p_plus * log d) + sum(p * log(1 - d))

is maximized pointwise by d* = p_plus / (p_plus + p), and substituting d*
leaves the cost the re-weighting distribution minimizes:

    J(p) = sum(p_plus * log(p_plus / (p_plus + p)))
         + sum(p * log(p / (p_plus + p)))
         + lam * sum(p * log p)

with the 0 * log 0 = 0 convention. J is convex on the simplex with one
minimizer, where every coordinate of its gradient takes one value (the KKT
condition). Written out, that condition is

    normalize(p^(lam + 1)) = (p + p_plus) / 2,

and minimize_generator solves it directly: p = p_plus at lam = 0, and for
lam > 0 a Newton root per coordinate inside a bisection on the common
gradient level. fixed_point_residual reports the condition's max-norm gap at
any p; at the minimizer that gap is float rounding, amplified by lam + 1.
"""

import math

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


def _one_support(*dists):
    """Each argument through validate_distribution; ConfigError unless they share one support."""
    dists = [validate_distribution(p) for p in dists]
    if any(p.shape != dists[0].shape for p in dists):
        raise ConfigError("distributions must share a support")
    return dists


def _check_lam(lam):
    """ConfigError unless the entropy weight lam is finite and >= 0."""
    if not 0.0 <= lam < math.inf:
        raise ConfigError("lam must be finite and >= 0")


def _xlogy(x, y):
    """x * log(y) with 0 * log(0) = 0; x must be >= 0."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    out = np.zeros(x.shape)
    mask = x > 0
    out[mask] = x[mask] * np.log(y[mask])
    return out


def optimal_discriminator(p_plus, p_neg):
    """Pointwise maximizer p_plus / (p_plus + p_neg) of the value function."""
    p_plus, p_neg = _one_support(p_plus, p_neg)
    denom = p_plus + p_neg
    if np.any(denom == 0.0):
        raise ConfigError("support point with zero mass under both distributions")
    return p_plus / denom


def value_v(p_plus, p_neg, d):
    """sum(p_plus * log d) + sum(p_neg * log(1 - d)); raises where it would be -inf."""
    p_plus, p_neg = _one_support(p_plus, p_neg)
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
    p, p_plus = _one_support(p, p_plus)
    _check_lam(lam)
    mix = p_plus + p
    safe_mix = np.where(mix > 0.0, mix, 1.0)
    t1 = float(np.sum(_xlogy(p_plus, p_plus / safe_mix)))
    t2 = float(np.sum(_xlogy(p, p / safe_mix)))
    t3 = float(lam * np.sum(_xlogy(p, p)))
    return t1 + t2 + t3


def generator_objective_grad(p, p_plus, lam):
    """dJ/dp_i = log(p_i / (p_plus_i + p_i)) + lam * (1 + log p_i); needs p > 0."""
    p, p_plus = _one_support(p, p_plus)
    _check_lam(lam)
    if np.any(p <= 0):
        raise ConfigError("gradient needs strictly positive p")
    return np.log(p / (p_plus + p)) + lam * (1.0 + np.log(p))


def _log_roots(c, log_a, s, r):
    """Per point, the x = log p with r * x - s * softplus(log p_plus - x) = c.

    The left side is the gradient / (1 + lam), less r. It is increasing and
    concave in x, so Newton's method from the lower bound
    max(c / r, c + s * log p_plus) of the root rises monotonically to it; it
    stops when no coordinate rises. Where c / r overflows, x starts, and
    stays, at the lowest float, whose exp is 0.
    """
    x = np.maximum(c + s * log_a, max(c / r, -np.finfo(np.float64).max))
    while True:
        t = log_a - x
        softplus = np.logaddexp(0.0, t)
        level = r * x - s * softplus
        slope = r + s * np.exp(t - softplus)
        x_next = x + np.divide(c - level, slope, out=np.zeros_like(x), where=level < c)
        if not np.any(x_next > x):
            return x
        x = x_next


def minimize_generator(p_plus, lam):
    """The minimizer of generator_objective over the simplex, solved from its KKT condition.

    With s = 1 / (1 + lam) and r = lam * s, the point's log-masses x solve
    r * x - s * softplus(log p_plus - x) = c for one common level c. The sum
    of exp(x) rises with c, and the levels of the uniform point bracket the c
    where it is 1; the bisection stops when the midpoint is one of the ends.
    """
    p_plus = validate_distribution(p_plus)
    _check_lam(lam)
    if lam == 0.0:
        return p_plus.copy()  # J = 2 * JS(p, p_plus) - log 4
    s, r = 1.0 / (1.0 + lam), lam / (1.0 + lam)
    log_a = np.log(p_plus, out=np.full(p_plus.shape, -np.inf), where=p_plus > 0.0)
    x_uniform = np.full(p_plus.shape, -math.log(p_plus.size))
    levels = r * x_uniform - s * np.logaddexp(0.0, log_a - x_uniform)
    lo, hi = float(levels.min()), float(levels.max())
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if np.exp(_log_roots(mid, log_a, s, r)).sum() < 1.0:
            lo = mid
        else:
            hi = mid
    p = np.exp(_log_roots(mid, log_a, s, r))
    return p / p.sum()


def fixed_point_residual(p, p_plus, lam):
    """Max-norm gap of normalize(p^(lam+1)) = (p + p_plus) / 2 at the point p.

    normalize(p^(lam+1)) is the softmax of (lam + 1) * log p, taken as
    (p / max p)^(lam+1): its largest entry is 1, so no power underflows
    the sum to zero or overflows.
    """
    p, p_plus = _one_support(p, p_plus)
    _check_lam(lam)
    powered = np.power(p / p.max(), lam + 1.0)
    return float(np.max(np.abs(powered / powered.sum() - 0.5 * (p + p_plus))))
