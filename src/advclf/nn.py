"""Small dense networks with explicit backpropagation, all in float64 numpy.

A net is a list of (weight, bias) ndarray pairs, weight (in_dim, out_dim)
and bias (out_dim,): every layer but the last is followed by a sigmoid, and
the last is linear. A stack of K nets of one shape is the same list with a
leading model axis, weight (K, in_dim, out_dim) and bias (K, 1, out_dim);
it runs on a (K, n, in_dim) batch, model k on batch[k], and each model's
results equal its lone run bit for bit. Gradients take the same format, so
what backward returns is what sgd_step takes. forward and backward return
fresh arrays, so repeated calls with the same inputs are reproducible bit
for bit. sgd_step is the one operation that changes a net: it updates its
arrays in place, after checking every gradient, so a step that raises
leaves the net as it was.
"""

import numpy as np

from .errors import ConfigError, TrainingError


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    # one exp of -|z| (never overflows): 1/(1+e) for z >= 0, e/(1+e) below.
    # minimum(z, -z) rather than -abs(z) keeps the sign bit of a NaN input.
    # e <= 1 where z >= 0, so the maximum picks 1.0 there and e elsewhere, NaN included.
    e = np.exp(np.minimum(z, -z))
    return np.maximum(e, z >= 0.0) / (1.0 + e)


def softplus(z):
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def stable_log_sigmoid(z):
    """log(sigmoid(z)) as -softplus(-z); accurate deep into both tails."""
    return -softplus(-np.asarray(z, dtype=np.float64))


def stable_log_one_minus_sigmoid(z):
    """log(1 - sigmoid(z)) as -softplus(z)."""
    return -softplus(z)


def init_mlp(dims, rng):
    """Widths dims such as (4, 64, 1); uniform weights on +/- sqrt(6 / (fan_in + fan_out)), zero biases."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ConfigError("need at least an input and an output dimension")
    if min(dims) < 1:
        raise ConfigError(f"layer widths must be >= 1, got {dims}")
    params = []
    for in_dim, out_dim in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        weight = rng.uniform(-limit, limit, size=(in_dim, out_dim))
        params.append((weight, np.zeros(out_dim)))
    return params


def forward(params, batch):
    """Run the net on an (n, in_dim) batch, or a stack of K nets on a (K, n, in_dim) batch.

    Returns the list [input, layer_1 output, ..., final output]; the caller
    keeps it around for backward.
    """
    batch = np.asarray(batch, dtype=np.float64)
    weight = params[0][0]
    if (batch.ndim != weight.ndim or batch.shape[-1] != weight.shape[-2]
            or (weight.ndim > 2 and batch.shape[:-2] != weight.shape[:-2])):
        stack = f" of a stack of {weight.shape[0]} nets" if weight.ndim > 2 else ""
        raise ConfigError(f"batch shape {batch.shape} does not match input dim {weight.shape[-2]}{stack}")
    activations = [batch]
    out = batch
    last = len(params) - 1
    for i, (weight, bias) in enumerate(params):
        out = out @ weight + bias
        if i < last:
            out = sigmoid(out)
        activations.append(out)
    return activations


def backward(params, activations, output_grad):
    """Gradients of a scalar loss given d loss / d final_activation.

    Returns ([(d_weight, d_bias) per layer], d loss / d input batch).
    """
    delta = np.asarray(output_grad, dtype=np.float64)
    last = len(params) - 1
    grads = [None] * len(params)
    for i in range(last, -1, -1):
        if i < last:
            out = activations[i + 1]
            delta = delta * out * (1.0 - out)
        # the last two axes serve a lone net and a stack alike; a stack's bias gradient stays (K, 1, out)
        grads[i] = (activations[i].swapaxes(-1, -2) @ delta, delta.sum(axis=-2, keepdims=delta.ndim > 2))
        delta = delta @ params[i][0].swapaxes(-1, -2)
    return grads, delta


def sgd_step(params, grads, step):
    """theta += step * grad in place, returning params; step > 0 ascends, step < 0 descends.

    A non-finite gradient raises TrainingError before any layer changes.
    """
    for _, (gw, gb) in zip(params, grads, strict=True):
        if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
            raise TrainingError("non-finite gradient")
    for (weight, bias), (gw, gb) in zip(params, grads):
        weight += step * gw
        bias += step * gb
    return params
