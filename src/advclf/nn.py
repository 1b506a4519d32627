"""Small dense networks with explicit backpropagation, all in float64 numpy.

A net is a list of (weight, bias) ndarray pairs, weight (in_dim, out_dim)
and bias (out_dim,): every layer but the last is followed by a sigmoid, and
the last is linear. Gradients take the same format, so what backward returns
is what sgd_step takes. forward and backward return fresh arrays, so
repeated calls with the same inputs are reproducible bit for bit. sgd_step
is the one operation that changes a net: it updates its arrays in place,
after checking every gradient, so a step that raises leaves the net as it
was. finite_difference_grad is the deliberately slow oracle that backward
is checked against.
"""

import numpy as np

from .errors import ConfigError, TrainingError


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    # one exp of -|z| (never overflows): 1/(1+e) for z >= 0, e/(1+e) below.
    # minimum(z, -z) rather than -abs(z) keeps the sign bit of a NaN input.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0.0, 1.0, e) / (1.0 + e)


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


def clone_params(params):
    return [(weight.copy(), bias.copy()) for weight, bias in params]


def forward(params, batch):
    """Run the net on an (n, in_dim) batch.

    Returns the list [input, layer_1 output, ..., final output]; the caller
    keeps it around for backward.
    """
    batch = np.asarray(batch, dtype=np.float64)
    in_dim = params[0][0].shape[0]
    if batch.ndim != 2 or batch.shape[1] != in_dim:
        raise ConfigError(f"batch shape {batch.shape} does not match input dim {in_dim}")
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
        grads[i] = (activations[i].T @ delta, delta.sum(axis=0))
        delta = delta @ params[i][0].T
    return grads, delta


def finite_difference_grad(loss_fn, params, epsilon=1e-5):
    """Central-difference gradient of loss_fn(params), one entry at a time."""
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    work = clone_params(params)
    grads = []
    for layer in work:
        pair = []
        for arr in layer:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + epsilon
                hi = loss_fn(work)
                arr[idx] = orig - epsilon
                lo = loss_fn(work)
                arr[idx] = orig
                g[idx] = (hi - lo) / (2.0 * epsilon)
            pair.append(g)
        grads.append(tuple(pair))
    return grads


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
