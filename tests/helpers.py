"""Shared oracles and utilities for the test suite."""

import contextlib
from dataclasses import replace
from unittest import mock

import numpy as np

import advclf.data
import advclf.graph
from advclf.adversarial import (
    TrainTrace,
    _disc_terms,
    _gen_terms,
    discriminator_step,
    generator_batch_weights,
    generator_step,
    init_discriminator,
    init_generator,
    pretrain_step,
)
from advclf.data import LabeledDataset
from advclf.errors import ConfigError, DataError, TrainingError
from advclf.graph import (
    Graph,
    GraphDiscriminator,
    GraphGenerator,
    PairBatch,
    generator_pair_weights,
    check_probe_settings,
    init_graph_models,
    pair_logits,
    sample_pair_batch,
)
from advclf.metrics import confusion, evaluate_binary, macro_micro_f1
from advclf.nn import (
    backward,
    forward,
    sgd_step,
    sigmoid,
    stable_log_one_minus_sigmoid,
)


@contextlib.contextmanager
def exact_parse_only():
    """Within the block, load_csv and the graph loaders skip numpy's C reader and parse cell by cell."""
    with mock.patch.object(advclf.data, "_csv_cells", lambda *args: None), \
            mock.patch.object(advclf.graph, "_id_pairs", lambda lines: None):
        yield


@contextlib.contextmanager
def c_reader_only():
    """Within the block, a load_csv or graph loader call that falls back to the per-cell parse fails."""

    def fallback(*args):
        raise AssertionError("numpy's reader rejected the file")

    with mock.patch.object(advclf.data, "_csv_cells_exact", fallback), \
            mock.patch.object(advclf.graph, "_edge_pairs_exact", fallback), \
            mock.patch.object(advclf.graph, "_label_ids_exact", fallback):
        yield


def read_blocks_of(size):
    """Within the block, every text reader reads size bytes at a time."""
    return mock.patch.object(advclf.data, "READ_BLOCK_BYTES", size)


def load_outcome(load, summarize):
    """What a loader call leaves: summarize(result) or its DataError text."""
    try:
        return "loaded", summarize(load())
    except DataError as exc:
        return "error", str(exc)


def array_bits(*arrays):
    """Dtype, shape and bytes of each array: equal exactly when the arrays are identical bit for bit."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def best_response(log1m_d, lam):
    """w* proportional to exp(-a / lam) for a = log(1 - D), and the minimum -lam * logsumexp(-a / lam).

    The generator's best response to a fixed discriminator: by the Gibbs
    variational principle, sum(w * a) + lam * sum(w * log w) over the simplex
    is smallest at w*, and exceeds that minimum by exactly lam * KL(w || w*).
    Returns (w*, log w*, minimum).
    """
    z = -np.asarray(log1m_d, dtype=np.float64) / lam
    top = z.max()
    lse = top + np.log(np.sum(np.exp(z - top)))
    log_w = z - lse
    return np.exp(log_w), log_w, -lam * lse


def warmup_only(config):
    """The pretraining-only baseline as advclf train runs it: the warm-up for every step of config."""
    return replace(config, pretrain_iters=config.pretrain_iters + config.train_iters, train_iters=0)


def train_alone(config, data, gen_spec, checkpoint=None):
    """advclf's train for one model alone: lone 2-d nets, batches drawn from copies of each class's rows.

    The oracle for each model of train's stack. Returns (disc, gen, trace).
    """
    every, checkpoint_fn = checkpoint or (1, None)
    x_pos = data.features[data.labels == 1]
    x_neg = data.features[data.labels == 0]
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    disc = init_discriminator(data.n_features, np.random.default_rng(seeds[0]))
    gen = init_generator(data.n_features, gen_spec, np.random.default_rng(seeds[1]))
    rng = np.random.default_rng(seeds[2])
    m = config.batch_size
    trace = TrainTrace()
    for _ in range(config.pretrain_iters):
        pos = x_pos[rng.integers(0, len(x_pos), size=m)]
        neg = x_neg[rng.integers(0, len(x_neg), size=m)]
        disc, loss = pretrain_step(disc, pos, neg, config.eta_d)
        trace.pretrain_d_loss.append(loss)
    for i in range(config.train_iters):
        pos = x_pos[rng.integers(0, len(x_pos), size=m)]
        neg = x_neg[rng.integers(0, len(x_neg), size=m)]
        w, gen_acts = generator_batch_weights(gen, neg)
        disc, d_loss = discriminator_step(config, disc, pos, neg, w)
        gen, g_loss = generator_step(config, disc, gen, gen_acts)
        trace.record(d_loss, g_loss, w)
        if checkpoint_fn is not None and (i + 1) % every == 0:
            trace.checkpoints.append(checkpoint_fn(i + 1, disc))
    return disc, gen, trace


def train_four_alone(config, data, gen_spec, baselines, checkpoint=None):
    """train(..., baselines=baselines) as lone runs: the adversarial one, then the warm-up alone on
    all of data, then on each baseline's rows.

    Each baseline's row indices are materialised as a copy of those rows of data.
    """
    disc, gen, trace = train_alone(config, data, gen_spec, checkpoint)
    copies = [data, *(LabeledDataset(data.features[rows], data.labels[rows]) for rows in baselines)]
    return disc, gen, trace, [train_alone(warmup_only(config), ds, gen_spec)[0] for ds in copies]


def stack_of(nets):
    """Nets of one shape as one stack: weights (K, in, out), biases (K, 1, out)."""
    return [(np.stack([w for w, _ in layer]), np.stack([b[None] for _, b in layer])) for layer in zip(*nets)]


def per_net(stack, batch):
    """The one batch for every net of the stack, as the (K, n, in) view forward takes."""
    return np.broadcast_to(batch, (len(stack[0][0]), *np.shape(batch)))


FD_EPSILON = 1e-5
FD_CHUNK = 64  # entries per stack: their +eps and -eps copies make 128 nets


def finite_difference_grad(stack_loss, params):
    """Central-difference gradient of a net's loss, entry by entry, with step 1e-5.

    The oracle that backward is checked against. stack_loss takes a stack
    of K nets of params' shape and returns their K losses. The stack holds
    2 * FD_CHUNK copies of params; for each chunk of entries, net 2j carries
    entry j's +eps and net 2j + 1 its -eps, and both are set back after the
    stack's one evaluation. A stack runs each net bit for bit as alone, so a
    loss that reduces over the last axes gives the differences a loop over
    lone nets would.
    """
    arrays = [arr for pair in params for arr in pair]
    entries = [(a, i) for a, arr in enumerate(arrays) for i in range(arr.size)]
    stack = stack_of([params] * (2 * FD_CHUNK))
    rows = [arr.reshape(len(arr), -1) for pair in stack for arr in pair]  # views: row k holds net k's entries
    grads = [np.zeros_like(arr) for arr in arrays]
    for start in range(0, len(entries), FD_CHUNK):
        chunk = entries[start : start + FD_CHUNK]
        for j, (a, i) in enumerate(chunk):
            orig = arrays[a].flat[i]
            rows[a][2 * j, i] = orig + FD_EPSILON
            rows[a][2 * j + 1, i] = orig - FD_EPSILON
        losses = stack_loss(stack)
        for j, (a, i) in enumerate(chunk):
            rows[a][2 * j : 2 * j + 2, i] = arrays[a].flat[i]
            grads[a].flat[i] = (losses[2 * j] - losses[2 * j + 1]) / (2.0 * FD_EPSILON)
    return list(zip(grads[::2], grads[1::2]))


def grad_rel_error(analytic, numeric):
    """Max absolute difference scaled by the largest gradient magnitude seen."""
    a = np.concatenate([g.ravel() for g in analytic])
    n = np.concatenate([g.ravel() for g in numeric])
    scale = max(np.abs(a).max(), np.abs(n).max(), 1e-12)
    return float(np.abs(a - n).max() / scale)


def flatten_param_grads(grads):
    """[(dW, db), ...] from backward() -> flat list matching finite differences."""
    out = []
    for dw, db in grads:
        out.append(dw)
        out.append(db)
    return out


def auc_pair_count(scores, labels):
    """Brute-force AUC: fraction of (pos, neg) pairs ranked correctly, ties count half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def auc_roc_midrank_loop(scores, labels):
    """auc_roc with midranks from a Python loop over runs of equal sorted scores.

    advclf.metrics.auc_roc must match it bit for bit; inputs are assumed valid.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = int(np.count_nonzero(labels == 0))
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    ranks = np.empty(s.size, dtype=np.float64)
    i = 0
    while i < s.size:
        j = i
        while j < s.size and s[j] == s[i]:
            j += 1
        ranks[i:j] = 0.5 * (i + j + 1)  # midrank, 1-based
        i = j
    rank_sum = float(np.sum(ranks[labels[order] == 1]))
    return (rank_sum - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg)


def sigmoid_two_branch(z):
    """Reference sigmoid that advclf.nn.sigmoid must match bit for bit: two clipped exps."""
    z = np.asarray(z, dtype=np.float64)
    zp = np.clip(z, 0.0, None)
    zn = np.clip(z, None, 0.0)
    ez = np.exp(zn)
    return np.where(z >= 0.0, 1.0 / (1.0 + np.exp(-zp)), ez / (1.0 + ez))


def sbm_graph(block_sizes, p_in, p_out, seed):
    """Planted-partition random graph with contiguous node blocks."""
    if not block_sizes or any(int(s) < 1 for s in block_sizes):
        raise ConfigError("block sizes must all be >= 1")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ConfigError("probabilities must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    block_of = np.repeat(np.arange(len(block_sizes)), block_sizes)
    n = int(block_of.size)
    edges = set()
    for u in range(n):
        same = block_of[u + 1 :] == block_of[u]
        probs = np.where(same, p_in, p_out)
        hits = rng.random(n - u - 1) < probs
        for offset in np.flatnonzero(hits):
            edges.add((u, u + 1 + int(offset)))
    return Graph(n_nodes=n, edges=edges)


def block_oracle_eval(block_sizes, test_pos, test_neg):
    """Link prediction by the planted partition alone, scored like link_predict_eval.

    A pair scores 1.0 when both nodes sit in the same contiguous block (as
    laid out by sbm_graph) and 0.0 otherwise.  In an SBM every pair is an
    edge independently with a probability set only by the two blocks, so no
    scorer that sees just the training graph beats this rule in expectation.
    """
    block_of = np.repeat(np.arange(len(block_sizes)), block_sizes)
    pairs = np.vstack([test_pos, test_neg])
    labels = np.concatenate([np.ones(len(test_pos), dtype=int), np.zeros(len(test_neg), dtype=int)])
    scores = (block_of[pairs[:, 0]] == block_of[pairs[:, 1]]).astype(np.float64)
    return evaluate_binary(scores, labels)


# One-try-at-a-time samplers: advclf.graph's block sampler must reproduce
# their pairs, their errors and the RNG state they leave, draw for draw.
# They collect (u, v) tuples and return them as (k, 2) int64 arrays.


def pair_set(pairs):
    """The rows of a (k, 2) pair array as a set of (u, v) tuples."""
    return set(map(tuple, pairs.tolist()))


def _pair_array(pairs):
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def sample_non_edges_loop(graph, count, rng, tries_per_sample=2000):
    """Distinct non-edges, one rng.integers(0, n_nodes, size=2) try at a time."""
    edges = pair_set(graph.pairs())
    seen = set()
    out = []
    budget = tries_per_sample * max(count, 1)
    tries = 0
    while len(out) < count:
        if tries >= budget:
            raise DataError("could not sample enough non-edges: graph too dense")
        tries += 1
        u, v = rng.integers(0, graph.n_nodes, size=2)
        if u == v:
            continue
        pair = (int(min(u, v)), int(max(u, v)))
        if pair in edges or pair in seen:
            continue
        seen.add(pair)
        out.append(pair)
    return _pair_array(out)


def split_edges_loop(graph, test_frac, seed):
    """split_edges with its negatives drawn by sample_non_edges_loop."""
    rng = np.random.default_rng(seed)
    edges = sorted(pair_set(graph.pairs()))
    n_test = int(round(test_frac * len(edges)))
    test_mask = np.zeros(len(edges), dtype=bool)
    test_mask[rng.choice(len(edges), size=n_test, replace=False)] = True
    test_pos = [edges[i] for i in np.flatnonzero(test_mask)]
    train_edges = [edges[i] for i in np.flatnonzero(~test_mask)]
    return _pair_array(train_edges), _pair_array(test_pos), sample_non_edges_loop(graph, n_test, rng)


def sample_pair_batch_loop(train_edges, graph, m, rng):
    """m training edges with replacement, then non-edge draws one try at a time."""
    if m < 1:
        raise ConfigError("batch size must be >= 1")
    if not len(train_edges):
        raise DataError("no training edges to sample from")
    edges = pair_set(graph.pairs())
    edges_arr = np.asarray(train_edges, dtype=np.int64)
    pos = edges_arr[rng.integers(0, len(edges_arr), size=m)]
    neg = np.empty((m, 2), dtype=np.int64)
    budget = 2000 * m
    tries = 0
    filled = 0
    while filled < m:
        if tries >= budget:
            raise TrainingError("negative pair sampling exceeded its rejection budget")
        tries += 1
        u, v = rng.integers(0, graph.n_nodes, size=2)
        if u == v:
            continue
        pair = (int(min(u, v)), int(max(u, v)))
        if pair in edges:
            continue
        neg[filled] = pair
        filled += 1
    return PairBatch(pos=pos, neg=neg)


# Full-table graph steps: np.add.at into a zero gradient the size of the
# table, then a fresh model, MLP included. advclf.graph's steps scatter into
# the touched rows only and update them in place; they must match these bit
# for bit.


def scatter_add_at(n_rows, idx, contrib):
    """np.add.at of the rows of contrib at idx into a zero (n_rows, dim) table."""
    grad = np.zeros((n_rows, contrib.shape[1]))
    np.add.at(grad, idx, contrib)
    return grad


def graph_disc_update_add_at(disc, batch, neg_coeff, eta_d):
    """One discriminator ascent step; returns a new GraphDiscriminator and the loss."""
    loss, c_pos, c_neg = _disc_terms(pair_logits(disc, batch.pos), pair_logits(disc, batch.neg), neg_coeff)
    grad = np.zeros_like(disc.embeddings)
    for pairs, coeff in ((batch.pos, c_pos), (batch.neg, c_neg)):
        e_u = disc.embeddings[pairs[:, 0]]
        e_v = disc.embeddings[pairs[:, 1]]
        np.add.at(grad, pairs[:, 0], coeff[:, None] * e_v)
        np.add.at(grad, pairs[:, 1], coeff[:, None] * e_u)
    grad_bias = float(c_pos.sum() + c_neg.sum())
    if not (np.all(np.isfinite(grad)) and np.isfinite(grad_bias)):
        raise TrainingError("non-finite gradient")
    return GraphDiscriminator(disc.embeddings + eta_d * grad, disc.bias + eta_d * grad_bias), loss


def graph_generator_step_add_at(config, disc, gen, neg_pairs):
    """One generator descent step; returns a new GraphGenerator and the loss."""
    log_one_minus_d = stable_log_one_minus_sigmoid(pair_logits(disc, neg_pairs))
    lo, hi = neg_pairs.min(axis=1), neg_pairs.max(axis=1)
    acts = forward(gen.mlp, np.hstack([gen.embeddings[lo], gen.embeddings[hi]]))
    loss, out_grad = _gen_terms(acts[-1][:, 0], log_one_minus_d, config.lam)
    grads, input_grad = backward(gen.mlp, acts, out_grad[:, None])
    dim = gen.embeddings.shape[1]
    emb_grad = np.zeros_like(gen.embeddings)
    np.add.at(emb_grad, lo, input_grad[:, :dim])
    np.add.at(emb_grad, hi, input_grad[:, dim:])
    if not np.all(np.isfinite(emb_grad)):
        raise TrainingError("non-finite gradient")
    # a new MLP, not sgd_step: that updates gen.mlp, which the step under test starts from
    new_mlp = [
        (weight - config.eta_g * gw, bias - config.eta_g * gb)
        for (weight, bias), (gw, gb) in zip(gen.mlp, grads, strict=True)
    ]
    return GraphGenerator(gen.embeddings - config.eta_g * emb_grad, new_mlp), loss


def train_graph_add_at(config, graph, train_edges, dim, gen_hidden):
    """advclf.graph.train_graph's loop on the full-table steps above."""
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    rng_batches = np.random.default_rng(seeds[2])
    disc, gen = init_graph_models(
        graph.n_nodes, dim, gen_hidden, np.random.default_rng(seeds[0]), np.random.default_rng(seeds[1])
    )
    train_edges = np.asarray(train_edges, dtype=np.int64)
    trace = TrainTrace()
    for _ in range(config.pretrain_iters):
        batch = sample_pair_batch(train_edges, graph, config.batch_size, rng_batches)
        coeff = np.full(len(batch.neg), 1.0 / len(batch.neg))
        disc, loss = graph_disc_update_add_at(disc, batch, coeff, config.eta_d)
        trace.pretrain_d_loss.append(loss)
    for _ in range(config.train_iters):
        batch = sample_pair_batch(train_edges, graph, config.batch_size, rng_batches)
        w, _ = generator_pair_weights(gen, batch.neg)
        coeff = config.gamma * len(batch.neg) * w
        disc, d_loss = graph_disc_update_add_at(disc, batch, coeff, config.eta_d)
        gen, g_loss = graph_generator_step_add_at(config, disc, gen, batch.neg)
        trace.record(d_loss, g_loss, w)
    return disc, gen, trace


# Node-label probes one class at a time, each head fit alone through forward
# and sgd_step. advclf.graph fits a shuffle's heads in lockstep; its
# predictions and reports must match these exactly, and its weights bit for
# bit for one head and to 1e-12 relative for more, whose gemm sums in
# another order.


def fit_logistic_head(x_train, y_col):
    """One (d, 1) logistic head from zero init, 300 full-batch ascent steps at rate 0.5; returns [(w, b)]."""
    params = [(np.zeros((x_train.shape[1], 1)), np.zeros(1))]
    n = len(x_train)
    for _ in range(300):
        s = forward(params, x_train)[-1][:, 0]
        delta = ((y_col - sigmoid(s)) / n)[:, None]
        sgd_step(params, [(x_train.T @ delta, delta.sum(axis=0))], 0.5)
    return params


def predict_logistic_head(params, x):
    return (sigmoid(forward(params, x)[-1][:, 0]) >= 0.5).astype(int)


def node_classification_eval_per_class(embeddings, y, train_frac, n_shuffles, seed):
    """node_classification_eval with a lone head per class; a class with no visible positive predicts 0."""
    emb = np.asarray(embeddings, dtype=np.float64)
    n = emb.shape[0]
    n_visible = check_probe_settings(y, n, train_frac, n_shuffles)
    micros, macros = [], []
    for child in np.random.SeedSequence(seed).spawn(n_shuffles):
        perm = np.random.default_rng(child).permutation(n)
        visible, hidden = perm[:n_visible], perm[n_visible:]
        counts = []
        for c in range(y.shape[1]):
            if y[visible, c].sum() == 0:
                pred = np.zeros(len(hidden), dtype=int)
            else:
                pred = predict_logistic_head(fit_logistic_head(emb[visible], y[visible, c]), emb[hidden])
            tp, fp, _, fn = confusion(pred, y[hidden, c].astype(int))
            counts.append((tp, fp, fn))
        macro, micro = macro_micro_f1(counts)
        micros.append(micro)
        macros.append(macro)
    return {
        "micro_f1_mean": float(np.mean(micros)),
        "micro_f1_std": float(np.std(micros)),
        "macro_f1_mean": float(np.mean(macros)),
        "macro_f1_std": float(np.std(macros)),
        "n_shuffles": int(n_shuffles),
    }
