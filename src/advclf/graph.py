"""Node-embedding training by adversarially re-weighted pair discrimination.

Connected node pairs are the positives, disconnected pairs the negatives.
The discriminator scores a pair through a dot product of its own embeddings
plus a scalar bias; the generator weights negative pairs through an MLP over
the concatenation of its own embeddings, pair order canonicalized to
(min, max). Training reuses the tabular module's loop shape, score-space
objective and negative coefficients (1/m in the warm-up, then gamma * m * w_i),
all from advclf.adversarial; this module supplies the lookups and scatter-adds.

The steps update the models they are given in place and touch only the rows
a batch names, so a step costs O(batch * dim) at any node count;
_scatter_rows sums each row's contributions bit for bit as np.add.at into a
zero table would. advclf.cli pins glibc's malloc thresholds, because the
steps' temporaries would otherwise go back to the OS after every step and
be faulted in again on the next.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adversarial import TrainTrace, _disc_terms, _gen_terms, _normalized_weights
from .adversarial import _uniform_coeff, _weighted_coeff
from .data import _data_lines, _line_blocks
from .errors import ConfigError, DataError, TrainingError
from .metrics import evaluate_binary, macro_micro_f1
from .nn import (
    backward,
    forward,
    init_mlp,
    sgd_step,
    sigmoid,
    stable_log_one_minus_sigmoid,
)


# A pair key lo * n_nodes + hi reaches n_nodes**2 - 1, which int64 holds up to this many nodes.
MAX_NODES = math.isqrt(2**63)


def _canonical(pairs):
    """The (lo, hi) columns of a (k, 2) pair array; by column, 25-50x faster than .min(axis=1)."""
    return np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])


@dataclass
class Graph:
    """Undirected simple graph on nodes 0..n_nodes-1, n_nodes at most MAX_NODES.

    `edges` is a sorted, unique int64 array holding one key lo * n_nodes + hi
    per edge, lo < hi. The constructor builds it from a (k, 2) array or any
    iterable of (u, v) pairs. The constructor, has_edge and _draw_non_edges
    build keys, all through _key; has_edge searches them and pairs decodes them.
    """

    n_nodes: int
    edges: np.ndarray

    def __post_init__(self):
        self.n_nodes = int(self.n_nodes)
        if self.n_nodes > MAX_NODES:
            raise DataError(
                f"node id {self.n_nodes - 1} is too large: pair keys hold node ids up to {MAX_NODES - 1}"
            )
        edges = self.edges if isinstance(self.edges, np.ndarray) else list(self.edges)
        lo, hi = _canonical(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
        if np.any(lo == hi) or np.any(lo < 0) or np.any(hi >= self.n_nodes):
            raise DataError(f"edges must join two distinct nodes in 0..{self.n_nodes - 1}")
        keys = np.sort(self._key(lo, hi))
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        self.edges = keys[first]

    @property
    def n_edges(self):
        return len(self.edges)

    def _key(self, u, v):
        return np.minimum(u, v) * self.n_nodes + np.maximum(u, v)

    def has_edge(self, u, v):
        """Elementwise edge test for node ids or arrays of them, in either order."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        keys = self._key(u, v)
        if not len(self.edges):
            return np.zeros(keys.shape, dtype=bool)
        idx = np.minimum(np.searchsorted(self.edges, keys), len(self.edges) - 1)
        # the range test keeps ids outside the graph from aliasing another pair's key
        inside = (np.minimum(u, v) >= 0) & (np.maximum(u, v) < self.n_nodes)
        return (self.edges[idx] == keys) & inside

    def pairs(self):
        """The edges as a (n_edges, 2) int64 array of (lo, hi) rows in ascending order."""
        return np.column_stack(np.divmod(self.edges, self.n_nodes))


def _reader_lines(start, text, lines):
    """The lines of a block for numpy's reader: its data lines, or [] if it has none.

    The reader skips blank lines itself, and its whitespace is str.split()'s
    within a line, so only a block that holds a '#' needs _data_lines' filter.
    """
    if "#" in text:
        return [line for _, line in _data_lines(lines, start)]
    return [] if text.isspace() else lines


def _id_pairs(lines):
    """The lines as a (k, 2) int64 array of nonnegative ids through numpy's C reader, or None.

    The reader takes int()'s grammar less underscores and non-ASCII digits,
    and no id beyond int64. None when the reader rejects a line, or a line
    does not hold exactly two ids or holds a negative one; the per-token
    parse then names the line.
    """
    try:
        pairs = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    if pairs.shape[1] != 2 or (pairs < 0).any():
        return None
    return pairs


def _id_pair_blocks(path, empty, exact, accept=lambda pairs: True):
    """The (k, 2) id pairs of the data lines of path, block by block; DataError "path: empty" if it has none.

    numpy's C reader parses a block where it and accept take its pairs;
    any other block goes to exact(path, its numbered data lines), which
    names the first bad line or returns the block's pairs as Python ints.
    """
    parts = []
    for start, text, lines in _line_blocks(path):
        data = _reader_lines(start, text, lines)
        if data:
            pairs = _id_pairs(data)
            if pairs is None or not accept(pairs):
                pairs = exact(path, _data_lines(lines, start))
            parts.append(pairs)
        del text, lines, data  # before the next block is read
    if not parts:
        raise DataError(f"{path}: {empty}")
    return np.concatenate(parts)


def load_edge_list(path):
    """Whitespace-separated integer pairs, one per line; '#' starts a comment line.

    A node id is what Python's int() reads. Duplicate edges in either order
    collapse; self-loops, negative ids and non-integer tokens are errors
    naming the line. numpy's C reader parses each block of lines; where it
    or a check rejects a block, the per-token parse runs on that block
    instead, so every file loads or fails as that parse alone would have it.
    """
    path = Path(path)
    pairs = _id_pair_blocks(path, "no edges", _edge_pairs_exact, lambda pairs: (pairs[:, 0] != pairs[:, 1]).all())
    # int() first: an id at the int64 limit must not wrap when one is added
    return Graph(n_nodes=int(pairs.max()) + 1, edges=pairs)


def _edge_pairs_exact(path, numbered):
    """The ids of the (lineno, line) data lines, token by token with int(), as a (k, 2) object array.

    The array holds Python ints, so an id beyond int64 reaches Graph, which
    names it. Raises DataError at the first line that is not two distinct
    nonnegative ids.
    """
    edges = []
    for lineno, line in numbered:
        tokens = line.split()
        if len(tokens) != 2:
            raise DataError(f"{path} line {lineno}: expected two node ids, got {len(tokens)} tokens")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise DataError(f"{path} line {lineno}: non-integer node id") from None
        if u < 0 or v < 0:
            raise DataError(f"{path} line {lineno}: negative node id")
        if u == v:
            raise DataError(f"{path} line {lineno}: self-loop at node {u}")
        edges.append((u, v))
    return np.array(edges, dtype=object)


def load_node_labels(path, n_nodes):
    """The (n_nodes, n_classes) 0/1 label matrix from lines of node_id followed by label ids.

    Row i holds node i's labels and column j the j-th smallest of the label
    ids that occur, so an id no node carries adds no class; a label given
    twice for a node, on one line or on two, sets one cell. numpy's C reader
    parses each block of lines whose every line holds one label; any other
    block, or one the reader or a check rejects, takes the per-token parse,
    so every file loads or fails as that parse alone would have it.
    """
    path = Path(path)
    pairs = _id_pair_blocks(path, "no label lines", _label_ids_exact)
    nodes, labels = pairs.T
    top = nodes.max()
    if top >= n_nodes:
        raise DataError(f"{path}: node id {top} exceeds node count {n_nodes}")
    # exact on the object arrays too: they sort Python ints, even ones past int64
    classes, column = np.unique(labels, return_inverse=True)
    y = np.zeros((n_nodes, len(classes)))
    y[nodes.astype(np.int64), column] = 1.0
    return y


def _label_ids_exact(path, numbered):
    """The (node, label) pairs of the (lineno, line) data lines, token by token with int().

    They come as a (k, 2) object array of Python ints; a line of a node and
    j labels gives j pairs. Raises DataError at the first line that is not
    a node id plus at least one label id, all nonnegative.
    """
    pairs = []
    for lineno, line in numbered:
        tokens = line.split()
        if len(tokens) < 2:
            raise DataError(f"{path} line {lineno}: expected node_id plus at least one label id")
        try:
            values = [int(t) for t in tokens]
        except ValueError:
            raise DataError(f"{path} line {lineno}: non-integer token") from None
        if min(values) < 0:
            raise DataError(f"{path} line {lineno}: negative id")
        pairs += [(values[0], label) for label in values[1:]]
    return np.array(pairs, dtype=object)


# the rejection samplers give up after this many tries per pair asked for
TRIES_PER_PAIR = 2000


def _draw_non_edges(graph, count, rng, distinct):
    """Up to count non-edges by rejection, as (k, 2) canonical pairs in draw order.

    A try draws (u, v) = rng.integers(0, n_nodes, size=2) and keeps
    (min, max) unless u == v, the pair is an edge, or (with distinct) it was
    kept before. Each round draws the tries still missing as one
    (missing, 2) block, which yields the values and leaves the RNG state of
    that many single tries; at most `missing` of them can be kept, so no
    round draws past the try at which a one-at-a-time loop would stop. After
    TRIES_PER_PAIR * max(count, 1) tries fewer than count pairs come back.
    """
    budget = TRIES_PER_PAIR * max(count, 1)
    out = np.empty((count, 2), dtype=np.int64)
    seen = np.empty(0, dtype=np.int64)
    filled = tries = 0
    while filled < count and tries < budget:
        draws = rng.integers(0, graph.n_nodes, size=(min(count - filled, budget - tries), 2))
        tries += len(draws)
        lo, hi = _canonical(draws)
        keep = (lo != hi) & ~graph.has_edge(lo, hi)
        if distinct:
            # a candidate survives when it is the first of its key after all kept ones
            cand = np.flatnonzero(keep)
            keys = np.concatenate([seen, graph._key(lo[cand], hi[cand])])
            order = np.argsort(keys, kind="stable")
            first = np.ones(len(keys), dtype=bool)
            first[order[1:]] = keys[order[1:]] != keys[order[:-1]]
            keep[cand] = first[len(seen):]
            seen = keys[first]
        kept = np.flatnonzero(keep)
        out[filled : filled + len(kept)] = np.column_stack((lo[kept], hi[kept]))
        filled += len(kept)
    return out[:filled]


def sample_non_edges(graph, count, rng):
    """Uniform distinct non-edges by rejection against the full edge set."""
    pairs = _draw_non_edges(graph, count, rng, distinct=True)
    if len(pairs) < count:
        raise DataError("could not sample enough non-edges: graph too dense")
    return pairs


def split_edges(graph, test_frac, seed):
    """Hold out round(test_frac * n_edges) edges plus equally many non-edges.

    Returns (train_edges, test_pos, test_neg) as (k, 2) int64 arrays. The
    negatives are sampled from the non-edges of the original graph, so they
    never collide with train or test edges.
    """
    if not 0.0 < test_frac < 1.0:
        raise ConfigError(f"test_frac must lie in (0, 1), got {test_frac}")
    edges = graph.pairs()
    n_test = int(round(test_frac * len(edges)))
    if n_test in (0, len(edges)):
        raise DataError(
            f"test_frac {test_frac} holds out {n_test} of {len(edges)} edges;"
            " the split needs at least one test edge and one training edge"
        )
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(edges), dtype=bool)
    mask[rng.choice(len(edges), size=n_test, replace=False)] = True
    train, test = (np.take(edges, np.flatnonzero(m), axis=0) for m in (~mask, mask))
    return train, test, sample_non_edges(graph, n_test, rng)


@dataclass
class PairBatch:
    pos: np.ndarray  # (m, 2) int, canonical order
    neg: np.ndarray  # (m, 2) int, canonical order


def sample_pair_batch(train_edges, graph, m, rng):
    """m training edges with replacement plus m uniform non-edge draws.

    Negative draws are independent, so repeats are possible; they are
    rejected against the full edge set of the graph.
    """
    if m < 1:
        raise ConfigError("batch size must be >= 1")
    if not len(train_edges):
        raise DataError("no training edges to sample from")
    pos = np.take(train_edges, rng.integers(0, len(train_edges), size=m), axis=0)
    neg = _draw_non_edges(graph, m, rng, distinct=False)
    if len(neg) < m:
        raise TrainingError("negative pair sampling exceeded its rejection budget")
    return PairBatch(pos=pos, neg=neg)


@dataclass
class GraphDiscriminator:
    """Scores a pair (u, v) as sigmoid(e_u . e_v + bias) on its own table."""

    embeddings: np.ndarray  # (n_nodes, dim)
    bias: float


@dataclass
class GraphGenerator:
    """Weights a pair through softplus(MLP([e_u ; e_v])) on its own table."""

    embeddings: np.ndarray  # (n_nodes, dim)
    mlp: list  # (weight, bias) pairs, as advclf.nn takes them


def init_graph_models(n_nodes, dim, gen_hidden, rng_d, rng_g):
    """Both tables start uniform on +/- 0.5/dim; the generator MLP takes 2*dim inputs."""
    if n_nodes < 2 or dim < 1:
        raise ConfigError("need n_nodes >= 2 and dim >= 1")
    scale = 0.5 / dim
    emb_d = rng_d.uniform(-scale, scale, size=(n_nodes, dim))
    emb_g = rng_g.uniform(-scale, scale, size=(n_nodes, dim))
    mlp = init_mlp((2 * dim, *gen_hidden, 1), rng_g)
    return GraphDiscriminator(emb_d, 0.0), GraphGenerator(emb_g, mlp)


def pair_logits(disc, pairs):
    e_u = np.take(disc.embeddings, pairs[:, 0], axis=0)
    e_v = np.take(disc.embeddings, pairs[:, 1], axis=0)
    return np.einsum("ij,ij->i", e_u, e_v) + disc.bias


def predict_pairs(disc, pairs):
    """P(edge | pair); symmetric in the pair order by construction."""
    return sigmoid(pair_logits(disc, pairs))


def generator_pair_weights(gen, pairs):
    """Batch-normalized pair weights, order-invariant via canonical pair order, and the MLP activations.

    graph_generator_step takes the activations, so one forward serves an iteration.
    """
    lo, hi = _canonical(pairs)
    emb = gen.embeddings
    acts = forward(gen.mlp, np.hstack([np.take(emb, lo, axis=0), np.take(emb, hi, axis=0)]))
    return _normalized_weights(acts[-1][:, 0])[0], acts


def _scatter_rows(idx, contrib):
    """Sum the contributions that share a row, bit for bit as np.add.at into zeros does.

    Returns (rows, block): the distinct values of idx and, in block[j], the
    sum from 0.0 of the contrib rows at rows[j] in their order of occurrence.
    Sorting the unique keys idx * k + position is a stable argsort: it groups
    equal indices into runs in occurrence order. Runs are ordered longest
    first, so round r adds the r-th contribution of every run longer than r
    into a prefix of the block.
    """
    k = len(idx)
    sorted_idx, order = np.divmod(np.sort(idx * k + np.arange(k)), k)
    starts = np.flatnonzero(np.concatenate(([True], sorted_idx[1:] != sorted_idx[:-1])))
    lengths = np.diff(np.append(starts, k))
    n_runs = len(starts)
    by_length = np.sort((lengths.max() - lengths) * n_runs + np.arange(n_runs)) % n_runs
    starts, lengths = starts[by_length], lengths[by_length]
    runs_left = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")
    block = np.zeros((n_runs, contrib.shape[1]))
    for r, n in enumerate(runs_left):
        block[:n] += contrib[order[starts[:n] + r]]
    return sorted_idx[starts], block


def _graph_disc_update(disc, batch, neg_coeff, eta_d):
    """One ascent step of the shared discriminator objective, in place on the touched rows.

    One gather at the partner of each endpoint of [pos; neg] gives both the
    logits (the einsum of pair_logits on the same row pairs) and, scaled by
    each pair's coefficient, the contributions that _scatter_rows sums.
    """
    (u_pos, v_pos), (u_neg, v_neg) = batch.pos.T, batch.neg.T
    m = len(u_pos)
    partners = np.take(disc.embeddings, np.concatenate([v_pos, u_pos, v_neg, u_neg]), axis=0)
    e_v_pos, e_u_pos = partners[:m], partners[m : 2 * m]
    e_v_neg, e_u_neg = np.split(partners[2 * m :], 2)
    loss, c_pos, c_neg = _disc_terms(
        np.einsum("ij,ij->i", e_u_pos, e_v_pos) + disc.bias,
        np.einsum("ij,ij->i", e_u_neg, e_v_neg) + disc.bias,
        neg_coeff,
    )
    partners *= np.concatenate([c_pos, c_pos, c_neg, c_neg])[:, None]
    rows, block = _scatter_rows(np.concatenate([u_pos, v_pos, u_neg, v_neg]), partners)
    grad_bias = float(c_pos.sum() + c_neg.sum())
    if not (np.all(np.isfinite(block)) and np.isfinite(grad_bias)):
        raise TrainingError("non-finite gradient")
    # scaled in place: the adversarial loop holds the generator's activations through this step
    block *= eta_d
    disc.embeddings[rows] += block
    disc.bias += eta_d * grad_bias
    return disc, loss


def graph_pretrain_step(disc, batch, eta_d):
    """Ascent with uniform negative coefficients 1/m; updates disc in place and returns it."""
    return _graph_disc_update(disc, batch, _uniform_coeff(batch.neg), eta_d)


def graph_discriminator_step(config, disc, batch, weights):
    """Ascent with negative coefficients gamma * m * weights, as in the tabular rule.

    Updates disc in place and returns it with the loss.
    """
    return _graph_disc_update(disc, batch, _weighted_coeff(config, weights), config.eta_d)


def graph_generator_step(config, disc, gen, neg_pairs, acts):
    """Descent on the weighted term plus entropy; updates gen's MLP and touched rows in place.

    acts is gen's forward on neg_pairs, as generator_pair_weights returns it.
    Returns gen with the loss. On a non-finite gradient it raises before
    changing anything.
    """
    log_one_minus_d = stable_log_one_minus_sigmoid(pair_logits(disc, neg_pairs))
    lo, hi = _canonical(neg_pairs)
    loss, out_grad = _gen_terms(acts[-1][:, 0], log_one_minus_d, config.lam)
    grads, input_grad = backward(gen.mlp, acts, out_grad[:, None])
    dim = gen.embeddings.shape[1]
    rows, block = _scatter_rows(
        np.concatenate([lo, hi]), np.concatenate([input_grad[:, :dim], input_grad[:, dim:]])
    )
    if not np.all(np.isfinite(block)):
        raise TrainingError("non-finite gradient")
    sgd_step(gen.mlp, grads, -config.eta_g)
    block *= config.eta_g
    gen.embeddings[rows] -= block
    return gen, loss


def train_graph(config, graph, train_edges, dim, gen_hidden):
    """Run the training loop where a sample is a node pair.

    All randomness derives from config.seed. Returns
    (GraphDiscriminator, GraphGenerator, TrainTrace).
    """
    seeds = np.random.SeedSequence(config.seed).spawn(3)
    rng_init_d = np.random.default_rng(seeds[0])
    rng_init_g = np.random.default_rng(seeds[1])
    rng_batches = np.random.default_rng(seeds[2])
    disc, gen = init_graph_models(graph.n_nodes, dim, gen_hidden, rng_init_d, rng_init_g)
    trace = TrainTrace()
    for i in range(config.pretrain_iters):
        batch = sample_pair_batch(train_edges, graph, config.batch_size, rng_batches)
        try:
            disc, loss = graph_pretrain_step(disc, batch, config.eta_d)
        except TrainingError as exc:
            raise TrainingError(f"pretraining iteration {i}: {exc}") from exc
        trace.pretrain_d_loss.append(loss)
    for i in range(config.train_iters):
        batch = sample_pair_batch(train_edges, graph, config.batch_size, rng_batches)
        try:
            w, gen_acts = generator_pair_weights(gen, batch.neg)
            disc, d_loss = graph_discriminator_step(config, disc, batch, w)
            gen, g_loss = graph_generator_step(config, disc, gen, batch.neg, gen_acts)
        except TrainingError as exc:
            raise TrainingError(f"adversarial iteration {i}: {exc}") from exc
        del gen_acts  # freed before the next batch's are computed, which keeps peak memory down
        trace.record(d_loss, g_loss, w)
    return disc, gen, trace


def link_predict_eval(disc, test_pos, test_neg):
    """evaluate_binary's report on the pair probabilities, with edges as class 1 and non-edges as class 0."""
    if len(test_pos) == 0 or len(test_neg) == 0:
        raise DataError("empty link prediction test set")
    labels = np.concatenate([np.ones(len(test_pos), dtype=int), np.zeros(len(test_neg), dtype=int)])
    return evaluate_binary(predict_pairs(disc, np.vstack([test_pos, test_neg])), labels)


def _fit_predict_logistic(x_train, y_train, x_test):
    """One logistic regression per column of the (n, k) 0/1 y_train, fit in lockstep.

    Each head starts from zero and takes 300 full-batch ascent steps at rate
    0.5. The heads are the rows of a (k, d) weight matrix and a (k, 1) bias
    column, so a step is two gemms over all heads at once. A single head is
    fit bit for bit as it would be alone; with two or more, gemm sums each
    product in another order than a lone head's gemv, so a head's weights
    may differ from a lone head's in the last bits. Returns the (n_test, k)
    0/1 predictions at probability 0.5 and the fitted [(weights, biases)].
    """
    n, k = y_train.shape
    params = [(np.zeros((k, x_train.shape[1])), np.zeros((k, 1)))]
    w, b = params[0]
    targets = y_train.T
    for _ in range(300):
        # backward() for one identity layer per head, without the unused input gradient
        delta = (targets - sigmoid(w @ x_train.T + b)) / n
        sgd_step(params, [(delta @ x_train, delta.sum(axis=1, keepdims=True))], 0.5)
    pred = sigmoid(w @ x_test.T + b) >= 0.5
    return pred.T.astype(int), params


def check_probe_settings(y, n_nodes, train_frac, n_shuffles):
    """Raise ConfigError unless node_classification_eval can run; returns the visible node count."""
    if n_shuffles < 1:
        raise ConfigError(f"need at least one label shuffle, got {n_shuffles}")
    if y.shape[0] != n_nodes:
        raise ConfigError(f"{y.shape[0]} label rows vs {n_nodes} embedding rows")
    n_visible = int(round(train_frac * n_nodes))
    if n_visible < 1 or n_visible >= n_nodes:
        raise ConfigError("train_frac leaves no visible or no hidden nodes")
    return n_visible


def node_classification_eval(embeddings, y, train_frac, n_shuffles, seed):
    """One-vs-all logistic probes on frozen embeddings and the 0/1 label matrix y.

    Per shuffle, train_frac of the nodes are visible; a logistic head per
    class is fit on the visible embeddings, the shuffle's heads in lockstep,
    and each hidden node receives every label whose head outputs probability
    >= 0.5. A class with no visible positive node predicts negative. Returns
    mean and std of micro/macro F1 over the shuffles.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    n = emb.shape[0]
    n_visible = check_probe_settings(y, n, train_frac, n_shuffles)
    micros = []
    macros = []
    for child in np.random.SeedSequence(seed).spawn(n_shuffles):
        rng = np.random.default_rng(child)
        perm = rng.permutation(n)
        visible, hidden = perm[:n_visible], perm[n_visible:]
        y_vis = np.take(y, visible, axis=0)
        fit = y_vis.sum(axis=0) > 0
        pred = np.zeros((len(hidden), y.shape[1]), dtype=int)
        if fit.any():
            x_vis, x_hid = np.take(emb, visible, axis=0), np.take(emb, hidden, axis=0)
            pred[:, fit] = _fit_predict_logistic(x_vis, y_vis[:, fit], x_hid)[0]
        hit, truth = pred == 1, np.take(y, hidden, axis=0) == 1
        tp = np.count_nonzero(hit & truth, axis=0)
        fp = np.count_nonzero(hit & ~truth, axis=0)
        fn = np.count_nonzero(~hit & truth, axis=0)
        macro, micro = macro_micro_f1(zip(tp, fp, fn))
        micros.append(micro)
        macros.append(macro)
    return {
        "micro_f1_mean": float(np.mean(micros)),
        "micro_f1_std": float(np.std(micros)),
        "macro_f1_mean": float(np.mean(macros)),
        "macro_f1_std": float(np.std(macros)),
        "n_shuffles": int(n_shuffles),
    }


def save_embeddings_csv(path, embeddings):
    """Rows of node_id followed by the embedding coordinates; no header row."""
    emb = np.asarray(embeddings, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(emb):
            fh.write(",".join([str(i)] + [repr(v) for v in row.tolist()]) + "\n")
