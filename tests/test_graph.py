"""Tests for the graph pair-classification application."""

import itertools

import numpy as np
import pytest

from advclf.adversarial import TrainConfig
from advclf.errors import ConfigError, DataError, TrainingError
from advclf.graph import (
    Graph,
    GraphDiscriminator,
    GraphGenerator,
    NodeLabels,
    generator_pair_weights,
    graph_discriminator_step,
    graph_generator_step,
    graph_pretrain_step,
    init_graph_models,
    link_predict_eval,
    load_edge_list,
    load_node_labels,
    node_classification_eval,
    pair_logits,
    predict_pairs,
    PairBatch,
    sample_non_edges,
    sample_pair_batch,
    save_embeddings_csv,
    sbm_graph,
    split_edges,
    train_graph,
)
from advclf.nn import Layer, MlpParams
from helpers import sample_non_edges_loop, sample_pair_batch_loop, split_edges_loop


def two_cliques(size=5):
    """Two disjoint complete blocks: 0..size-1 and size..2*size-1."""
    edges = set()
    for block in (range(size), range(size, 2 * size)):
        edges.update(itertools.combinations(block, 2))
    return Graph(n_nodes=2 * size, edges=edges)


def path_graph(n=6):
    return Graph(n_nodes=n, edges=[(i, i + 1) for i in range(n - 1)])


# --- the edge-key layout ---


def test_graph_edges_are_sorted_unique_keys():
    g = Graph(n_nodes=5, edges=[(3, 1), (0, 4), (1, 3), (2, 0)])
    assert g.edges.dtype == np.int64
    assert g.edges.tolist() == [0 * 5 + 2, 0 * 5 + 4, 1 * 5 + 3]
    assert g.n_edges == 3
    assert g.pairs() == [(0, 2), (0, 4), (1, 3)]
    assert all(type(u) is int and type(v) is int for u, v in g.pairs())


def test_graph_has_edge_scalar_and_vectorised():
    g = Graph(n_nodes=5, edges=[(3, 1), (0, 4)])
    assert g.has_edge(1, 3) and g.has_edge(3, 1) and g.has_edge(4, 0)
    assert not g.has_edge(0, 1) and not g.has_edge(4, 4)
    u = np.array([[1, 0], [2, 4]])
    v = np.array([[3, 4], [2, 1]])
    np.testing.assert_array_equal(g.has_edge(u, v), [[True, True], [False, False]])
    # ids outside the graph are never edges, even where their key would alias one
    assert not g.has_edge(-1, 9) and not g.has_edge(0, 8)  # keys 4 and 8: (0, 4), (1, 3)
    every = np.array(list(itertools.product(range(5), repeat=2)))
    hits = {(int(a), int(b)) for a, b in every[g.has_edge(every[:, 0], every[:, 1])]}
    assert hits == {(1, 3), (3, 1), (0, 4), (4, 0)}


@pytest.mark.parametrize("edges", [[(1, 1)], [(0, 5)], [(-1, 2)]])
def test_graph_rejects_pairs_outside_the_node_range(edges):
    with pytest.raises(DataError, match="distinct nodes"):
        Graph(n_nodes=5, edges=edges)


def test_edgeless_graph():
    g = sbm_graph([3, 3], 0.0, 0.0, seed=0)
    assert g.n_nodes == 6 and g.n_edges == 0
    assert g.pairs() == []
    assert not g.has_edge(0, 1)
    np.testing.assert_array_equal(g.has_edge(np.arange(5), np.arange(1, 6)), np.zeros(5, bool))
    with pytest.raises(DataError, match="0 of 0 edges"):
        split_edges(g, 0.5, seed=0)


# --- loading ---


def test_load_edge_list_basic(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# comment\n0 1\n\n1 2\n")
    g = load_edge_list(p)
    assert g.n_nodes == 3
    assert g.n_edges == 2
    assert g.has_edge(1, 0) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)


def test_load_edge_list_dedupes_either_order(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("0 1\n1 0\n0    1\n")
    assert load_edge_list(p).n_edges == 1


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("0 1 2\n", "line 1"),
        ("0 x\n", "non-integer"),
        ("0 1\n-1 2\n", "line 2"),
        ("3 3\n", "self-loop"),
        ("# nothing\n", "no edges"),
    ],
)
def test_load_edge_list_errors(tmp_path, content, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(DataError, match=fragment):
        load_edge_list(p)


def test_load_edge_list_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_edge_list(tmp_path / "absent.txt")


def test_load_edge_list_collaboration_scale(tmp_path):
    """A file shaped like a small collaboration network loads with exact counts."""
    n_nodes, n_edges = 5242, 14496
    rng = np.random.default_rng(0)
    edges = set()
    while len(edges) < n_edges - 1:
        u, v = rng.integers(0, n_nodes, size=2)
        if u != v:
            edges.add((int(min(u, v)), int(max(u, v))))
    edges.add((0, n_nodes - 1))  # pin the extremes so n_nodes is exact
    p = tmp_path / "collab.txt"
    p.write_text("\n".join(f"{u} {v}" for u, v in sorted(edges)) + "\n")
    g = load_edge_list(p)
    assert g.n_nodes == n_nodes
    assert g.n_edges == n_edges


def test_load_node_labels(tmp_path):
    p = tmp_path / "labels.txt"
    p.write_text("0 1\n1 0 2\n3 1\n")
    nl = load_node_labels(p)
    assert nl.n_classes == 3
    assert nl.labels == [{1}, {0, 2}, set(), {1}]
    nl = load_node_labels(p, n_nodes=6)
    assert len(nl.labels) == 6


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("0\n", "at least one label"),
        ("0 a\n", "non-integer"),
        ("0 -1\n", "negative"),
        ("", "no label lines"),
    ],
)
def test_load_node_labels_errors(tmp_path, content, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(DataError, match=fragment):
        load_node_labels(p)


def test_load_node_labels_node_beyond_count(tmp_path):
    p = tmp_path / "labels.txt"
    p.write_text("7 1\n")
    with pytest.raises(DataError, match="exceeds node count"):
        load_node_labels(p, n_nodes=5)


# --- sampling and splitting ---


def test_sample_non_edges_path_graph():
    # path 0-1-2: the only non-edge is (0, 2)
    g = Graph(n_nodes=3, edges={(0, 1), (1, 2)})
    out = sample_non_edges(g, 1, np.random.default_rng(0))
    assert out == [(0, 2)]


def test_sample_non_edges_dense_graph_fails():
    g = Graph(n_nodes=4, edges=set(itertools.combinations(range(4), 2)))
    with pytest.raises(DataError, match="too dense"):
        sample_non_edges(g, 1, np.random.default_rng(0), tries_per_sample=100)


def test_split_edges_partitions():
    g = sbm_graph([20, 20], 0.4, 0.05, seed=3)
    train, test_pos, test_neg = split_edges(g, 0.25, seed=7)
    assert len(test_pos) == round(0.25 * g.n_edges)
    assert len(test_neg) == len(test_pos)
    assert set(train) | set(test_pos) == set(g.pairs())
    assert set(train) & set(test_pos) == set()
    assert not any(g.has_edge(u, v) for u, v in test_neg)
    assert len(set(test_neg)) == len(test_neg)
    # deterministic in the seed
    again = split_edges(g, 0.25, seed=7)
    assert again[0] == train and again[1] == test_pos and again[2] == test_neg


def test_split_edges_fails_fast_without_test_or_training_edges():
    g = two_cliques(3)  # 6 edges
    with pytest.raises(DataError, match="holds out 0 of 6 edges"):
        split_edges(g, 0.05, seed=0)
    with pytest.raises(DataError, match="holds out 6 of 6 edges"):
        split_edges(g, 0.95, seed=0)


def test_split_edges_bad_frac():
    g = Graph(n_nodes=3, edges={(0, 1)})
    for frac in (0.0, 1.0, -0.5):
        with pytest.raises(ConfigError):
            split_edges(g, frac, seed=0)


def test_sample_pair_batch_counts_and_rejection():
    g = two_cliques(4)
    train = g.pairs()
    batch = sample_pair_batch(train, g, 32, np.random.default_rng(1))
    assert batch.pos.shape == (32, 2) and batch.neg.shape == (32, 2)
    assert all((int(u), int(v)) in train for u, v in batch.pos)
    assert all((int(u), int(v)) not in train for u, v in batch.neg)


ORACLE_GRAPHS = {
    "two_cliques": lambda: two_cliques(4),  # 12 of 28 pairs are edges: heavy rejection
    "sbm": lambda: sbm_graph([20, 20], 0.4, 0.05, seed=3),
    "path": lambda: path_graph(6),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
@pytest.mark.parametrize("m", [1, 7, 512])
def test_sample_pair_batch_matches_one_try_loop(name, m):
    """Same pairs and same RNG state as drawing one try at a time, call after call."""
    g = ORACLE_GRAPHS[name]()
    train = g.pairs()
    rng, ref_rng = np.random.default_rng(m), np.random.default_rng(m)
    for _ in range(3):
        batch = sample_pair_batch(train, g, m, rng)
        expected = sample_pair_batch_loop(train, g, m, ref_rng)
        np.testing.assert_array_equal(batch.pos, expected.pos)
        np.testing.assert_array_equal(batch.neg, expected.neg)
        assert batch.neg.dtype == np.int64
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_sample_non_edges_matches_one_try_loop(name):
    g = ORACLE_GRAPHS[name]()
    n_non_edges = g.n_nodes * (g.n_nodes - 1) // 2 - g.n_edges
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    # the last count asks for every non-edge of the small graphs, so late tries hit repeats
    for count in (0, 1, 7, min(n_non_edges, 60)):
        assert sample_non_edges(g, count, rng) == sample_non_edges_loop(g, count, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
@pytest.mark.parametrize("test_frac", [0.25, 0.5])
def test_split_edges_matches_one_try_loop(name, test_frac):
    g = ORACLE_GRAPHS[name]()
    for seed in range(3):
        assert split_edges(g, test_frac, seed) == split_edges_loop(g, test_frac, seed)


@pytest.mark.parametrize(
    "sampler,oracle,args,error",
    [
        # every pair is an edge
        (sample_non_edges, sample_non_edges_loop,
         (Graph(n_nodes=4, edges=itertools.combinations(range(4), 2)), 2), DataError),
        # one non-edge, so a second distinct one never comes
        (sample_non_edges, sample_non_edges_loop, (path_graph(3), 2), DataError),
        (sample_pair_batch, sample_pair_batch_loop,
         ([(0, 1)], Graph(n_nodes=3, edges=[(0, 1), (0, 2), (1, 2)]), 3), TrainingError),
    ],
)
def test_samplers_exhaust_their_budget_like_the_loop(sampler, oracle, args, error):
    """A budget failure raises the loop's error after the loop's number of draws."""
    rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises(error) as got:
        sampler(*args, rng)
    with pytest.raises(error) as expected:
        oracle(*args, ref_rng)
    assert str(got.value) == str(expected.value)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_pair_batch_positive_frequencies_uniform():
    """Each training edge is drawn with replacement at the uniform rate."""
    g = sbm_graph([10, 10], 0.3, 0.1, seed=5)
    train = g.pairs()[:10]
    n_draws = 20000
    batch = sample_pair_batch(train, g, n_draws, np.random.default_rng(2))
    pairs, counts = np.unique(batch.pos, axis=0, return_counts=True)
    assert len(pairs) == 10
    expected = n_draws / 10
    sigma = np.sqrt(n_draws * 0.1 * 0.9)
    assert np.all(np.abs(counts - expected) < 5 * sigma)


def test_sample_pair_batch_errors():
    g = Graph(n_nodes=3, edges={(0, 1)})
    with pytest.raises(ConfigError):
        sample_pair_batch([(0, 1)], g, 0, np.random.default_rng(0))
    with pytest.raises(DataError, match="no training edges"):
        sample_pair_batch([], g, 4, np.random.default_rng(0))
    dense = Graph(n_nodes=3, edges={(0, 1), (0, 2), (1, 2)})
    with pytest.raises(TrainingError, match="rejection budget"):
        sample_pair_batch([(0, 1)], dense, 4, np.random.default_rng(0))


# --- models and updates ---


def test_pair_logits_symmetric():
    rng = np.random.default_rng(0)
    disc = GraphDiscriminator(rng.standard_normal((6, 4)), bias=0.3)
    pairs = np.array([[0, 5], [2, 1], [3, 4]])
    fwd = pair_logits(disc, pairs)
    rev = pair_logits(disc, pairs[:, ::-1])
    np.testing.assert_allclose(fwd, rev, atol=0.0)
    np.testing.assert_allclose(
        predict_pairs(disc, pairs), predict_pairs(disc, pairs[:, ::-1]), atol=0.0
    )


def test_generator_pair_weights_order_invariant():
    rng = np.random.default_rng(4)
    _, gen = init_graph_models(6, 3, (5,), rng, rng)
    pairs = np.array([[0, 5], [2, 1], [3, 4]])
    np.testing.assert_allclose(
        generator_pair_weights(gen, pairs),
        generator_pair_weights(gen, pairs[:, ::-1]),
        atol=0.0,
    )
    w = generator_pair_weights(gen, pairs)
    assert np.all(w > 0) and float(w.sum()) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_graph_generator_raises():
    # an output bias of -1000 makes every softplus underflow to exactly 0
    rng = np.random.default_rng(4)
    disc, gen = init_graph_models(6, 3, (5,), rng, rng)
    *hidden, out = gen.mlp.layers
    mlp = MlpParams([*hidden, Layer(out.weight, np.array([-1000.0]))])
    gen = GraphGenerator(gen.embeddings, mlp)
    pairs = np.array([[0, 5], [2, 1], [3, 4]])
    with pytest.raises(TrainingError, match="degenerate generator"):
        generator_pair_weights(gen, pairs)
    with pytest.raises(TrainingError, match="degenerate generator"):
        graph_generator_step(TrainConfig(batch_size=3), disc, gen, pairs)


def disc_objective(embeddings, bias, batch, neg_coeff):
    def logit(e, pairs):
        return np.einsum("ij,ij->i", e[pairs[:, 0]], e[pairs[:, 1]]) + bias

    def logsig(z):
        return -np.logaddexp(0.0, -z)

    s_pos = logit(embeddings, batch.pos)
    s_neg = logit(embeddings, batch.neg)
    return float(np.mean(logsig(s_pos)) + np.sum(neg_coeff * (-np.logaddexp(0.0, s_neg))))


def test_graph_disc_step_gradient_matches_finite_differences():
    """(emb_new - emb_old) / eta agrees with central differences of the ascent objective."""
    rng = np.random.default_rng(9)
    g = two_cliques(3)
    disc, gen = init_graph_models(g.n_nodes, 3, (4,), rng, rng)
    batch = sample_pair_batch(g.pairs(), g, 5, rng)
    cfg = TrainConfig(batch_size=5, gamma=0.11, eta_d=0.7)
    w = generator_pair_weights(gen, batch.neg)
    coeff = cfg.gamma * 5 * w
    new_disc, _ = graph_discriminator_step(cfg, disc, batch, w)
    analytic = (new_disc.embeddings - disc.embeddings) / cfg.eta_d
    eps = 1e-6
    for idx in np.ndindex(disc.embeddings.shape):
        bumped = disc.embeddings.copy()
        bumped[idx] += eps
        hi = disc_objective(bumped, disc.bias, batch, coeff)
        bumped[idx] -= 2 * eps
        lo = disc_objective(bumped, disc.bias, batch, coeff)
        assert analytic[idx] == pytest.approx((hi - lo) / (2 * eps), rel=1e-4, abs=1e-8)
    hi = disc_objective(disc.embeddings, disc.bias + eps, batch, coeff)
    lo = disc_objective(disc.embeddings, disc.bias - eps, batch, coeff)
    assert (new_disc.bias - disc.bias) / cfg.eta_d == pytest.approx(
        (hi - lo) / (2 * eps), rel=1e-4, abs=1e-8
    )


def test_graph_gen_step_gradient_matches_finite_differences():
    """Generator table update agrees with central differences through the MLP and normalization."""
    rng = np.random.default_rng(10)
    g = two_cliques(3)
    disc, gen = init_graph_models(g.n_nodes, 2, (3,), rng, rng)
    neg = sample_pair_batch(g.pairs(), g, 4, rng).neg
    cfg = TrainConfig(batch_size=4, lam=0.2, eta_g=0.3)
    log1md = -np.logaddexp(0.0, pair_logits(disc, neg))

    def objective(embeddings):
        probe = GraphGenerator(embeddings, gen.mlp)
        w = generator_pair_weights(probe, neg)
        return float(np.sum(w * log1md) + cfg.lam * np.sum(w * np.log(w)))

    new_gen, _ = graph_generator_step(cfg, disc, gen, neg)
    analytic = (gen.embeddings - new_gen.embeddings) / cfg.eta_g
    eps = 1e-6
    for idx in np.ndindex(gen.embeddings.shape):
        bumped = gen.embeddings.copy()
        bumped[idx] += eps
        hi = objective(bumped)
        bumped[idx] -= 2 * eps
        lo = objective(bumped)
        assert analytic[idx] == pytest.approx((hi - lo) / (2 * eps), rel=1e-4, abs=1e-8)


def test_graph_reduction_identity():
    # gamma = 1/m with uniform weights reproduces a pretraining step on the same batch
    rng = np.random.default_rng(12)
    g = two_cliques(4)
    disc, gen = init_graph_models(g.n_nodes, 3, (4,), rng, rng)
    batch = sample_pair_batch(g.pairs(), g, 6, rng)
    cfg = TrainConfig(batch_size=6, gamma=1.0 / 6.0, eta_d=0.4)
    uniform = np.full(6, 1.0 / 6.0)
    d_adv, _ = graph_discriminator_step(cfg, disc, batch, uniform)
    d_pre, _ = graph_pretrain_step(disc, batch, cfg.eta_d)
    assert np.max(np.abs(d_adv.embeddings - d_pre.embeddings)) <= 1e-12
    assert abs(d_adv.bias - d_pre.bias) <= 1e-12


def test_init_graph_models_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        init_graph_models(1, 4, (), rng, rng)
    with pytest.raises(ConfigError):
        init_graph_models(5, 0, (), rng, rng)
    disc, gen = init_graph_models(5, 4, (3,), rng, rng)
    assert disc.embeddings.shape == (5, 4)
    assert np.max(np.abs(disc.embeddings)) <= 0.5 / 4
    assert gen.mlp.in_dim == 8


# --- training ---


def test_train_graph_learns_two_cliques():
    """Intra-block pairs must outscore cross pairs after training on the cliques."""
    g = two_cliques(5)
    intra = g.pairs()
    inter = [(u, v) for u in range(5) for v in range(5, 10)]
    cfg = TrainConfig(
        batch_size=16, pretrain_iters=400, train_iters=100,
        eta_d=0.5, eta_g=1e-3, gamma=1.0 / 16, lam=0.1, seed=0,
    )
    disc, gen, trace = train_graph(cfg, g, intra, dim=8, gen_hidden=(8,))
    assert pair_logits(disc, np.asarray(intra)).mean() > pair_logits(disc, np.asarray(inter)).mean()
    report = link_predict_eval(disc, intra, inter)
    assert report.accuracy > 0.9
    assert report.macro_f1 > 0.9
    assert len(trace.pretrain_d_loss) == 400
    assert len(trace.d_loss) == 100


def test_train_graph_deterministic():
    g = two_cliques(4)
    cfg = TrainConfig(batch_size=8, pretrain_iters=10, train_iters=10, eta_g=1e-3, seed=3)
    d1, g1, t1 = train_graph(cfg, g, g.pairs(), dim=4, gen_hidden=(4,))
    d2, g2, t2 = train_graph(cfg, g, g.pairs(), dim=4, gen_hidden=(4,))
    np.testing.assert_array_equal(d1.embeddings, d2.embeddings)
    np.testing.assert_array_equal(g1.embeddings, g2.embeddings)
    assert d1.bias == d2.bias
    assert t1.d_loss == t2.d_loss


def test_train_graph_zero_iters_is_init():
    g = two_cliques(4)
    cfg = TrainConfig(batch_size=8, pretrain_iters=0, train_iters=0, seed=11)
    disc, gen, trace = train_graph(cfg, g, g.pairs(), dim=4, gen_hidden=(4,))
    seeds = np.random.SeedSequence(11).spawn(3)
    exp_d, exp_g = init_graph_models(
        g.n_nodes, 4, (4,), np.random.default_rng(seeds[0]), np.random.default_rng(seeds[1])
    )
    np.testing.assert_array_equal(disc.embeddings, exp_d.embeddings)
    np.testing.assert_array_equal(gen.embeddings, exp_g.embeddings)
    assert disc.bias == 0.0
    assert trace.pretrain_d_loss == [] and trace.d_loss == []


def test_link_predict_eval_empty_sets():
    disc = GraphDiscriminator(np.zeros((3, 2)), 0.0)
    with pytest.raises(DataError, match="empty"):
        link_predict_eval(disc, [], [(0, 1)])
    with pytest.raises(DataError, match="empty"):
        link_predict_eval(disc, [(0, 1)], [])


# --- SBM generator ---


def test_sbm_graph_extremes():
    g = sbm_graph([4, 4], 1.0, 0.0, seed=0)
    assert g.n_nodes == 8
    assert g.n_edges == 2 * 6  # two complete 4-blocks
    assert not any(u < 4 <= v for u, v in g.pairs())


def test_sbm_graph_deterministic_and_plausible():
    g1 = sbm_graph([30, 30], 0.3, 0.02, seed=42)
    g2 = sbm_graph([30, 30], 0.3, 0.02, seed=42)
    assert g1.pairs() == g2.pairs()
    within = sum(1 for u, v in g1.pairs() if (u < 30) == (v < 30))
    cross = g1.n_edges - within
    # expectations: 0.3 * 2 * C(30,2) = 261 within, 0.02 * 900 = 18 cross
    assert 180 < within < 340
    assert cross < 50


def test_sbm_graph_validation():
    with pytest.raises(ConfigError):
        sbm_graph([], 0.5, 0.1, seed=0)
    with pytest.raises(ConfigError):
        sbm_graph([3, 0], 0.5, 0.1, seed=0)
    with pytest.raises(ConfigError):
        sbm_graph([3, 3], 1.5, 0.1, seed=0)


# --- node classification probes ---


def test_node_classification_perfect_embeddings():
    """One-hot class embeddings are linearly separable, so both F1 means hit 1.

    The pool is big enough that every class keeps hidden positives in every
    shuffle; a class with none would score macro-F1 0 by convention.
    """
    labels = [{i % 3} for i in range(30)]
    emb = np.zeros((30, 3))
    for i in range(30):
        emb[i, i % 3] = 1.0
    out = node_classification_eval(emb, NodeLabels(labels, 3), train_frac=0.7, n_shuffles=4, seed=0)
    assert out["micro_f1_mean"] == pytest.approx(1.0)
    assert out["macro_f1_mean"] == pytest.approx(1.0)
    assert out["n_shuffles"] == 4


def test_node_classification_handles_class_with_no_visible_positives():
    # class 1 has a single positive node; some shuffles hide it entirely
    labels = [{0}] * 9 + [{1}]
    emb = np.eye(10)
    out = node_classification_eval(emb, NodeLabels(labels, 2), train_frac=0.5, n_shuffles=6)
    assert 0.0 <= out["macro_f1_mean"] <= 1.0
    assert out["micro_f1_std"] >= 0.0


def test_node_classification_validation():
    emb = np.zeros((4, 2))
    with pytest.raises(ConfigError, match="two classes"):
        node_classification_eval(emb, NodeLabels([{0}] * 4, 1))
    with pytest.raises(ConfigError, match="label rows"):
        node_classification_eval(emb, NodeLabels([{0}] * 3, 2))
    with pytest.raises(ConfigError, match="train_frac"):
        node_classification_eval(emb, NodeLabels([{0}, {1}, {0}, {1}], 2), train_frac=1.0)


def test_node_classification_deterministic():
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((20, 4))
    labels = NodeLabels([{int(i >= 10)} for i in range(20)], 2)
    a = node_classification_eval(emb, labels, n_shuffles=3, seed=5)
    b = node_classification_eval(emb, labels, n_shuffles=3, seed=5)
    assert a == b


# --- embedding export ---


def test_save_embeddings_csv_round_trip(tmp_path):
    emb = np.random.default_rng(3).standard_normal((5, 3))
    path = tmp_path / "emb.csv"
    save_embeddings_csv(path, emb)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 5
    for i, line in enumerate(lines):
        fields = line.split(",")
        assert int(fields[0]) == i
        np.testing.assert_array_equal(np.array([float(v) for v in fields[1:]]), emb[i])
