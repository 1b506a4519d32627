"""Tests for the graph pair-classification application."""

import copy
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advclf.graph
from advclf.adversarial import TrainConfig
from advclf.errors import ConfigError, DataError, TrainingError
from advclf.graph import (
    MAX_NODES,
    Graph,
    GraphDiscriminator,
    GraphGenerator,
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
    _fit_predict_logistic,
    check_probe_settings,
    _scatter_rows,
    sample_non_edges,
    sample_pair_batch,
    save_embeddings_csv,
    split_edges,
    train_graph,
)
from advclf.nn import forward
from helpers import (
    array_bits,
    exact_parse_only,
    fit_logistic_head,
    load_outcome,
    graph_disc_update_add_at,
    graph_generator_step_add_at,
    node_classification_eval_per_class,
    pair_set,
    predict_logistic_head,
    read_blocks_of,
    sample_non_edges_loop,
    sample_pair_batch_loop,
    sbm_graph,
    scatter_add_at,
    split_edges_loop,
    train_graph_add_at,
)


def two_cliques(size=5):
    """Two disjoint complete blocks: 0..size-1 and size..2*size-1."""
    edges = set()
    for block in (range(size), range(size, 2 * size)):
        edges.update(itertools.combinations(block, 2))
    return Graph(n_nodes=2 * size, edges=edges)


def path_graph(n=6):
    return Graph(n_nodes=n, edges=[(i, i + 1) for i in range(n - 1)])


def assert_same_pairs(got, expected):
    """Both are (k, 2) int64 arrays holding the same rows in the same order; got is C-contiguous."""
    assert got.dtype == expected.dtype == np.int64
    assert got.shape == expected.shape and got.shape[1:] == (2,)
    assert got.flags.c_contiguous
    assert np.array_equal(got, expected)


# --- the edge-key layout ---


def test_graph_edges_are_sorted_unique_keys():
    g = Graph(n_nodes=5, edges=[(3, 1), (0, 4), (1, 3), (2, 0)])
    assert g.edges.dtype == np.int64
    assert g.edges.tolist() == [0 * 5 + 2, 0 * 5 + 4, 1 * 5 + 3]
    assert g.n_edges == 3
    assert g.pairs().dtype == np.int64 and g.pairs().shape == (3, 2)
    assert g.pairs().tolist() == [[0, 2], [0, 4], [1, 3]]


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


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 5000), k=st.integers(0, 20_000), seed=st.integers(0, 2**32 - 1))
def test_graph_keys_are_the_sorted_set_of_canonical_pairs(n, k, seed):
    """Any (k, 2) id array, rows in either order and repeated, gives the sorted set of (min, max) keys."""
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=k)
    v = (u + rng.integers(1, n, size=k)) % n  # v != u, and either id may be n - 1
    pairs = np.column_stack((u, v))
    if k:
        pairs = np.vstack([pairs, pairs[rng.integers(0, k, size=k // 4), ::-1]])  # repeats, reversed
    g = Graph(n_nodes=n, edges=pairs)
    expected = sorted({min(a, b) * n + max(a, b) for a, b in pairs.tolist()})
    assert g.edges.dtype == np.int64
    assert g.edges.tolist() == expected


@pytest.mark.parametrize("edges", [[(1, 1)], [(0, 5)], [(-1, 2)]])
def test_graph_rejects_pairs_outside_the_node_range(edges):
    with pytest.raises(DataError, match="distinct nodes"):
        Graph(n_nodes=5, edges=edges)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 80), k=st.integers(0, 300), q=st.integers(1, 200), ndim=st.sampled_from([0, 1, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_has_edge_answers_as_the_pair_set(n, k, q, ndim, seed):
    """has_edge(u, v) is whether (min, max) is a row of g.pairs(), for any query shape and order.

    The queries repeat and come unsorted: edges in either order, random ids
    in -n..2n-1, and (lo - 1, hi + n) for an edge (lo, hi), which lies
    outside the graph but has the edge's key. k = 0 gives an edgeless graph.
    """
    rng = np.random.default_rng(seed)
    u = rng.integers(0, n, size=k)
    g = Graph(n_nodes=n, edges=np.column_stack((u, (u + rng.integers(1, n, size=k)) % n)))
    edges = g.pairs()
    pool = np.vstack([edges, edges[:, ::-1], edges + [-1, n], rng.integers(-n, 2 * n, size=(q, 2))])
    shape = {0: (), 1: (q,), 2: (q, 3)}[ndim]
    queries = pool[rng.integers(0, len(pool), size=shape)]
    u, v = queries[..., 0], queries[..., 1]
    if ndim == 0:
        u, v = int(u), int(v)
    got = g.has_edge(u, v)
    truth = pair_set(edges)
    want = [(min(a, b), max(a, b)) in truth for a, b in zip(np.ravel(u).tolist(), np.ravel(v).tolist())]
    assert np.shape(got) == shape and np.asarray(got).dtype == bool
    assert np.ravel(got).tolist() == want


def test_edgeless_graph():
    g = sbm_graph([3, 3], 0.0, 0.0, seed=0)
    assert g.n_nodes == 6 and g.n_edges == 0
    assert g.pairs().dtype == np.int64 and g.pairs().shape == (0, 2)
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
        ("\n \u3000\n\t\n", "no edges"),
        ("", "no edges"),
    ],
)
def test_load_edge_list_errors(tmp_path, content, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(content, encoding="utf-8")
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


# what int() and numpy's reader each accept or refuse: signs, underscores, non-ASCII digits, hex,
# floats, ids beyond int64 and beyond MAX_NODES, negatives and comment-like tokens
ODD_IDS = ["+3", "1_0", "\u0663", "0x1", "1.0", "9223372036854775808", "4000000000", "-2", "-0", "007",
           "#5", "x"]


@st.composite
def edge_texts(draw):
    """An edge list with a few of the anomalies load_edge_list must name or accept."""
    ids = st.integers(0, 30).map(str)
    rows = [list(p) for p in draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=6))]
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(
            ["odd id", "negative id", "extra id", "missing id", "self-loop", "every line +1"]
        ))
        if kind == "odd id" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_IDS))
        elif kind == "negative id" and row:
            row[draw(st.integers(0, len(row) - 1))] = str(draw(st.integers(-30, -1)))
        elif kind == "extra id":
            row.append(draw(ids))
        elif kind == "missing id" and row:
            row.pop()
        elif kind == "self-loop" and row:
            row[-1] = row[0]
        elif kind == "every line +1":
            for r in rows:
                r.append(draw(ids))
    return file_text(draw, rows)


def file_text(draw, rows):
    """The token rows as a file's text, with blank lines, and comment lines unless the file is '#'-free.

    Blank lines include U+3000-only ones, which str.split() and numpy's
    reader both take as whitespace. Line ends are LF or CRLF, and the text
    may start with a UTF-8 byte-order mark.
    """
    lines = [draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from([" ", "\t", "  "])).join(row)
             for row in rows]
    extra = ["", "  ", "\u3000"] + (["# c", " #0 1"] if draw(st.booleans()) else [])
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(extra)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(lines) + draw(st.sampled_from(["", newline]))


def edges_outcome(path):
    return load_outcome(lambda: load_edge_list(path), lambda g: (g.n_nodes, *array_bits(g.edges)))


@settings(max_examples=400, deadline=None)
@given(text=edge_texts(), block=st.integers(1, 16))
def test_load_edge_list_matches_its_token_by_token_parse(text, block):
    """numpy's reader and the per-token parse load the same graph or raise the same error.

    Read a few bytes at a time, the reader takes some blocks and rejects others.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "e.txt"
        path.write_bytes(text.encode("utf-8"))
        fast = edges_outcome(path)
        with read_blocks_of(block):
            blocked = edges_outcome(path)
        with exact_parse_only():
            exact = edges_outcome(path)
    assert fast == blocked == exact


# what int() and numpy's reader each accept or refuse in a label file
ODD_LABEL_IDS = ["+3", "1_0", "\u0661\u0662", "9223372036854775808", "-2", "-0", "x", "#5"]


@st.composite
def label_texts(draw):
    """A label file, and the node count it is loaded with, with a few of the anomalies load_node_labels meets.

    Half the files hold two ids on every line, the reader's case; the others
    mix lines of one to four ids.
    """
    n_nodes = draw(st.integers(1, 12))
    nodes, labels = st.integers(0, n_nodes - 1).map(str), st.integers(0, 12).map(str)
    widths = st.just(1) if draw(st.booleans()) else st.sampled_from([0, 1, 1, 2, 3])
    rows = [[draw(nodes)] + draw(st.lists(labels, min_size=width, max_size=width))
            for width in draw(st.lists(widths, max_size=6))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["odd id", "negative id", "node past the count"]))
        if kind == "node past the count":
            row[0] = str(n_nodes + draw(st.integers(0, 2)))
        else:
            odd = st.sampled_from(ODD_LABEL_IDS) if kind == "odd id" else st.integers(-9, -1).map(str)
            row[draw(st.integers(0, len(row) - 1))] = draw(odd)
    return file_text(draw, rows), n_nodes


@settings(max_examples=400, deadline=None)
@given(case=label_texts(), block=st.integers(1, 16))
def test_load_node_labels_matches_its_token_by_token_parse(case, block):
    """numpy's reader and the per-token parse load the same matrix or raise the same error.

    Read a few bytes at a time, the reader takes some blocks and rejects others.
    """
    text, n_nodes = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labels.txt"
        path.write_bytes(text.encode("utf-8"))

        def outcome():
            return load_outcome(lambda: load_node_labels(path, n_nodes), array_bits)

        fast = outcome()
        with read_blocks_of(block):
            blocked = outcome()
        with exact_parse_only():
            exact = outcome()
    assert fast == blocked == exact


def test_graph_node_count_limit_is_the_largest_int64_pair_key():
    """The largest key, (n - 1) * n + (n - 1) = n**2 - 1, fits in int64 exactly up to MAX_NODES nodes."""
    assert (MAX_NODES**2 - 1 <= 2**63 - 1) and ((MAX_NODES + 1) ** 2 - 1 > 2**63 - 1)
    top = MAX_NODES - 1
    g = Graph(n_nodes=MAX_NODES, edges=np.array([[0, top], [top - 1, top]]))
    assert g.has_edge(top, top - 1) and not g.has_edge(0, top - 1)
    assert_same_pairs(g.pairs(), np.array([[0, top], [top - 1, top]]))
    with pytest.raises(DataError, match=f"node id {MAX_NODES} is too large"):
        Graph(n_nodes=MAX_NODES + 1, edges=[(0, 1)])


def test_load_node_labels(tmp_path):
    p = tmp_path / "labels.txt"
    p.write_text("0 1\n1 0 2\n3 1\n")
    y = load_node_labels(p, n_nodes=4)
    assert y.dtype == np.float64 and y.shape == (4, 3)
    assert y.tolist() == [[0, 1, 0], [1, 0, 1], [0, 0, 0], [0, 1, 0]]
    y = load_node_labels(p, n_nodes=6)
    assert y.shape == (6, 3)
    assert not y[4:].any()
    # a label repeated on one line, and a node listed on two lines, each set one cell
    p.write_text("0 1 1\n2 0\n# comment\n2 1\n2 0\n")
    assert load_node_labels(p, n_nodes=3).tolist() == [[0, 1], [0, 0], [1, 1]]


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("0\n", "at least one label"),
        ("0 a\n", "non-integer"),
        ("0 -1\n", "negative"),
        ("", "no label lines"),
        ("\n \u3000\n", "no label lines"),
        ("# 0 1\n", "no label lines"),
    ],
)
def test_load_node_labels_errors(tmp_path, content, fragment):
    p = tmp_path / "bad.txt"
    p.write_text(content, encoding="utf-8")
    with pytest.raises(DataError, match=fragment):
        load_node_labels(p, n_nodes=5)


def test_label_ids_name_classes_only_by_their_order(tmp_path):
    """Ids 0-3, 1-4 and 1000-1003 on one partition load as one 4-column matrix and probe alike.

    An id that no node carries would be a class with no positives, scoring
    F1 0 in every shuffle; a file with one id has one class, a binary probe.
    """
    rng = np.random.default_rng(11)
    block = np.arange(200) % 4
    emb = np.eye(4)[block] + 0.8 * rng.standard_normal((200, 4))
    p = tmp_path / "labels.txt"
    reports = []
    for first in (0, 1, 1000):
        p.write_text("".join(f"{i} {first + b}\n" for i, b in enumerate(block)))
        y = load_node_labels(p, n_nodes=200)
        np.testing.assert_array_equal(y, np.eye(4)[block])
        reports.append(node_classification_eval(emb, y, train_frac=0.5, n_shuffles=3, seed=2))
    assert reports[0] == reports[1] == reports[2]
    p.write_text("0 5\n1 5\n")
    y = load_node_labels(p, n_nodes=4)
    assert y.shape == (4, 1)
    assert node_classification_eval(emb[:4], y, 0.5, 1, 0) == node_classification_eval_per_class(
        emb[:4], y, 0.5, 1, 0
    )


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
    assert_same_pairs(out, np.array([[0, 2]]))


def test_sample_non_edges_dense_graph_fails():
    g = Graph(n_nodes=4, edges=set(itertools.combinations(range(4), 2)))
    with pytest.raises(DataError, match="too dense"):
        sample_non_edges(g, 1, np.random.default_rng(0))


def test_split_edges_partitions():
    g = sbm_graph([20, 20], 0.4, 0.05, seed=3)
    train, test_pos, test_neg = split_edges(g, 0.25, seed=7)
    for part in (train, test_pos, test_neg):
        assert part.dtype == np.int64 and part.ndim == 2 and part.shape[1] == 2
    assert len(test_pos) == round(0.25 * g.n_edges)
    assert len(test_neg) == len(test_pos)
    assert pair_set(train) | pair_set(test_pos) == pair_set(g.pairs())
    assert pair_set(train) & pair_set(test_pos) == set()
    assert not any(g.has_edge(u, v) for u, v in test_neg)
    assert len(pair_set(test_neg)) == len(test_neg)
    # deterministic in the seed
    again = split_edges(g, 0.25, seed=7)
    for got, expected in zip(again, (train, test_pos, test_neg), strict=True):
        assert_same_pairs(got, expected)


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
    train = pair_set(g.pairs())
    batch = sample_pair_batch(g.pairs(), g, 32, np.random.default_rng(1))
    assert batch.pos.shape == (32, 2) and batch.neg.shape == (32, 2)
    assert all(pair in train for pair in pair_set(batch.pos))
    assert all(pair not in train for pair in pair_set(batch.neg))


ORACLE_GRAPHS = {
    "two_cliques": lambda: two_cliques(4),  # 12 of 28 pairs are edges: heavy rejection
    "sbm": lambda: sbm_graph([20, 20], 0.4, 0.05, seed=3),
    "path": lambda: path_graph(6),
    "sbm-4000": lambda: sbm_graph([1000] * 4, 0.005, 0.0002, seed=9901),  # a criterion-15 size
}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
@pytest.mark.parametrize("m", [1, 7, 512, 1024])
def test_sample_pair_batch_matches_one_try_loop(name, m):
    """Same pairs and same RNG state as drawing one try at a time, call after call."""
    g = ORACLE_GRAPHS[name]()
    train = g.pairs()
    rng, ref_rng = np.random.default_rng(m), np.random.default_rng(m)
    for _ in range(3):
        batch = sample_pair_batch(train, g, m, rng)
        expected = sample_pair_batch_loop(train, g, m, ref_rng)
        assert_same_pairs(batch.pos, expected.pos)
        assert_same_pairs(batch.neg, expected.neg)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
def test_sample_non_edges_matches_one_try_loop(name):
    g = ORACLE_GRAPHS[name]()
    n_non_edges = g.n_nodes * (g.n_nodes - 1) // 2 - g.n_edges
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    # the last count asks for every non-edge of the small graphs, so late tries hit repeats
    for count in (0, 1, 7, min(n_non_edges, 60)):
        assert_same_pairs(sample_non_edges(g, count, rng), sample_non_edges_loop(g, count, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
@pytest.mark.parametrize("test_frac", [0.25, 0.5])
def test_split_edges_matches_one_try_loop(name, test_frac):
    g = ORACLE_GRAPHS[name]()
    for seed in range(3):
        got, expected = split_edges(g, test_frac, seed), split_edges_loop(g, test_frac, seed)
        for got_part, expected_part in zip(got, expected, strict=True):
            assert_same_pairs(got_part, expected_part)


@pytest.mark.parametrize(
    "sampler,oracle,args,error",
    [
        # every pair is an edge
        (sample_non_edges, sample_non_edges_loop,
         (Graph(n_nodes=4, edges=itertools.combinations(range(4), 2)), 2), DataError),
        # one non-edge, so a second distinct one never comes
        (sample_non_edges, sample_non_edges_loop, (path_graph(3), 2), DataError),
        (sample_pair_batch, sample_pair_batch_loop,
         (np.array([[0, 1]]), Graph(n_nodes=3, edges=[(0, 1), (0, 2), (1, 2)]), 3), TrainingError),
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
        sample_pair_batch(np.array([[0, 1]]), g, 0, np.random.default_rng(0))
    with pytest.raises(DataError, match="no training edges"):
        sample_pair_batch(np.empty((0, 2), dtype=np.int64), g, 4, np.random.default_rng(0))
    dense = Graph(n_nodes=3, edges={(0, 1), (0, 2), (1, 2)})
    with pytest.raises(TrainingError, match="rejection budget"):
        sample_pair_batch(np.array([[0, 1]]), dense, 4, np.random.default_rng(0))


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
        generator_pair_weights(gen, pairs)[0],
        generator_pair_weights(gen, pairs[:, ::-1])[0],
        atol=0.0,
    )
    w, _ = generator_pair_weights(gen, pairs)
    assert np.all(w > 0) and float(w.sum()) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_graph_generator_raises():
    # an output bias of -1000 makes every softplus underflow to exactly 0
    rng = np.random.default_rng(4)
    disc, gen = init_graph_models(6, 3, (5,), rng, rng)
    *hidden, (out_weight, _) = gen.mlp
    mlp = [*hidden, (out_weight, np.array([-1000.0]))]
    gen = GraphGenerator(gen.embeddings, mlp)
    pairs = np.array([[0, 5], [2, 1], [3, 4]])
    with pytest.raises(TrainingError, match="degenerate generator"):
        generator_pair_weights(gen, pairs)
    with pytest.raises(TrainingError, match="degenerate generator"):
        # the activations generator_pair_weights would return, had it not raised
        acts = forward(gen.mlp, np.hstack([gen.embeddings[[0, 1, 3]], gen.embeddings[[5, 2, 4]]]))
        graph_generator_step(TrainConfig(batch_size=3), disc, gen, pairs, acts)


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
    w, _ = generator_pair_weights(gen, batch.neg)
    coeff = cfg.gamma * 5 * w
    table, bias = disc.embeddings.copy(), disc.bias  # the step updates disc in place
    new_disc, _ = graph_discriminator_step(cfg, disc, batch, w)
    analytic = (new_disc.embeddings - table) / cfg.eta_d
    eps = 1e-6
    for idx in np.ndindex(table.shape):
        bumped = table.copy()
        bumped[idx] += eps
        hi = disc_objective(bumped, bias, batch, coeff)
        bumped[idx] -= 2 * eps
        lo = disc_objective(bumped, bias, batch, coeff)
        assert analytic[idx] == pytest.approx((hi - lo) / (2 * eps), rel=1e-4, abs=1e-8)
    hi = disc_objective(table, bias + eps, batch, coeff)
    lo = disc_objective(table, bias - eps, batch, coeff)
    assert (new_disc.bias - bias) / cfg.eta_d == pytest.approx(
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

    mlp = copy.deepcopy(gen.mlp)  # the step updates gen.mlp in place

    def objective(embeddings):
        probe = GraphGenerator(embeddings, mlp)
        w, _ = generator_pair_weights(probe, neg)
        return float(np.sum(w * log1md) + cfg.lam * np.sum(w * np.log(w)))

    table = gen.embeddings.copy()  # the step updates gen in place
    new_gen, _ = graph_generator_step(cfg, disc, gen, neg, generator_pair_weights(gen, neg)[1])
    analytic = (table - new_gen.embeddings) / cfg.eta_g
    eps = 1e-6
    for idx in np.ndindex(table.shape):
        bumped = table.copy()
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
    # each step updates its model in place, so each gets its own copy
    d_adv, _ = graph_discriminator_step(cfg, copy.deepcopy(disc), batch, uniform)
    d_pre, _ = graph_pretrain_step(copy.deepcopy(disc), batch, cfg.eta_d)
    assert not np.array_equal(d_pre.embeddings, disc.embeddings)
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
    assert gen.mlp[0][0].shape[0] == 8


# --- in-place steps against the full-table np.add.at oracle ---


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _draw_scatter_case(kind, rng):
    """(idx, contrib) of one kind of draw for _scatter_rows."""
    dim = int(rng.integers(1, 6))
    if kind == "duplicates":
        k = int(rng.integers(2, 400))
        return rng.integers(0, int(rng.integers(1, 30)), size=k), rng.standard_normal((k, dim))
    if kind == "one_row":
        k = int(rng.integers(1, 200))
        return np.full(k, int(rng.integers(0, 50))), rng.standard_normal((k, dim))
    if kind == "signed_zeros":
        k = int(rng.integers(1, 60))
        return rng.integers(0, 5, size=k), rng.choice([0.0, -0.0, 1.0, -1.0], size=(k, dim))
    if kind == "cancellation":
        # each value and its negation land on the same row, so rows sum to exactly 0.0
        half = rng.standard_normal((int(rng.integers(1, 40)), dim))
        idx = rng.integers(0, 6, size=len(half))
        return np.concatenate([idx, idx]), np.concatenate([half, -half])
    assert kind == "batch_of_one"
    return rng.integers(0, 1000, size=1), rng.choice([0.0, -0.0, 2.5], size=(1, dim))


SCATTER_KINDS = ("duplicates", "one_row", "signed_zeros", "cancellation", "batch_of_one")


@pytest.mark.parametrize("kind", SCATTER_KINDS)
def test_scatter_rows_bit_identical_to_add_at(kind):
    """Each touched row sums from 0.0 in occurrence order, as np.add.at does, raw bits included."""
    rng = np.random.default_rng(SCATTER_KINDS.index(kind))
    for _ in range(100):
        idx, contrib = _draw_scatter_case(kind, rng)
        rows, block = _scatter_rows(idx, contrib)
        assert sorted(rows.tolist()) == sorted(set(idx.tolist()))
        assert block.shape == (len(rows), contrib.shape[1])
        full = scatter_add_at(int(idx.max()) + 1, idx, contrib)
        np.testing.assert_array_equal(bits(block), bits(full[rows]))


def test_graph_steps_bit_identical_to_full_table_add_at():
    rng = np.random.default_rng(21)
    g = sbm_graph([15, 15], 0.4, 0.05, seed=2)
    disc, gen = init_graph_models(g.n_nodes, 5, (6,), rng, rng)
    cfg = TrainConfig(batch_size=40, gamma=0.03, eta_d=0.8, eta_g=0.2, lam=0.3)
    for _ in range(3):
        batch = sample_pair_batch(g.pairs(), g, 40, rng)
        w, acts = generator_pair_weights(gen, batch.neg)
        for step_disc, coeff in (
            (lambda d: graph_pretrain_step(d, batch, cfg.eta_d), np.full(40, 1.0 / 40)),
            (lambda d: graph_discriminator_step(cfg, d, batch, w), cfg.gamma * 40 * w),
        ):
            expected, exp_loss = graph_disc_update_add_at(disc, batch, coeff, cfg.eta_d)
            got, loss = step_disc(disc)
            assert got is disc and loss == exp_loss
            np.testing.assert_array_equal(bits(got.embeddings), bits(expected.embeddings))
            assert bits(got.bias) == bits(expected.bias)
        expected, exp_loss = graph_generator_step_add_at(cfg, disc, gen, batch.neg)
        got, loss = graph_generator_step(cfg, disc, gen, batch.neg, acts)
        assert got is gen and loss == exp_loss
        np.testing.assert_array_equal(bits(got.embeddings), bits(expected.embeddings))
        for (weight, bias), (exp_weight, exp_bias) in zip(got.mlp, expected.mlp, strict=True):
            np.testing.assert_array_equal(bits(weight), bits(exp_weight))
            np.testing.assert_array_equal(bits(bias), bits(exp_bias))


def test_train_graph_bit_identical_to_full_table_add_at():
    g = sbm_graph([20, 20], 0.3, 0.02, seed=4)
    cfg = TrainConfig(batch_size=64, pretrain_iters=15, train_iters=15, eta_d=1.0, eta_g=1e-2,
                      gamma=1.0 / 64, lam=1.0, seed=8)
    got = train_graph(cfg, g, g.pairs(), dim=6, gen_hidden=(5,))
    expected = train_graph_add_at(cfg, g, g.pairs(), dim=6, gen_hidden=(5,))
    for model, exp_model in zip(got[:2], expected[:2]):
        np.testing.assert_array_equal(bits(model.embeddings), bits(exp_model.embeddings))
    assert bits(got[0].bias) == bits(expected[0].bias)
    assert got[2].pretrain_d_loss == expected[2].pretrain_d_loss
    assert got[2].d_loss == expected[2].d_loss and got[2].g_loss == expected[2].g_loss


def test_init_graph_models_hold_no_negative_zero():
    """The steps leave untouched rows as they are, where the full-table update added eta * 0.0.

    x + 0.0 differs from x only at x = -0.0. The uniform init never draws it,
    and a round-to-nearest sum is -0.0 only when both terms are, so no table
    ever holds one.
    """
    for seed in range(4):
        rng = np.random.default_rng(seed)
        disc, gen = init_graph_models(50_000, 4, (3,), rng, rng)
        for table in (disc.embeddings, gen.embeddings):
            assert not np.any((table == 0.0) & np.signbit(table))


def _blowup_batch(m=3):
    """A batch whose pair logits are finite but whose row-1 contributions sum past the float range.

    Positives (0, 1) score -100 and negatives (1, 2) +100, so each positive
    adds about 1/m * e_0 and each negative about 1/m * -e_2 to row 1; both
    carry 1.5e308 in column 0, which the logits never see, as e_1[0] == 0.
    """
    emb = np.array([[1.5e308, -100.0], [0.0, 1.0], [-1.5e308, 100.0], [0.5, 0.5]])
    batch = PairBatch(pos=np.tile([0, 1], (m, 1)), neg=np.tile([1, 2], (m, 1)))
    return emb, batch


@pytest.mark.parametrize("step", ["pretrain", "discriminator", "generator"])
def test_graph_step_with_non_finite_block_changes_nothing(step, monkeypatch):
    rng = np.random.default_rng(0)
    emb, batch = _blowup_batch()
    _, gen = init_graph_models(4, 2, (3,), rng, rng)
    disc = GraphDiscriminator(emb, 0.25)
    cfg = TrainConfig(batch_size=3, gamma=1.0 / 3, eta_d=0.1, eta_g=0.1)
    if step == "generator":
        # the MLP saturates before its input gradient can overflow, so inject the inf
        disc = GraphDiscriminator(rng.uniform(-0.1, 0.1, size=(4, 2)), 0.25)
        real_backward = advclf.graph.backward

        def overflowing_backward(params, acts, delta):
            grads, input_grad = real_backward(params, acts, delta)
            input_grad[0, 0] = np.inf
            return grads, input_grad

        monkeypatch.setattr(advclf.graph, "backward", overflowing_backward)
    before = (disc.embeddings.copy(), disc.bias, gen.embeddings.copy(), gen.mlp)
    mlp_before = copy.deepcopy(gen.mlp)
    with pytest.raises(TrainingError, match="non-finite gradient"), np.errstate(over="ignore"):
        if step == "pretrain":
            graph_pretrain_step(disc, batch, cfg.eta_d)
        elif step == "discriminator":
            graph_discriminator_step(cfg, disc, batch, np.full(3, 1.0 / 3))
        else:
            graph_generator_step(cfg, disc, gen, batch.neg, generator_pair_weights(gen, batch.neg)[1])
    np.testing.assert_array_equal(bits(disc.embeddings), bits(before[0]))
    assert disc.bias == before[1]
    np.testing.assert_array_equal(bits(gen.embeddings), bits(before[2]))
    assert gen.mlp is before[3]
    for (weight, bias), (old_weight, old_bias) in zip(gen.mlp, mlp_before):
        np.testing.assert_array_equal(bits(weight), bits(old_weight))
        np.testing.assert_array_equal(bits(bias), bits(old_bias))


# --- training ---


def test_train_graph_learns_two_cliques():
    """Intra-block pairs must outscore cross pairs after training on the cliques."""
    g = two_cliques(5)
    intra = g.pairs()
    inter = np.array([(u, v) for u in range(5) for v in range(5, 10)])
    cfg = TrainConfig(
        batch_size=16, pretrain_iters=400, train_iters=100,
        eta_d=0.5, eta_g=1e-3, gamma=1.0 / 16, lam=0.1, seed=0,
    )
    disc, gen, trace = train_graph(cfg, g, intra, dim=8, gen_hidden=(8,))
    assert pair_logits(disc, intra).mean() > pair_logits(disc, inter).mean()
    report = link_predict_eval(disc, intra, inter)
    assert report["accuracy"] > 0.9
    assert report["macro_f1"] > 0.9
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
    none, one = np.empty((0, 2), dtype=np.int64), np.array([[0, 1]])
    with pytest.raises(DataError, match="empty"):
        link_predict_eval(disc, none, one)
    with pytest.raises(DataError, match="empty"):
        link_predict_eval(disc, one, none)


# --- SBM generator ---


def test_sbm_graph_extremes():
    g = sbm_graph([4, 4], 1.0, 0.0, seed=0)
    assert g.n_nodes == 8
    assert g.n_edges == 2 * 6  # two complete 4-blocks
    assert not any(u < 4 <= v for u, v in g.pairs())


def test_sbm_graph_deterministic_and_plausible():
    g1 = sbm_graph([30, 30], 0.3, 0.02, seed=42)
    g2 = sbm_graph([30, 30], 0.3, 0.02, seed=42)
    assert_same_pairs(g1.pairs(), g2.pairs())
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
    y = np.eye(3)[np.arange(30) % 3]
    emb = np.zeros((30, 3))
    for i in range(30):
        emb[i, i % 3] = 1.0
    out = node_classification_eval(emb, y, train_frac=0.7, n_shuffles=4, seed=0)
    assert out["micro_f1_mean"] == pytest.approx(1.0)
    assert out["macro_f1_mean"] == pytest.approx(1.0)
    assert out["n_shuffles"] == 4


def test_node_classification_handles_class_with_no_visible_positives():
    # class 1 has a single positive node; some shuffles hide it entirely
    y = np.eye(2)[[0] * 9 + [1]]
    emb = np.eye(10)
    out = node_classification_eval(emb, y, train_frac=0.5, n_shuffles=6, seed=0)
    assert 0.0 <= out["macro_f1_mean"] <= 1.0
    assert out["micro_f1_std"] >= 0.0


@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 50, 400])
def test_lockstep_probes_match_lone_heads_bit_for_bit(n, k):
    """The lockstep fit predicts as the lone heads do, zero-target heads too.

    A single head has a lone head's weights and bias bit for bit. Two or
    more heads are fit by gemm, which sums each product in another order
    than a lone head's gemv, so their weights and biases agree with the
    lone heads' to within 1e-12 relative; the predictions stay identical.
    """
    rng = np.random.default_rng(n * 10 + k)
    x_train, x_test = rng.standard_normal((n, 6)), rng.standard_normal((9, 6))
    y_train = (rng.random((n, k)) < 0.4).astype(np.float64)
    y_train[:, 0] = 0.0
    pred, [(w, b)] = _fit_predict_logistic(x_train, y_train, x_test)
    heads = [fit_logistic_head(x_train, y_train[:, c]) for c in range(k)]
    want = np.column_stack([predict_logistic_head(head, x_test) for head in heads])
    assert array_bits(pred) == array_bits(want)
    if k == 1:
        [[(w_0, b_0)]] = heads
        assert array_bits(w, b) == array_bits(w_0.T, b_0[None])
    for c, [(w_c, b_c)] in enumerate(heads):
        np.testing.assert_allclose(w[c], w_c[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(b[c], b_c, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n,k,train_frac", [(10, 2, 0.1), (30, 3, 0.5), (200, 8, 0.9)])
def test_node_classification_matches_per_class_probes(n, k, train_frac):
    """The report equals the per-class loop's, where some shuffles leave a class or every class unfit."""
    rng = np.random.default_rng(n + k)
    emb = rng.standard_normal((n, 4))
    y = np.zeros((n, k))
    y[np.arange(n), rng.integers(0, k, n)] = 1.0
    y[:, 0] = 0.0
    y[rng.integers(0, n), 0] = 1.0  # one positive: hidden in most shuffles
    got = node_classification_eval(emb, y, train_frac, n_shuffles=6, seed=4)
    assert got == node_classification_eval_per_class(emb, y, train_frac, n_shuffles=6, seed=4)


def test_node_classification_matches_per_class_probes_on_planted_blocks():
    """Where the embeddings carry the labels, the report still equals the per-class loop's.

    400 nodes in 4 blocks embed as their block's one-hot, padded to d = 8,
    plus noise, so every head has signal; the random embeddings of the test
    above score micro-F1 0 to 0.26.
    """
    rng = np.random.default_rng(71)
    block = np.arange(400) % 4
    y = np.eye(4)[block]
    emb = np.hstack([y, np.zeros((400, 4))]) + 0.25 * rng.standard_normal((400, 8))
    got = node_classification_eval(emb, y, 0.5, n_shuffles=3, seed=72)
    assert got["micro_f1_mean"] >= 0.9
    assert got == node_classification_eval_per_class(emb, y, 0.5, n_shuffles=3, seed=72)


def test_node_classification_validation():
    """A one-class matrix is a binary probe, scored as the per-class oracle scores it; bad shapes are ConfigErrors."""
    emb = np.zeros((4, 2))
    y = np.array([[1.0], [0.0], [1.0], [1.0]])
    assert node_classification_eval(emb, y, 0.5, 3, 0) == node_classification_eval_per_class(emb, y, 0.5, 3, 0)
    with pytest.raises(ConfigError, match="label rows"):
        node_classification_eval(emb, np.eye(2)[[0, 0, 0]], 0.9, 10, 0)
    with pytest.raises(ConfigError, match="train_frac"):
        node_classification_eval(emb, np.eye(2)[[0, 1, 0, 1]], 1.0, 10, 0)


def test_probe_settings_need_a_label_shuffle():
    with pytest.raises(ConfigError, match=r"^need at least one label shuffle, got 0$"):
        check_probe_settings(np.eye(2)[[0, 1, 0, 1]], 4, 0.5, 0)


def test_node_classification_reads_content_not_scale():
    """The table scaled by 2**-3 or 2**5 gives the probe report byte for byte as unscaled.

    Powers of two scale the visible rows' means and stds exactly, so the
    standardised columns the heads see are the same bits.
    """
    rng = np.random.default_rng(14021)
    y = np.eye(3)[np.arange(300) % 3]
    emb = 0.05 * (np.hstack([y, np.zeros((300, 3))]) + 0.6 * rng.standard_normal((300, 6))) + 0.3
    reports = [json.dumps(node_classification_eval(emb * scale, y, 0.5, n_shuffles=3, seed=14022))
               for scale in (1.0, 2.0**-3, 2.0**5)]
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["micro_f1_mean"] > 0.5


def test_node_classification_deterministic():
    rng = np.random.default_rng(0)
    emb = rng.standard_normal((20, 4))
    labels = np.eye(2)[(np.arange(20) >= 10).astype(int)]
    a = node_classification_eval(emb, labels, train_frac=0.9, n_shuffles=3, seed=5)
    b = node_classification_eval(emb, labels, train_frac=0.9, n_shuffles=3, seed=5)
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


def test_save_embeddings_csv_writes_repr_of_float_per_coordinate(tmp_path):
    emb = np.array([[-0.0, 5e-324, 1e308], [0.1, 3.0, -2.0], [1e16, 0.0, -1e-300]])
    save_embeddings_csv(tmp_path / "emb.csv", emb)
    rows = [",".join([str(i)] + [repr(float(v)) for v in row]) for i, row in enumerate(emb)]
    assert (tmp_path / "emb.csv").read_bytes() == "".join(line + "\n" for line in rows).encode()
