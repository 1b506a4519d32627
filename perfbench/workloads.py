"""Benchmark-owned inputs and CLI invocations for the three workloads.

Inputs come from this file's own generators, never from advclf's
synth_gaussian_imbalanced or sbm_graph, so a change to those functions
cannot change what the benchmark measures. Every input is a pure function
of its input seed.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Tabular input: about 40k rows x 16 features at about 20:1 imbalance. The
# minority mean is shifted on 6 of the 16 columns, so a linear
# discriminator reaches a test AUC well below 1 and the metric can move.
TAB_ROWS = 40_000
TAB_FEATURES = 16
TAB_IMBALANCE = 20.0
TAB_SHIFT = 0.6
TAB_SHIFTED_COLUMNS = 6
TAB_TRAIN_FRAC = 0.6  # advclf's default SplitSpec.train_frac

GRAPH_TEST_FRAC = 0.1  # advclf graph's default --test-frac


@dataclass
class Input:
    """One generated input, the CLI arguments that run it and what its report must show."""

    seed: int
    argv: list
    expected: dict  # report counts the input fixes
    sizes: dict  # rows, features, nodes, edges and table bytes, for the record
    setup_paths: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """How one workload runs; why it exists is stated in BENCHMARK.json and perfbench/README.md."""

    name: str
    inputs_per_run: int
    samples_per_invocation: int  # discriminator training samples, 2 x batch x steps
    quality_path: tuple  # report keys leading to the evaluate_binary block on the test set

    def make_input(self, seed, directory):
        return _MAKERS[self.name](seed, Path(directory))


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _tabular_input(seed, directory):
    rng = np.random.default_rng(seed)
    n_pos = int(round(TAB_ROWS / (TAB_IMBALANCE + 1.0)))
    labels = np.zeros(TAB_ROWS, dtype=np.int64)
    labels[rng.choice(TAB_ROWS, size=n_pos, replace=False)] = 1
    x = rng.standard_normal((TAB_ROWS, TAB_FEATURES))
    x[labels == 1, :TAB_SHIFTED_COLUMNS] += TAB_SHIFT
    # unequal column scales and offsets give standardize real work
    x = x * rng.uniform(0.5, 20.0, TAB_FEATURES) + rng.uniform(-50.0, 50.0, TAB_FEATURES)
    path = directory / f"tabular-{seed}.csv"
    header = ",".join([f"f{j}" for j in range(TAB_FEATURES)] + ["label"])
    rows = (",".join([*(repr(float(v)) for v in row), str(int(lab))]) for row, lab in zip(x, labels))
    _write_lines(path, [header, *rows])
    n_train = 0
    for count in (n_pos, TAB_ROWS - n_pos):  # stratified: each class is cut separately
        n_train += min(int(round(TAB_TRAIN_FRAC * count)), count)
    return Input(
        seed=seed,
        argv=["train", "--data", str(path), "--eval-every", "10", "--seed", str(seed)],
        expected={("data", "n_train"): n_train, ("data", "n_features"): TAB_FEATURES},
        sizes={"rows": TAB_ROWS, "features": TAB_FEATURES, "positives": n_pos,
               "file_bytes": path.stat().st_size, "table_bytes": x.nbytes},
        setup_paths={"csv": path},
    )


def planted_partition(rng, n_blocks, block_size, p_in, p_out):
    """Edge keys u * n + v (u < v) of a planted-partition graph.

    Each pair inside a block is an edge with probability p_in and each pair
    across blocks with probability p_out: the two edge counts are binomial
    and the edges are uniform distinct pairs of their kind.
    """
    n = n_blocks * block_size
    n_within = n_blocks * block_size * (block_size - 1) // 2
    n_across = n * (n - 1) // 2 - n_within

    def draw_within(size):
        base = rng.integers(0, n_blocks, size) * block_size
        return base + rng.integers(0, block_size, size), base + rng.integers(0, block_size, size)

    def draw_across(size):
        u, v = rng.integers(0, n, size), rng.integers(0, n, size)
        keep = u // block_size != v // block_size
        return u[keep], v[keep]

    keys = []
    for pool, p, draw in ((n_within, p_in, draw_within), (n_across, p_out, draw_across)):
        want = int(rng.binomial(pool, p))
        found = np.empty(0, dtype=np.int64)
        while found.size < want:
            u, v = draw(2 * (want - found.size) + 64)
            ok = u != v
            found = np.union1d(found, np.minimum(u, v)[ok] * n + np.maximum(u, v)[ok])
        keys.append(rng.choice(found, size=want, replace=False))
    return np.sort(np.concatenate(keys)), n


def _graph_input(seed, directory, name, n_blocks, block_size, p_in, p_out, options, dim, labels):
    rng = np.random.default_rng(seed)
    keys, n = planted_partition(rng, n_blocks, block_size, p_in, p_out)
    u, v = np.divmod(keys, n)
    n_nodes = int(max(u.max(), v.max())) + 1  # advclf counts nodes up to the largest id seen
    m = len(keys)
    edges_path = directory / f"{name}-{seed}.edges"
    _write_lines(edges_path, [f"{a} {b}" for a, b in zip(u.tolist(), v.tolist())])
    argv = ["graph", "--edges", str(edges_path), *options, "--seed", str(seed)]
    setup_paths = {"edges": edges_path}
    if labels:
        labels_path = directory / f"{name}-{seed}.labels"
        _write_lines(labels_path, [f"{i} {i // block_size}" for i in range(n_nodes)])
        argv[3:3] = ["--labels", str(labels_path)]
        setup_paths["labels"] = labels_path
    return Input(
        seed=seed,
        argv=argv,
        expected={
            ("graph", "n_nodes"): n_nodes,
            ("graph", "n_edges"): m,
            ("graph", "n_train_edges"): m - int(round(GRAPH_TEST_FRAC * m)),
        },
        sizes={"nodes": n_nodes, "edges": m, "dim": dim,
               "table_bytes": n_nodes * dim * 8,
               "sample_accept_ratio_computed": 1.0 - (n_nodes + 2 * m) / n_nodes**2},
        setup_paths=setup_paths,
    )


DENSE_OPTIONS = [
    "--test-frac", "0.1", "--batch-size", "512", "--dim", "64", "--gen-arch", "16",
    "--eta-d", "1.0", "--eta-g", "1e-4", "--gamma", repr(1.0 / 512), "--lam", "10",
    "--pretrain-iters", "100", "--train-iters", "100",
]
DENSE_STEPS = 200
# advclf graph defaults (batch 1024, 200 + 500 steps) take 43 s per invocation
# on a 2-vCPU Xeon guest; a fifth of the steps, in the same 2:5 ratio, keeps
# every per-step cost.
SPARSE_OPTIONS = ["--label-shuffles", "2", "--dim", "32", "--pretrain-iters", "40", "--train-iters", "100"]
SPARSE_STEPS = 140
SPARSE_BATCH = 1024


def _dense_input(seed, directory):
    return _graph_input(seed, directory, "sbm-dense", 2, 50, 0.3, 0.01, DENSE_OPTIONS, 64, False)


def _sparse_input(seed, directory):
    return _graph_input(seed, directory, "sparse", 8, 1000, 0.008, 0.0002, SPARSE_OPTIONS, 32, True)


def load_and_split(inp):
    """The untraced set-up an invocation starts with, through advclf's public loaders."""
    from advclf.data import SplitSpec, load_csv, split_dataset, standardize
    from advclf.graph import load_edge_list, load_node_labels, split_edges

    paths = inp.setup_paths
    if "csv" in paths:
        standardize(*split_dataset(load_csv(paths["csv"], "label", "1"), SplitSpec(seed=inp.seed)))
        return
    graph = load_edge_list(paths["edges"])
    split_edges(graph, GRAPH_TEST_FRAC, inp.seed)
    if "labels" in paths:
        load_node_labels(paths["labels"], n_nodes=graph.n_nodes)


_MAKERS = {
    "tabular-csv": _tabular_input,
    "graph-sbm-dense": _dense_input,
    "graph-sparse-labels": _sparse_input,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tabular-csv",
            inputs_per_run=2,
            # adversarial run (200 warm-up + 500 steps) plus three 700-step baselines
            samples_per_invocation=2 * 64 * (700 + 3 * 700),
            quality_path=("models", "adversarial", "test"),
        ),
        Workload(
            "graph-sbm-dense",
            inputs_per_run=5,
            samples_per_invocation=2 * 512 * DENSE_STEPS,
            quality_path=("link_prediction",),
        ),
        Workload(
            "graph-sparse-labels",
            inputs_per_run=1,
            samples_per_invocation=2 * SPARSE_BATCH * SPARSE_STEPS,
            quality_path=("link_prediction",),
        ),
    )
}
