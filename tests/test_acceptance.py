"""End-to-end acceptance checks, one test per shipped criterion.

Every test prints a single ``[acceptance]`` line with the measured numbers
(written with capture suspended so the line reaches the run log whether the
test passes or fails) and then asserts the stated thresholds plus its
runtime budget.

Criterion 9 is measured against a ceiling rather than a fixed number: in a
stochastic block model each pair is an edge independently, with a probability
set by its two blocks alone, so a held-out within-block edge looks exactly
like a within-block non-edge to any scorer that sees only the training graph.
The best such scorer is the block oracle (within-block means edge), and on
the pinned two-block benchmark it reaches only ~0.76 median accuracy.  The
trained discriminator must come within 0.02 of the oracle on the same test
pairs; see README.md for the numbers.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from advclf.adversarial import (
    TrainConfig,
    discriminator_step,
    generator_batch_weights,
    init_discriminator,
    init_generator,
    predict,
    pretrain_step,
    train,
)
from advclf.cli import ARCH_PRESETS
from advclf.cli import main as cli_main
from advclf.data import (
    SplitSpec,
    SynthSpec,
    split_dataset,
    standardize,
    synth_gaussian_imbalanced,
)
from advclf.graph import link_predict_eval, split_edges, train_graph
from advclf.metrics import auc_roc, evaluate_binary
from advclf.nn import (
    backward,
    clone_params,
    finite_difference_grad,
    forward,
    init_mlp,
    sigmoid,
    softplus,
)
from advclf.theory import (
    TheoryConfig,
    fixed_point_residual,
    generator_objective,
    minimize_generator,
    optimal_discriminator,
    value_v,
)
from helpers import (
    auc_pair_count,
    block_oracle_eval,
    flatten_param_grads,
    grad_rel_error,
    sbm_graph,
    warmup_only,
)

LOG4 = math.log(4.0)


@pytest.fixture
def _log(capsys):
    """Printer that suspends capture so measurements reach the run log."""

    def log(line):
        with capsys.disabled():
            print(line, flush=True)

    return log


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def _random_distribution(rng, k):
    p = rng.random(k) + 0.05
    return p / p.sum()


# --- 1. gradient correctness on the shipped architectures ------------------


def _grad_check_case(dims, seed):
    """Backward vs. finite differences for sum(c * softplus(out)) on one net."""
    rng = np.random.default_rng(seed)
    params = init_mlp(dims, rng)
    x = rng.normal(size=(3, dims[0]))
    c = rng.normal(size=(3, 1))

    def loss_only(p):
        return float(np.sum(c * softplus(forward(p, x)[-1])))

    acts = forward(params, x)
    analytic, _ = backward(params, acts, c * sigmoid(acts[-1]))
    numeric = finite_difference_grad(loss_only, params)
    return grad_rel_error(flatten_param_grads(analytic), flatten_param_grads(numeric))


def test_criterion_01_backward_matches_finite_differences(_log):
    start = time.monotonic()
    architectures = {
        "generator-64-32-32": [2, 64, 32, 32, 1],
        "generator-10-8-8-6-6-6": [2, 10, 8, 8, 6, 6, 6, 1],
        "logistic-discriminator": [2, 1],
    }
    worst, worst_case = 0.0, ""
    for name, dims in architectures.items():
        for seed in range(20):
            rel = _grad_check_case(dims, seed)
            if rel > worst:
                worst, worst_case = rel, f"{name} seed {seed}"
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 10.0
    _log(
        f"[acceptance] criterion 1 {_verdict(ok)}: worst gradient rel error "
        f"{worst:.2e} ({worst_case}) over 3 architectures x 20 seeds, "
        f"need < 1e-4; {elapsed:.1f}s (limit 10s)"
    )
    assert worst < 1e-4, f"gradient mismatch {worst:.3e} at {worst_case}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


# --- 2. closed-form discriminator maximizes the value ----------------------


def test_criterion_02_optimal_discriminator_maximizes_value(_log):
    start = time.monotonic()
    rng = np.random.default_rng(2)
    worst_gap = math.inf
    for _ in range(50):
        k = int(rng.integers(2, 9))
        p_plus = _random_distribution(rng, k)
        p_neg = _random_distribution(rng, k)
        d_star = optimal_discriminator(p_plus, p_neg)
        v_star = value_v(p_plus, p_neg, d_star)
        jitter = d_star[None, :] + rng.normal(scale=0.05, size=(500, k))
        d_all = np.vstack([jitter, rng.random(size=(500, k))])
        d_all = np.clip(d_all, 1e-6, 1.0 - 1e-6)
        values = np.log(d_all) @ p_plus + np.log1p(-d_all) @ p_neg
        # the vectorized oracle formula must agree with the module's value
        assert abs(values[0] - value_v(p_plus, p_neg, d_all[0])) < 1e-12
        worst_gap = min(worst_gap, v_star - float(values.max()))
    worst_eq = 0.0
    for _ in range(20):
        p = _random_distribution(rng, int(rng.integers(2, 9)))
        v = value_v(p, p, optimal_discriminator(p, p))
        worst_eq = max(worst_eq, abs(v + LOG4))
    elapsed = time.monotonic() - start
    ok = worst_gap >= -1e-12 and worst_eq < 1e-9 and elapsed < 5.0
    _log(
        f"[acceptance] criterion 2 {_verdict(ok)}: min value margin "
        f"{worst_gap:.2e} over 50 pairs x 1000 perturbations (need >= 0); "
        f"|V - (-log 4)| at equal distributions {worst_eq:.2e} (need < 1e-9); "
        f"{elapsed:.1f}s (limit 5s)"
    )
    assert worst_gap >= -1e-12, f"a perturbation beat the closed form by {-worst_gap:.3e}"
    assert worst_eq < 1e-9, f"equal-distribution value off by {worst_eq:.3e}"
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


# --- 3. entropy-free minimizer recovers the positive distribution ----------


def test_criterion_03_unregularized_minimizer_recovers_target(_log):
    start = time.monotonic()
    rng = np.random.default_rng(3)
    worst_tv = worst_residual = 0.0
    for i in range(20):
        k = 2 + i % 7
        p_plus = _random_distribution(rng, k)
        result = minimize_generator(p_plus, TheoryConfig(lam=0.0))
        assert result.converged
        worst_tv = max(worst_tv, 0.5 * float(np.abs(result.p - p_plus).sum()))
        worst_residual = max(worst_residual, fixed_point_residual(result.p, p_plus, 0.0))
    elapsed = time.monotonic() - start
    ok = worst_tv < 1e-4 and worst_residual < 1e-4 and elapsed < 30.0
    _log(
        f"[acceptance] criterion 3 {_verdict(ok)}: worst TV to target {worst_tv:.2e}, "
        f"worst stationarity residual {worst_residual:.2e} over 20 targets "
        f"k in 2..8 (need < 1e-4 both); {elapsed:.1f}s (limit 30s)"
    )
    assert worst_tv < 1e-4, f"minimizer missed the target by {worst_tv:.3e} TV"
    assert worst_residual < 1e-4, f"stationarity residual {worst_residual:.3e}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


# --- 4. regularized minimizer against brute-force grid search --------------


def _xlogy(x, y):
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    out = np.zeros(x.shape)
    mask = x != 0.0
    out[mask] = x[mask] * np.log(y[mask])
    return out


def _grid_search_min(p_plus, lam, resolution):
    """Brute-force minimum of the generator objective over the k=3 simplex grid."""
    n = int(round(1.0 / resolution))
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = i + j <= n
    grid = np.stack([i[keep], j[keep], n - i[keep] - j[keep]], axis=1) / float(n)
    mix = grid + p_plus[None, :]
    objective = (
        _xlogy(p_plus[None, :], p_plus[None, :] / mix).sum(axis=1)
        + _xlogy(grid, grid / mix).sum(axis=1)
        + lam * _xlogy(grid, grid).sum(axis=1)
    )
    probe = len(grid) // 2
    if grid[probe].min() > 0:
        assert abs(objective[probe] - generator_objective(grid[probe], p_plus, lam)) < 1e-12
    best = int(np.argmin(objective))
    return grid[best], float(objective[best])


def test_criterion_04_regularized_minimizer_matches_grid_search(_log):
    start = time.monotonic()
    targets = [np.array([0.7, 0.2, 0.1]), np.array([0.5, 0.3, 0.2])]
    worst_tv = 0.0
    measurements = []
    for lam in (0.01, 0.1, 1.0):
        for p_plus in targets:
            result = minimize_generator(p_plus, TheoryConfig(lam=lam))
            assert result.converged
            grid_p, grid_obj = _grid_search_min(p_plus, lam, 0.005)
            assert result.objective <= grid_obj + 1e-9
            tv = 0.5 * float(np.abs(result.p - grid_p).sum())
            worst_tv = max(worst_tv, tv)
            measurements.append(
                f"lam={lam:g} target={np.round(p_plus, 3).tolist()}: TV={tv:.4f}, "
                f"residual solver={fixed_point_residual(result.p, p_plus, lam):.2e} "
                f"grid={fixed_point_residual(grid_p, p_plus, lam):.2e}"
            )
    elapsed = time.monotonic() - start
    ok = worst_tv <= 0.01 and elapsed < 120.0
    _log(
        f"[acceptance] criterion 4 {_verdict(ok)}: worst TV solver-vs-grid "
        f"{worst_tv:.4f} (need <= 0.01); {elapsed:.1f}s (limit 120s)"
    )
    for line in measurements:
        _log(f"[acceptance]   criterion 4 measurement: {line}")
    assert worst_tv <= 0.01, f"solver and grid minimum differ by {worst_tv:.4f} TV"
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"


# --- 5. adversarial step with a flat generator is a pretraining step -------


def test_criterion_05_uniform_generator_reduces_to_pretraining(_log):
    start = time.monotonic()
    rng = np.random.default_rng(5)
    m, dim = 8, 3
    pos = rng.normal(size=(m, dim))
    neg = rng.normal(size=(m, dim)) + 1.0
    disc = init_discriminator(dim, np.random.default_rng(50))
    seeded = init_generator(dim, hidden=(4,), rng=np.random.default_rng(51))
    flat_gen = [(np.zeros_like(weight), np.zeros_like(bias)) for weight, bias in seeded]
    config = TrainConfig(batch_size=m, gamma=1.0 / m, lam=0.0, eta_d=0.3, seed=0)
    # each step updates its own copy of disc in place
    plain, _ = pretrain_step(clone_params(disc), pos, neg, config.eta_d)
    adversarial, _ = discriminator_step(
        config, clone_params(disc), pos, neg, generator_batch_weights(flat_gen, neg)[0]
    )

    def distance(x, y):
        return max(
            max(np.abs(wx - wy).max(), np.abs(bx - by).max())
            for (wx, bx), (wy, by) in zip(x, y)
        )

    diff = distance(plain, adversarial)
    moved = distance(plain, disc)
    elapsed = time.monotonic() - start
    ok = diff <= 1e-12 and moved > 0.0 and elapsed < 1.0
    _log(
        f"[acceptance] criterion 5 {_verdict(ok)}: max parameter distance "
        f"{diff:.2e} between the reduced adversarial step and the pretraining "
        f"step (need <= 1e-12), which moved the model by {moved:.2e} (need > 0); "
        f"{elapsed:.2f}s (limit 1s)"
    )
    assert diff <= 1e-12, f"reduction identity violated by {diff:.3e}"
    assert moved > 0.0, "the pretraining step left the discriminator where it was"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


# --- 6. batch-weight entropy rises with the regularizer --------------------


def test_criterion_06_entropy_monotone_in_lambda(_log):
    start = time.monotonic()
    data = synth_gaussian_imbalanced(
        SynthSpec(n_total=2000, imbalance_ratio=10.0, dim=2, class_separation=2.0, seed=0)
    )
    train_set, _, _ = split_dataset(data, SplitSpec(seed=0))
    (train_set,), _, _ = standardize(train_set)
    m = 32
    lams = (0.0, 0.1, 1.0, 10.0)
    medians = []
    for lam in lams:
        finals = []
        for seed in range(5):
            config = TrainConfig(
                batch_size=m, pretrain_iters=100, train_iters=400,
                eta_g=5.0, lam=lam, seed=seed,
            )
            _, _, trace = train(config, train_set, ARCH_PRESETS["shallow"])
            finals.append(trace.weight_entropy[-1])
        medians.append(float(np.median(finals)))
    gap = abs(math.log(m) - medians[-1])
    monotone = all(b >= a - 1e-12 for a, b in zip(medians, medians[1:]))
    elapsed = time.monotonic() - start
    ok = monotone and gap < 0.05 and elapsed < 120.0
    _log(
        f"[acceptance] criterion 6 {_verdict(ok)}: median final entropies "
        f"{[round(e, 4) for e in medians]} across lam={list(lams)} "
        f"(need non-decreasing), gap to log {m} at lam=10 is {gap:.4f} "
        f"(need < 0.05); {elapsed:.0f}s (limit 120s)"
    )
    assert monotone, f"entropy medians not monotone in lambda: {medians}"
    assert gap < 0.05, f"entropy at lam=10 is {gap:.4f} away from log m"
    assert elapsed < 120.0, f"runtime {elapsed:.0f}s exceeds 120s"


# --- 7. paired-seed uplift over the pretraining-only baseline --------------


def test_criterion_07_adversarial_uplift_on_imbalanced_gaussians(_log):
    start = time.monotonic()
    uplifts = []
    wins = 0
    for seed in range(10):
        data = synth_gaussian_imbalanced(
            SynthSpec(n_total=5000, imbalance_ratio=50.0, dim=2,
                      class_separation=2.0, seed=seed)
        )
        train_set, val_set, test_set = split_dataset(data, SplitSpec(seed=seed))
        (train_set, val_set, test_set), _, _ = standardize(train_set, val_set, test_set)
        config = TrainConfig(seed=seed)
        adv, _, _ = train(config, train_set, ARCH_PRESETS["shallow"])
        base, _, _ = train(warmup_only(config), train_set, ARCH_PRESETS["shallow"])
        auc_adv = evaluate_binary(predict(adv, test_set.features), test_set.labels).auc
        auc_base = evaluate_binary(predict(base, test_set.features), test_set.labels).auc
        wins += auc_adv >= auc_base
        uplifts.append(auc_adv - auc_base)
    median_uplift = float(np.median(uplifts))
    elapsed = time.monotonic() - start
    ok = wins >= 8 and median_uplift > 0.0 and elapsed < 300.0
    _log(
        f"[acceptance] criterion 7 {_verdict(ok)}: adversarial test AUC >= "
        f"baseline in {wins}/10 paired seeds (need >= 8), median uplift "
        f"{median_uplift:+.6f} (need > 0); per-seed uplifts "
        f"{[f'{u:+.5f}' for u in uplifts]}; {elapsed:.0f}s (limit 300s)"
    )
    assert wins >= 8, f"adversarial model won only {wins}/10 paired seeds"
    assert median_uplift > 0.0, f"median AUC uplift {median_uplift:+.6f} not positive"
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 300s"


# --- 8. AUC against the exhaustive pair-counting oracle --------------------


def test_criterion_08_auc_matches_pair_counting_oracle(_log):
    start = time.monotonic()
    rng = np.random.default_rng(8)
    tie_grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(2, 9))
        labels = np.zeros(n, dtype=int)
        labels[rng.permutation(n)[: int(rng.integers(1, n))]] = 1
        if case % 2:
            scores = tie_grid[rng.integers(0, len(tie_grid), size=n)]
        else:
            scores = rng.random(n)
        worst = max(worst, abs(auc_roc(scores, labels) - auc_pair_count(scores, labels)))
    hand = auc_roc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0])
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and hand == 0.75 and elapsed < 5.0
    _log(
        f"[acceptance] criterion 8 {_verdict(ok)}: worst |auc_roc - pair count| "
        f"{worst:.2e} over 200 cases of size <= 8 (need < 1e-12); hand case "
        f"{hand} (need exactly 0.75); {elapsed:.1f}s (limit 5s)"
    )
    assert worst < 1e-12, f"auc_roc disagrees with pair counting by {worst:.3e}"
    assert hand == 0.75, f"hand case gave {hand}, expected exactly 0.75"
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


# --- 9. two-block link prediction against the block-oracle ceiling --------


ORACLE_MARGIN = 0.02  # about 3 of the ~150 test pairs per seed


def test_criterion_09_two_block_link_prediction(_log):
    """Median accuracy and macro-F1 over 5 seeds within 0.02 of the block oracle.

    The graph is an SBM with two 50-node blocks, p_in=0.3 and p_out=0.01;
    10% of the edges plus as many uniformly drawn non-edges are held out.
    Each pair is an edge independently with a probability fixed by the two
    blocks, so a held-out within-block edge cannot be told apart from a
    within-block non-edge: the best scorer that sees only the training
    graph predicts "edge" exactly for within-block pairs.  That block oracle,
    scored on the same test pairs, is the ceiling (median accuracy 0.7628,
    macro-F1 0.7531 over these seeds), and ~40% of the test non-edges are
    within-block, which is why no fixed bound such as 0.85 is reachable.
    Coming within ORACLE_MARGIN of it means the adversarial pair training
    has learned the block structure; a constant or untrained scorer sits at
    0.5 and fails.
    """
    start = time.monotonic()
    block_sizes = [50, 50]
    accuracies, macro_f1s = [], []
    oracle_accuracies, oracle_macro_f1s = [], []
    for seed in range(5):
        graph = sbm_graph(block_sizes, 0.3, 0.01, seed)
        train_edges, test_pos, test_neg = split_edges(graph, 0.1, seed + 1000)
        config = TrainConfig(
            batch_size=512, pretrain_iters=500, train_iters=500,
            eta_d=1.0, eta_g=1e-4, gamma=1.0 / 512, lam=10.0, seed=seed,
        )
        disc, _, _ = train_graph(config, graph, train_edges, dim=64, gen_hidden=(16,))
        report = link_predict_eval(disc, test_pos, test_neg)
        accuracies.append(report.accuracy)
        macro_f1s.append(report.macro_f1)
        oracle = block_oracle_eval(block_sizes, test_pos, test_neg)
        oracle_accuracies.append(oracle.accuracy)
        oracle_macro_f1s.append(oracle.macro_f1)
    median_acc = float(np.median(accuracies))
    median_macro = float(np.median(macro_f1s))
    oracle_acc = float(np.median(oracle_accuracies))
    oracle_macro = float(np.median(oracle_macro_f1s))
    need_acc = oracle_acc - ORACLE_MARGIN
    need_macro = oracle_macro - ORACLE_MARGIN
    elapsed = time.monotonic() - start
    ok = median_acc >= need_acc and median_macro >= need_macro and elapsed < 300.0
    _log(
        f"[acceptance] criterion 9 {_verdict(ok)}: median link-prediction "
        f"accuracy {median_acc:.4f} vs block oracle {oracle_acc:.4f}, median "
        f"macro-F1 {median_macro:.4f} vs block oracle {oracle_macro:.4f} over "
        f"5 seeds (need >= oracle - {ORACLE_MARGIN} both); {elapsed:.0f}s "
        f"(limit 300s)"
    )
    assert median_acc >= need_acc, (
        f"median link-prediction accuracy {median_acc:.4f} is below the block "
        f"oracle's {oracle_acc:.4f} minus {ORACLE_MARGIN}"
    )
    assert median_macro >= need_macro, (
        f"median macro-F1 {median_macro:.4f} is below the block oracle's "
        f"{oracle_macro:.4f} minus {ORACLE_MARGIN}"
    )
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 300s"


# --- 10. CLI determinism ----------------------------------------------------


def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(argv))
    return code, buffer.getvalue()


def _canonical_payload(stdout_text):
    """JSON payload with the single volatile key (a duration) stripped."""
    payload = json.loads(stdout_text[stdout_text.index("{"):])
    payload.pop("wall_clock_sec", None)
    return json.dumps(payload, sort_keys=True)


def test_criterion_10_cli_subcommands_are_deterministic(tmp_path, _log):
    start = time.monotonic()
    edges = tmp_path / "cliques.txt"
    edges.write_text("".join(
        f"{a} {b}\n"
        for block in (range(6), range(6, 12))
        for a in block for b in block if a < b
    ))
    synth_out = tmp_path / "synth.csv"
    commands = {
        "train": ["train", "--synth", "--synth-n", "300", "--synth-ir", "4",
                  "--batch-size", "8", "--pretrain-iters", "10",
                  "--train-iters", "5", "--gen-arch", "4", "--seed", "0"],
        "graph": ["graph", "--edges", str(edges), "--test-frac", "0.2",
                  "--dim", "4", "--batch-size", "8", "--pretrain-iters", "30",
                  "--train-iters", "5", "--eta-d", "0.5", "--eta-g", "0.001",
                  "--gen-arch", "4", "--seed", "1"],
        "theory": ["theory", "--p-plus", "0.7,0.2,0.1", "--lambda", "0.1"],
        "synth": ["synth", "--n", "200", "--ir", "4", "--seed", "3",
                  "--out", str(synth_out)],
    }
    for name, argv in commands.items():
        code_1, text_1 = _run_cli(argv)
        bytes_1 = synth_out.read_bytes() if name == "synth" else None
        code_2, text_2 = _run_cli(argv)
        assert code_1 == 0 and code_2 == 0, f"{name} exited {code_1}/{code_2}"
        if name == "synth":
            assert text_1 == text_2, f"synth stdout differs between runs"
            assert bytes_1 == synth_out.read_bytes(), "synth CSV differs between runs"
        else:
            payload_1 = _canonical_payload(text_1)
            payload_2 = _canonical_payload(text_2)
            assert payload_1 == payload_2, f"{name} payload differs between runs"
    elapsed = time.monotonic() - start
    _log(
        f"[acceptance] criterion 10 PASS: train/graph/theory JSON payloads and "
        f"the synth CSV are byte-identical across paired runs (duration field "
        f"stripped); {elapsed:.1f}s"
    )


# --- 11. published reference row is informational only ----------------------


def test_criterion_11_reference_row_is_informational(_log):
    start = time.monotonic()
    code, text = _run_cli([
        "train", "--synth", "--synth-n", "300", "--synth-ir", "4",
        "--batch-size", "8", "--pretrain-iters", "10", "--train-iters", "5",
        "--gen-arch", "4", "--seed", "0", "--reference", "pen_digits",
    ])
    elapsed = time.monotonic() - start
    payload = json.loads(text[text.index("{"):])
    row = payload.get("reference_row", {})
    ok = (
        code == 0
        and "informational only" in text
        and "±0.05" in text
        and row.get("name") == "pen_digits"
        and row.get("published") == {
            "accuracy": 0.9636, "auc": 0.9722, "precision": 0.7981, "f1": 0.8095,
        }
    )
    _log(
        f"[acceptance] criterion 11 {_verdict(ok)}: reference table printed with "
        f"the published pen_digits row and the ±0.05 expectation, exit code "
        f"{code} regardless of deltas (non-gating); {elapsed:.1f}s"
    )
    assert code == 0, "reference comparison must never gate: expected exit 0"
    assert "informational only" in text
    assert "±0.05" in text, "the ±0.05 expectation must be documented at the point of use"
    assert row.get("name") == "pen_digits"
    assert row.get("published") == {
        "accuracy": 0.9636, "auc": 0.9722, "precision": 0.7981, "f1": 0.8095,
    }
