import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advclf.errors import ConfigError, DataError
from advclf.metrics import (
    auc_roc,
    confusion,
    evaluate_binary,
    macro_micro_f1,
    precision_recall_f1,
)
from helpers import auc_pair_count, auc_roc_midrank_loop


def test_confusion_hand_case():
    preds = np.array([1, 1, 0, 0, 1])
    labels = np.array([1, 0, 0, 1, 1])
    assert confusion(preds, labels) == (2, 1, 1, 1)


def test_precision_recall_f1_zero_denominators():
    assert precision_recall_f1(0, 0, 0) == (0.0, 0.0, 0.0)
    assert precision_recall_f1(0, 5, 0) == (0.0, 0.0, 0.0)
    assert precision_recall_f1(0, 0, 5) == (0.0, 0.0, 0.0)


def test_precision_recall_f1_hand_case():
    p, r, f1 = precision_recall_f1(6, 2, 4)
    assert p == pytest.approx(0.75)
    assert r == pytest.approx(0.6)
    assert f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)


def test_auc_hand_case():
    assert auc_roc([0.9, 0.4, 0.6, 0.1], [1, 1, 0, 0]) == pytest.approx(0.75)


def test_auc_perfect_and_inverted():
    assert auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auc_roc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0


def test_auc_all_tied_scores():
    assert auc_roc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == pytest.approx(0.5)


def test_auc_single_class_rejected():
    with pytest.raises(DataError):
        auc_roc([0.1, 0.9], [1, 1])


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        labels = np.zeros(n, dtype=int)
        labels[: int(rng.integers(1, n))] = 1
        rng.shuffle(labels)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse grid scores force plenty of ties
        scores = rng.integers(0, 4, size=n) / 3.0
        assert auc_roc(scores, labels) == pytest.approx(auc_pair_count(scores, labels), abs=1e-12)


def test_auc_bit_identical_to_midrank_loop():
    rng = np.random.default_rng(7)
    grid = np.array([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])
    for case in range(600):
        n = int(rng.integers(2, 300)) if case else 8000
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (0, 1)
        kind = case % 3
        if kind == 0:  # few distinct values, -0.0 and 0.0 mixed
            scores = rng.choice(grid, size=n)
        elif kind == 1:  # long runs of ties
            scores = rng.integers(0, max(2, n // 20), size=n) / 7.0
        else:
            scores = rng.standard_normal(n)
        got = np.float64(auc_roc(scores, labels))
        want = np.float64(auc_roc_midrank_loop(scores, labels))
        assert got.view(np.uint64) == want.view(np.uint64), (case, got, want)


@settings(max_examples=100, deadline=None)
@given(
    # grid-valued scores so the affine transform below cannot create new ties
    st.lists(st.integers(min_value=0, max_value=1000).map(lambda v: v / 1000.0),
             min_size=4, max_size=12),
    st.data(),
)
def test_auc_properties(scores, data):
    n = len(scores)
    labels = data.draw(
        st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n).filter(
            lambda ls: 0 < sum(ls) < n
        )
    )
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    base = auc_roc(scores, labels)
    # strictly monotone transforms leave the ranking, hence the AUC, unchanged
    assert auc_roc(3.0 * scores + 1.0, labels) == pytest.approx(base, abs=1e-12)
    # flipping labels mirrors the statistic
    assert auc_roc(scores, 1 - labels) == pytest.approx(1.0 - base, abs=1e-12)


def test_macro_micro_hand_case():
    # class a: tp=1 fp=1 fn=1 -> F1 0.5; class b: tp=3 fp=1 fn=1 -> F1 0.75
    counts = [(1, 1, 1), (3, 1, 1)]
    macro, micro = macro_micro_f1(counts)
    assert macro == pytest.approx(0.625)
    assert micro == pytest.approx(2 * 4 / (2 * 4 + 2 + 2))


def test_macro_micro_empty_class_counts_as_zero():
    macro, micro = macro_micro_f1([(0, 0, 0), (2, 0, 0)])
    assert macro == pytest.approx(0.5)
    assert micro == pytest.approx(1.0)


@pytest.mark.parametrize("metric, args, kind, message", [
    (confusion, ([1, 0], [1]), ConfigError, r"shape mismatch: \(2,\) vs \(1,\)"),
    (confusion, ([], []), ConfigError, "empty predictions"),
    (auc_roc, ([0.2, 0.7], [1]), ConfigError, "scores and labels differ in length"),
    (auc_roc, ([0.2, np.nan, 0.7], [1, 0, 1]), DataError, "scores must be finite"),
    (auc_roc, ([0.2, np.inf], [1, 0]), DataError, "scores must be finite"),
    (macro_micro_f1, ([],), ConfigError, "need at least one class"),
    (auc_roc, ([], []), DataError, "AUC needs at least one positive"),
    (auc_roc, ([0.3, 0.1, 0.2], [1, 2, 0]), DataError, "labels must be 0 or 1"),
    (auc_roc, ([0.3, 0.1, 0.2], [1, np.nan, 0]), DataError, "labels must be 0 or 1"),
    (confusion, ([1, 0, 1], [1, 0, 2]), DataError, "labels must be 0 or 1"),
    (confusion, ([1, 0, 1], [1, 0, -1]), DataError, "labels must be 0 or 1"),
    (confusion, ([1, 0, 1], [1, 0, 0.5]), DataError, "labels must be 0 or 1"),
    (evaluate_binary, ([0.9, 0.1, 0.8], [1, 0, 2]), DataError, "labels must be 0 or 1"),
], ids=["confusion-shapes", "confusion-empty", "auc-lengths", "auc-nan", "auc-inf", "macro-micro-no-class",
        "auc-empty", "auc-label-2", "auc-label-nan", "confusion-label-2", "confusion-label-minus-1",
        "confusion-label-half", "evaluate-label-2"])
def test_metric_rejects_input_it_cannot_score(metric, args, kind, message):
    """A caller's shape fault is a ConfigError; unscorable scores and labels other than 0 or 1 are a DataError."""
    with pytest.raises(kind, match=message):
        metric(*args)


def test_evaluate_binary_report_fields():
    scores = np.array([0.9, 0.6, 0.4, 0.1])
    labels = np.array([1, 0, 1, 0])
    rep = evaluate_binary(scores, labels)
    assert rep["tp"] == 1 and rep["fp"] == 1 and rep["tn"] == 1 and rep["fn"] == 1
    assert rep["accuracy"] == pytest.approx(0.5)
    assert rep["auc"] == pytest.approx(auc_pair_count(scores, labels))
    assert set(rep) == {
        "accuracy", "auc", "precision", "recall", "f1",
        "macro_f1", "micro_f1", "tp", "fp", "tn", "fn",
    }
    assert all(isinstance(v, (int, float)) for v in rep.values())


def test_evaluate_binary_threshold_ties_go_positive():
    rep = evaluate_binary(np.array([0.5, 0.5]), np.array([1, 0]))
    assert rep["tp"] == 1 and rep["fp"] == 1 and rep["tn"] == 0 and rep["fn"] == 0


def test_micro_f1_equals_accuracy_for_single_label_binary():
    rng = np.random.default_rng(3)
    scores = rng.random(50)
    labels = rng.integers(0, 2, size=50)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    rep = evaluate_binary(scores, labels)
    assert rep["micro_f1"] == pytest.approx(rep["accuracy"], abs=1e-12)
