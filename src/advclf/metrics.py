"""Binary classification metrics from confusion counts plus rank-based ROC-AUC."""

from dataclasses import dataclass

import numpy as np

from .errors import MetricsError


def confusion(preds, labels):
    """Counts (tp, fp, tn, fn) with label 1 as the positive class."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise MetricsError(f"shape mismatch: {preds.shape} vs {labels.shape}")
    if preds.size == 0:
        raise MetricsError("empty predictions")
    tp = int(np.count_nonzero((preds == 1) & (labels == 1)))
    fp = int(np.count_nonzero((preds == 1) & (labels == 0)))
    tn = int(np.count_nonzero((preds == 0) & (labels == 0)))
    fn = int(np.count_nonzero((preds == 0) & (labels == 1)))
    return tp, fp, tn, fn


def precision_recall_f1(tp, fp, fn):
    """Zero denominators yield 0.0 rather than an error."""
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def auc_roc(scores, labels):
    """Probability that a random positive outscores a random negative, ties at half credit.

    Computed from midranks, the sort-based form of counting every
    positive-negative score pair.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise MetricsError("scores and labels differ in length")
    if scores.size and not np.all(np.isfinite(scores)):
        raise MetricsError("scores must be finite")
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = int(np.count_nonzero(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricsError("AUC needs at least one positive and one negative label")
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    # runs of equal sorted scores span [start, end); each gets the 1-based midrank
    start = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    end = np.r_[start[1:], s.size]
    ranks = np.repeat(0.5 * (start + end + 1), end - start)
    rank_sum = float(np.sum(ranks[np.asarray(labels)[order] == 1]))
    return (rank_sum - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg)


def macro_micro_f1(per_class_counts):
    """Aggregate per-class (tp, fp, fn) triples.

    Macro averages the per-class F1 scores; micro computes one F1 from the
    pooled counts.
    """
    counts = [(int(tp), int(fp), int(fn)) for tp, fp, fn in per_class_counts]
    if not counts:
        raise MetricsError("need at least one class")
    f1s = [precision_recall_f1(tp, fp, fn)[2] for tp, fp, fn in counts]
    macro = float(np.mean(f1s))
    pooled = tuple(sum(c[i] for c in counts) for i in range(3))
    micro = precision_recall_f1(*pooled)[2]
    return macro, micro


@dataclass
class MetricsReport:
    accuracy: float
    auc: float
    precision: float
    recall: float
    f1: float
    macro_f1: float
    micro_f1: float
    tp: int
    fp: int
    tn: int
    fn: int


def evaluate_binary(scores, labels):
    """Threshold scores at 0.5 (>= 0.5 is class 1) and build the full report.

    macro_f1/micro_f1 treat class 1 and class 0 as the two one-vs-rest
    problems; with exactly one predicted label per sample micro_f1 equals
    accuracy.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    preds = (scores >= 0.5).astype(int)
    tp, fp, tn, fn = confusion(preds, labels)
    precision, recall, f1 = precision_recall_f1(tp, fp, fn)
    macro, micro = macro_micro_f1([(tp, fp, fn), (tn, fn, fp)])
    return MetricsReport(
        accuracy=(tp + tn) / (tp + fp + tn + fn),
        auc=auc_roc(scores, labels),
        precision=precision,
        recall=recall,
        f1=f1,
        macro_f1=macro,
        micro_f1=micro,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )
