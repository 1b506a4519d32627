"""Binary classification metrics from confusion counts plus rank-based ROC-AUC."""

import numpy as np

from .errors import ConfigError, DataError


def _class_counts(labels):
    """The positive and negative counts of labels; DataError for a label other than 0 or 1."""
    n_pos, n_neg = int(np.count_nonzero(labels == 1)), int(np.count_nonzero(labels == 0))
    if n_pos + n_neg != labels.size:
        raise DataError("labels must be 0 or 1")
    return n_pos, n_neg


def confusion(preds, labels):
    """Counts (tp, fp, tn, fn) with label 1 as the positive class."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ConfigError(f"shape mismatch: {preds.shape} vs {labels.shape}")
    if preds.size == 0:
        raise ConfigError("empty predictions")
    _class_counts(labels)
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
    positive-negative score pair. The sort need not be stable: every score
    in a run of ties gets the run's midrank, so the rank sum is the same bit
    for bit in whatever order the run's members come.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ConfigError("scores and labels differ in length")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores must be finite")
    n_pos, n_neg = _class_counts(labels)
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs at least one positive and one negative label")
    order = np.argsort(scores)
    s = scores[order]
    # runs of equal sorted scores span [start, end); each gets the 1-based midrank
    start = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    end = np.r_[start[1:], s.size]
    ranks = np.repeat(0.5 * (start + end + 1), end - start)
    rank_sum = float(np.sum(ranks[labels[order] == 1]))
    return (rank_sum - 0.5 * n_pos * (n_pos + 1)) / (n_pos * n_neg)


def macro_micro_f1(per_class_counts):
    """Aggregate per-class (tp, fp, fn) triples.

    Macro averages the per-class F1 scores; micro computes one F1 from the
    pooled counts.
    """
    counts = [(int(tp), int(fp), int(fn)) for tp, fp, fn in per_class_counts]
    if not counts:
        raise ConfigError("need at least one class")
    f1s = [precision_recall_f1(tp, fp, fn)[2] for tp, fp, fn in counts]
    macro = float(np.mean(f1s))
    pooled = tuple(sum(c[i] for c in counts) for i in range(3))
    micro = precision_recall_f1(*pooled)[2]
    return macro, micro


def evaluate_binary(scores, labels):
    """Threshold scores at 0.5 (>= 0.5 is class 1) and build the full report, a dict of plain numbers.

    macro_f1/micro_f1 treat class 1 and class 0 as the two one-vs-rest
    problems; with exactly one predicted label per sample micro_f1 equals
    accuracy.
    """
    scores = np.asarray(scores, dtype=np.float64)
    preds = (scores >= 0.5).astype(int)
    tp, fp, tn, fn = confusion(preds, labels)
    precision, recall, f1 = precision_recall_f1(tp, fp, fn)
    macro, micro = macro_micro_f1([(tp, fp, fn), (tn, fn, fp)])
    return {
        "accuracy": (tp + tn) / (tp + fp + tn + fn),
        "auc": auc_roc(scores, labels),
        "precision": precision, "recall": recall, "f1": f1,
        "macro_f1": macro, "micro_f1": micro,
        "tp": tp, "fp": fp, "tn": tn, "fn": fn,
    }
