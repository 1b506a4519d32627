"""Dataset loading, deterministic splits, standardization, synthetic draws.

Label 1 is always the minority/positive class. CSV parsing is deliberately
strict: UTF-8, comma separated, one header row, no quoting support.
"""

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError

STD_FLOOR = 1e-12


@dataclass
class LabeledDataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int in {0, 1}
    feature_names: list | None = None

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def n_pos(self):
        return int(np.count_nonzero(self.labels == 1))

    @property
    def n_neg(self):
        return int(np.count_nonzero(self.labels == 0))

    def pos_features(self):
        return self.features[self.labels == 1]

    def neg_features(self):
        return self.features[self.labels == 0]


def load_csv(path, label_column, positive_label):
    """Parse a headered comma-separated file into a LabeledDataset.

    Every non-label cell must be a finite number; parse errors name the file
    line and the offending column. A single-class file loads with a warning
    since it is usable for evaluation only.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    rows = [
        (lineno, line)
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if line.strip()
    ]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0][1].split(",")]
    if label_column not in header:
        raise DataError(f"{path}: no column named {label_column!r} in header {header}")
    label_idx = header.index(label_column)
    feature_names = [h for j, h in enumerate(header) if j != label_idx]
    feats = []
    labels = []
    for lineno, line in rows[1:]:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise DataError(f"{path} line {lineno}: expected {len(header)} cells, got {len(cells)}")
        row = []
        for j, cell in enumerate(cells):
            if j == label_idx:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path} line {lineno}, column {header[j]!r}: non-numeric value {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise DataError(f"{path} line {lineno}, column {header[j]!r}: non-finite value {cell!r}")
            row.append(value)
        feats.append(row)
        labels.append(1 if cells[label_idx] == positive_label else 0)
    if not feats:
        raise DataError(f"{path}: no data rows")
    labels_arr = np.asarray(labels, dtype=np.int64)
    if len(set(labels)) == 1:
        warnings.warn(f"{path}: single-class file (all labels {labels[0]}); evaluation use only")
    return LabeledDataset(np.asarray(feats, dtype=np.float64), labels_arr, feature_names)


def save_csv(path, data):
    """Write a LabeledDataset in the format load_csv reads back, labels in column 'label'."""
    names = data.feature_names or [f"f{i}" for i in range(data.n_features)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*names, "label"]) + "\n")
        for row, lab in zip(data.features, data.labels):
            fh.write(",".join([repr(float(v)) for v in row] + [str(int(lab))]) + "\n")


@dataclass(frozen=True)
class SplitSpec:
    """A 60/20/20 train/validation/test split; the test part takes what rounding leaves."""

    train_frac: ClassVar[float] = 0.6
    val_frac: ClassVar[float] = 0.2
    seed: int


def _three_way_counts(n, spec):
    n_train = min(int(round(spec.train_frac * n)), n)
    n_val = min(int(round(spec.val_frac * n)), n - n_train)
    return n_train, n_val, n - n_train - n_val


def split_dataset(data, spec):
    """Disjoint, exhaustive (train, val, test) partition, deterministic in spec.seed.

    Stratified: each class is shuffled and cut separately, so the per-class
    counts track the fractions to within rounding.
    """
    rng = np.random.default_rng(spec.seed)
    pos = np.flatnonzero(data.labels == 1)
    neg = np.flatnonzero(data.labels == 0)
    for name, idx in (("positive", pos), ("negative", neg)):
        if len(idx) < 3:
            raise DataError(f"stratified split needs >= 3 {name} samples, have {len(idx)}")
    parts = ([], [], [])
    for idx in (pos, neg):
        shuffled = rng.permutation(idx)
        a, b, _ = _three_way_counts(len(idx), spec)
        parts[0].append(shuffled[:a])
        parts[1].append(shuffled[a : a + b])
        parts[2].append(shuffled[a + b :])
    indices = [np.concatenate(p) for p in parts]
    return tuple(
        LabeledDataset(data.features[idx], data.labels[idx], data.feature_names) for idx in indices
    )


def standardize(train, *others):
    """Column-wise (x - mean) / std with statistics taken from train only.

    The std is floored at STD_FLOOR so constant columns map to exact zeros.
    Returns (datasets, mean, std) with the same affine map applied to every
    dataset passed.
    """
    if train.n == 0:
        raise DataError("cannot standardize an empty training set")
    mean = train.features.mean(axis=0)
    std = np.maximum(train.features.std(axis=0), STD_FLOOR)
    out = tuple(
        LabeledDataset((ds.features - mean) / std, ds.labels, ds.feature_names)
        for ds in (train, *others)
    )
    return out, mean, std


@dataclass(frozen=True)
class SynthSpec:
    n_total: int = 5000
    imbalance_ratio: float = 50.0
    dim: int = 2
    class_separation: float = 2.0
    seed: int = 0

    @property
    def n_minority(self):
        return int(round(self.n_total / (self.imbalance_ratio + 1.0)))

    @property
    def n_majority(self):
        return self.n_total - self.n_minority

    def __post_init__(self):
        if self.n_total < 3:
            raise ConfigError("n_total must be >= 3")
        if not math.isfinite(self.imbalance_ratio) or self.imbalance_ratio <= 1.0:
            raise ConfigError("imbalance_ratio must exceed 1")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if not 0.0 <= self.class_separation < math.inf:
            raise ConfigError("class_separation must be finite and >= 0")
        if self.n_minority < 2:
            raise ConfigError(
                f"minority class would have {self.n_minority} samples, need >= 2"
            )


def synth_gaussian_imbalanced(spec):
    """Two unit-covariance Gaussians along the first axis.

    Minority (label 1) centered at +mu, majority at -mu, with
    |2 mu| = class_separation; rows are shuffled, all deterministic in
    spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    mu = np.zeros(spec.dim)
    mu[0] = 0.5 * spec.class_separation
    x_pos = rng.standard_normal((spec.n_minority, spec.dim)) + mu
    x_neg = rng.standard_normal((spec.n_majority, spec.dim)) - mu
    features = np.vstack([x_pos, x_neg])
    labels = np.concatenate(
        [np.ones(spec.n_minority, dtype=np.int64), np.zeros(spec.n_majority, dtype=np.int64)]
    )
    order = rng.permutation(spec.n_total)
    names = [f"f{i}" for i in range(spec.dim)]
    return LabeledDataset(features[order], labels[order], names)


def undersample_majority(data, rng):
    """Balance by dropping random majority samples (without replacement)."""
    pos = np.flatnonzero(data.labels == 1)
    neg = np.flatnonzero(data.labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("resampling needs both classes")
    keep_neg = rng.choice(neg, size=min(len(pos), len(neg)), replace=False)
    idx = np.concatenate([pos, keep_neg])
    return LabeledDataset(data.features[idx], data.labels[idx], data.feature_names)


def oversample_minority(data, rng):
    """Balance by repeating random minority samples (with replacement)."""
    pos = np.flatnonzero(data.labels == 1)
    neg = np.flatnonzero(data.labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("resampling needs both classes")
    extra = rng.choice(pos, size=max(len(neg) - len(pos), 0), replace=True)
    idx = np.concatenate([pos, extra, neg])
    return LabeledDataset(data.features[idx], data.labels[idx], data.feature_names)
