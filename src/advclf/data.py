"""Dataset loading, deterministic splits, standardization, synthetic draws.

Label 1 is always the minority/positive class. Every text input (CSV,
edge, label and config files) is read by _read_text, UTF-8 with a leading
byte-order mark dropped; the line-oriented ones drop blank and '#' lines
through _data_lines. CSV parsing is deliberately strict: comma separated,
one header row, no quoting support, and no comment lines.
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


def _read_text(path):
    """The text of path, a leading UTF-8 byte-order mark dropped."""
    if not path.exists():
        raise DataError(f"no such file: {path}")
    return path.read_text(encoding="utf-8-sig")


def _data_lines(text):
    """(lineno, line) for each line of text that is not blank and does not start with '#'."""
    numbered = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if stripped and stripped[0] != "#":
            numbered.append((lineno, line))
    return numbered


def load_csv(path, label_column, positive_label):
    """Parse a headered comma-separated file into a LabeledDataset.

    Every non-label cell must be a finite number as Python's float() reads
    it; parse errors name the file line and the offending column. numpy's C
    reader parses the data lines; where it or a check rejects them, the
    per-cell parse runs instead, so every file loads or fails as that parse
    alone would have it. A single-class file loads with a warning since it is
    usable for evaluation only.
    """
    path = Path(path)
    numbered = enumerate(_read_text(path).splitlines(), start=1)
    rows = [(lineno, line) for lineno, line in numbered if line.strip()]
    if not rows:
        raise DataError(f"{path}: empty file")
    header = [h.strip() for h in rows[0][1].split(",")]
    if label_column not in header:
        raise DataError(f"{path}: no column named {label_column!r} in header {header}")
    label_idx = header.index(label_column)
    if len(rows) == 1:
        raise DataError(f"{path}: no data rows")
    parsed = _csv_cells([line for _, line in rows[1:]], len(header), label_idx, positive_label)
    if parsed is None:
        parsed = _csv_cells_exact(path, header, label_idx, positive_label, rows[1:])
    features, labels = parsed
    if labels.min() == labels.max():
        warnings.warn(f"{path}: single-class file (all labels {labels[0]}); evaluation use only")
    return LabeledDataset(features, labels)


def _csv_cells(lines, n_cells, label_idx, positive_label):
    """(features, labels) of the data lines through numpy's C reader, or None if a line is rejected.

    The reader takes float()'s grammar less underscores and non-ASCII
    digits. A line it cannot parse, with a cell count other than n_cells or
    with a non-finite value is left to _csv_cells_exact, which names it.
    """
    if {line.count(",") for line in lines} != {n_cells - 1}:
        return None
    try:
        features = np.loadtxt(
            lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2,
            usecols=[j for j in range(n_cells) if j != label_idx],
        )
    except ValueError:
        return None
    if not np.isfinite(features).all():
        return None
    # n_cells - 1 commas on each line: the label is the last of a line's first label_idx + 1 cells
    tail = n_cells - 1 - label_idx
    labels = [line.rsplit(",", tail)[0].rpartition(",")[2].strip() == positive_label for line in lines]
    return features, np.asarray(labels, dtype=np.int64)


def _csv_cells_exact(path, header, label_idx, positive_label, rows):
    """(features, labels) of the (lineno, line) data rows, cell by cell with float().

    Raises DataError at the first line with a wrong cell count or a cell that
    is not a finite number.
    """
    feats = []
    labels = []
    for lineno, line in rows:
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
    return np.asarray(feats, dtype=np.float64), np.asarray(labels, dtype=np.int64)


def save_csv(path, data):
    """Write a LabeledDataset in the format load_csv reads back: columns f0, f1, ..., label."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*(f"f{i}" for i in range(data.n_features)), "label"]) + "\n")
        # tolist() gives the Python floats that float() would, so each cell is the same repr
        for row, lab in zip(np.asarray(data.features, dtype=np.float64), data.labels):
            fh.write(",".join([repr(v) for v in row.tolist()] + [str(int(lab))]) + "\n")


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
    return tuple(LabeledDataset(data.features[idx], data.labels[idx]) for idx in indices)


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
    out = tuple(LabeledDataset((ds.features - mean) / std, ds.labels) for ds in (train, *others))
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
    return LabeledDataset(features[order], labels[order])


def undersample_majority(data, rng):
    """Balance by dropping random majority samples (without replacement)."""
    pos = np.flatnonzero(data.labels == 1)
    neg = np.flatnonzero(data.labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("resampling needs both classes")
    keep_neg = rng.choice(neg, size=min(len(pos), len(neg)), replace=False)
    idx = np.concatenate([pos, keep_neg])
    return LabeledDataset(data.features[idx], data.labels[idx])


def oversample_minority(data, rng):
    """Balance by repeating random minority samples (with replacement)."""
    pos = np.flatnonzero(data.labels == 1)
    neg = np.flatnonzero(data.labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("resampling needs both classes")
    extra = rng.choice(pos, size=max(len(neg) - len(pos), 0), replace=True)
    idx = np.concatenate([pos, extra, neg])
    return LabeledDataset(data.features[idx], data.labels[idx])
