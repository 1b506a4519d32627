"""Dataset loading, deterministic splits, standardization, synthetic draws.

Label 1 is always the minority/positive class. Every text input (CSV,
edge, label and config files) goes through _line_blocks, the one text
reader: UTF-8 with a leading byte-order mark dropped, read in blocks of
whole lines so that no file is held in memory whole. The line-oriented
inputs drop blank and '#' lines through _data_lines. CSV parsing is
deliberately strict: comma separated, one header row, no quoting support,
and no comment lines. load_csv writes its rows into one table; the split
and the resampling baselines are row indices into a table, never copies of
its rows, and the training statistics gather a block of rows at a time.
"""

import codecs
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError

STD_FLOOR = 1e-12
READ_BLOCK_BYTES = 1 << 18  # bytes per read of a text input
STATS_BLOCK_ROWS = 2048  # rows per block of column_statistics


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


def _line_blocks(path):
    """The lines of path in blocks: (number of the block's first line, its text, its lines).

    The file is read READ_BLOCK_BYTES bytes at a time and decoded as
    open() in text mode would: UTF-8 with a leading byte-order mark dropped
    and newlines translated. Each block is cut after its last newline. Every
    line boundary str.splitlines knows is then one character, so the
    blocks' lines are exactly the lines of the whole text. A file that is
    not UTF-8 raises DataError naming it.

    The reader lets go of a block's bytes and of the block before it reads
    the next, so a caller that drops its own references to a block's text
    and lines at the end of its loop body holds one block at a time, not two.
    """
    if not path.exists():
        raise DataError(f"no such file: {path}")
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8-sig")(), translate=True)
    start, pending = 1, ""
    try:
        with open(path, "rb") as fh:
            while raw := fh.read(READ_BLOCK_BYTES):
                chunk = pending + decoder.decode(raw)
                del raw
                cut = chunk.rfind("\n") + 1
                text, pending = chunk[:cut], chunk[cut:]
                del chunk
                if not text:
                    continue
                lines = text.splitlines()
                yield start, text, lines
                start += len(lines)
                del text, lines
            pending += decoder.decode(b"", final=True)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if pending:
        yield start, pending, pending.splitlines()


def _data_lines(lines, start):
    """(lineno, line) for each line that is not blank and does not start with '#'; lines[0] is line start."""
    numbered = []
    for lineno, line in enumerate(lines, start):
        stripped = line.lstrip()
        if stripped and stripped[0] != "#":
            numbered.append((lineno, line))
    return numbered


def load_csv(path, label_column, positive_label):
    """Parse a headered comma-separated file into a LabeledDataset.

    Every non-label cell must be a finite number as Python's float() reads
    it; parse errors name the file line and the offending column. numpy's C
    reader parses each block of data lines; where it or a check rejects a
    block, the per-cell parse runs on that block instead, so every file
    loads or fails as that parse alone would have it. A first pass counts
    the rows, so each block's rows are written into the one table the call
    returns; a file whose row count changed between the passes raises
    DataError. A single-class file loads as any other: the split that
    training needs rejects it.
    """
    path = Path(path)
    n_rows = _count_rows(path) - 1  # less the header
    header = None
    at = 0
    for start, text, lines in _line_blocks(path):
        rows = [(lineno, line) for lineno, line in enumerate(lines, start) if line.strip()]
        if header is None and rows:
            header = [h.strip() for h in rows.pop(0)[1].split(",")]
            if label_column not in header:
                raise DataError(f"{path}: no column named {label_column!r} in header {header}")
            if header.count(label_column) > 1:
                raise DataError(f"{path}: column {label_column!r} named more than once in header {header}")
            if len(header) == 1:
                raise DataError(f"{path}: no feature column besides {label_column!r}")
            label_idx = header.index(label_column)
            features = np.empty((n_rows, len(header) - 1))
            labels = np.empty(n_rows, dtype=np.int64)
        if rows:
            if at + len(rows) > n_rows:
                raise DataError(f"{path}: changed while it was read; more than the {n_rows} data rows counted")
            cells = _csv_cells([line for _, line in rows], len(header), label_idx, positive_label)
            if cells is None:
                cells = _csv_cells_exact(path, header, label_idx, positive_label, rows)
            features[at : at + len(rows)], labels[at : at + len(rows)] = cells
            at += len(rows)
        del text, lines, rows  # before the next block is read
    if header is None:
        raise DataError(f"{path}: empty file")
    if at != n_rows:
        raise DataError(f"{path}: changed while it was read; {at} data rows, not the {n_rows} counted")
    if not at:
        raise DataError(f"{path}: no data rows")
    return LabeledDataset(features, labels)


def _count_rows(path):
    """The lines of path that are not blank, as far as it reads as text."""
    count = 0
    try:
        for _, text, lines in _line_blocks(path):
            count += sum(1 for line in lines if line.strip())
            del text, lines
    except DataError:
        pass  # the parsing pass meets the same fault in the same block, after any fault before it
    return count


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


def split_rows(labels, spec):
    """Row indices (train, val, test) of a disjoint, exhaustive partition, deterministic in spec.seed.

    Stratified: each class is shuffled and cut separately, so the per-class
    counts track the fractions to within rounding.
    """
    rng = np.random.default_rng(spec.seed)
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    for name, idx in (("positive", pos), ("negative", neg)):
        if len(idx) < 4:  # the fewest rows that leave one in each of the three parts
            raise DataError(f"stratified split needs >= 4 {name} samples, have {len(idx)}")
    parts = ([], [], [])
    for idx in (pos, neg):
        shuffled = rng.permutation(idx)
        a = int(round(spec.train_frac * len(idx)))
        b = int(round(spec.val_frac * len(idx)))
        parts[0].append(shuffled[:a])
        parts[1].append(shuffled[a : a + b])
        parts[2].append(shuffled[a + b :])
    return tuple(np.concatenate(p) for p in parts)


def split_dataset(data, spec):
    """The (train, val, test) parts of split_rows as datasets: copies of those rows of data."""
    parts = split_rows(data.labels, spec)
    return tuple(LabeledDataset(data.features[rows], data.labels[rows]) for rows in parts)


def column_statistics(features, rows):
    """The column means of features[rows] and their std floored at STD_FLOOR, gathering few rows at a time.

    Both are bit for bit numpy's features[rows].mean(axis=0) and
    .std(axis=0): rows gathered by index come out C-ordered whatever the
    table's layout, and numpy sums the columns of a C-ordered block of two or
    more columns one row after another, so a sum carried into the next block
    of STATS_BLOCK_ROWS rows as its first row is the same sum. A table of one
    column is summed in another order; its rows are gathered at once.
    """
    if features.shape[1] == 1:
        x = features[rows]
        return x.mean(axis=0), np.maximum(x.std(axis=0), STD_FLOOR)

    def column_sums(center):
        total = None
        for a in range(0, len(rows), STATS_BLOCK_ROWS):
            block = features[rows[a : a + STATS_BLOCK_ROWS]]
            if center is not None:  # squared deviations, as numpy's var takes them
                block -= center
                block *= block
            total = np.add.reduce(block if total is None else np.vstack([total[None], block]), axis=0)
        return total

    mean = column_sums(None) / len(rows)
    return mean, np.maximum(np.sqrt(column_sums(mean) / len(rows)), STD_FLOOR)


def standardize(train, *others):
    """Column-wise (x - mean) / std with statistics taken from train only.

    The std is floored at STD_FLOOR so constant columns map to exact zeros.
    Returns (datasets, mean, std) with the same affine map applied to every
    dataset passed; the datasets passed are left as they are.
    """
    if train.n == 0:
        raise DataError("cannot standardize an empty training set")
    mean, std = column_statistics(train.features, np.arange(train.n))
    out = []
    for ds in (train, *others):
        x = ds.features - mean
        x /= std  # in place: no (x - mean) temporary beside the result
        out.append(LabeledDataset(x, ds.labels))
    return tuple(out), mean, std


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


def undersample_majority(labels, rng):
    """Rows that balance labels by dropping random majority samples (without replacement).

    Returns the row indices, positives first: features[rows] is the
    balanced set of a table with those labels.
    """
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("resampling needs both classes")
    keep_neg = rng.choice(neg, size=min(len(pos), len(neg)), replace=False)
    return np.concatenate([pos, keep_neg])


def oversample_minority(labels, rng):
    """Rows that balance labels by repeating random minority samples (with replacement).

    Returns the row indices: the positives, the repeats, then the negatives.
    """
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise DataError("resampling needs both classes")
    extra = rng.choice(pos, size=max(len(neg) - len(pos), 0), replace=True)
    return np.concatenate([pos, extra, neg])
