import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advclf.data
from advclf.data import (
    STD_FLOOR,
    LabeledDataset,
    SplitSpec,
    SynthSpec,
    _line_blocks,
    column_statistics,
    load_csv,
    oversample_minority,
    save_csv,
    split_dataset,
    split_rows,
    standardize,
    synth_gaussian_imbalanced,
    undersample_majority,
)
from advclf.errors import ConfigError, DataError
from advclf.metrics import evaluate_binary
from helpers import array_bits, exact_parse_only, load_outcome, read_blocks_of


def small_dataset(n=10, seed=0, pos_frac=0.5):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < pos_frac).astype(np.int64)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return LabeledDataset(rng.standard_normal((n, 3)), labels)


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y,label\n1.0,2.0,pos\n3.0,4.0,neg\n5.0,6.0,neg\n")
        data = load_csv(f, "label", "pos")
        assert data.n == 3 and data.n_features == 2
        assert np.count_nonzero(data.labels == 1) == 1 and np.count_nonzero(data.labels == 0) == 2
        assert data.features[0, 1] == 2.0

    def test_savetxt_header_is_a_header_not_a_comment(self, tmp_path):
        """A CSV has no comment lines, so numpy savetxt's '# x,y,label' header names the columns."""
        f = tmp_path / "d.csv"
        rows = [[1.0, 2.0, 1.0], [3.0, 4.0, 0.0], [5.0, 6.0, 0.0]]
        np.savetxt(f, rows, fmt="%g", delimiter=",", header="x,y,label")
        data = load_csv(f, "label", "1")
        assert data.n == 3 and np.count_nonzero(data.labels == 1) == 1
        assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", "label", "1")

    def test_missing_label_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\n1,2\n")
        with pytest.raises(DataError, match="no column named"):
            load_csv(f, "label", "1")

    def test_label_column_named_twice(self, tmp_path):
        """A second label column would otherwise load as a feature, leaking the label into the inputs."""
        f = tmp_path / "d.csv"
        f.write_text("a,label, label\n1,1,1\n2,0,0\n")
        with pytest.raises(DataError, match="column 'label' named more than once in header"):
            load_csv(f, "label", "1")

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y,label\n1.0,oops,1\n")
        with pytest.raises(DataError, match=r"line 2.*'y'"):
            load_csv(f, "label", "1")

    def test_non_finite_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,label\ninf,1\n")
        with pytest.raises(DataError, match="non-finite"):
            load_csv(f, "label", "1")

    def test_single_class_loads_without_a_warning(self, tmp_path):
        """The split that training needs rejects it; the loader has nothing to add (warnings are errors here)."""
        f = tmp_path / "d.csv"
        f.write_text("x,label\n1.0,1\n2.0,1\n")
        data = load_csv(f, "label", "1")
        np.testing.assert_array_equal(data.labels, [1, 1])

    def test_round_trip(self, tmp_path):
        data = small_dataset(n=20, seed=3)
        f = tmp_path / "rt.csv"
        save_csv(f, data)
        back = load_csv(f, "label", "1")
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)

    def test_save_csv_writes_repr_of_float_per_cell(self, tmp_path):
        x = np.array([[-0.0, 5e-324, 1e308], [0.1, 3.0, -2.0], [1e16, 0.0, -1e-300]])
        f = tmp_path / "w.csv"
        save_csv(f, LabeledDataset(x, np.array([1, 0, 1])))
        rows = [",".join([repr(float(v)) for v in row] + [str(lab)]) for row, lab in zip(x, [1, 0, 1])]
        assert f.read_bytes() == "".join(line + "\n" for line in ["f0,f1,f2,label", *rows]).encode()


NUMBERS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["+4", " 5.5\t", ".5", "5.", "-0", "1E3", "\u30001\u3000"]),
)
# what float() and numpy's reader each accept or refuse: non-finite, beyond float64, underscores,
# non-ASCII digits, hex, empty, whitespace-only, comment-like, two numbers, a BOM, half an exponent
ODD_CELLS = ["nan", "inf", "-Infinity", "1e400", "1_000", "\u0661\u0662", "0x1", "", "  ", "#3", "1 2",
             "\ufeff1", "1e", "-", "abc"]
LABELS = ["0", "1", " 1 ", "yes"]


@st.composite
def csv_texts(draw):
    """A headered CSV with a label column and a few of the anomalies load_csv must name or accept."""
    n_features = draw(st.integers(0, 3))
    label_idx = draw(st.integers(0, n_features))
    header = [f"f{j}" for j in range(n_features)]
    header.insert(label_idx, "label")
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        cells = draw(st.lists(NUMBERS, min_size=n_features, max_size=n_features))
        cells.insert(label_idx, draw(st.sampled_from(LABELS)))
        rows.append(cells)
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["odd cell", "extra cell", "missing cell", "hash"]))
        features = [j for j in range(len(row)) if j != label_idx]
        if kind == "odd cell" and features:
            row[draw(st.sampled_from(features))] = draw(st.sampled_from(ODD_CELLS))
        elif kind == "extra cell":
            row.insert(draw(st.integers(0, len(row))), draw(NUMBERS))
        elif kind == "missing cell" and row:
            row.pop(draw(st.integers(0, len(row) - 1)))
        elif kind == "hash" and row:
            row[0] = "#" + row[0]
    lines = [",".join(header), *(",".join(row) for row in rows)]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t ", "\u3000"])))
    if draw(st.booleans()):
        lines[0] = "\ufeff" + lines[0]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def csv_outcome(path):
    return load_outcome(lambda: load_csv(path, "label", "1"), lambda d: array_bits(d.features, d.labels))


@settings(max_examples=400, deadline=None)
@given(text=csv_texts(), block=st.integers(1, 16))
def test_load_csv_matches_its_cell_by_cell_parse(text, block):
    """numpy's reader and the per-cell parse load the same bits or raise the same error.

    Read a few bytes at a time, the header can sit past the first block
    and the reader can reject a later block than the first.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = csv_outcome(path)
        with read_blocks_of(block):
            blocked = csv_outcome(path)
        with exact_parse_only():
            exact = csv_outcome(path)
    assert fast == blocked == exact


# every line boundary str.splitlines knows, both newline sequences, and text around them
LINE_PIECES = ["a", "b2", " ", "\t", "#", "\u00e9", "\u3000",
               "\r", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(st.sampled_from(LINE_PIECES), max_size=40), bom=st.booleans(),
       block=st.integers(1, 64))
def test_line_blocks_number_the_lines_of_the_whole_text(pieces, bom, block):
    """The blocks' numbered lines are those of the whole decoded text, whatever the block size."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.txt"
        path.write_bytes((("\ufeff" if bom else "") + "".join(pieces)).encode("utf-8"))
        with read_blocks_of(block):
            blocks = list(_line_blocks(path))
        whole = path.read_text(encoding="utf-8-sig")
    assert [(start + i, line) for start, _, lines in blocks for i, line in enumerate(lines)] == list(
        enumerate(whole.splitlines(), 1)
    )
    assert "".join(text for _, text, _ in blocks) == whole
    assert all(lines == text.splitlines() for _, text, lines in blocks)


def test_load_csv_peak_memory_is_set_by_the_table(tmp_path):
    """load_csv holds its table and one block: its traced peak is about 1.36 tables here.

    A load that joins per-block parts holds the table twice, about 2.03
    tables here, and one that holds the file's text and its lines at once
    comes to about five.
    """
    rng = np.random.default_rng(71)
    n, d = 20_000, 16
    data = LabeledDataset(rng.standard_normal((n, d)) * rng.uniform(0.5, 20.0, d),
                          (rng.random(n) < 0.05).astype(np.int64))
    path = tmp_path / "big.csv"
    save_csv(path, data)
    tracemalloc.start()
    try:
        loaded = load_csv(path, "label", "1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert array_bits(loaded.features, loaded.labels) == array_bits(data.features, data.labels)
    assert peak < 1.5 * (data.features.nbytes + data.labels.nbytes)


LATE_ROWS = "".join(f"{i}.5,{-i},{i % 2}\n" for i in range(1, 600))


@pytest.mark.parametrize("text, block, outcome", [
    ("\n x,y,label\n\n1,2,1\n \t\n3,4,0\n\n", 7, [[1.0, 2.0], [3.0, 4.0]]),
    ("x,y,label\r\n1,2,1\r\n3,4,0\r\n", 5, [[1.0, 2.0], [3.0, 4.0]]),
    ("x,y,label\n1,2,1\n3,4,0", 6, [[1.0, 2.0], [3.0, 4.0]]),
    ("x,y,label\n", 1 << 18, "d.csv: no data rows"),
    ("\nx,y,label\r\n\r\n  \r\n", 3, "d.csv: no data rows"),
    ("x,y,label\n" + LATE_ROWS + "7.5,oops,1\n" + LATE_ROWS, 100,
     "d.csv line 601, column 'y': non-numeric value 'oops'"),
    ("x,y,label\r\n" + LATE_ROWS.replace("\n", "\r\n") + "7.5,1\r\n", 100,
     "d.csv line 601: expected 3 cells, got 2"),
], ids=["blank lines", "CRLF", "no final newline", "header only", "header and blank lines", "bad cell late",
        "short line late"])
def test_load_csv_row_count_pass_keeps_every_outcome(tmp_path, text, block, outcome):
    """The rows counted before the parse: blank lines, line ends and late faults load or fail as before."""
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    with read_blocks_of(block):
        if isinstance(outcome, str):
            with pytest.raises(DataError) as caught:
                load_csv(path, "label", "1")
            assert str(caught.value) == f"{tmp_path}/{outcome}"
        else:
            data = load_csv(path, "label", "1")
            assert data.features.tolist() == outcome and data.labels.tolist() == [1, 0]


@pytest.mark.parametrize("block", [1 << 18, 6], ids=["one block", "a row a block"])
@pytest.mark.parametrize("miscount, message", [
    (1, "changed while it was read; 3 data rows, not the 4 counted"),
    (-1, "changed while it was read; more than the 2 data rows counted"),
], ids=["one more", "one fewer"])
def test_load_csv_rejects_a_file_whose_rows_changed_between_its_passes(tmp_path, monkeypatch, miscount, message,
                                                                       block):
    """A file rewritten between the row count and the parse is an error naming it, not a wrong table."""
    path = tmp_path / "d.csv"
    path.write_text("x,y,label\n1,2,1\n3,4,0\n5,6,1\n")
    count_rows = advclf.data._count_rows
    monkeypatch.setattr(advclf.data, "_count_rows", lambda p: count_rows(p) + miscount)
    with read_blocks_of(block), pytest.raises(DataError) as caught:
        load_csv(path, "label", "1")
    assert str(caught.value) == f"{path}: {message}"


class TestSplit:
    def test_sizes_6_2_2(self):
        labels = np.array([1] * 4 + [0] * 6)
        tr, va, te = split_rows(labels, SplitSpec(seed=0))
        assert (len(tr), len(va), len(te)) == (6, 2, 2)

    def test_partition_is_disjoint_and_exhaustive(self):
        data = small_dataset(n=37, seed=5)
        parts = split_rows(data.labels, SplitSpec(seed=1))
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(data.n))

    def test_stratified_positive_counts(self):
        labels = np.zeros(100, dtype=np.int64)
        labels[:10] = 1
        tr, va, te = split_rows(labels, SplitSpec(seed=2))
        assert abs(np.count_nonzero(labels[tr] == 1) - 6) <= 1
        assert abs(np.count_nonzero(labels[va] == 1) - 2) <= 1
        assert abs(np.count_nonzero(labels[te] == 1) - 2) <= 1

    def test_deterministic_in_seed(self):
        data = small_dataset(n=30, seed=9)
        a = split_rows(data.labels, SplitSpec(seed=7))
        b = split_rows(data.labels, SplitSpec(seed=7))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        c = split_rows(data.labels, SplitSpec(seed=8))
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_tiny_class_rejected(self):
        labels = np.zeros(20, dtype=np.int64)
        labels[:2] = 1
        with pytest.raises(DataError):
            split_rows(labels, SplitSpec(seed=0))

    @pytest.mark.parametrize("name,cls", [("positive", 1), ("negative", 0)])
    def test_every_part_holds_a_class_of_4_or_more(self, name, cls):
        """4 rows is the fewest that the 60/20/20 cut leaves one of in each part; 3 split 2/1/0."""
        for size in range(3, 61):
            labels = np.full(size + 10, 1 - cls)
            labels[:size] = cls
            if size == 3:
                with pytest.raises(DataError, match=f"stratified split needs >= 4 {name} samples, have 3"):
                    split_rows(labels, SplitSpec(seed=size))
                continue
            for rows in split_rows(labels, SplitSpec(seed=size)):
                assert np.count_nonzero(labels[rows] == cls) >= 1, (size, rows)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=20, max_value=200), st.integers(min_value=0, max_value=2**31))
    def test_split_fuzz_partition(self, n, seed):
        rng = np.random.default_rng(seed % 1000)
        labels = np.zeros(n, dtype=np.int64)
        labels[: max(4, n // 7)] = 1
        rng.shuffle(labels)
        parts = split_rows(labels, SplitSpec(seed=seed))
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(n))
        assert sum(np.count_nonzero(labels[rows] == 1) for rows in parts) == int(labels.sum())


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=20, max_value=200), st.integers(min_value=0, max_value=2**31))
def test_split_dataset_is_the_gather_of_split_rows(n, seed):
    rng = np.random.default_rng(seed % 1000)
    labels = (rng.random(n) < 0.2).astype(np.int64)
    labels[:4], labels[4:8] = 1, 0
    data = LabeledDataset(rng.standard_normal((n, 3)), labels)
    parts = split_dataset(data, SplitSpec(seed=seed))
    for part, rows in zip(parts, split_rows(data.labels, SplitSpec(seed=seed)), strict=True):
        assert array_bits(part.features, part.labels) == array_bits(data.features[rows], data.labels[rows])


@st.composite
def tables_and_rows(draw):
    """A C- or F-ordered table, columns of scales 1e-3 to 1e3, maybe one constant; rows of it in any order."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, d) + rng.uniform(-1e3, 1e3, d)
    if draw(st.booleans()):
        features[:, draw(st.integers(0, d - 1))] = rng.uniform(-1e3, 1e3)
    if draw(st.booleans()):
        features = np.asfortranarray(features)
    rows = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n)))
    return features, rows


@settings(max_examples=300, deadline=None)
@given(table_rows=tables_and_rows(), block=st.integers(1, 12))
def test_column_statistics_are_numpys_bit_for_bit(table_rows, block):
    """Summed a few rows at a time, below, at and across the block size, as numpy's mean and std sum them."""
    features, rows = table_rows
    with mock.patch.object(advclf.data, "STATS_BLOCK_ROWS", block):
        mean, std = column_statistics(features, rows)
    x = features[rows]
    assert array_bits(mean, std) == array_bits(x.mean(axis=0), np.maximum(x.std(axis=0), STD_FLOOR))


class TestStandardize:
    def test_hand_case(self):
        data = LabeledDataset(np.array([[0.0], [2.0]]), np.array([1, 0]))
        (out,), mean, std = standardize(data)
        assert np.allclose(out.features.ravel(), [-1.0, 1.0])
        assert mean[0] == 1.0 and std[0] == 1.0

    def test_constant_column_maps_to_zero(self):
        data = LabeledDataset(np.full((4, 1), 3.5), np.array([1, 0, 1, 0]))
        (out,), _, _ = standardize(data)
        assert np.all(out.features == 0.0)

    def test_same_transform_applied_to_others(self):
        train = LabeledDataset(np.array([[0.0], [2.0]]), np.array([1, 0]))
        test = LabeledDataset(np.array([[1.0]]), np.array([1]))
        (tr, te), mean, std = standardize(train, test)
        assert te.features[0, 0] == 0.0  # equals the train mean

    def test_empty_training_set_rejected(self):
        empty = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        with pytest.raises(DataError, match=r"^cannot standardize an empty training set$"):
            standardize(empty)


class TestSynth:
    def test_pen_digits_scale_counts(self):
        spec = SynthSpec(n_total=10992, imbalance_ratio=9.4)
        assert spec.n_minority == 1057
        assert spec.n_majority == 9935
        data = synth_gaussian_imbalanced(spec)
        assert np.count_nonzero(data.labels == 1) == 1057 and np.count_nonzero(data.labels == 0) == 9935

    def test_zero_separation_indistinguishable(self):
        data = synth_gaussian_imbalanced(
            SynthSpec(n_total=2000, imbalance_ratio=3.0, class_separation=0.0, seed=1)
        )
        pos_mean = data.features[data.labels == 1].mean(axis=0)
        neg_mean = data.features[data.labels == 0].mean(axis=0)
        assert np.abs(pos_mean - neg_mean).max() < 0.2

    def test_empirical_means_near_centers(self):
        spec = SynthSpec(n_total=20000, imbalance_ratio=3.0, dim=3, class_separation=4.0, seed=2)
        data = synth_gaussian_imbalanced(spec)
        pos_mean = data.features[data.labels == 1].mean(axis=0)
        assert abs(pos_mean[0] - 2.0) < 3.0 / np.sqrt(spec.n_minority)
        assert abs(pos_mean[1]) < 3.0 / np.sqrt(spec.n_minority)

    def test_wide_separation_is_linearly_solvable(self):
        data = synth_gaussian_imbalanced(
            SynthSpec(n_total=2000, imbalance_ratio=4.0, dim=2, class_separation=6.0, seed=3)
        )
        # score by the known discriminative axis; AUC must be near-perfect
        rep = evaluate_binary(1.0 / (1.0 + np.exp(-data.features[:, 0])), data.labels)
        assert rep["auc"] > 0.99

    def test_determinism(self):
        a = synth_gaussian_imbalanced(SynthSpec(n_total=500, imbalance_ratio=5.0, seed=11))
        b = synth_gaussian_imbalanced(SynthSpec(n_total=500, imbalance_ratio=5.0, seed=11))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            SynthSpec(n_total=3, imbalance_ratio=100.0)
        with pytest.raises(ConfigError):
            SynthSpec(n_total=100, imbalance_ratio=1.0)
        with pytest.raises(ConfigError):
            SynthSpec(n_total=100, imbalance_ratio=5.0, dim=0)

    def test_fewer_than_three_rows_rejected(self):
        with pytest.raises(ConfigError, match=r"^n_total must be >= 3$"):
            SynthSpec(n_total=2)


class TestResampling:
    def test_undersample_balances(self):
        data = small_dataset(n=40, seed=1, pos_frac=0.2)
        rows = undersample_majority(data.labels, np.random.default_rng(0))
        pos, neg = np.flatnonzero(data.labels == 1), np.flatnonzero(data.labels == 0)
        # every positive once, then distinct negatives: as many as there are positives
        assert rows[: len(pos)].tolist() == pos.tolist()
        kept = rows[len(pos):]
        assert len(kept) == len(pos) and len(set(kept.tolist())) == len(kept)
        assert set(kept.tolist()) <= set(neg.tolist())

    def test_oversample_balances(self):
        data = small_dataset(n=40, seed=2, pos_frac=0.2)
        rows = oversample_minority(data.labels, np.random.default_rng(0))
        pos, neg = np.flatnonzero(data.labels == 1), np.flatnonzero(data.labels == 0)
        # every positive, repeats of positives up to the negative count, then every negative
        assert rows[: len(pos)].tolist() == pos.tolist()
        assert rows[len(neg):].tolist() == neg.tolist()
        assert set(rows[: len(neg)].tolist()) == set(pos.tolist())

    @pytest.mark.parametrize("label", [1, 0], ids=["all-positive", "all-negative"])
    def test_single_class_rejected(self, label):
        labels = np.full(5, label, dtype=np.int64)
        for resample in (undersample_majority, oversample_minority):
            with pytest.raises(DataError, match="resampling needs both classes"):
                resample(labels, np.random.default_rng(0))
