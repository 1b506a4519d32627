import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from advclf.data import (
    LabeledDataset,
    SplitSpec,
    SynthSpec,
    load_csv,
    oversample_minority,
    save_csv,
    split_dataset,
    standardize,
    synth_gaussian_imbalanced,
    undersample_majority,
)
from advclf.errors import ConfigError, DataError
from advclf.metrics import evaluate_binary
from helpers import array_bits, exact_parse_only, load_outcome


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
        assert data.n_pos == 1 and data.n_neg == 2
        assert data.features[0, 1] == 2.0

    def test_savetxt_header_is_a_header_not_a_comment(self, tmp_path):
        """A CSV has no comment lines, so numpy savetxt's '# x,y,label' header names the columns."""
        f = tmp_path / "d.csv"
        rows = [[1.0, 2.0, 1.0], [3.0, 4.0, 0.0], [5.0, 6.0, 0.0]]
        np.savetxt(f, rows, fmt="%g", delimiter=",", header="x,y,label")
        data = load_csv(f, "label", "1")
        assert data.n == 3 and data.n_pos == 1
        assert np.array_equal(data.features, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv", "label", "1")

    def test_missing_label_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\n1,2\n")
        with pytest.raises(DataError, match="no column named"):
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

    def test_single_class_warns(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,label\n1.0,1\n2.0,1\n")
        with pytest.warns(UserWarning, match="single-class"):
            load_csv(f, "label", "1")

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
@given(text=csv_texts())
def test_load_csv_matches_its_cell_by_cell_parse(text):
    """numpy's reader and the per-cell parse load the same bits or raise the same error and warnings."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = csv_outcome(path)
        with exact_parse_only():
            exact = csv_outcome(path)
    assert fast == exact


class TestSplit:
    def test_sizes_6_2_2(self):
        data = small_dataset(n=10)
        tr, va, te = split_dataset(data, SplitSpec(seed=0))
        assert (tr.n, va.n, te.n) == (6, 2, 2)

    def test_partition_is_disjoint_and_exhaustive(self):
        data = small_dataset(n=37, seed=5)
        tr, va, te = split_dataset(data, SplitSpec(seed=1))
        rows = np.vstack([tr.features, va.features, te.features])
        assert rows.shape[0] == data.n
        # every original row appears exactly once
        original = {tuple(r) for r in data.features}
        recovered = [tuple(r) for r in rows]
        assert len(recovered) == len(set(recovered))
        assert set(recovered) == original

    def test_stratified_positive_counts(self):
        rng = np.random.default_rng(0)
        labels = np.zeros(100, dtype=np.int64)
        labels[:10] = 1
        data = LabeledDataset(rng.standard_normal((100, 2)), labels)
        tr, va, te = split_dataset(data, SplitSpec(seed=2))
        assert abs(tr.n_pos - 6) <= 1
        assert abs(va.n_pos - 2) <= 1
        assert abs(te.n_pos - 2) <= 1

    def test_deterministic_in_seed(self):
        data = small_dataset(n=30, seed=9)
        a = split_dataset(data, SplitSpec(seed=7))
        b = split_dataset(data, SplitSpec(seed=7))
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
        c = split_dataset(data, SplitSpec(seed=8))
        assert not all(np.array_equal(x.features, y.features) for x, y in zip(a, c))

    def test_tiny_class_rejected(self):
        rng = np.random.default_rng(0)
        labels = np.zeros(20, dtype=np.int64)
        labels[:2] = 1
        data = LabeledDataset(rng.standard_normal((20, 2)), labels)
        with pytest.raises(DataError):
            split_dataset(data, SplitSpec(seed=0))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=20, max_value=200), st.integers(min_value=0, max_value=2**31))
    def test_split_fuzz_partition(self, n, seed):
        rng = np.random.default_rng(seed % 1000)
        labels = np.zeros(n, dtype=np.int64)
        labels[: max(3, n // 7)] = 1
        rng.shuffle(labels)
        data = LabeledDataset(rng.standard_normal((n, 2)), labels)
        tr, va, te = split_dataset(data, SplitSpec(seed=seed))
        assert tr.n + va.n + te.n == n
        assert tr.n_pos + va.n_pos + te.n_pos == int(labels.sum())


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


class TestSynth:
    def test_pen_digits_scale_counts(self):
        spec = SynthSpec(n_total=10992, imbalance_ratio=9.4)
        assert spec.n_minority == 1057
        assert spec.n_majority == 9935
        data = synth_gaussian_imbalanced(spec)
        assert data.n_pos == 1057 and data.n_neg == 9935

    def test_zero_separation_indistinguishable(self):
        data = synth_gaussian_imbalanced(
            SynthSpec(n_total=2000, imbalance_ratio=3.0, class_separation=0.0, seed=1)
        )
        pos_mean = data.pos_features().mean(axis=0)
        neg_mean = data.neg_features().mean(axis=0)
        assert np.abs(pos_mean - neg_mean).max() < 0.2

    def test_empirical_means_near_centers(self):
        spec = SynthSpec(n_total=20000, imbalance_ratio=3.0, dim=3, class_separation=4.0, seed=2)
        data = synth_gaussian_imbalanced(spec)
        pos_mean = data.pos_features().mean(axis=0)
        assert abs(pos_mean[0] - 2.0) < 3.0 / np.sqrt(spec.n_minority)
        assert abs(pos_mean[1]) < 3.0 / np.sqrt(spec.n_minority)

    def test_wide_separation_is_linearly_solvable(self):
        data = synth_gaussian_imbalanced(
            SynthSpec(n_total=2000, imbalance_ratio=4.0, dim=2, class_separation=6.0, seed=3)
        )
        # score by the known discriminative axis; AUC must be near-perfect
        rep = evaluate_binary(1.0 / (1.0 + np.exp(-data.features[:, 0])), data.labels)
        assert rep.auc > 0.99

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


class TestResampling:
    def test_undersample_balances(self):
        data = small_dataset(n=40, seed=1, pos_frac=0.2)
        out = undersample_majority(data, np.random.default_rng(0))
        assert out.n_pos == data.n_pos
        assert out.n_neg == data.n_pos

    def test_oversample_balances(self):
        data = small_dataset(n=40, seed=2, pos_frac=0.2)
        out = oversample_minority(data, np.random.default_rng(0))
        assert out.n_neg == data.n_neg
        assert out.n_pos == data.n_neg
        # oversampled rows are copies of original positives
        pos_rows = {tuple(r) for r in data.pos_features()}
        assert all(tuple(r) in pos_rows for r in out.pos_features())

    def test_single_class_rejected(self):
        data = LabeledDataset(np.ones((5, 2)), np.ones(5, dtype=np.int64))
        with pytest.raises(DataError):
            undersample_majority(data, np.random.default_rng(0))
        with pytest.raises(DataError):
            oversample_minority(data, np.random.default_rng(0))
