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


def small_dataset(n=10, seed=0, pos_frac=0.5):
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < pos_frac).astype(np.int64)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return LabeledDataset(rng.standard_normal((n, 3)), labels, ["a", "b", "c"])


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y,label\n1.0,2.0,pos\n3.0,4.0,neg\n5.0,6.0,neg\n")
        data = load_csv(f, "label", "pos")
        assert data.n == 3 and data.n_features == 2
        assert data.n_pos == 1 and data.n_neg == 2
        assert data.feature_names == ["x", "y"]
        assert data.features[0, 1] == 2.0

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
        assert back.feature_names == data.feature_names


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
        data = LabeledDataset(rng.standard_normal((100, 2)), labels, None)
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
        data = LabeledDataset(rng.standard_normal((20, 2)), labels, None)
        with pytest.raises(DataError):
            split_dataset(data, SplitSpec(seed=0))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=20, max_value=200), st.integers(min_value=0, max_value=2**31))
    def test_split_fuzz_partition(self, n, seed):
        rng = np.random.default_rng(seed % 1000)
        labels = np.zeros(n, dtype=np.int64)
        labels[: max(3, n // 7)] = 1
        rng.shuffle(labels)
        data = LabeledDataset(rng.standard_normal((n, 2)), labels, None)
        tr, va, te = split_dataset(data, SplitSpec(seed=seed))
        assert tr.n + va.n + te.n == n
        assert tr.n_pos + va.n_pos + te.n_pos == int(labels.sum())


class TestStandardize:
    def test_hand_case(self):
        data = LabeledDataset(np.array([[0.0], [2.0]]), np.array([1, 0]), None)
        (out,), mean, std = standardize(data)
        assert np.allclose(out.features.ravel(), [-1.0, 1.0])
        assert mean[0] == 1.0 and std[0] == 1.0

    def test_constant_column_maps_to_zero(self):
        data = LabeledDataset(np.full((4, 1), 3.5), np.array([1, 0, 1, 0]), None)
        (out,), _, _ = standardize(data)
        assert np.all(out.features == 0.0)

    def test_same_transform_applied_to_others(self):
        train = LabeledDataset(np.array([[0.0], [2.0]]), np.array([1, 0]), None)
        test = LabeledDataset(np.array([[1.0]]), np.array([1]), None)
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
        data = LabeledDataset(np.ones((5, 2)), np.ones(5, dtype=np.int64), None)
        with pytest.raises(DataError):
            undersample_majority(data, np.random.default_rng(0))
        with pytest.raises(DataError):
            oversample_minority(data, np.random.default_rng(0))
