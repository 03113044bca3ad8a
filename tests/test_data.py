import struct

import numpy as np
import pytest

from smwopt import data
from smwopt.exceptions import DataFormatError
from tests.conftest import save_csv, write_idx_pair


def read(inputs):
    """All samples as the network reads them, through the trainer's gather,
    back as (N, m0) rows."""
    return inputs.columns(slice(None)).T


class TestCsv:
    def test_three_line_multiclass(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,2\n")
        ds = data.load_csv(path, num_features=2, num_classes=3)
        assert ds.inputs.shape == (3, 2)
        assert np.array_equal(ds.targets, np.eye(3))

    def test_binary_scalar_targets(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("1.0,0\n2.0,1\n")
        ds = data.load_csv(path, num_features=1, num_classes=1)
        assert ds.targets.shape == (2, 1)
        assert np.array_equal(ds.targets[:, 0], [0.0, 1.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError):
            data.load_csv(path, num_features=2)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n1.0,oops,1\n")
        with pytest.raises(DataFormatError, match="bad.csv:2"):
            data.load_csv(path, num_features=2, num_classes=2)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,5\n")
        with pytest.raises(DataFormatError, match="out of range"):
            data.load_csv(path, num_features=2, num_classes=3)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,label\n1.0,2.0,0\n")
        ds = data.load_csv(path, num_features=2, num_classes=1, skip_header=True)
        assert ds.num_samples == 1

    def test_save_load_round_trip(self, tmp_path, rng):
        inputs = rng.normal(size=(5, 3))
        labels = rng.integers(0, 4, size=5)
        ds = data.Dataset(inputs, data.one_hot(labels, 4))
        path = tmp_path / "rt.csv"
        save_csv(path, ds)
        back = data.load_csv(path, num_features=3, num_classes=4)
        assert np.array_equal(read(back.inputs), read(ds.inputs))
        assert np.array_equal(back.targets, ds.targets)


class TestIdx:
    def test_zero_image(self, tmp_path):
        images = np.zeros((1, 4, 4), dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, [3])
        ds = data.load_idx(ip, lp)
        assert np.array_equal(read(ds.inputs), np.zeros((1, 16)))
        assert ds.targets[0, 3] == 1.0

    def test_label_seven(self, tmp_path):
        images = np.full((1, 2, 2), 255, dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, [7])
        ds = data.load_idx(ip, lp)
        expected = np.zeros(10)
        expected[7] = 1.0
        assert np.array_equal(ds.targets[0], expected)
        assert np.array_equal(ds.inputs.columns([0])[:, 0], np.ones(4))

    def test_round_trip(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 5, 5)).astype(np.uint8)
        labels = np.array([0, 9, 4], dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, labels)
        ds = data.load_idx(ip, lp)
        assert np.array_equal(read(ds.inputs), images.reshape(3, 25) / 255.0)
        assert np.array_equal(np.argmax(ds.targets, axis=1), labels)

    def test_bad_magic(self, tmp_path, rng):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, [0])
        raw = bytearray(ip.read_bytes())
        raw[3] = 0x99
        ip.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="magic"):
            data.load_idx(ip, lp)

    def test_truncated(self, tmp_path):
        images = np.zeros((2, 3, 3), dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, [0, 1])
        ip.write_bytes(ip.read_bytes()[:-4])
        with pytest.raises(DataFormatError, match="truncated"):
            data.load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, [0, 1])
        with open(lp, "wb") as fh:
            fh.write(struct.pack(">ii", 0x00000801, 1))
            fh.write(bytes([0]))
        with pytest.raises(DataFormatError, match="labels"):
            data.load_idx(ip, lp)


class TestStandardizer:
    def test_hand_example(self):
        ds = data.Dataset(np.array([[1.0], [2.0], [3.0]]), np.zeros((3, 1)))
        stats = data.fit_standardizer(ds)
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(np.sqrt(2.0 / 3.0))
        out = stats.apply(ds)
        expected = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        assert np.max(np.abs(read(out.inputs)[:, 0] - expected)) < 1e-12

    def test_constant_column_maps_to_zero(self):
        ds = data.Dataset(np.full((4, 2), 7.0), np.zeros((4, 1)))
        out = data.fit_standardizer(ds).apply(ds)
        assert np.array_equal(read(out.inputs), np.zeros((4, 2)))

    def test_transformed_moments(self, rng):
        ds = data.Dataset(rng.normal(3.0, 2.5, size=(200, 6)), np.zeros((200, 1)))
        out = read(data.fit_standardizer(ds).apply(ds).inputs)
        assert np.max(np.abs(np.mean(out, axis=0))) <= 1e-10
        assert np.max(np.abs(np.var(out, axis=0) - 1.0)) <= 1e-8

    def test_test_split_uses_train_statistics(self, rng):
        train = data.Dataset(rng.normal(0.0, 1.0, size=(50, 3)), np.zeros((50, 1)))
        test = data.Dataset(rng.normal(5.0, 1.0, size=(50, 3)), np.zeros((50, 1)))
        stats = data.fit_standardizer(train)
        out = stats.apply(test)
        assert out.inputs.mean is stats.mean and out.inputs.std is stats.std
        assert np.all(np.mean(read(out.inputs), axis=0) > 1.0)

    def test_refit_idempotent(self, rng):
        ds = data.Dataset(rng.normal(2.0, 3.0, size=(100, 4)), np.zeros((100, 1)))
        once = data.fit_standardizer(ds).apply(ds)
        stats = data.fit_standardizer(once)
        assert np.max(np.abs(stats.mean)) <= 1e-10
        assert np.max(np.abs(stats.std - 1.0)) <= 1e-8

    def test_apply_twice_is_refused(self, rng):
        ds = data.Dataset(rng.normal(size=(10, 2)), np.zeros((10, 1)))
        stats = data.fit_standardizer(ds)
        with pytest.raises(ValueError, match="already"):
            stats.apply(stats.apply(ds))

    @pytest.mark.parametrize("big", (1.7e308, -1.7e308))
    def test_overflowing_standardized_extreme_is_a_format_error(self, big):
        """A feature whose standardized extreme overflows is refused when
        the statistics are attached, from its extremes alone."""
        x = np.array([[big, 0.0], [-big, 1.0], [-big, 2.0]])
        ds = data.Dataset(x, np.zeros((3, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            stats = data.fit_standardizer(ds)
            assert not np.all(np.isfinite((x - stats.mean) / stats.std))
            with pytest.raises(DataFormatError, match="NaN or Inf"):
                stats.apply(ds)


def whole_array_std(x):
    """The standardizer's std from one full-size centered temporary."""
    mean = np.mean(x, axis=0)
    std = np.sqrt(np.mean((x - mean) ** 2, axis=0))
    return mean, np.maximum(std, data.STD_FLOOR)


class TestBlockwiseFit:
    """fit_standardizer sums the centered squares a block of rows at a
    time, with the bits of the whole-array formula."""

    @pytest.mark.parametrize("rows", (1, 2, 15, 16, 17, 48, 50))
    def test_bits_around_the_block(self, rows, rng, monkeypatch):
        monkeypatch.setattr(data, "FIT_BLOCK", 64)  # 16 rows of 4 columns
        x = rng.normal(3.0, 2.5, size=(rows, 4))
        x[:, 2] = 7.0  # a constant column
        stats = data.fit_standardizer(data.Dataset(x, np.zeros((rows, 1))))
        mean, std = whole_array_std(x)
        assert np.array_equal(stats.mean, mean)
        assert np.array_equal(stats.std, std)
        assert stats.std[2] == data.STD_FLOOR

    @pytest.mark.parametrize("columns", (1, 3))
    def test_bits_of_other_layouts(self, columns, rng, monkeypatch):
        """Row-major inputs of several columns are summed in blocks;
        column-major ones and a single column as one block, as numpy sums
        those pairwise down each column."""
        monkeypatch.setattr(data, "FIT_BLOCK", 64)
        for x in (
            rng.normal(size=(300, columns)),
            np.asfortranarray(rng.normal(size=(300, columns))),
        ):
            stats = data.fit_standardizer(data.Dataset(x, np.zeros((300, 1))))
            mean, std = whole_array_std(x)
            assert np.array_equal(stats.mean, mean)
            assert np.array_equal(stats.std, std)

    def test_bits_at_the_module_block(self, rng):
        rows = 3 * (data.FIT_BLOCK // 784) + 5
        x = rng.integers(0, 256, size=(rows, 784)) / 255.0
        stats = data.fit_standardizer(data.Dataset(x, np.zeros((rows, 1))))
        mean, std = whole_array_std(x)
        assert np.array_equal(stats.mean, mean)
        assert np.array_equal(stats.std, std)

    def test_apply_attaches_statistics(self, rng):
        """apply neither copies nor writes the stored rows; the gather
        reads them with the bits of (x - mean) / std, column-major."""
        x = rng.normal(2.0, 3.0, size=(30, 4))
        ds = data.Dataset(x.copy(), np.zeros((30, 1)))
        stats = data.fit_standardizer(ds)
        out = stats.apply(ds)
        assert out.inputs.stored is ds.inputs.stored
        assert np.array_equal(ds.inputs.stored, x)
        columns = out.inputs.columns(slice(None))
        assert columns.flags.f_contiguous
        assert np.array_equal(columns, ((x - stats.mean) / stats.std).T)


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(DataFormatError):
            data.Dataset(np.array([[np.nan]]), np.array([[0.0]]))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("where", ("inputs", "targets"))
    def test_rejects_non_finite_entries(self, bad, where, rng):
        arrays = {"inputs": rng.normal(size=(6, 3)), "targets": np.zeros((6, 2))}
        arrays[where][4, 1] = bad
        with pytest.raises(DataFormatError, match="NaN or Inf"):
            data.Dataset(**arrays)

    def test_accepts_extreme_finite_entries(self):
        big = np.finfo(float).max
        ds = data.Dataset(np.array([[big, -big]]), np.array([[0.0]]))
        assert ds.num_samples == 1

    def test_subset_first_k(self, rng):
        ds = data.Dataset(rng.normal(size=(10, 2)), np.zeros((10, 1)))
        sub = ds.subset(4)
        assert np.array_equal(read(sub.inputs), read(ds.inputs)[:4])

    def test_subset_seeded(self, rng):
        ds = data.Dataset(rng.normal(size=(10, 2)), np.zeros((10, 1)))
        a = ds.subset(5, seed=1)
        b = ds.subset(5, seed=1)
        assert np.array_equal(read(a.inputs), read(b.inputs))
        assert len({tuple(r) for r in read(a.inputs)}) == 5
