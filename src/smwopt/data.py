"""Dataset loading (numeric CSV, IDX containers) and standardization.

The data path holds one float64 copy of the inputs: load_idx scales the
one copy it converts the pixels into, Dataset checks finiteness without
a mask, fit_standardizer squares the centered inputs a block of rows at a
time, and Standardizer.apply standardizes the inputs in place.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .exceptions import DataFormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
IDX_NUM_CLASSES = 10
STD_FLOOR = 1e-8
# Entries per block of centered squares in fit_standardizer. At 6000x784
# the fit takes 13.9-16.0 ms in 32K-entry blocks, 13.8-18.3 ms in 16K,
# 13.7-18.1 ms in 64K, 17.4-27.0 ms in 128K and more, and 23-29 ms as one
# full-size temporary.
FIT_BLOCK = 1 << 15


def _all_finite(a: np.ndarray) -> bool:
    """No NaN or infinity in a: min and max propagate both, and need no mask."""
    return a.size == 0 or bool(np.isfinite(np.min(a)) and np.isfinite(np.max(a)))


@dataclass
class Dataset:
    """Sample rows: inputs (N, m0) and targets (N, m_L); both finite."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.inputs.ndim != 2 or self.targets.ndim != 2:
            raise DataFormatError("inputs and targets must be 2-dimensional")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise DataFormatError(
                f"{self.inputs.shape[0]} input rows vs "
                f"{self.targets.shape[0]} target rows"
            )
        if self.inputs.shape[0] < 1:
            raise DataFormatError("data set is empty")
        if not (_all_finite(self.inputs) and _all_finite(self.targets)):
            raise DataFormatError("data set contains NaN or Inf")

    @property
    def num_samples(self) -> int:
        return self.inputs.shape[0]

    def subset(self, k: int, seed: int | None = None) -> "Dataset":
        """First-k rows, or a seeded random k-row sample without replacement."""
        k = min(k, self.num_samples)
        if seed is None:
            idx = np.arange(k)
        else:
            idx = np.random.default_rng(seed).choice(
                self.num_samples, size=k, replace=False
            )
        return Dataset(self.inputs[idx], self.targets[idx])


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if np.any(labels < 0) or np.any(labels >= num_classes):
        bad = labels[(labels < 0) | (labels >= num_classes)][0]
        raise DataFormatError(
            f"class label {bad} out of range [0, {num_classes})"
        )
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels.astype(int)] = 1.0
    return out


def load_csv(
    path,
    num_features: int,
    num_classes: int = 1,
    skip_header: bool = False,
) -> Dataset:
    """Numeric CSV with one sample per line: features, then a label column.

    num_classes > 1 converts integer labels to one-hot rows; num_classes
    == 1 keeps the label column as a scalar target (binary or regression).
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if skip_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != num_features + 1:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {num_features + 1} fields, "
                    f"got {len(fields)}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as err:
                raise DataFormatError(f"{path}:{lineno}: {err}") from err
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    table = np.array(rows, dtype=np.float64)
    features, labels = table[:, :-1], table[:, -1]
    if num_classes > 1:
        if np.any(labels != np.rint(labels)):
            raise DataFormatError(f"{path}: class labels must be integers")
        targets = one_hot(labels, num_classes)
    else:
        targets = labels.reshape(-1, 1)
    return Dataset(features, targets)


def _read_exact(fh, count: int, path, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise DataFormatError(f"{path}: truncated file while reading {what}")
    return data


def load_idx(images_path, labels_path) -> Dataset:
    """MNIST-style IDX pair: big-endian u8 images scaled to [0, 1], one-hot labels."""
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(
            ">iiii", _read_exact(fh, 16, images_path, "image header")
        )
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad image magic 0x{magic:08x}"
            )
        raw = _read_exact(fh, count * rows * cols, images_path, "pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as fh:
        magic, label_count = struct.unpack(
            ">ii", _read_exact(fh, 8, labels_path, "label header")
        )
        if magic != IDX_LABELS_MAGIC:
            raise DataFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x}"
            )
        raw = _read_exact(fh, label_count, labels_path, "label data")
    if label_count != count:
        raise DataFormatError(
            f"{labels_path}: {label_count} labels for {count} images"
        )
    labels = np.frombuffer(raw, dtype=np.uint8)
    images = pixels.astype(np.float64)
    images /= 255.0
    return Dataset(images, one_hot(labels, IDX_NUM_CLASSES))


@dataclass(frozen=True)
class Standardizer:
    """Per-feature mean and population standard deviation of a training split."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, dataset: Dataset) -> Dataset:
        """The dataset standardized in place: its inputs are overwritten
        with (x - mean) / std, and a Dataset over them is returned."""
        feats = dataset.inputs
        feats -= self.mean
        feats /= self.std
        return Dataset(feats, dataset.targets)


def fit_standardizer(train: Dataset) -> Standardizer:
    """Statistics from the training split only; stds floored at STD_FLOOR.

    Constant features end up with std equal to the floor, so they map to
    exactly zero after centering. std has the bits of mean((x - mean)^2).
    numpy sums axis 0 of row-major inputs of two or more columns row by
    row, so there the centered squares are formed about FIT_BLOCK entries
    at a time, and each block after the first is summed with the running
    total as its first row. Other inputs are summed as one block.
    """
    x = train.inputs
    mean = np.mean(x, axis=0)
    rows = len(x)
    if x.shape[1] > 1 and x.strides[0] > x.strides[1]:
        rows = max(1, FIT_BLOCK // x.shape[1])
    total = None
    for start in range(0, len(x), rows):
        squares = x[start : start + rows] - mean
        squares *= squares
        if total is not None:
            squares = np.concatenate((total[None], squares))
        total = np.sum(squares, axis=0)
    std = np.sqrt(total / len(x))
    return Standardizer(mean=mean, std=np.maximum(std, STD_FLOOR))
