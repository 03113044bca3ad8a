"""Dataset loading (numeric CSV, IDX containers) and standardization.

Inputs are held in the form they were loaded: load_idx keeps the IDX
file's uint8 pixels with their divisor (255), load_csv the float64 rows.
fit_standardizer fits uint8 pixels from their exact integer moments, a
block of rows at a time, and float rows with np.mean and np.std over one
converted copy. Standardizer.apply attaches the statistics beside
the stored rows. Nothing standardizes the whole array: Inputs.columns
converts and standardizes only the samples a forward reads (the trainer's
batches and evaluation blocks), each entry as (x / divisor - mean) / std.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DataFormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
IDX_NUM_CLASSES = 10
IDX_PIXEL_DIVISOR = 255.0
STD_FLOOR = 1e-8
# Entries per block of converted pixels in the exact fit (_pixel_moments).
# At 6000x784 uint8 pixels it takes 5.7-5.9 ms in 32K-entry blocks,
# 5.6-5.9 ms in 16K and 8.0-8.5 ms in 8K (2 BLAS threads).
FIT_BLOCK = 1 << 15


def _all_finite(a: np.ndarray) -> bool:
    """No NaN or infinity in a: min and max propagate both, and need no mask."""
    return a.size == 0 or bool(np.isfinite(np.min(a)) and np.isfinite(np.max(a)))


@dataclass(frozen=True)
class Inputs:
    """Sample rows (N, m0) as stored, and the map a forward reads them through.

    stored holds the rows as loaded: uint8 pixels of an IDX file, or
    float64 rows. A forward reads stored / divisor when a divisor is set,
    and then (x - mean) / std when a Standardizer has attached statistics.
    """

    stored: np.ndarray
    divisor: float | None = None
    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    @classmethod
    def of(cls, inputs) -> "Inputs":
        """inputs itself if it is Inputs, else its rows as float64 read as stored."""
        if isinstance(inputs, Inputs):
            return inputs
        return cls(np.asarray(inputs, dtype=np.float64))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.stored.shape

    def __len__(self) -> int:
        return len(self.stored)

    def rows(self, idx) -> np.ndarray:
        """Fresh float64 rows idx as a forward reads them, in the layout
        the stored rows give (row-major for a gather or a row-major array)."""
        out = self.stored[idx].astype(np.float64)
        if self.divisor is not None:
            out /= self.divisor
        if self.mean is not None:
            out -= self.mean
            out /= self.std
        return out

    def columns(self, idx) -> np.ndarray:
        """Samples idx as network input: (m0, B) float64 sample columns,
        column-major, the transpose of the rows gathered row-major."""
        return np.ascontiguousarray(self.rows(idx)).T

    def all_finite(self) -> bool:
        """Every entry as a forward reads it is finite.

        Converting and standardizing preserve order, so this holds when it
        holds for each feature's smallest and largest stored entry; min
        and max propagate NaN. Integer rows are checked at their dtype's
        extremes, which bound every entry they can hold, with no scan.
        """
        x = self.stored
        if np.issubdtype(x.dtype, np.integer):
            info = np.iinfo(x.dtype)
            bounds = np.array([[info.min], [info.max]], dtype=x.dtype)
            extremes = np.broadcast_to(bounds, (2,) + x.shape[1:])
        else:
            extremes = np.stack((np.min(x, axis=0), np.max(x, axis=0)))
        return _all_finite(replace(self, stored=extremes).rows(slice(None)))


@dataclass
class Dataset:
    """Sample rows: inputs (N, m0) and targets (N, m_L); both finite.

    inputs is an Inputs; an array given in its place is read as stored,
    as float64.
    """

    inputs: Inputs
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = Inputs.of(self.inputs)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if len(self.inputs.shape) != 2 or self.targets.ndim != 2:
            raise DataFormatError("inputs and targets must be 2-dimensional")
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise DataFormatError(
                f"{self.inputs.shape[0]} input rows vs "
                f"{self.targets.shape[0]} target rows"
            )
        if self.inputs.shape[0] < 1:
            raise DataFormatError("data set is empty")
        if not (self.inputs.all_finite() and _all_finite(self.targets)):
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
        inputs = replace(self.inputs, stored=self.inputs.stored[idx])
        return Dataset(inputs, self.targets[idx])


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
    The file is read as bytes, which float() parses, so a field that is
    not ASCII text fails as a field that is not a number does.
    """
    rows = []
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r\n and \r, as text mode does
    for lineno, line in enumerate(lines, start=1):
        if skip_header and lineno == 1:
            continue
        line = line.strip()
        if not line:
            continue
        fields = line.split(b",")
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
    """count bytes of fh, which must hold them: a count past the end of the
    file fails before anything is read or reserved."""
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataFormatError(f"{path}: truncated file while reading {what}")
    return fh.read(count)


def load_idx(images_path, labels_path) -> Dataset:
    """MNIST-style IDX pair: the u8 pixels, read scaled to [0, 1], and one-hot labels."""
    with open(images_path, "rb") as fh:
        magic, count, rows, cols = struct.unpack(
            ">iiii", _read_exact(fh, 16, images_path, "image header")
        )
        if magic != IDX_IMAGES_MAGIC:
            raise DataFormatError(
                f"{images_path}: bad image magic 0x{magic:08x}"
            )
        if min(count, rows, cols) < 0:
            raise DataFormatError(f"{images_path}: negative size {count}x{rows}x{cols}")
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
        if label_count != count:
            raise DataFormatError(
                f"{labels_path}: {label_count} labels for {count} images"
            )
        raw = _read_exact(fh, label_count, labels_path, "label data")
    labels = np.frombuffer(raw, dtype=np.uint8)
    inputs = Inputs(pixels, divisor=IDX_PIXEL_DIVISOR)
    return Dataset(inputs, one_hot(labels, IDX_NUM_CLASSES))


@dataclass(frozen=True)
class Standardizer:
    """Per-feature mean and population standard deviation of a training split."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, dataset: Dataset) -> Dataset:
        """The dataset with these statistics attached to its inputs, which
        a forward then reads as (x - mean) / std; the stored rows are
        shared, not copied or written. Raises DataFormatError when a
        statistic, or an entry so read (at each feature's extremes), is not
        finite."""
        if dataset.inputs.mean is not None:
            raise ValueError("inputs already carry standardization statistics")
        if not (_all_finite(self.mean) and _all_finite(self.std)):
            raise DataFormatError("standardization statistics contain NaN or Inf")
        inputs = replace(dataset.inputs, mean=self.mean, std=self.std)
        return Dataset(inputs, dataset.targets)


def _pixel_moments(pixels: np.ndarray) -> tuple[list[int], list[int]]:
    """Each column's sum and sum of squares of uint8 pixels, as ints.

    Each is a float64 ones-vector product over row blocks of at most
    FIT_BLOCK entries, converted into one reused buffer. Every partial sum
    is an integer of at most 255^2 N, below 2^53 for N < 1.3e11 rows, so
    float64 holds it exactly whatever order the sums take.
    """
    n, m0 = pixels.shape
    rows = max(1, FIT_BLOCK // m0)
    ones, buffer = np.ones(rows), np.empty((rows, m0))
    sums, squares = np.zeros(m0), np.zeros(m0)
    for start in range(0, n, rows):
        part = pixels[start:start + rows]
        block, weights = buffer[:len(part)], ones[:len(part)]
        np.copyto(block, part)
        sums += weights @ block
        block *= block
        squares += weights @ block
    return sums.astype(np.int64).tolist(), squares.astype(np.int64).tolist()


def fit_standardizer(train: Dataset) -> Standardizer:
    """Statistics from the training split only; stds floored at STD_FLOOR.

    Constant features end up with std equal to the floor, so they map to
    exactly zero after centering.

    uint8 pixels read through an integer divisor d (every IDX load) are
    fitted from exact integer moments S1 = sum x and S2 = sum x^2 of each
    column (_pixel_moments): mean = S1 / (d N), correctly rounded, and
    std = sqrt((N S2 - S1^2) / (d N)^2), the quotient of Python ints
    correctly rounded before the square root, so within one ulp.

    Other inputs are converted whole, as a forward reads them, for
    np.mean and np.std.
    """
    inputs = train.inputs
    n = len(inputs)
    divisor = inputs.divisor or 1.0
    if inputs.stored.dtype == np.uint8 and float(divisor).is_integer():
        scale = int(divisor) * n
        sums, squares = _pixel_moments(inputs.stored)
        mean = np.array(sums) / scale
        std = np.array([
            math.sqrt((n * q - s * s) / (scale * scale))
            for s, q in zip(sums, squares)
        ])
        return Standardizer(mean=mean, std=np.maximum(std, STD_FLOOR))
    x = inputs.rows(slice(None))
    mean = np.mean(x, axis=0)
    std = np.maximum(np.std(x, axis=0), STD_FLOOR)
    return Standardizer(mean=mean, std=std)
