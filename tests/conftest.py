"""Shared builders and independent numerical oracles for the test suite."""

import math
import struct
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from smwopt import curvature, data, network
from smwopt.exceptions import ShapeError
from smwopt.oracles import fd_loss_gradient, make_net, random_targets  # noqa: F401


def pack(shape, params) -> np.ndarray:
    """Inverse of network.unpack: flatten per-layer (W, b) back into theta."""
    parts = []
    for (w, b), (_, _, m_out, m_in) in zip(params, shape.param_layout()):
        w = np.asarray(w, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if w.shape != (m_out, m_in) or b.shape != (m_out,):
            raise ShapeError(
                f"layer block shapes {w.shape}/{b.shape} do not match "
                f"({m_out}, {m_in})/({m_out},)"
            )
        parts.append(w.reshape(-1, order="F"))
        parts.append(b)
    return np.concatenate(parts)


def activation_jacobian(kind: str, h, v) -> np.ndarray:
    """Materialized jacobian dv/dh for one sample; v must equal act(h)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError("activation_jacobian expects a single sample")
    if kind == network.LINEAR:
        return np.eye(v.size)
    if kind == network.LOGISTIC:
        return np.diag(v * (1.0 - v))
    if kind == network.SOFTMAX:
        return np.diag(v) - np.outer(v, v)
    raise ShapeError(f"unknown activation kind: {kind!r}")


def scalar_forward(sizes, acts, params, x):
    """Pure-python forward pass oracle (no numpy linear algebra)."""
    v = list(x)
    for (w, b), kind in zip(params, acts):
        m_out, m_in = len(b), len(v)
        h = [
            sum(w[i][j] * v[j] for j in range(m_in)) + b[i]
            for i in range(m_out)
        ]
        if kind == "linear":
            v = h
        elif kind == "logistic":
            v = [1.0 / (1.0 + math.exp(-hi)) for hi in h]
        else:
            m = max(h)
            e = [math.exp(hi - m) for hi in h]
            s = sum(e)
            v = [ei / s for ei in e]
    return v


def fd_preact_jacobian_product(shape, theta, x, direction, step=1e-6):
    """Central finite differences of h_L along a parameter direction."""
    up = network.forward(shape, theta + step * direction, x).output_preact
    down = network.forward(shape, theta - step * direction, x).output_preact
    return (up - down) / (2.0 * step)


def save_csv(path, dataset: data.Dataset) -> None:
    """Write features plus a final label column; inverse of data.load_csv.

    One-hot targets are collapsed back to integer class labels.
    """
    if dataset.targets.shape[1] > 1:
        labels = np.argmax(dataset.targets, axis=1).astype(np.float64)
    else:
        labels = dataset.targets[:, 0]
    table = np.hstack([dataset.inputs.columns(slice(None)).T, labels.reshape(-1, 1)])
    with open(path, "w", encoding="utf-8") as fh:
        for row in table:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def exact_pixel_statistics(pixels):
    """The standardizer's mean and std of integer pixels read as x / 255.

    pixels is (N, ...) with one sample per row. Each column's moments
    S1 = sum x and S2 = sum x^2 are summed as Python ints; mean is
    Fraction(S1, 255 N) rounded once, std the square root of the int
    quotient (N S2 - S1^2) / (255 N)^2, floored at data.STD_FLOOR.
    """
    rows = np.asarray(pixels).reshape(len(pixels), -1)
    n, scale = len(rows), 255 * len(rows)
    mean, std = [], []
    for column in rows.T.tolist():
        s1, s2 = sum(column), sum(v * v for v in column)
        mean.append(float(Fraction(s1, scale)))
        var = (n * s2 - s1 * s1) / (scale * scale)
        std.append(max(math.sqrt(var), data.STD_FLOOR))
    return np.array(mean), np.array(std)


def write_idx_pair(directory, images, labels):
    """Independent IDX writer, the round-trip oracle of data.load_idx."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    count, rows, cols = images.shape
    images_path = directory / "images.idx"
    labels_path = directory / "labels.idx"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x00000803, count, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", 0x00000801, count))
        fh.write(labels.tobytes())
    return images_path, labels_path


def explicit_inverse(a):
    """Dense inverse via Gauss-Jordan elimination with partial pivoting."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for j in range(n):
        k = j + int(np.argmax(np.abs(aug[j:, j])))
        if aug[k, j] == 0.0:
            raise np.linalg.LinAlgError(f"matrix is singular at column {j}")
        if k != j:
            aug[[j, k]] = aug[[k, j]]
        aug[j] /= aug[j, j]
        for i in range(n):
            if i != j:
                aug[i] -= aug[i, j] * aug[j]
    return aug[:, n:]


def system_of_gram(monkeypatch, gram, lam, n2=1):
    """GramSystem.of over n2 samples whose Gram is the given matrix."""
    monkeypatch.setattr(curvature, "gn_block_gram", lambda factors: gram)
    return curvature.GramSystem.of(SimpleNamespace(ncols=n2), lam)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
