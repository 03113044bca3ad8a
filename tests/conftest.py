"""Shared builders and independent numerical oracles for the test suite."""

import math
import struct

import numpy as np
import pytest

from smwopt import data, network
from smwopt.oracles import fd_loss_gradient, make_net, random_targets  # noqa: F401


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
