"""Shared builders and independent numerical oracles for the test suite."""

import math

import numpy as np
import pytest

from smwopt import network
from smwopt.exceptions import SingularMatrixError
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


def fd_output_jacobian_product(shape, theta, x, direction, step=1e-6):
    """Central finite differences of yhat along a parameter direction."""
    up = network.forward(shape, theta + step * direction, x).output[:, 0]
    down = network.forward(shape, theta - step * direction, x).output[:, 0]
    return (up - down) / (2.0 * step)


def explicit_inverse(a):
    """Dense inverse via Gauss-Jordan elimination with partial pivoting."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for j in range(n):
        k = j + int(np.argmax(np.abs(aug[j:, j])))
        if aug[k, j] == 0.0:
            raise SingularMatrixError(f"matrix is singular at column {j}")
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
