"""Shared builders and independent numerical oracles for the test suite."""

import math

import numpy as np
import pytest

from smwopt import loss as loss_mod
from smwopt import network
from smwopt.exceptions import SingularMatrixError


def make_net(rng, kind, hidden=None, m_in=None, m_out=None):
    """Random small network whose output layer matches the loss kind."""
    if m_in is None:
        m_in = int(rng.integers(2, 7))
    if hidden is None:
        hidden = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(1, 3)))]
    if m_out is None:
        m_out = 1 if kind == loss_mod.BINARY_CROSS_ENTROPY else int(rng.integers(2, 5))
    sizes = (m_in, *hidden, m_out)
    acts = (network.LOGISTIC,) * len(hidden) + (
        loss_mod.MATCHING_ACTIVATION[kind],
    )
    shape = network.NetworkShape(sizes, acts)
    theta = network.init_theta(shape, rng)
    return shape, loss_mod.LossSpec(kind), theta


def random_targets(rng, kind, m_out, nbatch=1):
    """(m_out, nbatch) target columns valid for the loss kind."""
    if kind == loss_mod.SQUARED_ERROR:
        return rng.normal(size=(m_out, nbatch))
    if kind == loss_mod.BINARY_CROSS_ENTROPY:
        return rng.integers(0, 2, size=(m_out, nbatch)).astype(float)
    t = np.zeros((m_out, nbatch))
    t[rng.integers(0, m_out, size=nbatch), np.arange(nbatch)] = 1.0
    return t


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


def fd_loss_gradient(shape, theta, x, y, spec, step=1e-6):
    """Central finite differences of the per-sample loss over every coordinate."""
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        up = theta.copy()
        up[k] += step
        down = theta.copy()
        down[k] -= step
        f_up = loss_mod.loss_value(spec, network.forward(shape, up, x), y)
        f_down = loss_mod.loss_value(spec, network.forward(shape, down, x), y)
        grad[k] = (f_up - f_down) / (2.0 * step)
    return grad


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
