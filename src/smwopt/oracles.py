"""Independent brute-force references for every numerical kernel.

Each oracle recomputes a quantity the fast path produces, by a route that
shares as little with it as possible: central finite differences, unit-seed
Jacobian rows, and dense materialized solves. They serve the test suite and
`smwopt --verify`; nothing on the training path imports this module.
"""

from __future__ import annotations

import numpy as np

from . import curvature, diff, linalg, loss as loss_mod, network
from .exceptions import ShapeError
from .solver import DirectionResult

DENSE_ORACLE_MAX_PARAMS = 5000


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


def fd_loss_gradient(shape, theta, x, y, spec, step=1e-6):
    """Central finite differences of the per-sample loss over every coordinate."""
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[k] += step
        down[k] -= step
        f_up = loss_mod.loss_value(spec, network.forward(shape, up, x), y)
        f_down = loss_mod.loss_value(spec, network.forward(shape, down, x), y)
        grad[k] = (f_up - f_down) / (2.0 * step)
    return grad


def output_cache(kind, h):
    """Single-layer cache with a controlled output pre-activation."""
    h = np.asarray(h, dtype=float)
    single = h.ndim == 1
    cols = h.reshape(-1, 1) if single else h
    m = cols.shape[0]
    act = loss_mod.MATCHING_ACTIVATION[kind]
    return network.ForwardCache(
        shape=network.NetworkShape((m, m), (act,)),
        x=np.zeros_like(cols),
        preacts=[cols],
        acts=[network.apply_activation(act, cols)],
        single=single,
    )


def fd_loss_hessian_h(spec, h, y, step=1e-6):
    """Central finite differences of the output gradient at pre-activation h."""
    h = np.asarray(h, dtype=float)
    fd = np.zeros((h.size, h.size))
    for k in range(h.size):
        hp, hm = h.copy(), h.copy()
        hp[k] += step
        hm[k] -= step
        fd[:, k] = (
            loss_mod.loss_grad_h(spec, output_cache(spec.kind, hp), y)
            - loss_mod.loss_grad_h(spec, output_cache(spec.kind, hm), y)
        ) / (2 * step)
    return fd


def explicit_jacobian(shape, theta, cache_single):
    """J built row by row from unit-seed reverse products."""
    m_out = shape.output_size
    rows = []
    for j in range(m_out):
        seed = np.zeros((m_out, 1))
        seed[j, 0] = 1.0
        packed, _ = diff.vjp(shape, theta, cache_single, seed)
        rows.append(packed)
    return np.stack(rows, axis=0)


def stacked_jacobian(shape, theta, cache):
    """Per-sample Jacobians of a batch cache stacked sample by sample."""
    return np.vstack(
        [explicit_jacobian(shape, theta, cache.cols([i])) for i in range(cache.ncols)]
    )


def build_curvature_matrix(
    shape, theta, x, y, spec, method: str, hessian_shift: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize B_t and the batch gradient."""
    n = shape.num_params
    if n > DENSE_ORACLE_MAX_PARAMS:
        raise ShapeError(
            f"{n} parameters exceed the dense-oracle guard "
            f"({DENSE_ORACLE_MAX_PARAMS})"
        )
    cache = network.forward(shape, theta, x)
    g, factors = diff.gradient(shape, theta, cache, y, spec)
    nb = cache.ncols
    b_mat = np.zeros((n, n))
    if method == curvature.NG:
        for i in range(nb):
            gi = factors.cols([i]).expand_sum()
            b_mat += np.outer(gi, gi)
    else:
        m_out = shape.output_size
        for i in range(nb):
            ci = cache.cols([i])
            ji = explicit_jacobian(shape, theta, ci)
            hi = loss_mod.loss_hessian_h(spec, ci)
            if hessian_shift:
                hi = hi + hessian_shift * np.eye(m_out)
            b_mat += ji.T @ hi @ ji
    b_mat /= nb
    return b_mat, g


def dense_direction_oracle(
    shape, theta, x, y, spec, lam: float, method: str = curvature.GN,
    hessian_shift: float = 0.0,
) -> DirectionResult:
    """Solve (B_t + lam I) p = -g with B_t materialized."""
    b_mat, g = build_curvature_matrix(
        shape, theta, x, y, spec, method, hessian_shift
    )
    a = b_mat + lam * np.eye(shape.num_params)
    p = linalg.solve_spd(a, -g)
    return DirectionResult(
        p=p, grad_dot=float(g @ p), quad_term=float(p @ b_mat @ p)
    )
