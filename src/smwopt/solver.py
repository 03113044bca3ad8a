"""Damped curvature solves: Woodbury direction and the CG baseline.

With B_t the batch curvature matrix (Gauss-Newton or Fisher) and
G_t = B_t + lam * I, the update direction solves G_t p = -g. The
Woodbury route reduces this to one small core solve:

    p = -(1/lam) * (g - J^T q / n2)          (symmetric core)
    p = -(1/lam) * (g - J^T H q / n2)        (singular-Hessian core)
    q = core^-1 (J g)

where J g stacks per-sample forward-mode products and J^T(.) is one
reverse-mode product per sample. The CG routine solves the same system
matrix-free to a relative residual tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curvature, diff, linalg, loss as loss_mod
from .counters import OpCounters
from .exceptions import (
    ConfigError,
    NotSpdError,
    NumericError,
    SingularMatrixError,
)
from .network import ForwardCache, NetworkShape

@dataclass
class DirectionResult:
    """Step direction with its quadratic-model ingredients.

    grad_dot = g . p and quad_term = p^T B_t p; the model decrease is
    -grad_dot - quad_term / 2.
    """

    p: np.ndarray
    grad_dot: float
    quad_term: float

    @property
    def step_norm(self) -> float:
        return float(np.linalg.norm(self.p))


@dataclass(frozen=True)
class CgConfig:
    max_iters: int = 50
    rel_residual_tol: float = 1e-4

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError("cg max_iters must be at least 1")
        if not self.rel_residual_tol > 0.0:
            raise ConfigError("cg rel_residual_tol must be positive")


def _stack_sample_major(cols: np.ndarray) -> np.ndarray:
    """(m_L, B) columns -> length B*m_L vector grouped by sample."""
    return cols.T.reshape(-1)


def _unstack_sample_major(flat: np.ndarray, m_out: int) -> np.ndarray:
    return flat.reshape(-1, m_out).T


def quadratic_terms(
    shape: NetworkShape,
    theta,
    system: curvature.GramSystem,
    g: np.ndarray,
    p: np.ndarray,
    counters: OpCounters | None = None,
) -> tuple[float, float]:
    """g . p and p^T B_t p for the batch curvature the system was built on.

    Gauss-Newton uses one forward-mode product per sample; natural
    gradient reduces to the mean of squared gradient dot products.
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.all(np.isfinite(p)):
        raise NumericError("direction contains non-finite entries")
    grad_dot = float(g @ p)
    if system.method == curvature.GN:
        batch = system.gn_factors
        jp = diff.jvp(shape, theta, batch.cache, p, counters)
        hjp = loss_mod.hessian_apply(batch.spec, batch.cache, jp)
        quad = float(np.mean(np.sum(jp * hjp, axis=0)))
        if system.hessian_shift:
            quad += system.hessian_shift * float(np.mean(np.sum(jp * jp, axis=0)))
    else:
        dots = system.ng_factors.dots_with(p)
        quad = float(np.mean(dots**2))
    if not (math.isfinite(grad_dot) and math.isfinite(quad)):
        raise NumericError(f"quadratic model is not finite: g.p={grad_dot}, pBp={quad}")
    return grad_dot, quad


def _core_solve(system: curvature.GramSystem, rhs: np.ndarray) -> np.ndarray:
    """core^-1 rhs, symmetric or general by the system's path."""
    if system.path == curvature.PATH_SPD:
        solve = linalg.solve_spd
    else:
        solve = linalg.solve_general
    try:
        return solve(system.core, rhs)
    except (NotSpdError, SingularMatrixError) as err:
        diag = np.diag(system.core)
        raise ArithmeticError(
            f"core factorization failed at lambda={system.lam:.6e} "
            f"(diag range [{diag.min():.3e}, {diag.max():.3e}]): {err}"
        ) from err


def _apply_damped_inverse(shape, theta, system, v, counters):
    """(B_t + lam I)^-1 v through the Woodbury identity."""
    lam, n2 = system.lam, system.n2
    if system.method == curvature.GN:
        batch = system.gn_factors
        jv = diff.jvp(shape, theta, batch.cache, v, counters)
        q = _core_solve(system, _stack_sample_major(jv))
        qcols = _unstack_sample_major(q, shape.output_size)
        if system.path == curvature.PATH_GENERAL:
            qcols = np.einsum("bjk,kb->jb", batch.hessians, qcols)
        correction, _ = diff.vjp(shape, theta, batch.cache, qcols, counters)
    else:
        factors = system.ng_factors
        q = _core_solve(system, factors.dots_with(v))
        correction = factors.expand_sum(weights=q)
    return (v - correction / n2) / lam


def apply_curvature(
    shape: NetworkShape,
    theta,
    system: curvature.GramSystem,
    v: np.ndarray,
    counters: OpCounters | None = None,
) -> np.ndarray:
    """Matrix-free product B_t v for the batch the system was built on."""
    if system.method == curvature.GN:
        batch = system.gn_factors
        jv = diff.jvp(shape, theta, batch.cache, v, counters)
        hjv = loss_mod.hessian_apply(batch.spec, batch.cache, jv)
        if system.hessian_shift:
            hjv = hjv + system.hessian_shift * jv
        bv, _ = diff.vjp(shape, theta, batch.cache, hjv, counters)
        return bv / system.n2
    factors = system.ng_factors
    dots = factors.dots_with(v)
    return factors.expand_sum(weights=dots) / system.n2


# Below this damping level the division by lam in the Woodbury identity
# amplifies rounding enough to break the residual contract, so the solve
# is polished with fixed-count iterative refinement.
REFINE_LAMBDA = 1e-6
REFINE_ROUNDS = 2


def smw_direction(
    shape: NetworkShape,
    theta,
    system: curvature.GramSystem,
    g: np.ndarray,
    counters: OpCounters | None = None,
) -> DirectionResult:
    """Exact damped-curvature direction through the small core solve."""
    g = np.asarray(g, dtype=np.float64)
    lam = system.lam
    p = -_apply_damped_inverse(shape, theta, system, g, counters)
    if lam < REFINE_LAMBDA:
        for _ in range(REFINE_ROUNDS):
            residual = -g - (
                apply_curvature(shape, theta, system, p, counters) + lam * p
            )
            p = p + _apply_damped_inverse(
                shape, theta, system, residual, counters
            )
    grad_dot, quad = quadratic_terms(shape, theta, system, g, p, counters)
    return DirectionResult(p=p, grad_dot=grad_dot, quad_term=quad)


def hf_cg_direction(
    shape: NetworkShape,
    theta,
    cache: ForwardCache,
    y,
    spec: loss_mod.LossSpec,
    lam: float,
    cfg: CgConfig,
    g: np.ndarray,
    counters: OpCounters | None = None,
) -> DirectionResult:
    """Conjugate-gradient solve of (B_t + lam I) p = -g, matrix-free.

    Each product with B_t costs one forward-mode and one reverse-mode
    sweep over the batch. Iteration stops at max_iters or when the
    residual drops below rel_residual_tol * ||g||.
    """
    g = np.asarray(g, dtype=np.float64)
    nb = cache.ncols

    def matvec(v: np.ndarray) -> np.ndarray:
        jv = diff.jvp(shape, theta, cache, v, counters)
        hjv = loss_mod.hessian_apply(spec, cache, jv)
        bv, _ = diff.vjp(shape, theta, cache, hjv, counters)
        return lam * v + bv / nb

    gnorm = float(np.linalg.norm(g))
    p = np.zeros_like(g)
    if gnorm == 0.0:
        return DirectionResult(p=p, grad_dot=0.0, quad_term=0.0)
    r = -g.copy()
    d = r.copy()
    rs = float(r @ r)
    for _ in range(cfg.max_iters):
        ad = matvec(d)
        alpha = rs / float(d @ ad)
        p = p + alpha * d
        r = r - alpha * ad
        if not np.all(np.isfinite(p)):
            raise NumericError("cg iterate became non-finite")
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= cfg.rel_residual_tol * gnorm:
            rs = rs_new
            break
        d = r + (rs_new / rs) * d
        rs = rs_new
    bp = matvec(p) - lam * p
    return DirectionResult(
        p=p, grad_dot=float(g @ p), quad_term=float(p @ bp)
    )
