"""Damped curvature solves: Woodbury direction and the CG baseline.

With B_t the batch curvature matrix (Gauss-Newton or Fisher) and
G_t = B_t + lam * I, the update direction solves G_t p = -g. Writing
B_t = U U^T / n2, the Woodbury route reduces this to one small symmetric
positive definite core solve:

    p = -(1/lam) * (g - U q),   q = core^-1 (U^T g) / n2

The core is Cholesky-factored once when its GramSystem is built; every
core solve of the direction, refinement included, is two triangular
solves with that factor. The 1/n2 scale is applied to the short core
vector q, and the step is formed in place in the fresh array that U q
was expanded into; g and the system's factors are only read.

For both methods U^T v is a set of factored dot products with the
backward factors the core was built from: per-sample gradients for
natural gradient, and for Gauss-Newton the adjoints of J_i^T C_i e_j,
where C_i is the loss-Hessian factor (H_i = C_i C_i^T). U^T g is the
only such sweep of an unrefined direction: its model term p^T B_t p =
||U^T p||^2 / n2 is n2 ||q||^2, because U^T p = -n2 q. Only U q differs
between the methods, and curvature.GramSystem.expand forms it: natural
gradient sums its factors weighted by q, and Gauss-Newton runs one
reverse-mode product J^T C q per sample.

The algebra is written once for either form of g and p: packed, or a
diff.PrefixVector in the frame the stochastic trainer places g in,
whose curvature batch S2 is a prefix of the gradient batch S1. Every
vector of a stochastic solve, Woodbury's with its refinement and CG's
alike, lies in span{g} plus the range of B_t, which touches only S2's
columns, so it is a multiple beta of g plus adjoints on S2's n2
columns. U^T v reads the vector's tangents at S2, U q is the adjoints
of the same reverse sweep, unexpanded, with beta 0, and the inner
products cost n2^2, not n1^2, per layer entry, from S1's Grams seen
from S2 (diff.PrefixFrame). No parameter-length vector is formed; the
trainer places p on S1 once, after the solve. diff tells the two forms
apart; nothing here does. The packed form stays for the semi-stochastic
step and the dense checks: with g in a frame built from packed g,
--verify's lambda = 1e-10 instances (seeds 0-9) solved to residuals up
to 4.1e-5 (gate 1e-8) and backward errors up to 4.8e-14 (gate 1e-15),
against 9.7e-14 and 6.6e-17 packed.

The CG routine solves the Gauss-Newton system matrix-free to a relative
residual tolerance, one jvp and one vjp over the curvature batch per
product, each the matching-loss J^T H J with J = d h_L / d theta, as the
kernels of diff work in h_L. The hidden layers' slopes v (1 - v) are
formed once per direction, on the curvature batch's cache only. No
curvature Gram is formed in either form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curvature, diff, loss as loss_mod
from .counters import OpCounters
from .exceptions import ConfigError, NumericError
from .network import ForwardCache, NetworkShape

@dataclass
class DirectionResult:
    """Step direction with its quadratic-model ingredients.

    p is in the form of g: packed, or a diff.PrefixVector.
    grad_dot = g . p and quad_term = p^T B_t p; the model decrease is
    -grad_dot - quad_term / 2.
    """

    p: np.ndarray | diff.PrefixVector
    grad_dot: float
    quad_term: float

    @property
    def step_norm(self) -> float:
        return diff.norm(self.p)


@dataclass(frozen=True)
class CgConfig:
    max_iters: int = 50
    rel_residual_tol: float = 1e-4

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError("cg max_iters must be at least 1")
        if not 0.0 < self.rel_residual_tol < math.inf:
            raise ConfigError("cg rel_residual_tol must be positive and finite")


def _finite_model(grad_dot: float, quad: float) -> tuple[float, float]:
    if not (math.isfinite(grad_dot) and math.isfinite(quad)):
        raise NumericError(f"quadratic model is not finite: g.p={grad_dot}, pBp={quad}")
    return grad_dot, quad


def quadratic_terms(
    system: curvature.GramSystem, g: np.ndarray, p: np.ndarray
) -> tuple[float, float]:
    """g . p and p^T B_t p = ||U^T p||^2 / n2 for the system's batch."""
    dots = system.factors.dots_with(p)
    return _finite_model(float(g @ p), float(np.sum(dots**2) / system.n2))


def _negated_damped_inverse(shape, theta, system, v, counters):
    """-(B_t + lam I)^-1 v = (U q - v) / lam through the Woodbury identity.

    Returns the result, fresh and in v's form, and the core vector q.
    """
    q = system.solve_core(system.factors.dots_with(v))
    q /= system.n2
    out = system.expand(shape, theta, q, v, counters)
    out -= v
    out /= system.lam
    return out, q


def _gn_product(shape, theta, cache, spec, v, factors, counters):
    """Gauss-Newton product J^T H J v / B over the B samples of the cache,
    fresh and in v's form.

    factors are the samples' loss-Hessian factors.
    """
    jv = diff.jvp(shape, theta, cache, v, counters)
    hjv = loss_mod.hessian_apply(spec, cache, jv, factors)
    _, bfactors = diff.vjp(shape, theta, cache, hjv, counters, expand=False)
    bv = bfactors.sum_like(v)
    bv /= cache.ncols
    return bv


def apply_curvature(
    shape: NetworkShape,
    theta,
    system: curvature.GramSystem,
    v: np.ndarray,
    counters: OpCounters | None = None,
) -> np.ndarray:
    """Matrix-free product B_t v = U U^T v / n2, in v's form."""
    dots = system.factors.dots_with(v)
    dots /= system.n2
    return system.expand(shape, theta, dots, v, counters)


# Below this damping level the division by lam in the Woodbury identity
# amplifies rounding enough to break the residual contract, so the solve
# is polished with fixed-count iterative refinement.
REFINE_LAMBDA = 1e-6
REFINE_ROUNDS = 2


def smw_direction(
    shape: NetworkShape,
    theta,
    system: curvature.GramSystem,
    g: np.ndarray | diff.PrefixVector,
    counters: OpCounters | None = None,
) -> DirectionResult:
    """Exact damped-curvature direction through the small core solve.

    g is packed, or a diff.PrefixVector whose S2 is the system's samples;
    p is in g's form, with the same operations and sweeps, so the same
    counts, either way. Without refinement the model term comes from the
    core vector: with p = (U q - g) / lam and core q = U^T g / n2,
    U^T p = -n2 q, so p^T B_t p = n2 ||q||^2 and no further sweep over p
    is needed. After refinement p no longer has that form and U^T p is
    measured.
    """
    lam = system.lam
    p, q = _negated_damped_inverse(shape, theta, system, g, counters)
    if lam >= REFINE_LAMBDA:
        grad_dot, quad = _finite_model(float(g @ p), system.n2 * float(q @ q))
        return DirectionResult(p=p, grad_dot=grad_dot, quad_term=quad)
    for _ in range(REFINE_ROUNDS):
        residual = -g - (
            apply_curvature(shape, theta, system, p, counters) + lam * p
        )
        step, _ = _negated_damped_inverse(shape, theta, system, residual, counters)
        p -= step
    grad_dot, quad = quadratic_terms(system, g, p)
    return DirectionResult(p=p, grad_dot=grad_dot, quad_term=quad)


def hf_cg_direction(
    shape: NetworkShape,
    theta,
    cache: ForwardCache,
    spec: loss_mod.LossSpec,
    lam: float,
    cfg: CgConfig,
    g: np.ndarray | diff.PrefixVector,
    counters: OpCounters | None = None,
) -> DirectionResult:
    """Conjugate-gradient solve of (B_t + lam I) p = -g, matrix-free.

    g is packed, or a diff.PrefixVector whose S2 is the cache's samples;
    every CG vector and p are in g's form. Each product with B_t costs
    one forward-mode and one reverse-mode sweep over the cache's samples;
    the loss-Hessian factors and the hidden layers' slopes are formed
    once. Iteration stops at max_iters or when the residual drops below
    rel_residual_tol * ||g||. A curvature d . Ad that is not finite and
    positive, or a non-finite model term, raises NumericError.
    """
    gnorm = diff.norm(g)
    p = g * 0.0  # zero, in g's form
    if gnorm == 0.0:
        return DirectionResult(p=p, grad_dot=0.0, quad_term=0.0)
    factors = loss_mod.hessian_factor(spec, cache)
    cache = cache.with_slopes()
    # Every vector of the loop is owned here and updated in place.
    r = -g
    d = r.copy()
    rs = float(r @ r)
    for _ in range(cfg.max_iters):
        ad = _gn_product(shape, theta, cache, spec, d, factors, counters)
        ad += d * lam
        dad = float(d @ ad)
        if not (math.isfinite(dad) and dad > 0.0):
            raise NumericError(f"cg breakdown: d.Ad = {dad}")
        alpha = rs / dad
        p += d * alpha
        ad *= alpha
        r -= ad
        rs_new = float(r @ r)  # from Grams, it can round below zero
        if math.sqrt(max(rs_new, 0.0)) <= cfg.rel_residual_tol * gnorm:
            break
        d *= rs_new / rs
        d += r
        rs = rs_new
    bp = _gn_product(shape, theta, cache, spec, p, factors, counters)
    grad_dot, quad = _finite_model(float(g @ p), float(p @ bp))
    return DirectionResult(p=p, grad_dot=grad_dot, quad_term=quad)
