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
between the methods: natural gradient sums its factors weighted by q,
and Gauss-Newton runs one reverse-mode product J^T C q per sample.

The CG routine solves the Gauss-Newton system matrix-free to a relative
residual tolerance, in buffers it owns. The same Kronecker-factored form
bounds where its iterates live: their first-layer weight blocks are sums
of outer products with the gradient batch's inputs, so for a batch with
at most a tenth as many columns as inputs CG runs in an orthonormal
basis of the inputs' span (input_basis, hf_cg_direction), on 35,510
coordinates instead of 397,510 at 784-500-10 with n1 = 60. Every
product is the matching-loss J^T H J with J = d h_L / d theta, as the
kernels of diff work in h_L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curvature, diff, loss as loss_mod, network
from .counters import OpCounters
from .exceptions import ConfigError, NumericError, ShapeError
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


def _expand(shape, theta, system, w, counters) -> np.ndarray:
    """U w, the one step whose kernel depends on the method.

    Gauss-Newton maps the sample-major w to output columns C_i w_i and
    runs one reverse sweep over them.
    """
    factors = system.factors
    if system.method == curvature.GN:
        c = factors.hessian_factors
        cw = (c @ w.reshape(len(c), -1, 1))[:, :, 0].T
        uw, _ = diff.vjp(shape, theta, factors.cache, cw, counters)
        return uw
    return factors.expand_sum(weights=w)


def _negated_damped_inverse(shape, theta, system, v, counters):
    """-(B_t + lam I)^-1 v = (U q - v) / lam through the Woodbury identity.

    Returns the result, in a fresh array, and the core vector q.
    """
    q = system.solve_core(system.factors.dots_with(v))
    q /= system.n2
    out = _expand(shape, theta, system, q, counters)
    out -= v
    out /= system.lam
    return out, q


def _gn_product(shape, theta, cache, spec, v, factors, counters, out=None):
    """Gauss-Newton product J^T H J v / B over the B samples of the cache.

    factors are the samples' loss-Hessian factors. Written into out, a
    parameter-length buffer, when given.
    """
    jv = diff.jvp(shape, theta, cache, v, counters)
    hjv = loss_mod.hessian_apply(spec, cache, jv, factors)
    bv, _ = diff.vjp(shape, theta, cache, hjv, counters, out=out)
    bv /= cache.ncols
    return bv


def apply_curvature(
    shape: NetworkShape,
    theta,
    system: curvature.GramSystem,
    v: np.ndarray,
    counters: OpCounters | None = None,
) -> np.ndarray:
    """Matrix-free product B_t v = U U^T v / n2 for the system's batch."""
    dots = system.factors.dots_with(v)
    dots /= system.n2
    return _expand(shape, theta, system, dots, counters)


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
    """Exact damped-curvature direction through the small core solve.

    Without refinement the model term comes from the core vector: with
    p = (U q - g) / lam and core q = U^T g / n2, U^T p = -n2 q, so
    p^T B_t p = n2 ||q||^2 and no further sweep over p is needed. After
    refinement p no longer has that form and U^T p is measured.
    """
    g = np.asarray(g, dtype=np.float64)
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


# CG runs in the input basis only when m0 >= 10 n1. Its fixed cost, the
# basis of the (m0, n1) inputs, grows as m0 n1^2 while the saving per CG
# iteration shrinks as (m0 - n1) m1 n2. The ratio was timed with a
# Householder QR basis at 784-500-10 with n2 = 30 and 2 BLAS threads: a
# direction broke even near n1 = 70 at one CG iteration, n1 = 130 at three
# and n1 = 300 at ten. The SVQB basis below, check included, costs about
# half of that QR at n1 = 60-120, so the ratio is conservative.
INPUT_BASIS_MIN_RATIO = 10
# A g outside the inputs' span loses norm under W -> W Q; this bound
# catches a perpendicular part of relative size 1.4e-4 and up.
SPAN_NORM_RTOL = 1e-8
# SVQB drops the directions with eigenvalue s <= BASIS_DROP_RTOL * s_max
# of X^T X, that is singular values below 3.2e-7 sigma_max. A basis that
# leaves more than BASIS_RESIDUAL_RTOL ||X||_F of X outside its span
# dropped a direction X needs, and Householder QR replaces it.
BASIS_DROP_RTOL = 1e-13
BASIS_RESIDUAL_RTOL = 1e-13


def input_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of the columns of x, (m0, rank).

    Two SVQB passes (Stathopoulos & Wu 2002), each x <- x V_k s_k^-1/2
    from the eigenpairs of x^T x it keeps; the second restores the
    orthogonality the first loses to x's conditioning, as in CholeskyQR2.
    An exactly repeated column is dropped, so the width is the rank. When
    a dropped direction carried part of x, as for nearly repeated
    columns, the basis falls back to Householder QR, of width n1.
    """
    q = x
    for _ in range(2):
        s, v = np.linalg.eigh(q.T @ q)
        keep = s > BASIS_DROP_RTOL * s[-1]
        if not keep.any():  # x is zero
            return np.linalg.qr(x)[0]
        q = q @ (v[:, keep] / np.sqrt(s[keep]))
    if np.linalg.norm(x - q @ (q.T @ x)) > BASIS_RESIDUAL_RTOL * np.linalg.norm(x):
        q, _ = np.linalg.qr(x)
    return q


def _map_first_weights(shape, v, new_shape, right=None):
    """v in new_shape's layout with first-layer weights W right, fresh.

    right=None gives zero first-layer weights; every other block is
    copied.
    """
    out = np.empty(new_shape.num_params)
    old, new = network.unpack(shape, v), network.unpack(new_shape, out)
    if right is None:
        new[0][0][...] = 0.0
    else:
        # As (W right)^T = right^T W^T: the transposed views are the
        # contiguous ones.
        np.matmul(right.T, old[0][0].T, out=new[0][0].T)
    new[0][1][...] = old[0][1]
    for (w_old, b_old), (w_new, b_new) in zip(old[1:], new[1:]):
        w_new[...] = w_old
        b_new[...] = b_old
    return out


def hf_cg_direction(
    shape: NetworkShape,
    theta,
    cache: ForwardCache,
    spec: loss_mod.LossSpec,
    lam: float,
    cfg: CgConfig,
    g: np.ndarray,
    counters: OpCounters | None = None,
    inputs: np.ndarray | None = None,
) -> DirectionResult:
    """Conjugate-gradient solve of (B_t + lam I) p = -g, matrix-free.

    inputs are the (m0, n1) input columns of the batch g was taken over,
    which includes the cache's samples; they default to the cache's own.
    Every first-layer weight block of g and of J^T u over those samples
    is sum_i a_i x_i^T, so with an orthonormal basis Q of the inputs'
    span (input_basis), W -> W Q is an isometry onto coordinates that
    hold every CG vector. When m0 >= 10 n1 (INPUT_BASIS_MIN_RATIO) CG
    runs there, on a network whose first layer takes the inputs Q^T x,
    and takes the same steps in exact arithmetic; p is mapped back at the
    end. A g outside the span, such as a gradient over a wider batch than
    inputs, raises ShapeError. Otherwise CG runs on theta's own
    coordinates.

    Each product with B_t costs one forward-mode and one reverse-mode
    sweep over the batch; the loss-Hessian factors are formed once.
    Iteration stops at max_iters or when the residual drops below
    rel_residual_tol * ||g||. A curvature d . Ad that is not finite and
    positive, or a non-finite model term, raises NumericError.
    """
    g = np.asarray(g, dtype=np.float64)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return DirectionResult(p=np.zeros_like(g), grad_dot=0.0, quad_term=0.0)
    factors = loss_mod.hessian_factor(spec, cache)
    if inputs is None:
        inputs = cache.x
    m0, n1 = inputs.shape
    basis = None
    if INPUT_BASIS_MIN_RATIO * n1 <= m0:
        basis = input_basis(inputs)
        full_shape = shape
        shape = NetworkShape(
            basis.shape[1:] + shape.layer_sizes[1:], shape.activations
        )
        # The products never read the first-layer weights: jvp's input
        # tangent is zero and no adjoint goes below layer 1.
        theta = _map_first_weights(full_shape, theta, shape)
        g = _map_first_weights(full_shape, g, shape, basis)
        # W -> W Q keeps the norm exactly when W lies in the span.
        if abs(float(np.linalg.norm(g)) - gnorm) > SPAN_NORM_RTOL * gnorm:
            raise ShapeError("g does not lie in the span of the inputs")
        cache = ForwardCache(
            shape, basis.T @ cache.x, cache.acts, cache.output_preact
        )
    # Every vector of the loop is owned here and updated in place;
    # scratch holds lam * d and then alpha * d.
    p = np.zeros_like(g)
    r = -g
    d = r.copy()
    ad = np.empty_like(g)
    scratch = np.empty_like(g)
    rs = float(r @ r)
    for _ in range(cfg.max_iters):
        ad = _gn_product(shape, theta, cache, spec, d, factors, counters, ad)
        np.multiply(d, lam, out=scratch)
        ad += scratch
        dad = float(d @ ad)
        if not (math.isfinite(dad) and dad > 0.0):
            raise NumericError(f"cg breakdown: d.Ad = {dad}")
        alpha = rs / dad
        np.multiply(d, alpha, out=scratch)
        p += scratch
        ad *= alpha
        r -= ad
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= cfg.rel_residual_tol * gnorm:
            rs = rs_new
            break
        d *= rs_new / rs
        d += r
        rs = rs_new
    bp = _gn_product(shape, theta, cache, spec, p, factors, counters, ad)
    grad_dot, quad = _finite_model(float(g @ p), float(p @ bp))
    if basis is not None:
        p = _map_first_weights(shape, p, full_shape, basis.T)
    return DirectionResult(p=p, grad_dot=grad_dot, quad_term=quad)
