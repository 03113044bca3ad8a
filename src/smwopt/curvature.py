"""Small dense curvature systems for the Woodbury solves.

For a curvature batch of B samples the full-parameter matrix is never
formed. Instead the solve works through one small symmetric positive
definite core matrix, Cholesky-factored once when its system is built,

    core = lam * I + gram / B,

with gram = U^T U for B_t = U U^T / B, built by one kernel, gn_block_gram,
from k factor columns per sample:

    Gauss-Newton (k = m_L, size B*m_L): blocks C_i1^T J_i1 J_i2^T C_i2,
        where C_i is the loss-Hessian factor with C_i C_i^T = H_i
    Natural gradient (k = 1, size B): grad_i . grad_j, the same form with
        each sample's loss gradient as its one-column factor

The blocks come from the factored identity
    (C_i1^T J_i1 J_i2^T C_i2)_{j1 j2} = sum_l (v_i1^(l-1) . v_i2^(l-1) + 1)
                                               * (a_i1^(l,j1) . a_i2^(l,j2)),
where a_i^(l,j) is the layer-l adjoint of the reverse sweep seeded with
column j of C_i, so the cost is one reverse sweep over B*k columns plus
layer-sized matrix products, independent of the parameter count. Each
layer term scales A^T A by V^T V, both symmetric bit for bit, so the core
is exactly symmetric by construction. No loss Hessian is inverted, so
singular (softmax) and saturated (logistic) Hessians need no special case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diff, linalg, loss as loss_mod
from .counters import OpCounters
from .exceptions import NumericError
from .network import ForwardCache, NetworkShape

@dataclass
class GnBatchFactors(diff.BackpropFactors):
    """Backward factors of every (sample, Hessian-factor column) pair in a batch.

    layer_adjoints[l-1] has shape (m_l, B, m_L): slot [:, i, j] is the
    layer-l adjoint of J_i^T C_i e_j, so dots_with(v) gives the core vector
    C^T J v sample-major. hessian_factors is (B, m_L, m_L) with the
    per-sample loss-Hessian factors C_i (C_i C_i^T = H_i w.r.t. the output
    pre-activation); the cache is kept for the reverse sweep that maps a
    core vector back to parameter space.
    """

    cache: ForwardCache
    hessian_factors: np.ndarray


def gn_batch_factors(
    shape: NetworkShape,
    theta,
    cache: ForwardCache,
    spec: loss_mod.LossSpec,
    counters: OpCounters | None = None,
) -> GnBatchFactors:
    """Backward factors for the m_L Hessian-factor columns of every sample.

    One reverse sweep over all B*m_L columns: the seed for (i, j) is
    column j of C_i, and the sweep's adjoints come out (m_l, B, m_L).
    """
    c = loss_mod.hessian_factor(spec, cache)
    seeds = c.transpose(1, 0, 2)
    _, factors = diff.vjp(shape, theta, cache, seeds, counters, expand=False)
    return GnBatchFactors(
        shape, factors.layer_adjoints, factors.layer_inputs, cache, c
    )


def gn_block_gram(factors: diff.BackpropFactors) -> np.ndarray:
    """Gram matrix U^T U of the factored vectors, k per sample: (B*k, B*k).

    k is m_L for Gauss-Newton factors, whose adjoints are (m_l, B, m_L),
    and 1 for per-sample gradients, (m_l, B): the empirical Fisher is the
    Gauss-Newton form with each sample's loss gradient as its one-column
    factor. Block (i1, i2) is sum_l (v_i1 . v_i2 + 1) * A_i1^T A_i2; each
    layer's A^T A is scaled block by block in place, layers in fixed order.
    """
    nb = factors.ncols
    size = factors.layer_adjoints[0][0].size
    gram = np.zeros((size, size))
    for a, v in zip(factors.layer_adjoints, factors.layer_inputs):
        a = a.reshape(-1, size)
        layer = a.T @ a
        blocks = layer.reshape(nb, size // nb, nb, size // nb)
        blocks *= (v.T @ v + 1.0)[:, None, :, None]
        gram += layer
    return gram


@dataclass
class GramSystem:
    """Assembled core system plus the factors of U, with B_t = U U^T / n2.

    factors.dots_with(v) is U^T v for both methods, and their type is the
    method: GnBatchFactors for Gauss-Newton, per-sample gradient factors
    for natural gradient. core_factor, the lower Cholesky factor of core,
    is computed once, by GramSystem.of, and reused by every core solve of
    the direction.
    """

    core: np.ndarray
    core_factor: np.ndarray
    lam: float
    factors: diff.BackpropFactors

    @classmethod
    def of(cls, factors: diff.BackpropFactors, lam: float) -> GramSystem:
        """Assemble the core over the factors' samples and factor it once."""
        core = assemble_d(gn_block_gram(factors), lam, factors.ncols)
        try:
            lower = linalg.cholesky(core)
        except NumericError as err:
            diag = np.diag(core)
            raise NumericError(
                f"core factorization failed at lambda={lam:.6e} "
                f"(diag range [{diag.min():.3e}, {diag.max():.3e}]): {err}"
            ) from err
        return cls(core, lower, lam, factors)

    @property
    def n2(self) -> int:
        """Samples in the curvature batch."""
        return self.factors.ncols

    def solve_core(self, rhs: np.ndarray) -> np.ndarray:
        """core^-1 rhs by two triangular solves with the kept factor."""
        lower = self.core_factor
        return linalg.solve_upper(lower.T, linalg.solve_lower(lower, rhs))

    def expand(self, shape, theta, w, like, counters=None):
        """U w in the form of like, packed or a PrefixVector in like's frame.

        Natural gradient weights its factors by w. Gauss-Newton maps the
        sample-major w to output columns C_i w_i and runs one reverse sweep
        over them.
        """
        if not isinstance(self.factors, GnBatchFactors):
            return self.factors.sum_like(like, w)
        c = self.factors.hessian_factors
        cw = (c @ w.reshape(len(c), -1, 1))[:, :, 0].T
        _, sweep = diff.vjp(shape, theta, self.factors.cache, cw, counters, expand=False)
        return sweep.sum_like(like)


def assemble_d(gram: np.ndarray, lam: float, n2: int) -> np.ndarray:
    """Core matrix lam * I + gram / n2 over a batch of n2 samples."""
    core = gram / n2
    core[np.diag_indices(len(core))] += lam
    return core
