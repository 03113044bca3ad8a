"""Small dense curvature systems for the Woodbury solves.

For a curvature batch of B samples the full-parameter matrix is never
formed. Instead the solve works through a small core matrix:

    Gauss-Newton, invertible loss Hessians (symmetric core, size B*m_L):
        core = lam * blockdiag(H_i^-1) + gram / B,   gram = (J_i1 J_i2^T) blocks
    Gauss-Newton, singular loss Hessians (general core, size B*m_L):
        core = lam * I + gram @ blockdiag(H_i) / B
    Natural gradient (symmetric core, size B):
        core = lam * I + gram / B,   gram_ij = grad_i . grad_j

Gram blocks come from the factored identity
    (J_i1 J_i2^T)_{j1 j2} = sum_l (v_i1^(l-1) . v_i2^(l-1) + 1)
                                   * (a_i1^(l,j1) . a_i2^(l,j2)),
so the cost is B*m_L backward factor computations plus layer-sized
matrix products, independent of the parameter count.

The loss picks the Gauss-Newton path: the softmax Hessian is singular and
takes the general core; squared error and binary cross-entropy take the
symmetric core, with H_i^-1 in closed form from loss.hessian_inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diff, linalg, loss as loss_mod
from .counters import OpCounters
from .exceptions import ShapeError
from .network import ForwardCache, NetworkShape

GN = "gn"
NG = "ng"
PATH_SPD = "spd"
PATH_GENERAL = "general"


@dataclass
class GnBatchFactors:
    """Backward factors of every (sample, output unit) pair in a batch.

    adjoints[l-1] has shape (m_l, B, m_L): slot [:, i, j] is the layer-l
    adjoint of J_i^T e_j. hessians is (B, m_L, m_L) with the per-sample
    loss Hessians w.r.t. the output pre-activation.
    """

    shape: NetworkShape
    spec: loss_mod.LossSpec
    cache: ForwardCache
    adjoints: list[np.ndarray]
    hessians: np.ndarray

    @property
    def nbatch(self) -> int:
        return self.cache.ncols


def gn_batch_factors(
    shape: NetworkShape,
    theta,
    cache: ForwardCache,
    spec: loss_mod.LossSpec,
    counters: OpCounters | None = None,
) -> GnBatchFactors:
    """Backward factors for all m_L unit seeds of every sample in the cache."""
    nb = cache.ncols
    m_out = shape.output_size
    per_seed = []
    for j in range(m_out):
        seed = np.zeros((m_out, nb))
        seed[j, :] = 1.0
        _, factors = diff.vjp(shape, theta, cache, seed, counters, expand=False)
        per_seed.append(factors.layer_adjoints)
    adjoints = [
        np.stack([per_seed[j][l] for j in range(m_out)], axis=2)
        for l in range(shape.num_layers)
    ]
    hs = loss_mod.loss_hessian_h(spec, cache).reshape(nb, m_out, m_out)
    return GnBatchFactors(shape, spec, cache, adjoints, hs)


def gn_block_gram(batch: GnBatchFactors) -> np.ndarray:
    """Block matrix of J_i1 J_i2^T products, shape (B*m_L, B*m_L).

    Block (i1, i2) is sum_l (v_i1 . v_i2 + 1) * A_i1^T A_i2 with the
    layer contributions accumulated in fixed layer order.
    """
    nb = batch.nbatch
    m_out = batch.shape.output_size
    size = nb * m_out
    gram = np.zeros((size, size))
    ones = np.ones((m_out, m_out))
    for l in range(1, batch.shape.num_layers + 1):
        v = batch.cache.v(l - 1)
        vtil = v.T @ v + 1.0
        a = batch.adjoints[l - 1].reshape(-1, size)
        gram += np.kron(vtil, ones) * (a.T @ a)
    return gram


def ng_gram(factors: diff.BackpropFactors) -> np.ndarray:
    """Gram matrix of per-sample gradients, entry (i, j) = grad_i . grad_j.

    Uses the layer-wise factored identity; the +1 term carries the bias
    blocks so the entries match expanded-gradient dot products exactly.
    """
    nb = factors.ncols
    gram = np.zeros((nb, nb))
    for a, v in zip(factors.layer_adjoints, factors.layer_inputs):
        gram += (a.T @ a) * (v.T @ v + 1.0)
    return gram


@dataclass
class GramSystem:
    """Assembled core system plus the batch data needed to apply J^T later."""

    method: str
    path: str
    core: np.ndarray
    lam: float
    n2: int
    gn_factors: GnBatchFactors | None = None
    ng_factors: diff.BackpropFactors | None = None


def assemble_d(
    method: str,
    gram: np.ndarray,
    blocks: np.ndarray | None,
    lam: float,
    n2: int,
    path: str = PATH_SPD,
) -> np.ndarray:
    """Assemble the core matrix from a Gram matrix and per-sample blocks.

    The Gauss-Newton blocks are (n2, m_L, m_L): the loss-Hessian inverses
    H_i^-1 on the symmetric path, the Hessians H_i on the general path.
    """
    if lam <= 0.0:
        raise ShapeError(f"damping must be positive, got {lam}")
    gram = linalg.as_matrix(gram, "gram")
    if method == NG:
        if gram.shape != (n2, n2):
            raise ShapeError(f"gram shape {gram.shape} != ({n2}, {n2})")
        return lam * np.eye(n2) + gram / n2
    if method != GN:
        raise ShapeError(f"unknown curvature method: {method!r}")
    if blocks is None:
        raise ShapeError("the Gauss-Newton core needs per-sample Hessian blocks")
    blocks = np.asarray(blocks, dtype=np.float64)
    m_out = blocks.shape[-1]
    size = n2 * m_out
    if blocks.shape != (n2, m_out, m_out) or gram.shape != (size, size):
        raise ShapeError(
            f"blocks {blocks.shape} / gram {gram.shape} inconsistent with "
            f"n2={n2}, m_L={m_out}"
        )
    if path == PATH_SPD:
        core = gram / n2
        for i in range(n2):
            sl = slice(i * m_out, (i + 1) * m_out)
            core[sl, sl] += lam * blocks[i]
        return core
    if path == PATH_GENERAL:
        core = np.empty((size, size))
        for i in range(n2):
            sl = slice(i * m_out, (i + 1) * m_out)
            core[:, sl] = gram[:, sl] @ blocks[i]
        core /= n2
        core[np.diag_indices(size)] += lam
        return core
    raise ShapeError(f"unknown core path: {path!r}")


def build_gn_system(
    shape: NetworkShape,
    theta,
    cache: ForwardCache,
    spec: loss_mod.LossSpec,
    lam: float,
    counters: OpCounters | None = None,
) -> GramSystem:
    """Factor the batch, form the Gram matrix, and assemble the GN core.

    The loss picks the path: softmax cross-entropy, whose Hessians are
    singular, assembles the general core from the Hessians; every other
    loss assembles the symmetric core from loss.hessian_inverse.
    """
    batch = gn_batch_factors(shape, theta, cache, spec, counters)
    gram = gn_block_gram(batch)
    if spec.kind == loss_mod.SOFTMAX_CROSS_ENTROPY:
        path, blocks = PATH_GENERAL, batch.hessians
    else:
        path = PATH_SPD
        blocks = loss_mod.hessian_inverse(spec, cache).reshape(batch.hessians.shape)
    return GramSystem(
        method=GN,
        path=path,
        core=assemble_d(GN, gram, blocks, lam, batch.nbatch, path),
        lam=lam,
        n2=batch.nbatch,
        gn_factors=batch,
    )


def build_ng_system(factors: diff.BackpropFactors, lam: float) -> GramSystem:
    """Assemble the natural-gradient core from per-sample gradient factors."""
    gram = ng_gram(factors)
    core = assemble_d(NG, gram, None, lam, factors.ncols)
    return GramSystem(
        method=NG,
        path=PATH_SPD,
        core=core,
        lam=lam,
        n2=factors.ncols,
        ng_factors=factors,
    )
