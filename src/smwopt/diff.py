"""Backpropagation kernels: gradients, Jacobian products, factored dots.

Every kernel works in the space of the output pre-activation h_L, where
the loss defines its gradient, Hessian and square factor: the Jacobian of
sample i is J_i = d h_L,i / d theta. So the Gauss-Newton and hf curvature
built from these kernels is the matching-loss J^T H J (Schraudolph 2002),
and the gradient is the reverse-mode product with the loss gradient in h_L.

Reverse-mode products J_i^T x come out Kronecker-factored: the weight
block of layer l is the outer product a_l v_{l-1}^T of a backward adjoint
vector with the layer input, and the bias block is a_l itself.
BackpropFactors keeps those per-layer vectors so Gram matrices and dot
products can be formed without ever materializing length-n vectors:

    <expand(fa), expand(fb)> = sum_l (va_l . vb_l + 1) * (aa_l . ab_l)

where the +1 accounts exactly for the bias blocks.

The same identity keeps a vector in factor space: FactoredVector holds
one adjoint column per sample of a batch (a SampleSpan, its layer inputs
V_l and their Grams V_l^T V_l + 1), and its inner products, norms and dots
with the backward factors of any prefix of the batch's samples are
products of those n x n Grams with the adjoints. The stochastic Woodbury
step keeps g and p in that form and writes a parameter-length vector only
for theta + alpha p.

All kernels accept batched caches (samples as columns) and perform the
per-sample recursions simultaneously; counters advance by the number of
columns processed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import loss as loss_mod
from .counters import OpCounters
from .exceptions import ShapeError
from .network import ForwardCache, NetworkShape, act_jac_apply, unpack


@dataclass
class BackpropFactors:
    """Per-layer adjoint vectors plus the layer inputs they pair with.

    layer_adjoints[l-1] is (m_l, B); layer_inputs[l-1] is (m_{l-1}, B) and
    aliases the forward cache. Column i holds the factors of sample i.
    Adjoints may carry a trailing axis, (m_l, B, k), for k vectors per
    sample that share its layer inputs; only dots_with accepts that form.
    """

    shape: NetworkShape
    layer_adjoints: list[np.ndarray]
    layer_inputs: list[np.ndarray]

    @property
    def ncols(self) -> int:
        return self.layer_adjoints[0].shape[1]

    def expand_sum(self, weights=None, out=None) -> np.ndarray:
        """Packed sum over samples of the factored vectors, optionally weighted.

        Written into out, a parameter-length buffer, when given.
        """
        if out is None:
            out = np.empty(self.shape.num_params)
        for a, v, (w, b) in zip(
            self.layer_adjoints, self.layer_inputs, unpack(self.shape, out)
        ):
            aw = a if weights is None else a * np.asarray(weights)[None, :]
            # As (aw v^T)^T = v aw^T: the weight views are column-major,
            # so their transposes are the contiguous ones.
            np.matmul(v, aw.T, out=w.T)
            np.sum(aw, axis=1, out=b)
        return out

    def dots_with(self, packed) -> np.ndarray:
        """Dot products of the factored vectors with a parameter vector.

        One entry per sample, or per (sample, trailing index) pair
        flattened sample-major when the adjoints carry a trailing axis.
        The vector is packed, or a FactoredVector over a span whose first
        columns are these samples.
        """
        if isinstance(packed, FactoredVector):
            preacts = packed.preacts(self.ncols)
        else:
            params = unpack(self.shape, np.asarray(packed, dtype=np.float64))
            preacts = (
                w @ v + b[:, None] for (w, b), v in zip(params, self.layer_inputs)
            )
        out = np.zeros(self.layer_adjoints[0].shape[1:])
        for a, z in zip(self.layer_adjoints, preacts):
            if a.ndim == 3:
                z = z[:, :, None]
            out += np.sum(a * z, axis=0)
        return out.reshape(-1)

    def cols(self, idx) -> "BackpropFactors":
        return BackpropFactors(
            shape=self.shape,
            layer_adjoints=[a[:, idx] for a in self.layer_adjoints],
            layer_inputs=[v[:, idx] for v in self.layer_inputs],
        )


def _layer_inputs(cache: ForwardCache) -> list[np.ndarray]:
    return [cache.v(l - 1) for l in range(1, cache.shape.num_layers + 1)]


@dataclass
class SampleSpan:
    """A batch's layer inputs and their Grams: the frame of FactoredVector.

    layer_inputs[l-1] is V_{l-1}, (m_{l-1}, n), and grams[l-1] is
    V_{l-1}^T V_{l-1} + 1, (n, n); the +1 pairs the bias blocks.
    """

    shape: NetworkShape
    layer_inputs: list[np.ndarray]
    grams: list[np.ndarray]

    @classmethod
    def of(cls, cache: ForwardCache) -> "SampleSpan":
        inputs = _layer_inputs(cache)
        return cls(cache.shape, inputs, [v.T @ v + 1.0 for v in inputs])

    @property
    def ncols(self) -> int:
        return self.grams[0].shape[0]

    def embed(self, factors: BackpropFactors, weights=None) -> "FactoredVector":
        """The sum of factors' vectors, optionally weighted, over this span.

        factors' samples must be the span's first columns (the curvature
        batch is a prefix of the gradient batch); the other columns of the
        fresh adjoints are zero.
        """
        adjoints = []
        for a in factors.layer_adjoints:
            full = np.zeros((a.shape[0], self.ncols))
            full[:, : a.shape[1]] = a if weights is None else a * weights
            adjoints.append(full)
        return FactoredVector(self, adjoints)


class FactoredVector:
    """The parameter vector sum_i expand(a_i v_i^T, a_i) over a span's samples.

    adjoints[l-1] is (m_l, n), one column a_i per sample, paired with the
    span's layer inputs v_i. Linear combinations act on the adjoints;
    inner products use the factored identity with the span's Grams, so
    nothing parameter-length is formed. Adding it to a packed vector
    (packed + x) is the one expansion, into a fresh array. In-place
    operators write into the adjoints, which a vector owns.
    """

    # numpy's operators on a packed left operand defer to __radd__.
    __array_ufunc__ = None

    def __init__(self, span: SampleSpan, adjoints: list[np.ndarray]):
        self.span = span
        self.adjoints = adjoints

    def _map(self, fn) -> "FactoredVector":
        return FactoredVector(self.span, [fn(a) for a in self.adjoints])

    def _zip(self, other, fn) -> "FactoredVector":
        return FactoredVector(
            self.span, [fn(a, b) for a, b in zip(self.adjoints, other.adjoints)]
        )

    def __neg__(self):
        return self._map(np.negative)

    def __add__(self, other):
        return self._zip(other, np.add)

    def __sub__(self, other):
        return self._zip(other, np.subtract)

    def __mul__(self, scalar):
        return self._map(lambda a: a * scalar)

    __rmul__ = __mul__

    def __isub__(self, other):
        for a, b in zip(self.adjoints, other.adjoints):
            a -= b
        return self

    def __itruediv__(self, scalar):
        for a in self.adjoints:
            a /= scalar
        return self

    def __matmul__(self, other) -> float:
        """Inner product: sum_l sum_ik grams_l[i, k] (a_i . b_k)."""
        return float(sum(
            np.vdot(a.T @ b, k)
            for a, b, k in zip(self.adjoints, other.adjoints, self.span.grams)
        ))

    def __radd__(self, packed) -> np.ndarray:
        out = self.expand()
        out += packed
        return out

    def norm(self) -> float:
        """Euclidean norm; a Gram-rounded square below zero reads as 0."""
        return math.sqrt(max(self @ self, 0.0))

    def preacts(self, nb: int) -> list[np.ndarray]:
        """W_l v_i + b_l of this vector's blocks at the span's first nb samples.

        Per layer A_l (V_{l-1}^T v_i + 1), an (m_l, nb) array.
        """
        return [a @ k[:, :nb] for a, k in zip(self.adjoints, self.span.grams)]

    def expand(self) -> np.ndarray:
        span = self.span
        return BackpropFactors(
            span.shape, self.adjoints, span.layer_inputs
        ).expand_sum()


def norm(x) -> float:
    """Euclidean norm of a parameter vector, packed or factored."""
    if isinstance(x, FactoredVector):
        return x.norm()
    return float(np.linalg.norm(x))


def _backward_adjoints(
    shape: NetworkShape, params, cache: ForwardCache, seed: np.ndarray
) -> list[np.ndarray]:
    """Run the adjoint recursion from an h_L-space seed down to layer 1.

    A seed with a trailing axis, (m_L, B, k), is swept as B*k columns in
    one matrix product per layer; every adjoint keeps that layout.
    """
    nl = shape.num_layers
    adjoints: list[np.ndarray] = [None] * nl
    adjoints[nl - 1] = seed
    a = seed
    for l in range(nl - 1, 0, -1):
        w_next = params[l][0]
        u = (w_next.T @ a.reshape(len(a), -1)).reshape(-1, *a.shape[1:])
        v = cache.v(l) if a.ndim == 2 else cache.v(l)[:, :, None]
        a = act_jac_apply(shape.activations[l - 1], v, u)
        adjoints[l - 1] = a
    return adjoints


def gradient(
    shape: NetworkShape,
    theta,
    cache: ForwardCache,
    y,
    spec: loss_mod.LossSpec,
    counters: OpCounters | None = None,
    factored: bool = False,
) -> tuple[np.ndarray | FactoredVector, BackpropFactors]:
    """Backward pass for the loss gradient: vjp of the loss gradient in h_L.

    Returns the gradient, the mean over the cache's sample columns, packed
    or, with factored=True, as a FactoredVector over the cache's samples,
    together with the per-sample factors for Gram reuse. It counts as one
    backward pass per column, not as vjp products.
    """
    if cache.ncols == 0:
        raise ShapeError("empty cache")
    r = loss_mod.loss_grad_h(spec, cache, y)
    g, factors = vjp(shape, theta, cache, r, expand=not factored)
    if counters is not None:
        counters.backward_passes += cache.ncols
    if factored:
        g = SampleSpan.of(cache).embed(factors)
    g /= cache.ncols
    return g, factors


def jvp(
    shape: NetworkShape,
    theta,
    cache: ForwardCache,
    theta1,
    counters: OpCounters | None = None,
) -> np.ndarray:
    """Forward-mode product J_i theta1 for every sample column.

    Propagates the directional perturbation through the layer recursion
    h1_l = W1_l v_{l-1} + W_l v1_{l-1} + b1_l and returns the last h1_L.
    """
    params = unpack(shape, theta)
    direction = unpack(shape, theta1)
    for l in range(1, shape.num_layers + 1):
        w, _ = params[l - 1]
        w1, b1 = direction[l - 1]
        h1 = w1 @ cache.v(l - 1)
        if l > 1:  # the input tangent v1_0 is zero
            h1 += w @ v1
        h1 += b1[:, None]
        if l < shape.num_layers:
            v1 = act_jac_apply(shape.activations[l - 1], cache.v(l), h1)
    if counters is not None:
        counters.jvp_products += cache.ncols
    return h1


def vjp(
    shape: NetworkShape,
    theta,
    cache: ForwardCache,
    x_out,
    counters: OpCounters | None = None,
    expand: bool = True,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray | None, BackpropFactors]:
    """Reverse-mode product J_i^T x_i for every sample column.

    x_out holds one h_L-space seed column per sample column, (m_L, B).
    The packed result sums J_i^T x_i over columns and is written into out
    when given. With expand=False only the factors are computed and the
    outer-product expansion is skipped; only then may x_out carry k seeds
    per sample, (m_L, B, k), which one backward sweep over B*k columns
    turns into factors with adjoints of shape (m_l, B, k). Counters advance
    by the number of seed columns.
    """
    params = unpack(shape, theta)
    x = np.asarray(x_out, dtype=np.float64)
    if x.shape[:2] != cache.output.shape or x.ndim > 3:
        raise ShapeError(
            f"output seed shape {x.shape} does not match {cache.output.shape}"
        )
    if x.ndim == 3 and expand:
        raise ShapeError("a seed with a trailing axis needs expand=False")
    adjoints = _backward_adjoints(shape, params, cache, x)
    factors = BackpropFactors(shape, adjoints, _layer_inputs(cache))
    if counters is not None:
        counters.vjp_products += x[0].size
    packed = factors.expand_sum(out=out) if expand else None
    return packed, factors
