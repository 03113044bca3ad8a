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

The same identity keeps a vector in factor space. A stochastic step's
curvature batch S2 is a prefix of its gradient batch S1, and every
vector of its solve lies in span{g} plus S2's factor space: a
PrefixVector, a multiple beta of g plus adjoints on S2's n2 columns,
held in one buffer so a linear combination is one array operation.
Its inner products, its dots with S2's backward factors and its jvp
tangents read S1's Grams only through the blocks a PrefixFrame takes
once per direction, at n2^2 cost per layer entry instead of n1^2. The
trainer places g, the gradient's factors over S1, in its frame right
after the gradient, and places p back on S1 once, as BackpropFactors
with one adjoint column per sample of S1, for the low-rank trial
forward and theta + alpha p, the one parameter-length write. Placing
S2's adjoints among S1's columns is PrefixVector.factored's alone.

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
from .network import ForwardCache, NetworkShape, unpack


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

    def expand_sum(self, weights=None) -> np.ndarray:
        """Packed sum over samples of the factored vectors, optionally weighted."""
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

    def dots_with(self, x) -> np.ndarray:
        """Dot products of the factored vectors with a parameter vector.

        One entry per sample, or per (sample, trailing index) pair
        flattened sample-major when the adjoints carry a trailing axis.
        The vector is packed, or a PrefixVector whose S2 is these samples.
        """
        preacts = _preacts(self.shape, x, self.layer_inputs)
        out = np.zeros(self.layer_adjoints[0].shape[1:])
        for a, z in zip(self.layer_adjoints, preacts):
            if a.ndim == 3:
                z = z[:, :, None]
            out += np.sum(a * z, axis=0)
        return out.reshape(-1)

    def sum_like(self, like, weights=None):
        """The sum of the factored vectors, optionally weighted, in the form
        of like: packed, or a PrefixVector in like's frame, fresh."""
        if isinstance(like, PrefixVector):
            return like.frame.embed(self, weights)
        return self.expand_sum(weights)

    def cols(self, idx) -> "BackpropFactors":
        return BackpropFactors(
            shape=self.shape,
            layer_adjoints=[a[:, idx] for a in self.layer_adjoints],
            layer_inputs=[v[:, idx] for v in self.layer_inputs],
        )


def _layer_inputs(cache: ForwardCache) -> list[np.ndarray]:
    return [cache.v(l - 1) for l in range(1, cache.shape.num_layers + 1)]


@dataclass
class PrefixFrame:
    """A factored g over S1 seen from its first n2 samples, S2.

    The frame of PrefixVector. With K_l = V_{l-1}^T V_{l-1} + 1 S1's
    input Grams (the +1 pairs the bias blocks) and G_l g's adjoints
    outside S2: grams[l-1] = K_l[:n2, :n2], cross[l-1] = G_l K_l[n2:, :n2],
    tail_sq = sum_l vdot(G_l, G_l K_l[n2:, n2:]), and first_gram = K_1
    for the low-rank trial forward.
    """

    g: BackpropFactors
    grams: list[np.ndarray]
    cross: list[np.ndarray]
    tail_sq: float
    first_gram: np.ndarray

    @classmethod
    def of(cls, g: BackpropFactors, n2: int) -> "PrefixFrame":
        grams = [v.T @ v + 1.0 for v in g.layer_inputs]
        tails = [a[:, n2:] for a in g.layer_adjoints]
        return cls(
            g=g,
            grams=[k[:n2, :n2] for k in grams],
            cross=[t @ k[n2:, :n2] for t, k in zip(tails, grams)],
            tail_sq=float(sum(
                np.vdot(t, t @ k[n2:, n2:]) for t, k in zip(tails, grams)
            )),
            first_gram=grams[0],
        )

    @property
    def n2(self) -> int:
        return self.grams[0].shape[0]

    @property
    def gradient(self) -> "PrefixVector":
        """g itself: coefficient 1 and g's S2 adjoints, fresh."""
        return self._vector([a[:, : self.n2] for a in self.g.layer_adjoints], 1.0)

    def embed(self, factors: BackpropFactors, weights=None) -> "PrefixVector":
        """The sum of S2's factored vectors, optionally weighted, fresh."""
        return self._vector(factors.layer_adjoints, 0.0, weights)

    def _vector(self, adjoints, beta, weights=None) -> "PrefixVector":
        """A new vector: beta and S2's adjoints copied, weighted if asked."""
        x = PrefixVector(self, np.empty(sum(c.size for c in self.cross) + 1))
        for out, a in zip(x.adjoints, adjoints):
            np.multiply(a, 1.0 if weights is None else weights, out=out)
        x.coef[0] = beta
        return x


class PrefixVector:
    """A vector of span{g} plus S2's factor space, over a frame's S1.

    Every vector of a stochastic direction solve lies there, Woodbury's
    and hf's alike, as the range of the curvature touches only S2's
    columns. adjoints[l-1] is X_l, (m_l, n2), the vector's adjoints on
    S2's columns, beta g's included; its adjoints on S1's other columns
    are beta g's. beta is the one entry of coef. The vector owns one
    float64 buffer, data: X_1, ..., X_L row-major, then beta, of which
    adjoints and coef are views. Linear combinations are one array
    operation on data, and in-place operators write into it. Inner
    products and jvp tangents cost n2^2 per layer entry, not n1^2.
    """

    # numpy's operators on a packed left operand defer to the reflected ones.
    __array_ufunc__ = None

    def __init__(self, frame: PrefixFrame, data: np.ndarray):
        self.frame = frame
        self.data = data
        self.adjoints, start = [], 0
        for c in frame.cross:
            self.adjoints.append(data[start : start + c.size].reshape(c.shape))
            start += c.size
        self.coef = data[start:]

    @property
    def beta(self) -> float:
        return float(self.coef[0])

    def __neg__(self):
        return PrefixVector(self.frame, -self.data)

    def __add__(self, other):
        return PrefixVector(self.frame, self.data + other.data)

    def __sub__(self, other):
        return PrefixVector(self.frame, self.data - other.data)

    def __mul__(self, scalar):
        return PrefixVector(self.frame, self.data * scalar)

    __rmul__ = __mul__

    def __iadd__(self, other):
        self.data += other.data
        return self

    def __isub__(self, other):
        self.data -= other.data
        return self

    def __imul__(self, scalar):
        self.data *= scalar
        return self

    def __itruediv__(self, scalar):
        self.data /= scalar
        return self

    def copy(self):
        return PrefixVector(self.frame, self.data.copy())

    def __matmul__(self, other) -> float:
        """Inner product: sum_l [vdot(X_x, X_y K11) + b_y vdot(X_x, P)
        + b_x vdot(X_y, P)] + b_x b_y q, with X_y K11 formed fresh."""
        frame, bx, by = self.frame, self.beta, other.beta
        total = bx * by * frame.tail_sq
        for x, y, k, c in zip(self.adjoints, other.adjoints, frame.grams, frame.cross):
            total += np.vdot(x, y @ k) + by * np.vdot(x, c) + bx * np.vdot(y, c)
        return float(total)

    def preacts(self) -> list[np.ndarray]:
        """W_l v_i + b_l of this vector's blocks at S2's samples, X K11 + beta P."""
        out = []
        for x, k, c in zip(self.adjoints, self.frame.grams, self.frame.cross):
            z = x @ k
            z += c * self.beta
            out.append(z)
        return out

    def factored(self) -> BackpropFactors:
        """This vector over S1, one adjoint column per sample: its S2
        adjoints on the first columns, beta g's on the others."""
        g = self.frame.g
        adjoints = []
        for x, ga in zip(self.adjoints, g.layer_adjoints):
            full = ga * self.beta
            full[:, : x.shape[1]] = x
            adjoints.append(full)
        return BackpropFactors(g.shape, adjoints, g.layer_inputs)

    def expand(self) -> np.ndarray:
        """The packed parameter vector, fresh."""
        return self.factored().expand_sum()

    def __radd__(self, packed) -> np.ndarray:
        """packed + x: the one expansion, into a fresh array."""
        out = self.expand()
        out += packed
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The expansion, so numpy functions read the packed vector."""
        return np.asarray(self.expand(), dtype=dtype)


def norm(x) -> float:
    """Euclidean norm of a packed vector (np.linalg.norm's bits) or of a
    PrefixVector, whose square, from Grams, reads as 0 if rounded below."""
    return math.sqrt(max(float(x @ x), 0.0))


def _preacts(shape: NetworkShape, x, layer_inputs) -> list[np.ndarray]:
    """W_l v + b_l of x's blocks at layer_inputs, fresh: a PrefixVector's
    own preacts, as its S2 is the inputs' samples, or a packed x's."""
    if isinstance(x, PrefixVector):
        return x.preacts()
    return [w @ v + b[:, None] for (w, b), v in zip(unpack(shape, x), layer_inputs)]


def _backward_adjoints(
    shape: NetworkShape, params, cache: ForwardCache, seed: np.ndarray
) -> list[np.ndarray]:
    """Run the adjoint recursion from an h_L-space seed down to layer 1.

    A seed with a trailing axis, (m_L, B, k), is swept as B*k columns in
    one matrix product per layer; every adjoint keeps that layout. Each
    layer's slope product is written into its fresh W^T a.
    """
    nl = shape.num_layers
    adjoints: list[np.ndarray] = [None] * nl
    adjoints[nl - 1] = seed
    a = seed
    for l in range(nl - 1, 0, -1):
        w_next = params[l][0]
        u = (w_next.T @ a.reshape(len(a), -1)).reshape(-1, *a.shape[1:])
        a = cache.act_jac(l, u)
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
) -> tuple[np.ndarray | BackpropFactors, BackpropFactors]:
    """Backward pass for the loss gradient: vjp of the loss gradient in h_L.

    Returns the gradient, the mean over the cache's sample columns, packed
    or, with factored=True, as factors whose adjoints are the per-sample
    ones divided by the column count, together with the per-sample factors
    for Gram reuse. It counts as one backward pass per column, not as vjp
    products.
    """
    if cache.ncols == 0:
        raise ShapeError("empty cache")
    r = loss_mod.loss_grad_h(spec, cache, y)
    g, factors = vjp(shape, theta, cache, r, expand=not factored)
    if counters is not None:
        counters.backward_passes += cache.ncols
    if factored:
        n = cache.ncols
        g = BackpropFactors(
            shape, [a / n for a in factors.layer_adjoints], factors.layer_inputs
        )
    else:
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
    h1_l = (W1_l v_{l-1} + b1_l) + W_l v1_{l-1} and returns the last h1_L.
    theta1 is packed, or a PrefixVector whose S2 is the cache's samples.
    """
    params = unpack(shape, theta)
    terms = _preacts(shape, theta1, _layer_inputs(cache))
    for l, ((w, _), h1) in enumerate(zip(params, terms), start=1):
        if l > 1:  # the input tangent v1_0 is zero
            h1 += w @ v1
        if l < shape.num_layers:
            v1 = cache.act_jac(l, h1)
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
) -> tuple[np.ndarray | None, BackpropFactors]:
    """Reverse-mode product J_i^T x_i for every sample column.

    x_out holds one h_L-space seed column per sample column, (m_L, B).
    The packed result sums J_i^T x_i over columns. With expand=False only
    the factors are computed and the outer-product expansion is skipped;
    only then may x_out carry k seeds per sample, (m_L, B, k), which one
    backward sweep over B*k columns turns into factors with adjoints of
    shape (m_l, B, k). Counters advance by the number of seed columns.
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
    packed = factors.expand_sum() if expand else None
    return packed, factors
