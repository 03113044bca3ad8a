"""Fully-connected feed-forward networks: shapes, parameter layout, forward pass.

forward_low_rank is the forward pass at theta + p for a step p kept as
per-sample adjoints over the samples of a cached forward (the stochastic
Woodbury step's trial point), with no parameter-length vector.

Parameters live in one flat float64 vector theta laid out as
(vec(W1), b1, ..., vec(WL), bL), where vec() stacks the columns of each
weight matrix. Layer l maps v_{l-1} to v_l = act_l(W_l v_{l-1} + b_l).

Samples are the columns of 2-D arrays; one sample is an (m, 1) column.

The elementwise logistic kernels, sigmoid and the slope product of
ForwardCache.act_jac, work over BLOCK-element pieces of an array's memory,
so a forward or a sweep over the full set makes no temporary of a hidden
layer's size: a hidden activation overwrites its pre-activation, and a
slope product the caller's fresh vector it scales (a reverse sweep's
W^T a, a forward-mode sweep's h1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .counters import OpCounters
from .exceptions import NumericError, ShapeError

LINEAR = "linear"
LOGISTIC = "logistic"
SOFTMAX = "softmax"
ACTIVATION_KINDS = (LINEAR, LOGISTIC, SOFTMAX)


@dataclass(frozen=True)
class NetworkShape:
    """Layer widths (m0, ..., mL) and one activation kind per layer 1..L.

    num_params and the parameter layout are derived once per shape, in
    __post_init__, as unpack reads them on every call.
    """

    layer_sizes: tuple[int, ...]
    activations: tuple[str, ...]
    num_params: int = field(init=False, repr=False, compare=False)
    _layout: tuple[tuple[slice, slice, int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        sizes = tuple(int(m) for m in self.layer_sizes)
        acts = tuple(str(a) for a in self.activations)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "activations", acts)
        if len(sizes) < 2:
            raise ShapeError("need at least an input and an output layer")
        if any(m <= 0 for m in sizes):
            raise ShapeError(f"layer sizes must be positive: {sizes}")
        if len(acts) != len(sizes) - 1:
            raise ShapeError(
                f"expected {len(sizes) - 1} activations, got {len(acts)}"
            )
        for kind in acts:
            if kind not in ACTIVATION_KINDS:
                raise ShapeError(f"unknown activation kind: {kind!r}")
        if SOFTMAX in acts[:-1]:
            raise ShapeError("softmax is only allowed on the output layer")
        layout = []
        offset = 0
        for m_in, m_out in zip(sizes[:-1], sizes[1:]):
            wsl = slice(offset, offset + m_out * m_in)
            offset += m_out * m_in
            bsl = slice(offset, offset + m_out)
            offset += m_out
            layout.append((wsl, bsl, m_out, m_in))
        object.__setattr__(self, "_layout", tuple(layout))
        object.__setattr__(self, "num_params", offset)

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]

    def param_layout(self) -> tuple[tuple[slice, slice, int, int], ...]:
        """Per layer: (weight slice, bias slice, m_out, m_in) into theta."""
        return self._layout


def check_theta(shape: NetworkShape, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 1 or theta.size != shape.num_params:
        raise ShapeError(
            f"theta has size {theta.size}, expected {shape.num_params}"
        )
    return theta


def unpack(shape: NetworkShape, theta) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split theta into per-layer (W, b). W slices are column-major views."""
    theta = check_theta(shape, theta)
    params = []
    for wsl, bsl, m_out, m_in in shape.param_layout():
        w = theta[wsl].reshape((m_out, m_in), order="F")
        params.append((w, theta[bsl]))
    return params


def init_theta(shape: NetworkShape, seed_or_rng=0) -> np.ndarray:
    """Weights i.i.d. uniform(-s, s) with s = 1/sqrt(fan_in); biases zero."""
    rng = np.random.default_rng(seed_or_rng) if not isinstance(
        seed_or_rng, np.random.Generator
    ) else seed_or_rng
    theta = np.zeros(shape.num_params)
    for wsl, _, _, m_in in shape.param_layout():
        s = 1.0 / np.sqrt(m_in)
        w = rng.random(out=theta[wsl])
        w *= 2 * s
        w -= s
    return theta


# Elements per block of the elementwise logistic kernels. In place on a
# 500x1200 array (2 cores, interleaved medians) the sigmoid takes 2.29 ms
# in 32K-element blocks, 2.37 ms in 16K, 2.45 ms in 64K, 2.52 ms in 8K and
# 3.02 ms unblocked.
BLOCK = 32768


def _flat_blocks(*arrays):
    """Matching BLOCK-element pieces of same-shaped arrays in memory order.

    The arrays must share one contiguous layout, so that ravel(order="K")
    returns views that number their elements alike; otherwise the arrays
    themselves are the one piece. Writes to a piece reach its array.
    """
    first = arrays[0]
    if not (first.flags.c_contiguous or first.flags.f_contiguous) or any(
        a.shape != first.shape or a.strides != first.strides for a in arrays
    ):
        yield arrays
        return
    flat = [a.ravel(order="K") for a in arrays]
    for start in range(0, first.size, BLOCK):
        yield [f[start : start + BLOCK] for f in flat]


def sigmoid(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e) for h >= 0 and e / (1 + e) below, with e = exp(-|h|) <= 1.

    Because e <= 1, the numerator max(e, h >= 0) is 1 for h >= 0 and e
    below, exactly. e, and then the result, live in out, a fresh array in
    h's layout by default; out=h overwrites h with the same bits, as each
    block's sign mask is taken first. The mask and the numerator are
    formed per block (BLOCK), so no temporary of h's size is made.
    """
    if out is None:
        out = np.empty_like(h)
    for hb, e in _flat_blocks(h, out):
        positive = hb >= 0
        np.abs(hb, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        numerator = np.maximum(e, positive)
        e += 1.0
        np.divide(numerator, e, out=e)
    return out


def softmax(h: np.ndarray) -> np.ndarray:
    """Column-wise softmax with max-subtraction for overflow safety."""
    shifted = h - np.max(h, axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=0, keepdims=True)


def apply_activation(kind: str, h: np.ndarray) -> np.ndarray:
    if kind == LINEAR:
        return np.array(h, copy=True)
    if kind == LOGISTIC:
        return sigmoid(h)
    if kind == SOFTMAX:
        return softmax(h)
    raise ShapeError(f"unknown activation kind: {kind!r}")


@dataclass
class ForwardCache:
    """Activations from one forward pass and the output pre-activation h_L.

    Arrays are (m_l, B) with samples as columns. first_preact is h_1 when
    the forward kept it for forward_low_rank, else None. slopes holds each
    logistic hidden layer's dv/dh = v (1 - v) (None for a linear one) once
    with_slopes has computed them, else None.
    """

    shape: NetworkShape
    x: np.ndarray
    acts: list[np.ndarray]
    output_preact: np.ndarray
    first_preact: np.ndarray | None = None
    slopes: list[np.ndarray | None] | None = None

    @property
    def ncols(self) -> int:
        return self.x.shape[1]

    @property
    def output(self) -> np.ndarray:
        return self.acts[-1]

    def v(self, l: int) -> np.ndarray:
        """Layer output v_l; v_0 is the network input."""
        return self.x if l == 0 else self.acts[l - 1]

    def with_slopes(self) -> "ForwardCache":
        """This cache with its hidden layers' slopes, for a caller that
        sweeps the same samples many times; only that copy holds them."""
        slopes = [
            (1.0 - v) * v if kind == LOGISTIC else None
            for kind, v in zip(self.shape.activations[:-1], self.acts)
        ]
        return replace(self, slopes=slopes)

    def act_jac(self, l: int, u: np.ndarray) -> np.ndarray:
        """Hidden layer l's dv/dh applied column-wise to u, in place; returns u.

        u is (m_l, B) or carries a trailing axis, (m_l, B, k), and belongs
        to the caller. Both hidden jacobians are diagonal, so this serves
        J u and J^T u alike. A kept slope s scales u by s; otherwise a
        logistic slope v (1 - v) is formed per block (BLOCK) where v and u
        share one layout. The bits are those of v (1 - v) u either way.
        """
        if self.shape.activations[l - 1] == LINEAR:
            return u
        s = None if self.slopes is None else self.slopes[l - 1]
        if s is not None:
            u *= s if u.ndim == 2 else s[:, :, None]
            return u
        v = self.v(l) if u.ndim == 2 else self.v(l)[:, :, None]
        for vb, ub in _flat_blocks(v, u):
            r = 1.0 - vb
            r *= vb
            ub *= r
        return u

    def cols(self, idx) -> "ForwardCache":
        """View of a subset of sample columns (shares storage)."""
        return ForwardCache(
            shape=self.shape,
            x=self.x[:, idx],
            acts=[v[:, idx] for v in self.acts],
            output_preact=self.output_preact[:, idx],
            first_preact=(
                None if self.first_preact is None else self.first_preact[:, idx]
            ),
        )


def _as_cols(x, m0: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != m0:
        raise ShapeError(f"input must be ({m0}, B) sample columns, got {x.shape}")
    return x


def _activate(shape: NetworkShape, l: int, h: np.ndarray, keep_h=False):
    """Layer l's output from its pre-activation h, which must be finite.

    Finiteness is checked over BLOCK-element pieces of h, so no mask of
    h's size is made. Only the output pre-activation is kept by default,
    so a hidden logistic one is overwritten by its activation unless keep_h.
    A linear layer's output is h itself, which nothing writes into.
    """
    if not all(np.isfinite(hb).all() for hb, in _flat_blocks(h)):
        raise NumericError(f"non-finite pre-activation at layer {l}")
    kind = shape.activations[l - 1]
    if kind == LINEAR:
        return h
    if kind == LOGISTIC and l < shape.num_layers and not keep_h:
        return sigmoid(h, out=h)
    return apply_activation(kind, h)


def forward(
    shape: NetworkShape,
    theta,
    x,
    counters: OpCounters | None = None,
    keep_first_preact: bool = False,
) -> ForwardCache:
    """Forward pass caching v_l for every layer and the output's h_L.

    With keep_first_preact the cache also keeps h_1, for forward_low_rank.
    """
    params = unpack(shape, theta)
    cols = _as_cols(x, shape.input_size)
    acts = []
    v = cols
    for l, (w, b) in enumerate(params, start=1):
        h = w @ v
        h += b[:, None]
        if l == 1:
            first = h
        v = _activate(shape, l, h, keep_first_preact and l == 1)
        acts.append(v)
    if counters is not None:
        counters.forward_passes += cols.shape[1]
    return ForwardCache(
        shape=shape, x=cols, acts=acts, output_preact=h,
        first_preact=first if keep_first_preact else None,
    )


def forward_low_rank(
    shape: NetworkShape,
    theta,
    cache: ForwardCache,
    adjoints: list[np.ndarray],
    first_gram: np.ndarray,
    counters: OpCounters | None = None,
) -> ForwardCache:
    """Forward pass over the cache's samples at theta + p, with p low rank.

    p's layer-l blocks are A_l V_{l-1}^T and A_l 1, for the (m_l, B)
    adjoints A_l and the cache's layer inputs V_{l-1} at theta, so the
    pre-activations at theta + p are

        h'_1 = H_1 + A_1 (V_0^T V_0 + 1)
        h'_l = W_l v'_{l-1} + b_l + A_l (V_{l-1}^T v'_{l-1} + 1),  l > 1,

    with H_1 the cache's first_preact (forward with keep_first_preact) and
    first_gram = V_0^T V_0 + 1. The first layer costs m_1 B^2 instead of
    m_1 m_0 B, and no parameter-length vector is formed. It counts as a
    forward pass per column and raises as forward does.
    """
    params = unpack(shape, theta)
    acts = []
    for l, ((w, b), a) in enumerate(zip(params, adjoints), start=1):
        if l == 1:
            h = a @ first_gram
            h += cache.first_preact
        else:
            c = cache.v(l - 1).T @ v
            c += 1.0
            h = w @ v
            h += b[:, None]
            h += a @ c
        v = _activate(shape, l, h)
        acts.append(v)
    if counters is not None:
        counters.forward_passes += cache.ncols
    return ForwardCache(shape=shape, x=cache.x, acts=acts, output_preact=h)
