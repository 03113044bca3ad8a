"""Fully-connected feed-forward networks: shapes, parameter layout, forward pass.

forward_low_rank is the forward pass at theta + p for a step p kept as
per-sample adjoints over the samples of a cached forward (the stochastic
Woodbury step's trial point), with no parameter-length vector.

Parameters live in one flat float64 vector theta laid out as
(vec(W1), b1, ..., vec(WL), bL), where vec() stacks the columns of each
weight matrix. Layer l maps v_{l-1} to v_l = act_l(W_l v_{l-1} + b_l).

Samples are the columns of 2-D arrays; one sample is an (m, 1) column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import OpCounters
from .exceptions import NumericError, ShapeError

LINEAR = "linear"
LOGISTIC = "logistic"
SOFTMAX = "softmax"
ACTIVATION_KINDS = (LINEAR, LOGISTIC, SOFTMAX)


@dataclass(frozen=True)
class NetworkShape:
    """Layer widths (m0, ..., mL) and one activation kind per layer 1..L."""

    layer_sizes: tuple[int, ...]
    activations: tuple[str, ...]

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

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def input_size(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_size(self) -> int:
        return self.layer_sizes[-1]

    @property
    def num_params(self) -> int:
        return sum(
            m_out * m_in + m_out
            for m_in, m_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        )

    def param_layout(self) -> list[tuple[slice, slice, int, int]]:
        """Per layer: (weight slice, bias slice, m_out, m_in) into theta."""
        layout = []
        offset = 0
        for m_in, m_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            wsl = slice(offset, offset + m_out * m_in)
            offset += m_out * m_in
            bsl = slice(offset, offset + m_out)
            offset += m_out
            layout.append((wsl, bsl, m_out, m_in))
        return layout


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
    parts = []
    for m_in, m_out in zip(shape.layer_sizes[:-1], shape.layer_sizes[1:]):
        s = 1.0 / np.sqrt(m_in)
        parts.append(rng.uniform(-s, s, size=m_out * m_in))
        parts.append(np.zeros(m_out))
    return np.concatenate(parts)


def sigmoid(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e) for h >= 0 and e / (1 + e) below, with e = exp(-|h|) <= 1.

    Because e <= 1, the numerator max(e, h >= 0) is 1 for h >= 0 and e
    below, exactly. e, and then the result, live in out, a fresh array by
    default; out=h overwrites h with the same bits, as the sign mask is
    taken first.
    """
    positive = h >= 0
    e = np.abs(h, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numerator = np.maximum(e, positive)
    e += 1.0
    return np.divide(numerator, e, out=e)


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


def act_jac_apply(kind: str, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Apply a hidden layer's dv/dh column-wise to u without materializing it.

    Both hidden jacobians are diagonal, so this serves J u and J^T u alike.
    The backprop kernels work in h_L, so the output-only softmax has none.
    """
    if kind == LINEAR:
        return np.array(u, copy=True)
    if kind == LOGISTIC:
        r = 1.0 - v
        r *= v
        # In place only where r * u would come out C-ordered anyway: the
        # result's memory layout steers the BLAS calls that consume it.
        if r.shape == u.shape and r.flags.c_contiguous and u.flags.c_contiguous:
            r *= u
            return r
        return r * u
    raise ShapeError(f"no hidden-layer jacobian for activation kind {kind!r}")


@dataclass
class ForwardCache:
    """Activations from one forward pass and the output pre-activation h_L.

    Arrays are (m_l, B) with samples as columns. first_preact is h_1 when
    the forward kept it for forward_low_rank, else None.
    """

    shape: NetworkShape
    x: np.ndarray
    acts: list[np.ndarray]
    output_preact: np.ndarray
    first_preact: np.ndarray | None = None

    @property
    def ncols(self) -> int:
        return self.x.shape[1]

    @property
    def output(self) -> np.ndarray:
        return self.acts[-1]

    def v(self, l: int) -> np.ndarray:
        """Layer output v_l; v_0 is the network input."""
        return self.x if l == 0 else self.acts[l - 1]

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

    Only the output pre-activation is kept by default, so a hidden
    logistic one is overwritten by its activation unless keep_h.
    """
    if not np.all(np.isfinite(h)):
        raise NumericError(f"non-finite pre-activation at layer {l}")
    kind = shape.activations[l - 1]
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
