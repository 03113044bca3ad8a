"""Matching loss functions and their derivatives w.r.t. the output pre-activation.

Each loss pairs with an output activation so that the gradient and the
Hessian w.r.t. h = h_L take simple closed forms:

    squared_error         (linear):   value ||yhat - y||^2, grad 2(yhat - y), H = 2 I
    binary_cross_entropy  (logistic): grad yhat - y, H = diag(yhat (1 - yhat))
    softmax_cross_entropy (softmax):  grad yhat - y, H = diag(yhat) - yhat yhat^T

All values are nonnegative and every H is symmetric positive semidefinite,
with a closed-form square factor H = C C^T (hessian_factor), the one place
the Hessians are encoded: hessian_apply multiplies by C C^T. Cross-entropy
values use softplus / log-sum-exp of the pre-activations, never clipped
probabilities. Targets are (m_L, B) columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .exceptions import ConfigError, ShapeError
from .network import ForwardCache

SQUARED_ERROR = "squared_error"
BINARY_CROSS_ENTROPY = "binary_cross_entropy"
SOFTMAX_CROSS_ENTROPY = "softmax_cross_entropy"
LOSS_KINDS = (SQUARED_ERROR, BINARY_CROSS_ENTROPY, SOFTMAX_CROSS_ENTROPY)

MATCHING_ACTIVATION = {
    SQUARED_ERROR: network.LINEAR,
    BINARY_CROSS_ENTROPY: network.LOGISTIC,
    SOFTMAX_CROSS_ENTROPY: network.SOFTMAX,
}


@dataclass(frozen=True)
class LossSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ShapeError(f"unknown loss kind: {self.kind!r}")

    def check_matches(self, shape: network.NetworkShape) -> None:
        expected = MATCHING_ACTIVATION[self.kind]
        actual = shape.activations[-1]
        if actual != expected:
            raise ShapeError(
                f"loss {self.kind!r} requires a {expected!r} output layer, "
                f"network has {actual!r}"
            )


def check_targets(spec: LossSpec, y) -> None:
    """Reject targets outside the loss's domain, once per data set.

    y is (m_L, B) target columns. Cross-entropy targets lie in [0, 1], and
    softmax target columns sum to 1.
    """
    cols = np.asarray(y, dtype=np.float64)
    if np.any(np.isnan(cols)):
        raise ConfigError("targets contain NaN")
    if spec.kind in (BINARY_CROSS_ENTROPY, SOFTMAX_CROSS_ENTROPY):
        if np.any(cols < 0.0) or np.any(cols > 1.0):
            raise ConfigError("cross-entropy targets must lie in [0, 1]")
    if spec.kind == SOFTMAX_CROSS_ENTROPY:
        if np.any(np.abs(np.sum(cols, axis=0) - 1.0) > 1e-8):
            raise ConfigError("softmax cross-entropy targets must sum to 1")


def _targets(cache: ForwardCache, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != cache.output.shape:
        raise ShapeError(
            f"targets of shape {y.shape} do not match outputs {cache.output.shape}"
        )
    return y


def _softplus(h: np.ndarray) -> np.ndarray:
    return np.maximum(h, 0.0) + np.log1p(np.exp(-np.abs(h)))


def _logsumexp_cols(h: np.ndarray) -> np.ndarray:
    m = np.max(h, axis=0)
    return m + np.log(np.sum(np.exp(h - m[None, :]), axis=0))


def loss_value(spec: LossSpec, cache: ForwardCache, y) -> np.ndarray:
    """Per-sample losses, one per sample column."""
    t = _targets(cache, y)
    if spec.kind == SQUARED_ERROR:
        return np.sum((cache.output - t) ** 2, axis=0)
    h = cache.output_preact
    if spec.kind == BINARY_CROSS_ENTROPY:
        return np.sum(_softplus(h) - t * h, axis=0)
    return _logsumexp_cols(h) - np.sum(t * h, axis=0)


def loss_grad_h(spec: LossSpec, cache: ForwardCache, y) -> np.ndarray:
    """Gradient of the loss w.r.t. the output pre-activation h_L, per column."""
    t = _targets(cache, y)
    if spec.kind == SQUARED_ERROR:
        return 2.0 * (cache.output - t)
    return cache.output - t


def hessian_apply(
    spec: LossSpec, cache: ForwardCache, u: np.ndarray, factors=None
) -> np.ndarray:
    """Column-wise products H_i u_i = C_i (C_i^T u_i) with the square factors.

    factors is hessian_factor(spec, cache), for a caller that applies the
    same Hessians many times; it is computed here when not given.
    """
    yhat = cache.output
    if u.shape != yhat.shape:
        raise ShapeError(f"operand shape {u.shape} does not match {yhat.shape}")
    c = hessian_factor(spec, cache) if factors is None else factors
    ctu = np.swapaxes(c, 1, 2) @ u.T[:, :, None]
    # Row-major, like every other output-space seed the sweeps read.
    return (c @ ctu)[:, :, 0].T.copy()


def hessian_factor(spec: LossSpec, cache: ForwardCache) -> np.ndarray:
    """Square factors C_i with C_i C_i^T = H_i, shape (B, m_L, m_L).

    Squared error gives sqrt(2) I and the logistic loss
    diag(sqrt(yhat (1 - yhat))); a saturated output gives a zero factor.
    The softmax factor diag(sqrt(yhat)) - yhat sqrt(yhat)^T squares to
    diag(yhat) - yhat yhat^T because the yhat sum to 1.
    """
    yhat = cache.output
    m_out, b = yhat.shape
    if spec.kind == SQUARED_ERROR:
        roots = np.full_like(yhat, np.sqrt(2.0))
    elif spec.kind == BINARY_CROSS_ENTROPY:
        roots = np.sqrt(yhat * (1.0 - yhat))
    else:
        roots = np.sqrt(yhat)
    out = np.zeros((b, m_out, m_out))
    idx = np.arange(m_out)
    out[:, idx, idx] = roots.T
    if spec.kind == SOFTMAX_CROSS_ENTROPY:
        out -= np.einsum("jb,kb->bjk", yhat, roots)
    return out


def error_rate(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean classification error over sample columns.

    Multi-class outputs predict their argmax (ties go to the lowest index);
    a single output row predicts class 1 when it exceeds 0.5.
    """
    if outputs.shape != targets.shape:
        raise ShapeError(
            f"output shape {outputs.shape} != target shape {targets.shape}"
        )
    if outputs.shape[0] == 1:
        pred = (outputs[0] > 0.5).astype(int)
        truth = np.rint(targets[0]).astype(int)
        return float(np.mean(pred != truth))
    return float(np.mean(np.argmax(outputs, axis=0) != np.argmax(targets, axis=0)))
