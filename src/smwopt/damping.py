"""Levenberg-Marquardt damping: reduction ratio and lambda update rule."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .exceptions import ConfigError, NumericError

DEGENERATE_DECREASE = 1e-12


@dataclass(frozen=True)
class DampingState:
    """Adaptive damping lambda = lambda_lm + tau.

    tau > 0 keeps the damped curvature matrix strictly positive definite;
    lambda_lm is multiplied by boost after poor steps and by drop after
    good ones. Defaults follow the usual experiment settings. This is the
    one declaration of these settings: OptimizerConfig.damping holds one,
    and RunConfig's keys of the same names take their defaults from here.
    """

    lambda_lm: float = 1.0
    tau: float = 0.001
    boost: float = 1.01
    drop: float = 0.99
    epsilon: float = 0.25

    def __post_init__(self):
        if not 0.0 <= self.lambda_lm < math.inf:
            raise ConfigError(f"need 0 <= lambda_lm < inf, got {self.lambda_lm}")
        if not 0.0 < self.tau < math.inf:
            raise ConfigError(f"need 0 < tau < inf, got {self.tau}")
        if not 0.0 < self.drop < 1.0 < self.boost < math.inf:
            raise ConfigError("need 0 < drop < 1 < boost < inf")
        if not 0.0 < self.epsilon < 0.5:
            raise ConfigError(f"need 0 < epsilon < 1/2, got {self.epsilon}")

    @property
    def lam(self) -> float:
        return self.lambda_lm + self.tau


@dataclass(frozen=True)
class RhoReport:
    """Actual-versus-model reduction for one trial step."""

    f_before: float
    f_after: float
    model_decrease: float
    rho: float
    degenerate: bool = False


def compute_rho(
    f_before: float, f_after: float, grad_dot: float, quad_term: float
) -> RhoReport:
    """Reduction ratio rho = (f_before - f_after) / (m(0) - m(p)).

    The model decrease is -grad_dot - quad_term / 2. A decrease below
    DEGENERATE_DECREASE flags the step as degenerate with rho = -inf,
    which the update rule treats as a failed step. A non-finite trial
    value f_after is a failed step too (rho = -inf); any other non-finite
    input raises NumericError.
    """
    for name, v in (("f_before", f_before), ("grad_dot", grad_dot),
                    ("quad_term", quad_term)):
        if not math.isfinite(v):
            raise NumericError(f"{name} is not finite: {v}")
    model_decrease = -grad_dot - 0.5 * quad_term
    if model_decrease < DEGENERATE_DECREASE:
        return RhoReport(f_before, f_after, model_decrease, -math.inf, True)
    if not math.isfinite(f_after):
        return RhoReport(f_before, f_after, model_decrease, -math.inf)
    rho = (f_before - f_after) / model_decrease
    return RhoReport(f_before, f_after, model_decrease, rho)


def update_lambda(state: DampingState, rho: float) -> DampingState:
    """Boost lambda_lm when rho < epsilon, drop it when rho > 1 - epsilon.

    Pure: replaying a recorded rho sequence reproduces the lambda
    trajectory exactly. A degenerate rho (-inf) falls in the boost branch.
    A boost that overflows lambda_lm raises NumericError.
    """
    if rho < state.epsilon:
        if state.lambda_lm * state.boost == math.inf:
            raise NumericError(f"boosting lambda_lm {state.lambda_lm} overflows")
        return replace(state, lambda_lm=state.lambda_lm * state.boost)
    if rho > 1.0 - state.epsilon:
        return replace(state, lambda_lm=state.lambda_lm * state.drop)
    return state
