import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smwopt import damping
from smwopt.exceptions import ConfigError, NumericError


class TestComputeRho:
    def test_exact_quadratic_gives_one(self, rng):
        # For f quadratic with curvature B, f(x+p) - f(x) = g.p + p^T B p / 2.
        a = rng.normal(size=(4, 4))
        b_mat = a.T @ a + np.eye(4)
        center = rng.normal(size=4)
        theta = rng.normal(size=4)

        def f(v):
            d = v - center
            return 0.5 * float(d @ b_mat @ d)

        g = b_mat @ (theta - center)
        p = np.linalg.solve(b_mat + 0.5 * np.eye(4), -g)
        report = damping.compute_rho(
            f(theta), f(theta + p), float(g @ p), float(p @ b_mat @ p)
        )
        assert abs(report.rho - 1.0) <= 1e-12

    def test_no_actual_decrease(self):
        report = damping.compute_rho(1.0, 1.0, -0.2, 0.1)
        assert report.rho == 0.0

    def test_arithmetic_example(self):
        report = damping.compute_rho(1.0, 0.9, -0.15, 0.1)
        assert report.model_decrease == pytest.approx(0.1)
        assert report.rho == pytest.approx(1.0)

    def test_degenerate_flags_failed_step(self):
        report = damping.compute_rho(1.0, 0.5, 0.0, 0.0)
        assert report.degenerate
        assert report.rho == -math.inf

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            damping.compute_rho(math.nan, 1.0, -1.0, 0.5)

    @pytest.mark.parametrize("f_after", [math.inf, math.nan])
    def test_nonfinite_trial_is_failed_step(self, f_after):
        report = damping.compute_rho(1.0, f_after, -1.0, 0.5)
        assert report.rho == -math.inf
        assert not report.degenerate
        state = damping.DampingState(lambda_lm=1.0)
        assert damping.update_lambda(state, report.rho).lambda_lm == pytest.approx(1.01)


class TestUpdateLambda:
    def test_boost(self):
        state = damping.DampingState(lambda_lm=1.0)
        assert damping.update_lambda(state, 0.1).lambda_lm == pytest.approx(1.01)

    def test_drop(self):
        state = damping.DampingState(lambda_lm=1.0)
        assert damping.update_lambda(state, 0.9).lambda_lm == pytest.approx(0.99)

    def test_middle_band_unchanged(self):
        state = damping.DampingState(lambda_lm=1.0)
        assert damping.update_lambda(state, 0.5) is state

    def test_degenerate_boosts(self):
        state = damping.DampingState(lambda_lm=2.0)
        out = damping.update_lambda(state, -math.inf)
        assert out.lambda_lm == pytest.approx(2.0 * 1.01)

    def test_lambda_stays_above_tau(self):
        state = damping.DampingState(lambda_lm=1.0, tau=0.001)
        for rho in (0.9,) * 500:
            state = damping.update_lambda(state, rho)
        assert state.lam >= state.tau

    def test_invalid_states(self):
        with pytest.raises(ConfigError):
            damping.DampingState(lambda_lm=-1.0)
        with pytest.raises(ConfigError):
            damping.DampingState(tau=0.0)
        with pytest.raises(ConfigError):
            damping.DampingState(boost=0.9)
        with pytest.raises(ConfigError):
            damping.DampingState(epsilon=0.6)

    @pytest.mark.parametrize(
        "name, value",
        [("drop", -1.0), ("lambda_lm", math.nan), ("tau", math.inf), ("boost", math.inf)],
    )
    def test_rejects_values_outside_the_damping_rules(self, name, value):
        with pytest.raises(ConfigError):
            damping.DampingState(**{name: value})

    def test_boost_overflow_is_a_numeric_failure(self):
        state = damping.DampingState(lambda_lm=1e308, boost=10.0)
        with pytest.raises(NumericError):
            damping.update_lambda(state, -math.inf)


@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=60))
@settings(max_examples=50, deadline=None)
def test_replay_reproduces_trajectory(rhos):
    first = damping.DampingState()
    second = damping.DampingState()
    trajectory = []
    for rho in rhos:
        first = damping.update_lambda(first, rho)
        trajectory.append(first.lambda_lm)
    for rho, expected in zip(rhos, trajectory):
        second = damping.update_lambda(second, rho)
        assert second.lambda_lm == expected


def test_quadratic_objective_drops_lambda_geometrically(rng):
    """With the exact curvature, every step has rho = 1 and lambda decays."""
    a = rng.normal(size=(5, 5))
    b_mat = a.T @ a + np.eye(5)
    center = rng.normal(size=5)
    theta = rng.normal(size=5)

    def f(v):
        d = v - center
        return 0.5 * float(d @ b_mat @ d)

    state = damping.DampingState(lambda_lm=1.0)
    lambdas = []
    for _ in range(12):
        g = b_mat @ (theta - center)
        p = np.linalg.solve(b_mat + state.lam * np.eye(5), -g)
        report = damping.compute_rho(
            f(theta), f(theta + p), float(g @ p), float(p @ b_mat @ p)
        )
        assert abs(report.rho - 1.0) <= 1e-12
        state = damping.update_lambda(state, report.rho)
        lambdas.append(state.lambda_lm)
        theta = theta + p
    expected = 1.0 * 0.99 ** np.arange(1, 13)
    assert np.max(np.abs(np.array(lambdas) - expected)) < 1e-12
