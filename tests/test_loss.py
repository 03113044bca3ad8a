import math

import numpy as np
import pytest

from smwopt import loss
from smwopt.exceptions import ConfigError
from smwopt.oracles import fd_loss_hessian_h, loss_hessian_h, output_cache

KINDS = loss.LOSS_KINDS


def random_h_y(rng, kind, m=4):
    h = rng.uniform(-3.0, 3.0, size=(m, 1))
    if kind == loss.SQUARED_ERROR:
        y = rng.normal(size=(m, 1))
    elif kind == loss.BINARY_CROSS_ENTROPY:
        y = rng.integers(0, 2, size=(m, 1)).astype(float)
    else:
        y = np.zeros((m, 1))
        y[rng.integers(0, m), 0] = 1.0
    return h, y


class TestValues:
    def test_squared_error_zero_at_fit(self, rng):
        h = rng.normal(size=(3, 1))
        cache = output_cache(loss.SQUARED_ERROR, h)
        assert loss.loss_value(loss.LossSpec(loss.SQUARED_ERROR), cache, h) == 0.0

    def test_bce_at_half(self):
        cache = output_cache(loss.BINARY_CROSS_ENTROPY, np.zeros((1, 1)))
        val = loss.loss_value(
            loss.LossSpec(loss.BINARY_CROSS_ENTROPY), cache, np.ones((1, 1))
        )
        assert abs(val - math.log(2.0)) < 1e-15

    def test_softmax_uniform_ten_classes(self):
        cache = output_cache(loss.SOFTMAX_CROSS_ENTROPY, np.zeros((10, 1)))
        y = np.zeros((10, 1))
        y[3, 0] = 1.0
        val = loss.loss_value(loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY), cache, y)
        assert abs(val - math.log(10.0)) < 1e-14

    def test_nan_target_rejected(self):
        with pytest.raises(ConfigError):
            loss.check_targets(
                loss.LossSpec(loss.SQUARED_ERROR), np.array([[np.nan], [0.0]])
            )

    @pytest.mark.parametrize(
        "kind,y",
        [
            (loss.BINARY_CROSS_ENTROPY, [[0.0, 2.0]]),
            (loss.SOFTMAX_CROSS_ENTROPY, [[-0.5, 0.0], [1.5, 1.0]]),
            (loss.SOFTMAX_CROSS_ENTROPY, [[0.5, 0.0], [0.4, 1.0]]),
        ],
    )
    def test_out_of_domain_targets_rejected(self, kind, y):
        with pytest.raises(ConfigError):
            loss.check_targets(loss.LossSpec(kind), np.array(y))
        loss.check_targets(loss.LossSpec(loss.SQUARED_ERROR), np.array(y))

    def test_values_nonnegative(self, rng):
        for kind in KINDS:
            for _ in range(20):
                h, y = random_h_y(rng, kind)
                val = loss.loss_value(loss.LossSpec(kind), output_cache(kind, h), y)
                assert val >= 0.0


class TestGradients:
    def test_squared_error_zero_at_fit(self, rng):
        h = rng.normal(size=(3, 1))
        cache = output_cache(loss.SQUARED_ERROR, h)
        g = loss.loss_grad_h(loss.LossSpec(loss.SQUARED_ERROR), cache, h)
        assert np.array_equal(g, np.zeros((3, 1)))

    def test_softmax_example(self):
        cache = output_cache(loss.SOFTMAX_CROSS_ENTROPY, np.zeros((2, 1)))
        g = loss.loss_grad_h(
            loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY),
            cache,
            np.array([[1.0], [0.0]]),
        )
        assert np.max(np.abs(g[:, 0] - np.array([-0.5, 0.5]))) < 1e-15

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_finite_differences(self, kind, rng):
        spec = loss.LossSpec(kind)
        step = 1e-6
        for _ in range(100):
            h, y = random_h_y(rng, kind)
            g = loss.loss_grad_h(spec, output_cache(kind, h), y)
            fd = np.zeros_like(h)
            for k in range(h.size):
                hp, hm = h.copy(), h.copy()
                hp[k] += step
                hm[k] -= step
                fd[k] = (
                    loss.loss_value(spec, output_cache(kind, hp), y)
                    - loss.loss_value(spec, output_cache(kind, hm), y)
                ) / (2 * step)
            assert np.max(np.abs(g - fd) / (1.0 + np.abs(fd))) < 1e-6


class TestHessians:
    def test_squared_error_closed_form(self, rng):
        cache = output_cache(loss.SQUARED_ERROR, rng.normal(size=(3, 1)))
        hess = loss_hessian_h(loss.LossSpec(loss.SQUARED_ERROR), cache)[0]
        assert np.array_equal(hess, 2.0 * np.eye(3))

    def test_bce_at_half(self):
        cache = output_cache(loss.BINARY_CROSS_ENTROPY, np.zeros((3, 1)))
        hess = loss_hessian_h(loss.LossSpec(loss.BINARY_CROSS_ENTROPY), cache)[0]
        assert np.max(np.abs(hess - 0.25 * np.eye(3))) < 1e-15

    def test_softmax_uniform(self):
        cache = output_cache(loss.SOFTMAX_CROSS_ENTROPY, np.zeros((2, 1)))
        hess = loss_hessian_h(loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY), cache)[0]
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert np.max(np.abs(hess - expected)) < 1e-15

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_finite_differences_of_gradient(self, kind, rng):
        spec = loss.LossSpec(kind)
        for _ in range(100):
            h, y = random_h_y(rng, kind)
            hess = loss_hessian_h(spec, output_cache(kind, h))[0]
            fd = fd_loss_hessian_h(spec, h, y)
            assert np.max(np.abs(hess - fd)) < 1e-5

    @pytest.mark.parametrize("kind", KINDS)
    def test_symmetric_psd(self, kind, rng):
        spec = loss.LossSpec(kind)
        for _ in range(30):
            h, y = random_h_y(rng, kind)
            hess = loss_hessian_h(spec, output_cache(kind, h))[0]
            assert np.max(np.abs(hess - hess.T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(hess)) >= -1e-10

    def test_softmax_annihilates_ones(self, rng):
        spec = loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY)
        for _ in range(30):
            h, _ = random_h_y(rng, loss.SOFTMAX_CROSS_ENTROPY)
            hess = loss_hessian_h(spec, output_cache(spec.kind, h))[0]
            assert np.max(np.abs(hess @ np.ones(h.size))) <= 1e-12

    def test_hessian_apply_matches(self, rng):
        for kind in KINDS:
            spec = loss.LossSpec(kind)
            h = rng.normal(size=(4, 3))
            cache = output_cache(kind, h)
            u = rng.normal(size=(4, 3))
            out = loss.hessian_apply(spec, cache, u)
            hs = loss_hessian_h(spec, cache)
            for i in range(3):
                assert np.max(np.abs(out[:, i] - hs[i] @ u[:, i])) < 1e-14


class TestHessianFactor:
    @staticmethod
    def factor_error(kind, h):
        spec = loss.LossSpec(kind)
        cache = output_cache(kind, h)
        c = loss.hessian_factor(spec, cache)
        hs = loss_hessian_h(spec, cache)
        return np.max(np.abs(c @ c.transpose(0, 2, 1) - hs))

    @pytest.mark.parametrize("kind", KINDS)
    def test_squares_to_hessian(self, kind, rng):
        for _ in range(30):
            assert self.factor_error(kind, rng.uniform(-3.0, 3.0, size=(4, 3))) <= 1e-12

    @pytest.mark.parametrize(
        "kind,h",
        [
            # yhat = 1 exactly in the first column: the factor is zero there.
            (loss.BINARY_CROSS_ENTROPY, [[800.0, 0.5]]),
            (loss.SOFTMAX_CROSS_ENTROPY, [[40.0, -3.0], [0.0, 30.0], [-5.0, 0.0]]),
        ],
        ids=["saturated_bce", "near_one_hot_softmax"],
    )
    def test_squares_to_hessian_at_extreme_outputs(self, kind, h):
        assert self.factor_error(kind, np.array(h)) <= 1e-12


class TestClassificationError:
    def test_correct(self):
        assert loss.error_rate(np.array([[0.1], [0.9]]), np.array([[0.0], [1.0]])) == 0

    def test_tie_predicts_lowest_index(self):
        assert loss.error_rate(np.array([[0.5], [0.5]]), np.array([[0.0], [1.0]])) == 1

    def test_binary_threshold(self):
        assert loss.error_rate(np.array([[0.4]]), np.array([[1.0]])) == 1
        assert loss.error_rate(np.array([[0.6]]), np.array([[1.0]])) == 0
        assert loss.error_rate(np.array([[0.5]]), np.array([[0.0]])) == 0

    def test_error_rate(self):
        outputs = np.array([[0.9, 0.2, 0.5], [0.1, 0.8, 0.5]])
        targets = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        assert loss.error_rate(outputs, targets) == pytest.approx(1.0 / 3.0)
