import math

import numpy as np
import pytest

from smwopt import loss
from smwopt.oracles import fd_loss_hessian_h, output_cache

KINDS = loss.LOSS_KINDS


def random_h_y(rng, kind, m=4):
    h = rng.uniform(-3.0, 3.0, size=m)
    if kind == loss.SQUARED_ERROR:
        y = rng.normal(size=m)
    elif kind == loss.BINARY_CROSS_ENTROPY:
        y = rng.integers(0, 2, size=m).astype(float)
    else:
        y = np.zeros(m)
        y[rng.integers(0, m)] = 1.0
    return h, y


class TestValues:
    def test_squared_error_zero_at_fit(self, rng):
        h = rng.normal(size=3)
        cache = output_cache(loss.SQUARED_ERROR, h)
        assert loss.loss_value(loss.LossSpec(loss.SQUARED_ERROR), cache, h) == 0.0

    def test_bce_at_half(self):
        cache = output_cache(loss.BINARY_CROSS_ENTROPY, np.zeros(1))
        val = loss.loss_value(
            loss.LossSpec(loss.BINARY_CROSS_ENTROPY), cache, np.ones(1)
        )
        assert abs(val - math.log(2.0)) < 1e-15

    def test_softmax_uniform_ten_classes(self):
        cache = output_cache(loss.SOFTMAX_CROSS_ENTROPY, np.zeros(10))
        y = np.zeros(10)
        y[3] = 1.0
        val = loss.loss_value(loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY), cache, y)
        assert abs(val - math.log(10.0)) < 1e-14

    def test_nan_target_rejected(self):
        cache = output_cache(loss.SQUARED_ERROR, np.zeros(2))
        with pytest.raises(ValueError):
            loss.loss_value(
                loss.LossSpec(loss.SQUARED_ERROR), cache, np.array([np.nan, 0.0])
            )

    def test_values_nonnegative(self, rng):
        for kind in KINDS:
            for _ in range(20):
                h, y = random_h_y(rng, kind)
                val = loss.loss_value(loss.LossSpec(kind), output_cache(kind, h), y)
                assert val >= 0.0


class TestGradients:
    def test_squared_error_zero_at_fit(self, rng):
        h = rng.normal(size=3)
        cache = output_cache(loss.SQUARED_ERROR, h)
        g = loss.loss_grad_h(loss.LossSpec(loss.SQUARED_ERROR), cache, h)
        assert np.array_equal(g, np.zeros(3))

    def test_softmax_example(self):
        cache = output_cache(loss.SOFTMAX_CROSS_ENTROPY, np.zeros(2))
        g = loss.loss_grad_h(
            loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY),
            cache,
            np.array([1.0, 0.0]),
        )
        assert np.max(np.abs(g - np.array([-0.5, 0.5]))) < 1e-15

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
        cache = output_cache(loss.SQUARED_ERROR, rng.normal(size=3))
        hess = loss.loss_hessian_h(loss.LossSpec(loss.SQUARED_ERROR), cache)
        assert np.array_equal(hess, 2.0 * np.eye(3))

    def test_bce_at_half(self):
        cache = output_cache(loss.BINARY_CROSS_ENTROPY, np.zeros(3))
        hess = loss.loss_hessian_h(loss.LossSpec(loss.BINARY_CROSS_ENTROPY), cache)
        assert np.max(np.abs(hess - 0.25 * np.eye(3))) < 1e-15

    def test_softmax_uniform(self):
        cache = output_cache(loss.SOFTMAX_CROSS_ENTROPY, np.zeros(2))
        hess = loss.loss_hessian_h(loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY), cache)
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        assert np.max(np.abs(hess - expected)) < 1e-15

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_finite_differences_of_gradient(self, kind, rng):
        spec = loss.LossSpec(kind)
        for _ in range(100):
            h, y = random_h_y(rng, kind)
            hess = loss.loss_hessian_h(spec, output_cache(kind, h), y)
            fd = fd_loss_hessian_h(spec, h, y)
            assert np.max(np.abs(hess - fd)) < 1e-5

    @pytest.mark.parametrize("kind", KINDS)
    def test_symmetric_psd(self, kind, rng):
        spec = loss.LossSpec(kind)
        for _ in range(30):
            h, y = random_h_y(rng, kind)
            hess = loss.loss_hessian_h(spec, output_cache(kind, h), y)
            assert np.max(np.abs(hess - hess.T)) <= 1e-10
            assert np.min(np.linalg.eigvalsh(hess)) >= -1e-10

    def test_softmax_annihilates_ones(self, rng):
        spec = loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY)
        for _ in range(30):
            h, _ = random_h_y(rng, loss.SOFTMAX_CROSS_ENTROPY)
            hess = loss.loss_hessian_h(spec, output_cache(spec.kind, h))
            assert np.max(np.abs(hess @ np.ones(h.size))) <= 1e-12

    def test_hessian_apply_matches(self, rng):
        for kind in KINDS:
            spec = loss.LossSpec(kind)
            h = rng.normal(size=(4, 3))
            cache = output_cache(kind, h)
            u = rng.normal(size=(4, 3))
            out = loss.hessian_apply(spec, cache, u)
            hs = loss.loss_hessian_h(spec, cache)
            for i in range(3):
                assert np.max(np.abs(out[:, i] - hs[i] @ u[:, i])) < 1e-14


class TestHessianInverse:
    def test_squared_error(self, rng):
        cache = output_cache(loss.SQUARED_ERROR, rng.normal(size=3))
        inv = loss.hessian_inverse(loss.LossSpec(loss.SQUARED_ERROR), cache)
        assert np.array_equal(inv, 0.5 * np.eye(3))

    def test_bce_at_half(self):
        cache = output_cache(loss.BINARY_CROSS_ENTROPY, np.zeros(3))
        inv = loss.hessian_inverse(loss.LossSpec(loss.BINARY_CROSS_ENTROPY), cache)
        assert np.max(np.abs(inv - 4.0 * np.eye(3))) < 1e-12

    def test_bce_saturated_errors(self):
        cache = output_cache(loss.BINARY_CROSS_ENTROPY, np.array([800.0]))
        assert cache.output[0, 0] == 1.0
        with pytest.raises(ArithmeticError):
            loss.hessian_inverse(loss.LossSpec(loss.BINARY_CROSS_ENTROPY), cache)

    def test_bce_floor(self):
        cache = output_cache(loss.BINARY_CROSS_ENTROPY, np.array([800.0]))
        inv = loss.hessian_inverse(
            loss.LossSpec(loss.BINARY_CROSS_ENTROPY), cache, floor=1e-12
        )
        assert inv[0, 0] == 1e12

    def test_softmax_needs_perturbation(self):
        cache = output_cache(loss.SOFTMAX_CROSS_ENTROPY, np.zeros(2))
        spec = loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY, softmax_perturbation=0.0)
        with pytest.raises(ArithmeticError):
            loss.hessian_inverse(spec, cache)

    def test_softmax_against_dense_inverse(self):
        cache = output_cache(loss.SOFTMAX_CROSS_ENTROPY, np.zeros(2))
        spec = loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY, softmax_perturbation=0.01)
        inv = loss.hessian_inverse(spec, cache)
        dense = np.linalg.inv(np.array([[0.26, -0.25], [-0.25, 0.26]]))
        assert np.max(np.abs(inv - dense)) < 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_product_with_perturbed_hessian_is_identity(self, kind, rng):
        spec = loss.LossSpec(kind, softmax_perturbation=1e-4)
        for _ in range(20):
            h, y = random_h_y(rng, kind)
            cache = output_cache(kind, h)
            inv = loss.hessian_inverse(spec, cache)
            hess = loss.loss_hessian_h(spec, cache, y)
            if kind == loss.SOFTMAX_CROSS_ENTROPY:
                hess = hess + spec.softmax_perturbation * np.eye(h.size)
            assert np.max(np.abs(inv @ hess - np.eye(h.size))) <= 1e-9


class TestClassificationError:
    def test_correct(self):
        assert loss.classification_error([0.1, 0.9], [0.0, 1.0]) == 0

    def test_tie_predicts_lowest_index(self):
        assert loss.classification_error([0.5, 0.5], [0.0, 1.0]) == 1

    def test_binary_threshold(self):
        assert loss.classification_error(0.4, 1.0) == 1
        assert loss.classification_error(0.6, 1.0) == 0
        assert loss.classification_error(0.5, 0.0) == 0

    def test_error_rate(self):
        outputs = np.array([[0.9, 0.2, 0.5], [0.1, 0.8, 0.5]])
        targets = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
        assert loss.error_rate(outputs, targets) == pytest.approx(1.0 / 3.0)
