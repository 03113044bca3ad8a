import numpy as np
import pytest

from smwopt import curvature, diff, loss, network, oracles, solver
from smwopt.counters import OpCounters
from smwopt.exceptions import ConfigError, ShapeError
from smwopt.oracles import make_net, random_targets


def build_instance(rng, kind, method, nb=4, hidden=None):
    shape, spec, theta = make_net(rng, kind, hidden=hidden or [5, 4])
    x = rng.normal(size=(shape.input_size, nb))
    y = random_targets(rng, kind, shape.output_size, nb)
    cache = network.forward(shape, theta, x)
    g, gfactors = diff.gradient(shape, theta, cache, y, spec)
    return shape, spec, theta, x, y, cache, g, gfactors


def build_system(shape, theta, cache, y, spec, gfactors, lam, method):
    if method == curvature.NG:
        return curvature.build_ng_system(gfactors, lam)
    return curvature.build_gn_system(shape, theta, cache, y, spec, lam)


class TestSmwDirection:
    def test_zero_gradient(self, rng):
        shape = network.NetworkShape((3, 2), ("linear",))
        theta = network.init_theta(shape, rng)
        x = rng.normal(size=(3, 2))
        cache = network.forward(shape, theta, x)
        y = cache.output.copy()
        spec = loss.LossSpec(loss.SQUARED_ERROR)
        g, gfactors = diff.gradient(shape, theta, cache, y, spec)
        assert np.array_equal(g, np.zeros(shape.num_params))
        for method in (curvature.GN, curvature.NG):
            system = build_system(shape, theta, cache, y, spec, gfactors, 0.5, method)
            res = solver.smw_direction(shape, theta, system, g)
            assert np.array_equal(res.p, np.zeros(shape.num_params))
            assert res.grad_dot == res.quad_term == 0.0

    def test_zero_jacobian_degenerates_to_scaled_gradient(self, rng):
        # A saturated logistic output zeroes the activation jacobian, hence J.
        shape = network.NetworkShape((2, 1), ("logistic",))
        theta = network.pack(shape, [(np.zeros((1, 2)), np.array([800.0]))])
        cache = network.forward(shape, theta, np.ones((2, 3)))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        y = np.zeros((1, 3))
        g, gfactors = diff.gradient(shape, theta, cache, y, spec)
        assert np.linalg.norm(g) > 0
        lam = 2.0
        system = curvature.build_gn_system(shape, theta, cache, y, spec, lam)
        res = solver.smw_direction(shape, theta, system, g)
        assert np.max(np.abs(res.p + g / lam)) < 1e-12

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    @pytest.mark.parametrize("method", (curvature.GN, curvature.NG))
    def test_matches_dense_oracle(self, kind, method, rng):
        # 3 instances x 3 damping levels per (kind, method): 54 solves total.
        for _ in range(3):
            shape, spec, theta, x, y, cache, g, gfactors = build_instance(
                rng, kind, method, nb=4, hidden=[8, 7]
            )
            for lam in (1e-3, 1.0, 1e3):
                system = build_system(
                    shape, theta, cache, y, spec, gfactors, lam, method
                )
                res = solver.smw_direction(shape, theta, system, g)
                oracle = oracles.dense_direction_oracle(
                    shape, theta, x, y, spec, lam, method,
                    hessian_shift=system.hessian_shift,
                )
                scale = float(np.max(np.abs(oracle.p))) + 1e-300
                assert np.max(np.abs(res.p - oracle.p)) <= 1e-9 * scale
                b_mat, _ = oracles.build_curvature_matrix(
                    shape, theta, x, y, spec, method,
                    hessian_shift=system.hessian_shift,
                )
                residual = b_mat @ res.p + lam * res.p + g
                assert np.linalg.norm(residual) <= 1e-8 * (
                    1.0 + np.linalg.norm(g)
                )

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    @pytest.mark.parametrize("method", (curvature.GN, curvature.NG))
    def test_descent_direction(self, kind, method, rng):
        for _ in range(5):
            shape, spec, theta, x, y, cache, g, gfactors = build_instance(
                rng, kind, method
            )
            if np.linalg.norm(g) == 0.0:
                continue
            system = build_system(shape, theta, cache, y, spec, gfactors, 0.01, method)
            res = solver.smw_direction(shape, theta, system, g)
            assert res.grad_dot < 0.0
            assert res.quad_term >= -1e-10

    def test_forced_spd_softmax_matches_shifted_dense(self, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SOFTMAX_CROSS_ENTROPY, curvature.GN, nb=3, hidden=[4]
        )
        lam = 0.25
        system = curvature.build_gn_system(
            shape, theta, cache, y, spec, lam, path=curvature.PATH_SPD
        )
        res = solver.smw_direction(shape, theta, system, g)
        oracle = oracles.dense_direction_oracle(
            shape, theta, x, y, spec, lam, curvature.GN,
            hessian_shift=spec.softmax_perturbation,
        )
        scale = float(np.max(np.abs(oracle.p))) + 1e-300
        assert np.max(np.abs(res.p - oracle.p)) <= 1e-9 * scale

    def test_woodbury_inverse_reconstruction(self, rng):
        """lam I + B applied densely inverts the reconstructed inverse."""
        for kind, method in (
            (loss.SQUARED_ERROR, curvature.GN),
            (loss.SOFTMAX_CROSS_ENTROPY, curvature.GN),
            (loss.BINARY_CROSS_ENTROPY, curvature.NG),
        ):
            shape, spec, theta, x, y, cache, g, gfactors = build_instance(
                rng, kind, method, nb=3, hidden=[4]
            )
            lam = 0.3
            system = build_system(shape, theta, cache, y, spec, gfactors, lam, method)
            n = shape.num_params
            ginv = np.zeros((n, n))
            for k in range(n):
                e = np.zeros(n)
                e[k] = 1.0
                ginv[:, k] = -solver.smw_direction(shape, theta, system, e).p
            b_mat, _ = oracles.build_curvature_matrix(
                shape, theta, x, y, spec, method,
                hessian_shift=system.hessian_shift,
            )
            dense = b_mat + lam * np.eye(n)
            assert np.max(np.abs(dense @ ginv - np.eye(n))) < 1e-9

    def test_gn_counter_budget(self, rng):
        """One GN direction: n2*m_L factor sweeps, n2 correction sweeps, jvps."""
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SOFTMAX_CROSS_ENTROPY, curvature.GN, nb=4
        )
        counters = OpCounters()
        system = curvature.build_gn_system(
            shape, theta, cache, y, spec, 1.0, counters
        )
        solver.smw_direction(shape, theta, system, g, counters)
        nb, m_out = 4, shape.output_size
        assert counters.vjp_products == nb * m_out + nb
        assert counters.jvp_products == 2 * nb  # J g plus the quadratic term
        assert counters.forward_passes == counters.backward_passes == 0


class TestDenseOracle:
    def test_large_damping_limit(self, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SQUARED_ERROR, curvature.GN
        )
        lam = 1e8
        res = oracles.dense_direction_oracle(shape, theta, x, y, spec, lam)
        assert np.linalg.norm(res.p + g / lam) <= 1e-6 * np.linalg.norm(g / lam)

    def test_definiteness(self, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.BINARY_CROSS_ENTROPY, curvature.GN
        )
        res = oracles.dense_direction_oracle(shape, theta, x, y, spec, 0.5)
        assert float(g @ res.p) < 0.0

    def test_size_guard(self, rng):
        shape = network.NetworkShape((100, 100), ("linear",))
        theta = network.init_theta(shape, rng)
        with pytest.raises(ShapeError):
            oracles.build_curvature_matrix(
                shape, theta, rng.normal(size=(100, 2)),
                rng.normal(size=(100, 2)), loss.LossSpec(loss.SQUARED_ERROR),
                curvature.GN,
            )


class TestHfCg:
    def test_zero_jacobian_one_iteration(self, rng):
        shape = network.NetworkShape((2, 1), ("logistic",))
        theta = network.pack(shape, [(np.zeros((1, 2)), np.array([800.0]))])
        cache = network.forward(shape, theta, np.ones((2, 3)))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        y = np.zeros((1, 3))
        g, _ = diff.gradient(shape, theta, cache, y, spec)
        lam = 2.0
        res = solver.hf_cg_direction(
            shape, theta, cache, y, spec, lam, solver.CgConfig(), g
        )
        assert np.max(np.abs(res.p + g / lam)) < 1e-12

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_tight_tolerance_matches_dense(self, kind, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, kind, curvature.GN, nb=3, hidden=[4]
        )
        lam = 0.5
        cfg = solver.CgConfig(max_iters=shape.num_params, rel_residual_tol=1e-12)
        res = solver.hf_cg_direction(shape, theta, cache, y, spec, lam, cfg, g)
        oracle = oracles.dense_direction_oracle(shape, theta, x, y, spec, lam)
        assert np.max(np.abs(res.p - oracle.p)) <= 1e-8 * (
            1.0 + np.max(np.abs(oracle.p))
        )

    def test_single_iteration_is_scaled_steepest_descent(self, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SQUARED_ERROR, curvature.GN
        )
        lam = 0.5
        cfg = solver.CgConfig(max_iters=1, rel_residual_tol=1e-300)
        res = solver.hf_cg_direction(shape, theta, cache, y, spec, lam, cfg, g)
        b_mat, _ = oracles.build_curvature_matrix(
            shape, theta, x, y, spec, curvature.GN
        )
        alpha = float(g @ g) / float(g @ (b_mat + lam * np.eye(g.size)) @ g)
        assert np.max(np.abs(res.p + alpha * g)) < 1e-10

    def test_descent_at_default_tolerance(self, rng):
        for kind in loss.LOSS_KINDS:
            shape, spec, theta, x, y, cache, g, gfactors = build_instance(
                rng, kind, curvature.GN
            )
            res = solver.hf_cg_direction(
                shape, theta, cache, y, spec, 0.1, solver.CgConfig(), g
            )
            assert float(g @ res.p) < 0.0

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            solver.CgConfig(max_iters=0)
        with pytest.raises(ConfigError):
            solver.CgConfig(rel_residual_tol=0.0)


class TestQuadraticTerms:
    def test_zero_direction(self, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SQUARED_ERROR, curvature.GN
        )
        system = curvature.build_gn_system(shape, theta, cache, y, spec, 1.0)
        grad_dot, quad = solver.quadratic_terms(
            shape, theta, system, g, np.zeros_like(g)
        )
        assert grad_dot == quad == 0.0

    @pytest.mark.parametrize("method", (curvature.GN, curvature.NG))
    def test_matches_dense_quadratic(self, method, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SQUARED_ERROR, method
        )
        system = build_system(shape, theta, cache, y, spec, gfactors, 1.0, method)
        p = rng.normal(size=shape.num_params)
        _, quad = solver.quadratic_terms(shape, theta, system, g, p)
        b_mat, _ = oracles.build_curvature_matrix(shape, theta, x, y, spec, method)
        assert abs(quad - float(p @ b_mat @ p)) <= 1e-10 * (1.0 + abs(quad))

    def test_ng_sum_of_squares(self, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.BINARY_CROSS_ENTROPY, curvature.NG
        )
        system = curvature.build_ng_system(gfactors, 1.0)
        p = rng.normal(size=shape.num_params)
        _, quad = solver.quadratic_terms(shape, theta, system, g, p)
        dots = gfactors.dots_with(p)
        assert quad >= 0.0
        assert abs(quad - float(np.mean(dots**2))) < 1e-12 * (1.0 + quad)


def test_model_decrease_bound(rng):
    """m(0) - m(p) >= tau / (beta + tau) * ||g|| * ||p|| on dense instances."""
    for kind in loss.LOSS_KINDS:
        for method in (curvature.GN, curvature.NG):
            shape, spec, theta, x, y, cache, g, gfactors = build_instance(
                rng, kind, method, nb=3, hidden=[4]
            )
            if np.linalg.norm(g) == 0.0:
                continue
            for lam in (1e-3, 1.0):
                system = build_system(
                    shape, theta, cache, y, spec, gfactors, lam, method
                )
                res = solver.smw_direction(shape, theta, system, g)
                b_mat, _ = oracles.build_curvature_matrix(
                    shape, theta, x, y, spec, method,
                    hessian_shift=system.hessian_shift,
                )
                beta = float(np.max(np.linalg.eigvalsh(b_mat)))
                tau = lam
                c1 = tau / (beta + tau)
                decrease = -res.grad_dot - 0.5 * res.quad_term
                floor = c1 * float(np.linalg.norm(g)) * float(np.linalg.norm(res.p))
                assert decrease >= floor - 1e-12 * (1.0 + abs(floor))
