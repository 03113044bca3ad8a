import numpy as np
import pytest

from smwopt import curvature, diff, linalg, loss, network, oracles, solver
from smwopt.counters import OpCounters
from smwopt.exceptions import ConfigError, NumericError, ShapeError
from smwopt.oracles import make_net, random_targets, wider_batch_instance


def build_instance(rng, kind, method, nb=4, hidden=None):
    shape, spec, theta = make_net(rng, kind, hidden=hidden or [5, 4])
    x = rng.normal(size=(shape.input_size, nb))
    y = random_targets(rng, kind, shape.output_size, nb)
    cache = network.forward(shape, theta, x)
    g, gfactors = diff.gradient(shape, theta, cache, y, spec)
    return shape, spec, theta, x, y, cache, g, gfactors


def build_system(shape, theta, cache, spec, gfactors, lam, method):
    if method == curvature.NG:
        return curvature.build_ng_system(gfactors, lam)
    return curvature.build_gn_system(shape, theta, cache, spec, lam)


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
            system = build_system(shape, theta, cache, spec, gfactors, 0.5, method)
            res = solver.smw_direction(shape, theta, system, g)
            assert np.array_equal(res.p, np.zeros(shape.num_params))
            assert res.grad_dot == res.quad_term == 0.0

    def test_zero_jacobian_degenerates_to_scaled_gradient(self, rng):
        # A saturated logistic output zeroes the activation jacobian, hence J.
        shape = network.NetworkShape((2, 1), ("logistic",))
        theta = oracles.pack(shape, [(np.zeros((1, 2)), np.array([800.0]))])
        cache = network.forward(shape, theta, np.ones((2, 3)))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        y = np.zeros((1, 3))
        g, gfactors = diff.gradient(shape, theta, cache, y, spec)
        assert np.linalg.norm(g) > 0
        lam = 2.0
        system = curvature.build_gn_system(shape, theta, cache, spec, lam)
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
                    shape, theta, cache, spec, gfactors, lam, method
                )
                res = solver.smw_direction(shape, theta, system, g)
                oracle = oracles.dense_direction_oracle(
                    shape, theta, x, y, spec, lam, method
                )
                scale = float(np.max(np.abs(oracle.p))) + 1e-300
                assert np.max(np.abs(res.p - oracle.p)) <= 1e-9 * scale
                b_mat, _ = oracles.build_curvature_matrix(
                    shape, theta, x, y, spec, method
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
            system = build_system(shape, theta, cache, spec, gfactors, 0.01, method)
            res = solver.smw_direction(shape, theta, system, g)
            assert res.grad_dot < 0.0
            assert res.quad_term >= -1e-10

    @pytest.mark.parametrize(
        "kind,expected", [(kind, ["cholesky"]) for kind in loss.LOSS_KINDS]
    )
    def test_one_core_factorization(self, kind, expected, rng, monkeypatch):
        """A GN direction factors its core once and no loss Hessian.

        The core is solved only through the factor: no LAPACK solve sees a
        matrix wider than a triangular leaf, so no LU of the core is made,
        also below REFINE_LAMBDA where refinement solves the core again.
        """
        shape, spec, theta = make_net(rng, kind, hidden=[4], m_out=10)
        nb = 30
        x = rng.normal(size=(shape.input_size, nb))
        y = random_targets(rng, kind, shape.output_size, nb)
        cache = network.forward(shape, theta, x)
        g, _ = diff.gradient(shape, theta, cache, y, spec)
        cholesky, dense_solve = linalg.cholesky, np.linalg.solve
        for lam in (1.0, 1e-10):
            calls, solved = [], []

            def spy_cholesky(a):
                calls.append("cholesky")
                return cholesky(a)

            def spy_solve(a, b):
                solved.append(len(a))
                return dense_solve(a, b)

            monkeypatch.setattr(linalg, "cholesky", spy_cholesky)
            monkeypatch.setattr(np.linalg, "solve", spy_solve)
            system = curvature.build_gn_system(shape, theta, cache, spec, lam)
            solver.smw_direction(shape, theta, system, g)
            monkeypatch.undo()
            assert calls == expected
            assert system.core.shape == (nb * shape.output_size,) * 2
            assert solved and max(solved) <= linalg.LEAF_ROWS

    @pytest.mark.parametrize("method", (curvature.GN, curvature.NG))
    def test_inputs_unchanged(self, method, rng):
        """In-place kernels write only to buffers the direction owns."""
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SOFTMAX_CROSS_ENTROPY, method, nb=5
        )
        arrays = [theta, g, cache.x, cache.output_preact, *cache.acts]
        arrays += gfactors.layer_adjoints
        before = [a.tobytes() for a in arrays]
        for lam in (1.0, 1e-10):
            system = build_system(shape, theta, cache, spec, gfactors, lam, method)
            core = system.core.tobytes()
            solver.smw_direction(shape, theta, system, g)
            assert system.core.tobytes() == core
            assert [a.tobytes() for a in arrays] == before

    @pytest.mark.parametrize("method", (curvature.GN, curvature.NG))
    def test_one_dot_sweep_per_direction(self, method, rng, monkeypatch):
        """Without refinement U^T p is not measured: U^T g is the only sweep."""
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SOFTMAX_CROSS_ENTROPY, method
        )
        dots_with = diff.BackpropFactors.dots_with
        sweeps = []

        def spy(factors, packed):
            sweeps.append(len(packed))
            return dots_with(factors, packed)

        monkeypatch.setattr(diff.BackpropFactors, "dots_with", spy)
        for lam in (1e-3, 1.0, 1e3):
            system = build_system(shape, theta, cache, spec, gfactors, lam, method)
            sweeps.clear()
            solver.smw_direction(shape, theta, system, g)
            assert sweeps == [shape.num_params]

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    @pytest.mark.parametrize("method", (curvature.GN, curvature.NG))
    def test_model_term_from_core_vector(self, kind, method, rng):
        """n2 ||q||^2 equals the measured ||U^T p||^2 / n2."""
        for _ in range(3):
            shape, spec, theta, x, y, cache, g, gfactors = build_instance(
                rng, kind, method, hidden=[8, 7]
            )
            for lam in (1.0, 1e3):
                system = build_system(
                    shape, theta, cache, spec, gfactors, lam, method
                )
                res = solver.smw_direction(shape, theta, system, g)
                grad_dot, quad = solver.quadratic_terms(system, g, res.p)
                assert res.grad_dot == grad_dot
                assert abs(res.quad_term - quad) <= 1e-12 * abs(quad)

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
            system = build_system(shape, theta, cache, spec, gfactors, lam, method)
            n = shape.num_params
            ginv = np.zeros((n, n))
            for k in range(n):
                e = np.zeros(n)
                e[k] = 1.0
                ginv[:, k] = -solver.smw_direction(shape, theta, system, e).p
            b_mat, _ = oracles.build_curvature_matrix(
                shape, theta, x, y, spec, method
            )
            dense = b_mat + lam * np.eye(n)
            assert np.max(np.abs(dense @ ginv - np.eye(n))) < 1e-9

    @staticmethod
    def _gn_direction_counts(rng, lam):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SOFTMAX_CROSS_ENTROPY, curvature.GN, nb=4
        )
        counters = OpCounters()
        system = curvature.build_gn_system(
            shape, theta, cache, spec, lam, counters
        )
        solver.smw_direction(shape, theta, system, g, counters)
        assert counters.forward_passes == counters.backward_passes == 0
        return counters, 4, shape.output_size

    def test_gn_counter_budget(self, rng):
        """One GN direction: n2*m_L factor sweeps, n2 correction sweeps, no jvps."""
        counters, nb, m_out = self._gn_direction_counts(rng, 1.0)
        assert counters.vjp_products == nb * m_out + nb
        assert counters.jvp_products == 0

    def test_gn_counter_budget_with_refinement(self, rng):
        """Each refinement round adds one B_t product and one correction sweep."""
        counters, nb, m_out = self._gn_direction_counts(rng, 1e-10)
        assert counters.vjp_products == (
            nb * m_out + nb + 2 * solver.REFINE_ROUNDS * nb
        )
        assert counters.jvp_products == 0


class TestFactoredDirection:
    """The stochastic trainer's direction, with g and p kept as adjoints over
    a gradient batch S1 of 4 samples whose prefix S2 of 2 is the curvature
    batch, against the dense solve over S2 with S1's gradient."""

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    @pytest.mark.parametrize("method", (curvature.GN, curvature.NG))
    def test_matches_dense_oracle(self, kind, method, rng):
        for lam in (1e-3, 1.0, 1e3):
            *_, res, oracle = oracles.factored_case(rng, kind, method, lam)
            assert isinstance(res.p, diff.FactoredVector)
            p = oracle.p
            assert np.max(np.abs(res.p.expand() - p)) <= 1e-9 * np.max(np.abs(p))
            assert res.grad_dot == pytest.approx(oracle.grad_dot, rel=1e-9)
            assert res.quad_term == pytest.approx(oracle.quad_term, rel=1e-9)
            assert res.step_norm == pytest.approx(oracle.step_norm, rel=1e-9)

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    @pytest.mark.parametrize("method", (curvature.GN, curvature.NG))
    def test_refined_residual_at_tiny_lambda(self, kind, method, rng):
        """The residual contract of smw_residual_small_lambda, on g over the
        curvature batch itself. With S1 wider, g has a part outside B_t's
        range and ||p|| ~ ||g|| / lam ~ 1e8, so the rounding of any
        expansion of p alone moves the dense residual to ~1e-6, the packed
        solve's included; S1-wider directions are compared at lam >= 1e-3."""
        lam = 1e-10
        for _ in range(3):
            shape, spec, theta, x, y, cache, _, gfactors = build_instance(
                rng, kind, method, nb=3
            )
            g, _ = diff.gradient(shape, theta, cache, y, spec, factored=True)
            system = build_system(shape, theta, cache, spec, gfactors, lam, method)
            res = solver.factored_direction(shape, theta, system, g)
            b_mat, dense_g = oracles.build_curvature_matrix(
                shape, theta, x, y, spec, method
            )
            p = res.p.expand()
            residual = b_mat @ p + lam * p + dense_g
            assert np.linalg.norm(residual) <= 1e-8 * (1.0 + np.linalg.norm(dense_g))
            assert res.quad_term == pytest.approx(float(p @ b_mat @ p), rel=1e-9)

    @pytest.mark.parametrize("method", (curvature.GN, curvature.NG))
    def test_zero_gradient_gives_zero_direction(self, method, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR, hidden=[4])
        x = rng.normal(size=(shape.input_size, 4))
        cache = network.forward(shape, theta, x)
        y = cache.output.copy()
        g, gfactors = diff.gradient(shape, theta, cache, y, spec, factored=True)
        system = build_system(
            shape, theta, cache.cols([0, 1]), spec, gfactors.cols([0, 1]), 0.5, method
        )
        res = solver.factored_direction(shape, theta, system, g)
        assert all(not a.any() for a in res.p.adjoints)
        assert res.grad_dot == res.quad_term == res.step_norm == 0.0

    @pytest.mark.parametrize("lam", (1.0, 1e-8))
    def test_same_counts_as_the_packed_solve(self, lam, rng):
        shape, spec, theta, x, y, cache, g, _ = build_instance(
            rng, loss.SOFTMAX_CROSS_ENTROPY, curvature.GN
        )
        factored, _ = diff.gradient(shape, theta, cache, y, spec, factored=True)
        system = curvature.build_gn_system(
            shape, theta, cache.cols([0, 1]), spec, lam
        )
        counts, directions = [], []
        for direction, grad in (
            (solver.smw_direction, g), (solver.factored_direction, factored)
        ):
            counters = OpCounters()
            directions.append(direction(shape, theta, system, grad, counters).p)
            counts.append(counters)
        refine = 2 * solver.REFINE_ROUNDS if lam < solver.REFINE_LAMBDA else 0
        assert counts[0] == counts[1] == OpCounters(vjp_products=2 * (1 + refine))
        packed, got = directions[0], directions[1].expand()
        assert np.max(np.abs(got - packed)) <= 1e-12 * np.max(np.abs(packed))


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


def _hf_against_dense(instance, monkeypatch):
    """hf at a tight tolerance on a wider_batch_instance, checked against the
    dense solve; returns the CG vector lengths and np.linalg.qr's operands."""
    shape, spec, theta, cache1, g, x2, y2 = instance
    lengths, qr_calls = [], []
    product, qr = solver._gn_product, np.linalg.qr

    def spy_product(*args):
        lengths.append(args[4].size)
        return product(*args)

    def spy_qr(*args, **kwargs):
        qr_calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(solver, "_gn_product", spy_product)
    monkeypatch.setattr(np.linalg, "qr", spy_qr)
    lam = 0.5
    cfg = solver.CgConfig(max_iters=shape.num_params, rel_residual_tol=1e-15)
    res = solver.hf_cg_direction(
        shape, theta, cache1.cols([0, 1]), spec, lam, cfg, g, inputs=cache1.x
    )
    oracle = oracles.dense_direction_oracle(shape, theta, x2, y2, spec, lam, g=g)
    scale = 1.0 + np.max(np.abs(oracle.p))
    assert np.max(np.abs(res.p - oracle.p)) <= 1e-12 * scale
    assert res.grad_dot == pytest.approx(oracle.grad_dot, rel=1e-12)
    assert res.quad_term == pytest.approx(oracle.quad_term, rel=1e-12)
    return lengths, qr_calls


class TestHfCg:
    @pytest.mark.parametrize(
        "m_in", (40, 6, 3), ids=("input_basis", "few_inputs", "identity")
    )
    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_wider_gradient_batch_matches_dense(self, kind, m_in, rng, monkeypatch):
        """S2 a strict subset of S1: CG runs in S1's input span when
        m0 >= 10 n1, on theta's own coordinates otherwise, and solves the
        dense system. The repeated input column leaves a basis of the
        inputs' rank, 3, with no QR."""
        instance = wider_batch_instance(rng, kind, m_in)
        shape = instance[0]
        lengths, qr_calls = _hf_against_dense(instance, monkeypatch)
        width = 3 if m_in >= 40 else m_in
        reduced = shape.num_params - (m_in - width) * shape.layer_sizes[1]
        assert set(lengths) == {reduced}
        assert qr_calls == []

    @pytest.mark.parametrize("eps", (1e-12, 1e-9, 1e-7, 1e-5, 1e-3))
    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_nearly_repeated_inputs_match_dense(self, kind, eps, rng, monkeypatch):
        """A near-duplicate input column: where SVQB drops its direction
        (eps <= 1e-7) the basis would miss part of the inputs, so Householder
        QR replaces it; above that SVQB keeps all four directions."""
        instance = wider_batch_instance(rng, kind, 40, eps=eps)
        shape = instance[0]
        lengths, qr_calls = _hf_against_dense(instance, monkeypatch)
        assert set(lengths) == {shape.num_params - 36 * shape.layer_sizes[1]}
        assert qr_calls == ([(40, 4)] if eps <= 1e-7 else [])

    def test_zero_inputs_fall_back_to_qr(self):
        basis = solver.input_basis(np.zeros((40, 4)))
        assert basis.shape == (40, 4)
        assert np.max(np.abs(basis.T @ basis - np.eye(4))) < 1e-15

    def test_gradient_outside_the_input_span_is_shape_error(self, rng):
        """g over S1 with only S2's inputs: the basis would drop part of g."""
        shape, spec, theta, cache1, g, x2, y2 = wider_batch_instance(
            rng, loss.SQUARED_ERROR, 40
        )
        with pytest.raises(ShapeError, match="span"):
            solver.hf_cg_direction(
                shape, theta, cache1.cols([0, 1]), spec, 0.5,
                solver.CgConfig(), g,
            )

    def test_products_run_in_the_input_basis_on_wide_inputs(self, rng, monkeypatch):
        """A 784-input net and a 60-column gradient batch: every CG vector
        holds 60 first-layer input coordinates, and p comes back full length."""
        shape = network.NetworkShape((784, 8, 10), (network.LOGISTIC, network.SOFTMAX))
        spec = loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY)
        theta = network.init_theta(shape, rng)
        x1 = rng.uniform(size=(784, 60))
        y1 = random_targets(rng, spec.kind, 10, 60)
        cache1 = network.forward(shape, theta, x1)
        g, _ = diff.gradient(shape, theta, cache1, y1, spec)
        lengths = []
        product = solver._gn_product

        def spy(*args):
            lengths.append(args[4].size)
            return product(*args)

        monkeypatch.setattr(solver, "_gn_product", spy)
        res = solver.hf_cg_direction(
            shape, theta, cache1.cols(np.arange(30)), spec, 1.0,
            solver.CgConfig(), g, inputs=cache1.x,
        )
        assert lengths and set(lengths) == {60 * 8 + 8 + 8 * 10 + 10}
        assert res.p.shape == g.shape
        assert float(g @ res.p) < 0.0

    def test_zero_jacobian_one_iteration(self, rng):
        shape = network.NetworkShape((2, 1), ("logistic",))
        theta = oracles.pack(shape, [(np.zeros((1, 2)), np.array([800.0]))])
        cache = network.forward(shape, theta, np.ones((2, 3)))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        y = np.zeros((1, 3))
        g, _ = diff.gradient(shape, theta, cache, y, spec)
        lam = 2.0
        res = solver.hf_cg_direction(
            shape, theta, cache, spec, lam, solver.CgConfig(), g
        )
        assert np.max(np.abs(res.p + g / lam)) < 1e-12

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_tight_tolerance_matches_dense(self, kind, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, kind, curvature.GN, nb=3, hidden=[4]
        )
        lam = 0.5
        cfg = solver.CgConfig(max_iters=shape.num_params, rel_residual_tol=1e-12)
        res = solver.hf_cg_direction(shape, theta, cache, spec, lam, cfg, g)
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
        res = solver.hf_cg_direction(shape, theta, cache, spec, lam, cfg, g)
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
                shape, theta, cache, spec, 0.1, solver.CgConfig(), g
            )
            assert float(g @ res.p) < 0.0

    @pytest.mark.parametrize(
        "product",
        [
            pytest.param(lambda v: np.zeros_like(v), id="zero"),
            pytest.param(lambda v: -v, id="negative"),
            pytest.param(lambda v: np.full_like(v, np.nan), id="nan"),
        ],
    )
    def test_curvature_breakdown_is_numeric_error(self, product, rng, monkeypatch):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SQUARED_ERROR, curvature.GN
        )
        monkeypatch.setattr(
            solver, "_gn_product", lambda *args: product(args[4])
        )
        # With lam = 0, d . Ad is the faked product's alone.
        with pytest.raises(NumericError, match="cg breakdown"):
            solver.hf_cg_direction(
                shape, theta, cache, spec, 0.0, solver.CgConfig(), g
            )

    def test_non_finite_curvature_term_is_numeric_error(self, rng, monkeypatch):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SQUARED_ERROR, curvature.GN
        )
        # The faked products take the length of the CG vector, args[4],
        # which is shorter than g when CG runs in the input basis.
        fills = iter([0.0, np.inf])
        monkeypatch.setattr(
            solver, "_gn_product", lambda *args: np.full_like(args[4], next(fills))
        )
        cfg = solver.CgConfig(max_iters=1)
        with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match="quadratic model is not finite"
        ):
            solver.hf_cg_direction(shape, theta, cache, spec, 1.0, cfg, g)

    def test_non_finite_gradient_term_is_numeric_error(self, rng, monkeypatch):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SQUARED_ERROR, curvature.GN
        )
        # A gradient of the batch, so it lies in the span CG runs in.
        g *= 1e154 / np.linalg.norm(g)
        monkeypatch.setattr(
            solver, "_gn_product", lambda *args: np.zeros_like(args[4])
        )
        # p = -g / lam stays finite; g . p = -1e314 overflows.
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="g.p=-inf"):
            solver.hf_cg_direction(
                shape, theta, cache, spec, 1e-6, solver.CgConfig(), g
            )

    def test_fresh_direction_per_call(self, rng):
        """Each call returns its own p; a later call leaves it and g alone."""
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SOFTMAX_CROSS_ENTROPY, curvature.GN
        )
        g_before = g.tobytes()
        first = solver.hf_cg_direction(
            shape, theta, cache, spec, 0.1, solver.CgConfig(), g
        )
        p_before = first.p.tobytes()
        second = solver.hf_cg_direction(
            shape, theta, cache, spec, 0.1, solver.CgConfig(), g
        )
        assert not np.shares_memory(first.p, second.p)
        assert first.p.tobytes() == p_before
        assert g.tobytes() == g_before

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
        system = curvature.build_gn_system(shape, theta, cache, spec, 1.0)
        grad_dot, quad = solver.quadratic_terms(system, g, np.zeros_like(g))
        assert grad_dot == quad == 0.0

    @pytest.mark.parametrize("method", (curvature.GN, curvature.NG))
    def test_matches_dense_quadratic(self, method, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SQUARED_ERROR, method
        )
        system = build_system(shape, theta, cache, spec, gfactors, 1.0, method)
        p = rng.normal(size=shape.num_params)
        _, quad = solver.quadratic_terms(system, g, p)
        b_mat, _ = oracles.build_curvature_matrix(shape, theta, x, y, spec, method)
        assert abs(quad - float(p @ b_mat @ p)) <= 1e-10 * (1.0 + abs(quad))

    def test_ng_sum_of_squares(self, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.BINARY_CROSS_ENTROPY, curvature.NG
        )
        system = curvature.build_ng_system(gfactors, 1.0)
        p = rng.normal(size=shape.num_params)
        _, quad = solver.quadratic_terms(system, g, p)
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
                    shape, theta, cache, spec, gfactors, lam, method
                )
                res = solver.smw_direction(shape, theta, system, g)
                b_mat, _ = oracles.build_curvature_matrix(
                    shape, theta, x, y, spec, method
                )
                beta = float(np.max(np.linalg.eigvalsh(b_mat)))
                tau = lam
                c1 = tau / (beta + tau)
                decrease = -res.grad_dot - 0.5 * res.quad_term
                floor = c1 * float(np.linalg.norm(g)) * float(np.linalg.norm(res.p))
                assert decrease >= floor - 1e-12 * (1.0 + abs(floor))
