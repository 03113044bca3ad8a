import numpy as np
import pytest

from smwopt import curvature, diff, linalg, loss, network, optim, oracles, solver
from smwopt.counters import OpCounters
from smwopt.exceptions import ConfigError, NumericError, ShapeError
from smwopt.oracles import make_net, random_targets, wider_batch_instance
from tests.conftest import pack


def build_instance(rng, kind, method, nb=4, hidden=None):
    shape, spec, theta = make_net(rng, kind, hidden=hidden or [5, 4])
    x = rng.normal(size=(shape.input_size, nb))
    y = random_targets(rng, kind, shape.output_size, nb)
    cache = network.forward(shape, theta, x)
    g, gfactors = diff.gradient(shape, theta, cache, y, spec)
    return shape, spec, theta, x, y, cache, g, gfactors


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
        for method in (optim.SMW_GN, optim.SMW_NG):
            system = oracles.smw_system(shape, theta, cache, y, spec, 0.5, method)
            res = solver.smw_direction(shape, theta, system, g)
            assert np.array_equal(res.p, np.zeros(shape.num_params))
            assert res.grad_dot == res.quad_term == 0.0

    def test_zero_jacobian_degenerates_to_scaled_gradient(self, rng):
        # A saturated logistic output zeroes the activation jacobian, hence J.
        shape = network.NetworkShape((2, 1), ("logistic",))
        theta = pack(shape, [(np.zeros((1, 2)), np.array([800.0]))])
        cache = network.forward(shape, theta, np.ones((2, 3)))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        y = np.zeros((1, 3))
        g, gfactors = diff.gradient(shape, theta, cache, y, spec)
        assert np.linalg.norm(g) > 0
        lam = 2.0
        system = oracles.smw_system(shape, theta, cache, y, spec, lam)
        res = solver.smw_direction(shape, theta, system, g)
        assert np.max(np.abs(res.p + g / lam)) < 1e-12

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    @pytest.mark.parametrize("method", (optim.SMW_GN, optim.SMW_NG), ids=("gn", "ng"))
    def test_matches_dense_oracle(self, kind, method, rng):
        # 3 instances x 3 damping levels per (kind, method): 54 solves total.
        for _ in range(3):
            shape, spec, theta, x, y, cache, g, gfactors = build_instance(
                rng, kind, method, nb=4, hidden=[8, 7]
            )
            for lam in (1e-3, 1.0, 1e3):
                system = oracles.smw_system(shape, theta, cache, y, spec, lam, method)
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
    @pytest.mark.parametrize("method", (optim.SMW_GN, optim.SMW_NG), ids=("gn", "ng"))
    def test_descent_direction(self, kind, method, rng):
        for _ in range(5):
            shape, spec, theta, x, y, cache, g, gfactors = build_instance(
                rng, kind, method
            )
            if np.linalg.norm(g) == 0.0:
                continue
            system = oracles.smw_system(shape, theta, cache, y, spec, 0.01, method)
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
            system = oracles.smw_system(shape, theta, cache, y, spec, lam)
            solver.smw_direction(shape, theta, system, g)
            monkeypatch.undo()
            assert calls == expected
            assert system.core.shape == (nb * shape.output_size,) * 2
            assert solved and max(solved) <= linalg.LEAF_ROWS

    @pytest.mark.parametrize("method", (optim.SMW_GN, optim.SMW_NG), ids=("gn", "ng"))
    def test_inputs_unchanged(self, method, rng):
        """In-place kernels write only to buffers the direction owns."""
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SOFTMAX_CROSS_ENTROPY, method, nb=5
        )
        arrays = [theta, g, cache.x, cache.output_preact, *cache.acts]
        arrays += gfactors.layer_adjoints
        before = [a.tobytes() for a in arrays]
        for lam in (1.0, 1e-10):
            system = oracles.smw_system(shape, theta, cache, y, spec, lam, method)
            core = system.core.tobytes()
            held = [a.tobytes() for a in system.factors.layer_adjoints]
            solver.smw_direction(shape, theta, system, g)
            assert system.core.tobytes() == core
            assert [a.tobytes() for a in system.factors.layer_adjoints] == held
            assert [a.tobytes() for a in arrays] == before

    @pytest.mark.parametrize("method", (optim.SMW_GN, optim.SMW_NG), ids=("gn", "ng"))
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
            system = oracles.smw_system(shape, theta, cache, y, spec, lam, method)
            sweeps.clear()
            solver.smw_direction(shape, theta, system, g)
            assert sweeps == [shape.num_params]

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    @pytest.mark.parametrize("method", (optim.SMW_GN, optim.SMW_NG), ids=("gn", "ng"))
    def test_model_term_from_core_vector(self, kind, method, rng):
        """n2 ||q||^2 equals the measured ||U^T p||^2 / n2."""
        for _ in range(3):
            shape, spec, theta, x, y, cache, g, gfactors = build_instance(
                rng, kind, method, hidden=[8, 7]
            )
            for lam in (1.0, 1e3):
                system = oracles.smw_system(shape, theta, cache, y, spec, lam, method)
                res = solver.smw_direction(shape, theta, system, g)
                grad_dot, quad = solver.quadratic_terms(system, g, res.p)
                assert res.grad_dot == grad_dot
                assert abs(res.quad_term - quad) <= 1e-12 * abs(quad)

    def test_woodbury_inverse_reconstruction(self, rng):
        """lam I + B applied densely inverts the reconstructed inverse."""
        for kind, method in (
            (loss.SQUARED_ERROR, optim.SMW_GN),
            (loss.SOFTMAX_CROSS_ENTROPY, optim.SMW_GN),
            (loss.BINARY_CROSS_ENTROPY, optim.SMW_NG),
        ):
            shape, spec, theta, x, y, cache, g, gfactors = build_instance(
                rng, kind, method, nb=3, hidden=[4]
            )
            lam = 0.3
            system = oracles.smw_system(shape, theta, cache, y, spec, lam, method)
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
            rng, loss.SOFTMAX_CROSS_ENTROPY, optim.SMW_GN, nb=4
        )
        counters = OpCounters()
        system = curvature.GramSystem.of(
            curvature.gn_batch_factors(shape, theta, cache, spec, counters), lam
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


def _frame_gradient(shape, theta, cache, y, spec, n2):
    """The batch's gradient placed in its frame as the trainer places it."""
    g, _ = diff.gradient(shape, theta, cache, y, spec, factored=True)
    return diff.PrefixFrame.of(g, n2).gradient


class TestFactoredDirection:
    """The stochastic trainer's direction, smw_direction with g and p in
    g's frame over a gradient batch S1 of 4 samples whose prefix S2 of 2
    is the curvature batch, against the dense solve over S2 with S1's
    gradient."""

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    @pytest.mark.parametrize("method", (optim.SMW_GN, optim.SMW_NG), ids=("gn", "ng"))
    def test_matches_dense_oracle(self, kind, method, rng):
        for lam in (1e-3, 1.0, 1e3):
            *_, g, res, oracle = oracles.factored_case(rng, kind, method, lam)
            assert isinstance(res.p, diff.PrefixVector) and res.p.frame is g.frame
            p = oracle.p
            assert np.max(np.abs(res.p.expand() - p)) <= 1e-9 * np.max(np.abs(p))
            assert res.grad_dot == pytest.approx(oracle.grad_dot, rel=1e-9)
            assert res.quad_term == pytest.approx(oracle.quad_term, rel=1e-9)
            assert res.step_norm == pytest.approx(oracle.step_norm, rel=1e-9)

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    @pytest.mark.parametrize("method", (optim.SMW_GN, optim.SMW_NG), ids=("gn", "ng"))
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
            g = _frame_gradient(shape, theta, cache, y, spec, 3)
            system = oracles.smw_system(shape, theta, cache, y, spec, lam, method)
            res = solver.smw_direction(shape, theta, system, g)
            b_mat, dense_g = oracles.build_curvature_matrix(
                shape, theta, x, y, spec, method
            )
            p = res.p.expand()
            residual = b_mat @ p + lam * p + dense_g
            assert np.linalg.norm(residual) <= 1e-8 * (1.0 + np.linalg.norm(dense_g))
            assert res.quad_term == pytest.approx(float(p @ b_mat @ p), rel=1e-9)

    @pytest.mark.parametrize("method", (optim.SMW_GN, optim.SMW_NG), ids=("gn", "ng"))
    def test_zero_gradient_gives_zero_direction(self, method, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR, hidden=[4])
        x = rng.normal(size=(shape.input_size, 4))
        cache = network.forward(shape, theta, x)
        y = cache.output.copy()
        _, gfactors = diff.gradient(shape, theta, cache, y, spec)
        g = _frame_gradient(shape, theta, cache, y, spec, 2)
        system = oracles.smw_system(
            shape, theta, cache.cols([0, 1]), y[:, :2], spec, 0.5, method
        )
        res = solver.smw_direction(shape, theta, system, g)
        assert all(not a.any() for a in res.p.factored().layer_adjoints)
        assert res.grad_dot == res.quad_term == res.step_norm == 0.0

    @pytest.mark.parametrize("lam", (1.0, 1e-8))
    def test_same_counts_as_the_packed_solve(self, lam, rng):
        shape, spec, theta, x, y, cache, g, _ = build_instance(
            rng, loss.SOFTMAX_CROSS_ENTROPY, optim.SMW_GN
        )
        factored = _frame_gradient(shape, theta, cache, y, spec, 2)
        system = oracles.smw_system(shape, theta, cache.cols([0, 1]), y[:, :2], spec, lam)
        counts, directions = [], []
        for grad in (g, factored):
            counters = OpCounters()
            directions.append(
                solver.smw_direction(shape, theta, system, grad, counters).p
            )
            counts.append(counters)
        refine = 2 * solver.REFINE_ROUNDS if lam < solver.REFINE_LAMBDA else 0
        assert counts[0] == counts[1] == OpCounters(vjp_products=2 * (1 + refine))
        packed, got = directions[0], directions[1].expand()
        assert np.max(np.abs(got - packed)) <= 1e-12 * np.max(np.abs(packed))


class TestDenseOracle:
    def test_large_damping_limit(self, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SQUARED_ERROR, optim.SMW_GN
        )
        lam = 1e8
        res = oracles.dense_direction_oracle(shape, theta, x, y, spec, lam)
        assert np.linalg.norm(res.p + g / lam) <= 1e-6 * np.linalg.norm(g / lam)

    def test_definiteness(self, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.BINARY_CROSS_ENTROPY, optim.SMW_GN
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
                optim.SMW_GN,
            )


def _hf_against_dense(instance, monkeypatch):
    """hf at a tight tolerance on a wider_batch_instance, checked against the
    dense solve; returns the CG vectors the products were applied to."""
    shape, spec, theta, cache1, g, x2, y2 = instance
    vectors = []
    product = solver._gn_product

    def spy_product(*args):
        vectors.append(args[4])
        return product(*args)

    monkeypatch.setattr(solver, "_gn_product", spy_product)
    lam = 0.5
    cfg = solver.CgConfig(max_iters=shape.num_params, rel_residual_tol=1e-15)
    res = solver.hf_cg_direction(shape, theta, cache1.cols([0, 1]), spec, lam, cfg, g)
    oracle = oracles.dense_direction_oracle(
        shape, theta, x2, y2, spec, lam, g=np.asarray(g)
    )
    scale = 1.0 + np.max(np.abs(oracle.p))
    assert np.max(np.abs(np.asarray(res.p) - oracle.p)) <= 1e-12 * scale
    assert res.grad_dot == pytest.approx(oracle.grad_dot, rel=1e-12)
    assert res.quad_term == pytest.approx(oracle.quad_term, rel=1e-12)
    return vectors


def _on_curvature_columns(vectors, g, n2):
    """Every vector is a multiple of g plus (m_l, n2) adjoints on S2's columns."""
    shapes = [(m, n2) for m in g.frame.g.shape.layer_sizes[1:]]
    return all(
        isinstance(v, diff.PrefixVector)
        and v.frame is g.frame
        and [a.shape for a in v.adjoints] == shapes
        for v in vectors
    )


class TestHfCg:
    @pytest.mark.parametrize(
        "m_in", (40, 6, 3), ids=("input_basis", "few_inputs", "identity")
    )
    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_wider_gradient_batch_matches_dense(self, kind, m_in, rng, monkeypatch):
        """S2 a strict subset of S1, whose four inputs repeat one and span
        three of m_in dimensions: CG on a packed g and on g in its frame
        over S1 both solve the dense system. The latter's CG vectors hold
        adjoints on S2's two columns only."""
        factored = wider_batch_instance(rng, kind, m_in, factored=True)
        shape, g = factored[0], factored[4]
        assert _on_curvature_columns(_hf_against_dense(factored, monkeypatch), g, 2)
        packed = factored[:4] + (g.expand(),) + factored[5:]
        vectors = _hf_against_dense(packed, monkeypatch)
        assert {v.shape for v in vectors} == {(shape.num_params,)}

    @pytest.mark.parametrize("eps", (1e-12, 1e-9, 1e-7, 1e-5, 1e-3))
    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_nearly_repeated_inputs_match_dense(self, kind, eps, rng, monkeypatch):
        """A near-duplicate S1 input column leaves S1's Grams near singular;
        the inner products over S2's columns and g still solve the dense
        system."""
        instance = wider_batch_instance(rng, kind, 40, eps=eps, factored=True)
        vectors = _hf_against_dense(instance, monkeypatch)
        assert _on_curvature_columns(vectors, instance[4], 2)

    @pytest.mark.parametrize("factored", (False, True), ids=("packed", "factored"))
    def test_zero_gradient_gives_zero_direction(self, factored, rng, monkeypatch):
        """A zero g returns a zero p in g's form and runs no product."""
        shape, spec, theta, cache1, g, _, _ = wider_batch_instance(
            rng, loss.SOFTMAX_CROSS_ENTROPY, 40, factored=factored
        )
        g = g * 0.0
        monkeypatch.setattr(solver, "_gn_product", None)
        res = solver.hf_cg_direction(
            shape, theta, cache1.cols([0, 1]), spec, 0.5, solver.CgConfig(), g
        )
        assert type(res.p) is type(g)
        assert not np.asarray(res.p).any()
        assert (res.grad_dot, res.quad_term) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "product",
        [
            pytest.param(lambda v: v * 0.0, id="zero"),
            pytest.param(lambda v: -v, id="negative"),
            pytest.param(lambda v: v * np.nan, id="nan"),
        ],
    )
    def test_factored_curvature_breakdown_is_numeric_error(
        self, product, rng, monkeypatch
    ):
        shape, spec, theta, cache1, g, _, _ = wider_batch_instance(
            rng, loss.SQUARED_ERROR, 40, factored=True
        )
        monkeypatch.setattr(
            solver, "_gn_product", lambda *args: product(args[4])
        )
        # With lam = 0, d . Ad is the faked product's alone.
        with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match="cg breakdown"
        ):
            solver.hf_cg_direction(
                shape, theta, cache1.cols([0, 1]), spec, 0.0, solver.CgConfig(), g
            )

    def test_cg_vectors_are_factored_over_the_gradient_batch(self, rng, monkeypatch):
        """A 784-input net, a 60-column gradient batch and a 30-column
        curvature batch: with g placed in its frame, every CG vector is a
        multiple of g plus one adjoint column per S2 sample, the frame's
        first-layer Gram of S1 is not read, nothing is placed on S1 or
        expanded to parameter length, and p comes back in g's frame, to be
        placed on S1 once."""
        shape = network.NetworkShape((784, 8, 10), (network.LOGISTIC, network.SOFTMAX))
        spec = loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY)
        theta = network.init_theta(shape, rng)
        x1 = rng.uniform(size=(784, 60))
        y1 = random_targets(rng, spec.kind, 10, 60)
        cache1 = network.forward(shape, theta, x1)
        g = _frame_gradient(shape, theta, cache1, y1, spec, 30)
        frame = g.frame
        vectors = []
        product = solver._gn_product

        def spy(*args):
            vectors.append(args[4])
            return product(*args)

        monkeypatch.setattr(solver, "_gn_product", spy)
        for cls, name in (
            (diff.PrefixVector, "factored"), (diff.BackpropFactors, "expand_sum"),
        ):
            monkeypatch.setattr(cls, name, None)
        first_gram = frame.first_gram
        monkeypatch.setattr(frame, "first_gram", None)
        res = solver.hf_cg_direction(
            shape, theta, cache1.cols(np.arange(30)), spec, 1.0,
            solver.CgConfig(), g,
        )
        assert vectors and _on_curvature_columns(vectors, g, 30)
        assert isinstance(res.p, diff.PrefixVector) and res.p.frame is g.frame
        assert res.grad_dot == pytest.approx(float(g @ res.p), rel=1e-12)
        assert res.grad_dot < 0.0
        monkeypatch.undo()
        placed = res.p.factored()
        assert placed.layer_inputs is frame.g.layer_inputs
        assert frame.first_gram is first_gram
        assert [a.shape for a in placed.layer_adjoints] == [(8, 60), (10, 60)]

    def test_zero_jacobian_one_iteration(self, rng):
        shape = network.NetworkShape((2, 1), ("logistic",))
        theta = pack(shape, [(np.zeros((1, 2)), np.array([800.0]))])
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
            rng, kind, optim.SMW_GN, nb=3, hidden=[4]
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
            rng, loss.SQUARED_ERROR, optim.SMW_GN
        )
        lam = 0.5
        cfg = solver.CgConfig(max_iters=1, rel_residual_tol=1e-300)
        res = solver.hf_cg_direction(shape, theta, cache, spec, lam, cfg, g)
        b_mat, _ = oracles.build_curvature_matrix(
            shape, theta, x, y, spec, optim.SMW_GN
        )
        alpha = float(g @ g) / float(g @ (b_mat + lam * np.eye(g.size)) @ g)
        assert np.max(np.abs(res.p + alpha * g)) < 1e-10

    def test_descent_at_default_tolerance(self, rng):
        for kind in loss.LOSS_KINDS:
            shape, spec, theta, x, y, cache, g, gfactors = build_instance(
                rng, kind, optim.SMW_GN
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
            rng, loss.SQUARED_ERROR, optim.SMW_GN
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
            rng, loss.SQUARED_ERROR, optim.SMW_GN
        )
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
            rng, loss.SQUARED_ERROR, optim.SMW_GN
        )
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
            rng, loss.SOFTMAX_CROSS_ENTROPY, optim.SMW_GN
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
            rng, loss.SQUARED_ERROR, optim.SMW_GN
        )
        system = oracles.smw_system(shape, theta, cache, y, spec, 1.0)
        grad_dot, quad = solver.quadratic_terms(system, g, np.zeros_like(g))
        assert grad_dot == quad == 0.0

    @pytest.mark.parametrize("method", (optim.SMW_GN, optim.SMW_NG), ids=("gn", "ng"))
    def test_matches_dense_quadratic(self, method, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.SQUARED_ERROR, method
        )
        system = oracles.smw_system(shape, theta, cache, y, spec, 1.0, method)
        p = rng.normal(size=shape.num_params)
        _, quad = solver.quadratic_terms(system, g, p)
        b_mat, _ = oracles.build_curvature_matrix(shape, theta, x, y, spec, method)
        assert abs(quad - float(p @ b_mat @ p)) <= 1e-10 * (1.0 + abs(quad))

    def test_ng_sum_of_squares(self, rng):
        shape, spec, theta, x, y, cache, g, gfactors = build_instance(
            rng, loss.BINARY_CROSS_ENTROPY, optim.SMW_NG
        )
        system = curvature.GramSystem.of(gfactors, 1.0)
        p = rng.normal(size=shape.num_params)
        _, quad = solver.quadratic_terms(system, g, p)
        dots = gfactors.dots_with(p)
        assert quad >= 0.0
        assert abs(quad - float(np.mean(dots**2))) < 1e-12 * (1.0 + quad)


def test_model_decrease_bound(rng):
    """m(0) - m(p) >= tau / (beta + tau) * ||g|| * ||p|| on dense instances."""
    for kind in loss.LOSS_KINDS:
        for method in (optim.SMW_GN, optim.SMW_NG):
            shape, spec, theta, x, y, cache, g, gfactors = build_instance(
                rng, kind, method, nb=3, hidden=[4]
            )
            if np.linalg.norm(g) == 0.0:
                continue
            for lam in (1e-3, 1.0):
                system = oracles.smw_system(shape, theta, cache, y, spec, lam, method)
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
