import numpy as np
import pytest

from smwopt import curvature, diff, linalg, loss, network, optim, solver
from smwopt.counters import OpCounters
from smwopt.exceptions import NumericError
from smwopt.oracles import (
    build_curvature_matrix,
    dense_direction_oracle,
    factored_jacobian,
    fd_loss_hessian_theta,
    make_net,
    random_targets,
    smw_system,
)
from tests.conftest import pack


class TestGnBlockGram:
    def test_single_linear_sample(self, rng):
        shape = network.NetworkShape((3, 2), ("linear",))
        theta = network.init_theta(shape, rng)
        x = rng.normal(size=(3, 1))
        cache = network.forward(shape, theta, x)
        batch = curvature.gn_batch_factors(
            shape, theta, cache, loss.LossSpec(loss.SQUARED_ERROR)
        )
        gram = curvature.gn_block_gram(batch)
        # H = 2 I, so the factor is sqrt(2) I and the Gram doubles.
        expected = 2.0 * (float(x[:, 0] @ x[:, 0]) + 1.0) * np.eye(2)
        assert np.max(np.abs(gram - expected)) < 1e-12

    def test_zero_input_leaves_bias_column(self, rng):
        shape = network.NetworkShape((3, 2), ("linear",))
        theta = network.init_theta(shape, rng)
        cache = network.forward(shape, theta, np.zeros((3, 1)))
        batch = curvature.gn_batch_factors(
            shape, theta, cache, loss.LossSpec(loss.SQUARED_ERROR)
        )
        gram = curvature.gn_block_gram(batch)
        assert np.max(np.abs(gram - 2.0 * np.eye(2))) < 1e-15

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_matches_explicit_jacobian(self, kind, rng):
        shape, spec, theta = make_net(rng, kind, hidden=[4])
        x = rng.normal(size=(shape.input_size, 3))
        cache = network.forward(shape, theta, x)
        batch = curvature.gn_batch_factors(shape, theta, cache, spec)
        gram = curvature.gn_block_gram(batch)
        fmat = factored_jacobian(shape, theta, cache, spec)
        assert np.max(np.abs(gram - fmat @ fmat.T)) < 1e-10

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_dots_with_matches_factored_jacobian(self, kind, rng):
        """U^T v from the factors equals blockdiag(C)^T J v, with no jvp."""
        shape, spec, theta = make_net(rng, kind, hidden=[4])
        x = rng.normal(size=(shape.input_size, 3))
        cache = network.forward(shape, theta, x)
        batch = curvature.gn_batch_factors(shape, theta, cache, spec)
        fmat = factored_jacobian(shape, theta, cache, spec)
        for _ in range(5):
            v = rng.normal(size=shape.num_params)
            expected = fmat @ v
            assert np.max(np.abs(batch.dots_with(v) - expected)) <= 1e-12 * (
                1.0 + np.max(np.abs(expected))
            )

    def test_symmetric_psd(self, rng):
        shape, spec, theta = make_net(rng, loss.SOFTMAX_CROSS_ENTROPY)
        x = rng.normal(size=(shape.input_size, 4))
        cache = network.forward(shape, theta, x)
        gram = curvature.gn_block_gram(
            curvature.gn_batch_factors(shape, theta, cache, spec)
        )
        assert np.max(np.abs(gram - gram.T)) <= 1e-10
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        assert eigs.min() >= -1e-8 * max(np.trace(gram), 1.0)

    def test_factor_count(self, rng):
        shape, spec, theta = make_net(rng, loss.SOFTMAX_CROSS_ENTROPY)
        counters = OpCounters()
        nb = 5
        x = rng.normal(size=(shape.input_size, nb))
        cache = network.forward(shape, theta, x)
        curvature.gn_batch_factors(shape, theta, cache, spec, counters)
        assert counters.vjp_products == nb * shape.output_size
        assert counters.jvp_products == 0


class TestNgGram:
    """gn_block_gram on per-sample gradient factors: the natural-gradient
    Gram matrix of the samples' loss gradients."""

    def test_single_sample_norm(self, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        x = rng.normal(size=(shape.input_size, 1))
        y = random_targets(rng, spec.kind, shape.output_size)
        cache = network.forward(shape, theta, x)
        g, factors = diff.gradient(shape, theta, cache, y, spec)
        gram = curvature.gn_block_gram(factors)
        assert gram.shape == (1, 1)
        assert abs(gram[0, 0] - float(g @ g)) <= 1e-12 * (1.0 + float(g @ g))

    def test_duplicate_samples(self, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        x = rng.normal(size=shape.input_size)
        y = random_targets(rng, spec.kind, shape.output_size)[:, 0]
        cache = network.forward(
            shape, theta, np.stack([x, x], axis=1)
        )
        _, factors = diff.gradient(
            shape, theta, cache, np.stack([y, y], axis=1), spec
        )
        gram = curvature.gn_block_gram(factors)
        assert np.max(np.abs(gram - gram[0, 0])) < 1e-12
        assert abs(np.linalg.eigvalsh(gram)[0]) < 1e-10 * gram[0, 0]

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_matches_expanded_gradients(self, kind, rng):
        shape, spec, theta = make_net(rng, kind)
        x = rng.normal(size=(shape.input_size, 4))
        y = random_targets(rng, kind, shape.output_size, 4)
        cache = network.forward(shape, theta, x)
        _, factors = diff.gradient(shape, theta, cache, y, spec)
        gram = curvature.gn_block_gram(factors)
        gmat = np.stack([factors.cols([i]).expand_sum() for i in range(4)], axis=0)
        scale = 1.0 + np.max(np.abs(gmat @ gmat.T))
        assert np.max(np.abs(gram - gmat @ gmat.T)) <= 1e-12 * scale


@pytest.mark.parametrize("kind", loss.LOSS_KINDS)
@pytest.mark.parametrize(
    "sizes,n2",
    [((5, 4, 3), 2), ((20, 15, 7, 4), 7), ((784, 500, 10), 30)],
    ids=["small", "deep", "desk"],
)
def test_cores_are_exactly_symmetric(kind, sizes, n2, rng):
    """Both cores are symmetric bit for bit, which linalg.cholesky relies on
    unchecked. The batches are formed as a trainer forms them: the gradient
    over n1 = 2 n2 columns and the curvature over its first n2."""
    shape, spec, theta = make_net(
        rng, kind, hidden=list(sizes[1:-1]), m_in=sizes[0], m_out=sizes[-1]
    )
    x = rng.uniform(size=(sizes[0], 2 * n2))
    y = random_targets(rng, kind, sizes[-1], 2 * n2)
    cache = network.forward(shape, theta, x)
    _, factors = diff.gradient(shape, theta, cache, y, spec)
    positions = np.arange(n2)
    for batch in (
        curvature.gn_batch_factors(shape, theta, cache.cols(positions), spec),
        factors.cols(positions),
    ):
        system = curvature.GramSystem.of(batch, 1e-3)
        assert np.array_equal(system.core, system.core.T)


class TestAssemble:
    def test_ng_zero_gram(self):
        core = curvature.assemble_d(np.zeros((3, 3)), 2.5, 3)
        assert np.array_equal(core, 2.5 * np.eye(3))

    def test_non_finite_gram_is_numeric_error(self):
        core = curvature.assemble_d(np.full((2, 2), np.nan), 1.0, 2)
        with pytest.raises(NumericError):
            linalg.cholesky(core)

    def test_core_factorization_failure_is_numeric_error(self, rng, monkeypatch):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        cache = network.forward(shape, theta, rng.normal(size=(shape.input_size, 2)))

        cause = NumericError("cholesky failed")

        def failing_cholesky(a):
            raise cause

        monkeypatch.setattr(linalg, "cholesky", failing_cholesky)
        with pytest.raises(NumericError, match="core factorization failed") as err:
            curvature.GramSystem.of(
                curvature.gn_batch_factors(shape, theta, cache, spec), 1.0
            )
        assert err.value.__cause__ is cause

    @pytest.mark.parametrize("method", [optim.SMW_GN, optim.SMW_NG], ids=["gn", "ng"])
    def test_indefinite_core_reports_lambda_and_diagonal(self, method, rng):
        """A core that is not SPD, here from a negative lambda, is one
        NumericError naming lambda and the core's diagonal range."""
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        x = rng.normal(size=(shape.input_size, 2))
        y = random_targets(rng, spec.kind, shape.output_size, 2)
        cache = network.forward(shape, theta, x)
        with pytest.raises(NumericError, match=r"lambda=-1\.0+e\+03 \(diag range \["):
            smw_system(shape, theta, cache, y, spec, -1e3, method)

    def test_gn_squared_error_blocks(self, rng):
        n2, m_out = 2, 2
        gram = rng.normal(size=(n2 * m_out, n2 * m_out))
        gram = gram + gram.T
        core = curvature.assemble_d(gram, 1.0, n2)
        assert np.max(np.abs(core - (np.eye(4) + gram / n2))) < 1e-12

    @pytest.mark.parametrize(
        "kind,nb",
        [
            pytest.param(kind, nb, id=f"{kind}-spd{suffix}")
            for nb, suffix in ((3, ""), (1, "-one_sample"))
            for kind in loss.LOSS_KINDS
        ],
    )
    def test_core_matches_dense_construction(self, kind, nb, rng):
        shape, spec, theta = make_net(rng, kind, hidden=[4])
        x = rng.normal(size=(shape.input_size, nb))
        cache = network.forward(shape, theta, x)
        lam = 0.7
        system = curvature.GramSystem.of(
            curvature.gn_batch_factors(shape, theta, cache, spec), lam
        )
        fmat = factored_jacobian(shape, theta, cache, spec)
        dense = lam * np.eye(nb * shape.output_size) + (fmat @ fmat.T) / nb
        assert np.max(np.abs(system.core - dense)) < 1e-10
        linalg.cholesky(system.core)

    def test_saturated_bce_sample_adds_only_damping(self):
        shape = network.NetworkShape((2, 1), ("logistic",))
        theta = pack(shape, [(np.array([[1.0, -1.0]]), np.zeros(1))])
        x = np.array([[800.0, 0.3], [0.0, -0.2]])
        y = np.zeros((1, 2))
        cache = network.forward(shape, theta, x)
        assert cache.output[0, 0] == 1.0
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        lam = 1.0
        system = smw_system(shape, theta, cache, y, spec, lam)
        # The saturated sample's Hessian factor is zero, so its core row
        # and column hold only the damping.
        assert system.core[0, 0] == lam
        assert system.core[0, 1] == 0.0 and system.core[1, 0] == 0.0
        assert system.core[1, 1] > lam
        g, _ = diff.gradient(shape, theta, cache, y, spec)
        res = solver.smw_direction(shape, theta, system, g)
        oracle = dense_direction_oracle(shape, theta, x, y, spec, lam)
        scale = float(np.max(np.abs(oracle.p)))
        assert np.max(np.abs(res.p - oracle.p)) <= 1e-9 * scale


@pytest.mark.parametrize(
    "kind,m_out",
    [
        (loss.SQUARED_ERROR, 3),
        (loss.BINARY_CROSS_ENTROPY, 1),
        (loss.SOFTMAX_CROSS_ENTROPY, 3),
    ],
)
def test_gn_matrix_is_theta_hessian_of_one_layer_net(kind, m_out):
    """On a one-layer net h_L is linear in theta, so the matching-loss GN
    matrix is the loss Hessian in theta, which central differences of the
    gradient measure without any vjp."""
    spec = loss.LossSpec(kind)
    shape = network.NetworkShape((4, m_out), (loss.MATCHING_ACTIVATION[kind],))
    theta = 3.0 * network.init_theta(shape, 0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 1))
    y = random_targets(rng, kind, m_out)
    b_mat, _ = build_curvature_matrix(shape, theta, x, y, spec, optim.SMW_GN)
    hessian = fd_loss_hessian_theta(shape, theta, x, y, spec, step=1e-5)
    assert np.max(np.abs(b_mat - hessian)) < 1e-8
