import numpy as np
import pytest

from smwopt import curvature, diff, loss, network
from smwopt.counters import OpCounters
from smwopt.exceptions import NumericError
from smwopt.oracles import make_net, random_targets, stacked_jacobian


class TestGnBlockGram:
    def test_single_linear_sample(self, rng):
        shape = network.NetworkShape((3, 2), ("linear",))
        theta = network.init_theta(shape, rng)
        x = rng.normal(size=3)
        cache = network.forward(shape, theta, x)
        batch = curvature.gn_batch_factors(
            shape, theta, cache, loss.LossSpec(loss.SQUARED_ERROR)
        )
        gram = curvature.gn_block_gram(batch)
        expected = (float(x @ x) + 1.0) * np.eye(2)
        assert np.max(np.abs(gram - expected)) < 1e-12

    def test_zero_input_leaves_bias_column(self, rng):
        shape = network.NetworkShape((3, 2), ("linear",))
        theta = network.init_theta(shape, rng)
        cache = network.forward(shape, theta, np.zeros(3))
        batch = curvature.gn_batch_factors(
            shape, theta, cache, loss.LossSpec(loss.SQUARED_ERROR)
        )
        gram = curvature.gn_block_gram(batch)
        assert np.max(np.abs(gram - np.eye(2))) < 1e-15

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_matches_explicit_jacobian(self, kind, rng):
        shape, spec, theta = make_net(rng, kind, hidden=[4])
        x = rng.normal(size=(shape.input_size, 3))
        cache = network.forward(shape, theta, x)
        batch = curvature.gn_batch_factors(shape, theta, cache, spec)
        gram = curvature.gn_block_gram(batch)
        jmat = stacked_jacobian(shape, theta, cache)
        assert np.max(np.abs(gram - jmat @ jmat.T)) < 1e-10

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
    def test_single_sample_norm(self, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        x = rng.normal(size=shape.input_size)
        y = random_targets(rng, spec.kind, shape.output_size)[:, 0]
        cache = network.forward(shape, theta, x)
        g, factors = diff.gradient(shape, theta, cache, y, spec)
        gram = curvature.ng_gram(factors)
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
        gram = curvature.ng_gram(factors)
        assert np.max(np.abs(gram - gram[0, 0])) < 1e-12
        assert abs(np.linalg.eigvalsh(gram)[0]) < 1e-10 * gram[0, 0]

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_matches_expanded_gradients(self, kind, rng):
        shape, spec, theta = make_net(rng, kind)
        x = rng.normal(size=(shape.input_size, 4))
        y = random_targets(rng, kind, shape.output_size, 4)
        cache = network.forward(shape, theta, x)
        _, factors = diff.gradient(shape, theta, cache, y, spec)
        gram = curvature.ng_gram(factors)
        gmat = np.stack([factors.expand_sample(i) for i in range(4)], axis=0)
        scale = 1.0 + np.max(np.abs(gmat @ gmat.T))
        assert np.max(np.abs(gram - gmat @ gmat.T)) <= 1e-12 * scale


class TestAssemble:
    def test_ng_zero_gram(self):
        core = curvature.assemble_d(curvature.NG, np.zeros((3, 3)), None, 2.5, 3)
        assert np.array_equal(core, 2.5 * np.eye(3))

    def test_non_finite_gram_is_numeric_error(self):
        with pytest.raises(NumericError):
            curvature.assemble_d(curvature.NG, np.full((2, 2), np.nan), None, 1.0, 2)

    def test_gn_squared_error_blocks(self, rng):
        n2, m_out = 2, 2
        gram = rng.normal(size=(4, 4))
        gram = gram + gram.T
        hinvs = np.broadcast_to(0.5 * np.eye(m_out), (n2, m_out, m_out)).copy()
        core = curvature.assemble_d(curvature.GN, gram, hinvs, 1.0, n2)
        assert np.max(np.abs(core - (0.5 * np.eye(4) + gram / n2))) < 1e-12

    @pytest.mark.parametrize(
        "kind,path,nb",
        [
            pytest.param(kind, path, nb, id=f"{kind}-{path}{suffix}")
            for nb, suffix in ((3, ""), (1, "-one_sample"))
            for kind, path in (
                (loss.SQUARED_ERROR, curvature.PATH_SPD),
                (loss.BINARY_CROSS_ENTROPY, curvature.PATH_SPD),
                (loss.SOFTMAX_CROSS_ENTROPY, curvature.PATH_GENERAL),
            )
        ],
    )
    def test_core_matches_dense_construction(self, kind, path, nb, rng):
        shape, spec, theta = make_net(rng, kind, hidden=[4])
        x = rng.normal(size=(shape.input_size, nb))
        cache = network.forward(shape, theta, x)
        lam = 0.7
        system = curvature.build_gn_system(shape, theta, cache, spec, lam)
        assert system.path == path
        jmat = stacked_jacobian(shape, theta, cache)
        m_out = shape.output_size
        hs = loss.loss_hessian_h(spec, cache).reshape(nb, m_out, m_out)
        hblk = np.zeros((nb * m_out, nb * m_out))
        for i in range(nb):
            sl = slice(i * m_out, (i + 1) * m_out)
            hblk[sl, sl] = hs[i]
        if path == curvature.PATH_SPD:
            hinvblk = np.zeros_like(hblk)
            for i in range(nb):
                sl = slice(i * m_out, (i + 1) * m_out)
                hinvblk[sl, sl] = np.linalg.inv(hs[i])
            dense = lam * hinvblk + (jmat @ jmat.T) / nb
        else:
            dense = lam * np.eye(nb * m_out) + (jmat @ jmat.T) @ hblk / nb
        assert np.max(np.abs(system.core - dense)) < 1e-10

    def test_bce_floor_applied(self, rng):
        shape = network.NetworkShape((2, 1), ("logistic",))
        theta = network.pack(shape, [(np.zeros((1, 2)), np.array([800.0]))])
        cache = network.forward(shape, theta, np.ones(2))
        assert cache.output[0, 0] == 1.0
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        system = curvature.build_gn_system(shape, theta, cache, spec, lam=1.0)
        # H floored at 1e-12, so the core picks up lam / 1e-12 on the diagonal.
        assert system.core[0, 0] >= 1e11
