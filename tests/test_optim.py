import math
from types import SimpleNamespace

import numpy as np
import pytest

from smwopt import curvature, damping, diff, loss, network, optim, oracles, solver
from smwopt.counters import OpCounters
from smwopt.exceptions import ConfigError, NumericError
from tests.conftest import pack


def linear_regression_data(rng, n=8, m0=3, m_out=2):
    shape = network.NetworkShape((m0, m_out), ("linear",))
    spec = loss.LossSpec(loss.SQUARED_ERROR)
    x = rng.normal(size=(n, m0))
    y = rng.normal(size=(n, m_out))
    return shape, spec, x, y


def blob_classification_data(rng, n=100, m0=2):
    """Two gaussian blobs, scalar 0/1 labels."""
    half = n // 2
    x = np.vstack(
        [
            rng.normal(loc=-1.0, scale=0.7, size=(half, m0)),
            rng.normal(loc=1.0, scale=0.7, size=(n - half, m0)),
        ]
    )
    y = np.vstack([np.zeros((half, 1)), np.ones((n - half, 1))])
    return x, y


def make_binary_trainer(rng, config, hidden=(6,), n=100):
    x, y = blob_classification_data(rng, n=n)
    shape = network.NetworkShape(
        (x.shape[1], *hidden, 1),
        (network.LOGISTIC,) * len(hidden) + (network.LOGISTIC,),
    )
    spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
    return optim.Trainer(shape, spec, x, y, config)


class TestConfig:
    def test_invalid_method(self):
        with pytest.raises(ConfigError):
            optim.OptimizerConfig(method="adam")

    def test_n2_exceeds_n1(self):
        with pytest.raises(ConfigError):
            optim.OptimizerConfig(n1=10, n2=20)

    def test_sgd_checks_n1_only(self):
        optim.OptimizerConfig(method=optim.SGD, n1=10, n2=30)
        with pytest.raises(ConfigError):
            optim.OptimizerConfig(method=optim.SGD, n1=0, n2=0)

    def test_damping_rules_checked_at_construction(self):
        with pytest.raises(ConfigError):
            optim.OptimizerConfig(damping=damping.DampingState(boost=0.5))

    def test_semi_stochastic_constraints(self):
        with pytest.raises(ConfigError):
            optim.OptimizerConfig(semi_stochastic=True, alpha=0.5)
        with pytest.raises(ConfigError):
            optim.OptimizerConfig(semi_stochastic=True, alpha=1.0, eta=0.3)
        with pytest.raises(ConfigError):
            optim.OptimizerConfig(method=optim.SGD, semi_stochastic=True, alpha=1.0)

    def test_semi_stochastic_eta_below_the_configured_epsilon(self):
        """eta = 0.2 clears the default epsilon (0.25) but not epsilon = 0.15."""
        optim.OptimizerConfig(semi_stochastic=True, alpha=1.0, eta=0.2)
        with pytest.raises(ConfigError, match="eta < epsilon"):
            optim.OptimizerConfig(
                semi_stochastic=True, alpha=1.0, eta=0.2,
                damping=damping.DampingState(epsilon=0.15),
            )

    def test_negative_seed(self):
        optim.OptimizerConfig(seed=0)
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            optim.OptimizerConfig(seed=-1)

    def test_cg_iters_validated(self):
        with pytest.raises(ConfigError):
            optim.OptimizerConfig(cg=solver.CgConfig(max_iters=0))


class TestSplits:
    """Both splits pass one check before any step: 2-d with matching rows
    at the network's widths, and test inputs only with test targets."""

    def splits(self, rng):
        x, tx = rng.normal(size=(20, 4)), rng.normal(size=(6, 4))
        y, ty = (np.eye(3)[rng.integers(0, 3, size=n)] for n in (20, 6))
        return x, y, tx, ty

    def trainer(self, x, y, **test):
        shape = network.NetworkShape((4, 5, 3), ("logistic", "softmax"))
        spec = loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY)
        config = optim.OptimizerConfig(method=optim.SMW_GN, n1=5, n2=2)
        return optim.Trainer(shape, spec, x, y, config, **test)

    def test_test_inputs_of_another_width(self, rng):
        x, y, tx, ty = self.splits(rng)
        with pytest.raises(ConfigError, match=r"test inputs \(6, 5\)"):
            self.trainer(x, y, test_inputs=np.hstack([tx, tx[:, :1]]), test_targets=ty)

    def test_test_rows_that_do_not_match(self, rng):
        x, y, tx, ty = self.splits(rng)
        with pytest.raises(ConfigError, match=r"test targets \(5, 3\)"):
            self.trainer(x, y, test_inputs=tx, test_targets=ty[:5])

    def test_test_targets_without_test_inputs(self, rng):
        x, y, _, ty = self.splits(rng)
        with pytest.raises(ConfigError, match="given together"):
            self.trainer(x, y, test_targets=ty)

    def test_training_inputs_of_another_width(self, rng):
        x, y, _, _ = self.splits(rng)
        with pytest.raises(ConfigError, match=r"inputs \(20, 3\)"):
            self.trainer(x[:, :3], y)


class TestSampler:
    def test_full_batch_is_whole_index_set(self, rng):
        sampler = optim.EpochSampler(rng, 10, 10, 3)
        s1, s2 = sampler.sample_batches()
        assert sorted(s1.tolist()) == list(range(10))
        assert np.array_equal(s2, s1[:3])

    def test_fixed_seed_reproducible(self):
        a = optim.EpochSampler(np.random.default_rng(3), 20, 5, 2)
        b = optim.EpochSampler(np.random.default_rng(3), 20, 5, 2)
        for _ in range(10):
            sa, _ = a.sample_batches()
            sb, _ = b.sample_batches()
            assert np.array_equal(sa, sb)

    def test_epoch_partition(self, rng):
        sampler = optim.EpochSampler(rng, 12, 4, 2)
        seen = []
        for _ in range(3):
            s1, _ = sampler.sample_batches()
            assert s1.size == 4
            seen.extend(s1.tolist())
        assert sorted(seen) == list(range(12))

    def test_partial_tail_batch(self, rng):
        sampler = optim.EpochSampler(rng, 10, 4, 3)
        sizes = []
        seen = []
        for _ in range(3):
            s1, s2 = sampler.sample_batches()
            sizes.append(s1.size)
            seen.extend(s1.tolist())
            assert s2.size == min(3, s1.size)
        assert sizes == [4, 4, 2]
        assert sorted(seen) == list(range(10))

    def test_batch_above_sample_count(self, rng):
        """n1 > N is a config error when the Trainer is built."""
        for method in optim.METHODS:
            config = optim.OptimizerConfig(method=method, n1=101, n2=5)
            with pytest.raises(ConfigError):
                make_binary_trainer(rng, config, n=100)


class TestSgd:
    def test_zero_gradient_leaves_theta(self, rng):
        shape, spec, x, y = linear_regression_data(rng, n=4)
        theta0 = network.init_theta(shape, rng)
        cache = network.forward(shape, theta0, x.T)
        fitted = cache.output.T.copy()
        config = optim.OptimizerConfig(method=optim.SGD, n1=4, n2=1, alpha=0.5)
        trainer = optim.Trainer(shape, spec, x, fitted, config)
        trainer.theta = theta0
        trainer.step()
        assert np.array_equal(trainer.theta, theta0)

    def test_single_step_update(self, rng):
        shape, spec, x, y = linear_regression_data(rng, n=4)
        theta0 = network.init_theta(shape, rng)
        config = optim.OptimizerConfig(method=optim.SGD, n1=4, n2=1, alpha=0.1, seed=9)
        trainer = optim.Trainer(shape, spec, x, y, config)
        trainer.theta = theta0
        probe = optim.Trainer(shape, spec, x, y, config)
        s1, _ = probe.sampler.sample_batches()
        cache = network.forward(shape, theta0, x[s1].T)
        from smwopt import diff

        g, _ = diff.gradient(shape, theta0, cache, y[s1].T, spec)
        trainer.step()
        assert np.max(np.abs(trainer.theta - (theta0 - 0.1 * g))) < 1e-15

    def test_matches_hand_rolled_logistic_regression(self, rng):
        """Ten full-batch SGD steps against an independent numpy loop."""
        x, y = blob_classification_data(rng, n=30)
        shape = network.NetworkShape((2, 1), (network.LOGISTIC,))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        theta0 = network.init_theta(shape, 4)
        alpha = 0.3
        config = optim.OptimizerConfig(
            method=optim.SGD, n1=30, n2=1, alpha=alpha, seed=0
        )
        trainer = optim.Trainer(shape, spec, x, y, config)
        trainer.theta = theta0
        for _ in range(10):
            trainer.step()

        w = theta0[:2].copy()
        b = theta0[2]
        for _ in range(10):
            z = x @ w + b
            prob = 1.0 / (1.0 + np.exp(-z))
            resid = prob - y[:, 0]
            gw = x.T @ resid / 30.0
            gb = float(np.mean(resid))
            w -= alpha * gw
            b -= alpha * gb
        assert np.max(np.abs(trainer.theta - np.concatenate([w, [b]]))) < 1e-12


class TestDeterminism:
    @pytest.mark.parametrize("method", optim.METHODS)
    def test_bit_identical_runs(self, method, rng):
        x, y = blob_classification_data(rng, n=40)
        shape = network.NetworkShape((2, 5, 1), ("logistic", "logistic"))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        config = optim.OptimizerConfig(method=method, n1=10, n2=5, alpha=0.2, seed=11)
        thetas = []
        for _ in range(2):
            trainer = optim.Trainer(shape, spec, x, y, config)
            for _ in range(4):
                trainer.step()
            thetas.append(trainer.theta.copy())
        assert np.array_equal(thetas[0], thetas[1])

    def test_batch_sequence_is_method_agnostic(self, rng, monkeypatch):
        x, y = blob_classification_data(rng, n=40)
        shape = network.NetworkShape((2, 5, 1), ("logistic", "logistic"))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        sequences = {}
        original = optim.EpochSampler.sample_batches

        for method in optim.METHODS:
            log = []

            def spy(self, _log=log):
                s1, s2 = original(self)
                _log.append(s1.tolist())
                return s1, s2

            monkeypatch.setattr(optim.EpochSampler, "sample_batches", spy)
            config = optim.OptimizerConfig(
                method=method, n1=10, n2=5, alpha=0.2, seed=21
            )
            trainer = optim.Trainer(shape, spec, x, y, config)
            for _ in range(4):
                trainer.step()
            sequences[method] = log
            monkeypatch.setattr(optim.EpochSampler, "sample_batches", original)
        baseline = sequences[optim.SGD]
        for method in optim.METHODS:
            assert sequences[method] == baseline


class TestSmwStep:
    def test_zero_gradient_batch_boosts_lambda(self, rng):
        shape, spec, x, y = linear_regression_data(rng, n=4)
        theta0 = network.init_theta(shape, rng)
        fitted = network.forward(shape, theta0, x.T).output.T.copy()
        config = optim.OptimizerConfig(
            method=optim.SMW_GN, n1=4, n2=2, alpha=1.0,
            damping=damping.DampingState(lambda_lm=1.0),
        )
        trainer = optim.Trainer(shape, spec, x, fitted, config)
        trainer.theta = theta0
        rec = trainer.step()
        assert np.array_equal(trainer.theta, theta0)
        assert rec.rho == -math.inf
        assert trainer.damping.lambda_lm == pytest.approx(1.01)
        assert rec.step_norm == 0.0

    def test_gn_exact_on_linear_least_squares(self, rng):
        shape, spec, x, y = linear_regression_data(rng, n=8)
        design = np.hstack([x, np.ones((8, 1))])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        theta_star = pack(shape, [(coef[:3].T, coef[3])])
        config = optim.OptimizerConfig(
            method=optim.SMW_GN, n1=8, n2=8, alpha=1.0,
            damping=damping.DampingState(lambda_lm=0.0, tau=1e-10),
        )
        trainer = optim.Trainer(shape, spec, x, y, config)
        trainer.step()
        err = np.max(np.abs(trainer.theta - theta_star))
        assert err <= 1e-6 * (1.0 + np.max(np.abs(theta_star)))

    def test_hf_matches_smw_at_tight_tolerance(self, rng):
        x, y = blob_classification_data(rng, n=20)
        shape = network.NetworkShape((2, 4, 1), ("logistic", "logistic"))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        base = dict(n1=20, n2=10, alpha=1.0, seed=3)
        smw = optim.Trainer(
            shape, spec, x, y,
            optim.OptimizerConfig(method=optim.SMW_GN, **base),
        )
        hf = optim.Trainer(
            shape, spec, x, y,
            optim.OptimizerConfig(
                method=optim.HF,
                cg=solver.CgConfig(max_iters=200, rel_residual_tol=1e-12),
                **base,
            ),
        )
        smw.step()
        hf.step()
        assert np.max(np.abs(smw.theta - hf.theta)) < 1e-8

    def test_rho_uses_unscaled_trial_point(self, rng):
        """rho compares f at theta + p while the update applies alpha * p."""
        x, y = blob_classification_data(rng, n=20)
        shape = network.NetworkShape((2, 4, 1), ("logistic", "logistic"))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        alpha = 0.1
        config = optim.OptimizerConfig(
            method=optim.SMW_GN, n1=20, n2=8, alpha=alpha, seed=5
        )
        trainer = optim.Trainer(shape, spec, x, y, config)
        theta0 = trainer.theta.copy()

        probe = optim.Trainer(shape, spec, x, y, config)
        s1, s2 = probe.sampler.sample_batches()
        cache = network.forward(shape, theta0, x[s1].T)
        from smwopt import curvature, diff, solver as solver_mod

        g, _ = diff.gradient(shape, theta0, cache, y[s1].T, spec)
        system = curvature.GramSystem.of(
            curvature.gn_batch_factors(shape, theta0, cache.cols(np.arange(8)), spec),
            probe.damping.lam,
        )
        direction = solver_mod.smw_direction(shape, theta0, system, g)
        f_before = float(np.mean(loss.loss_value(spec, cache, y[s1].T)))
        trial = network.forward(shape, theta0 + direction.p, x[s1].T)
        f_after = float(np.mean(loss.loss_value(spec, trial, y[s1].T)))
        expected_rho = (f_before - f_after) / (
            -direction.grad_dot - 0.5 * direction.quad_term
        )

        rec = trainer.step()
        assert rec.rho == pytest.approx(expected_rho, rel=1e-12)
        assert np.max(
            np.abs(trainer.theta - (theta0 + alpha * direction.p))
        ) < 1e-12

    @pytest.mark.parametrize("semi_stochastic", [False, True])
    def test_curvature_batch_is_the_drawn_s2(self, semi_stochastic, rng, monkeypatch):
        x, y = blob_classification_data(rng, n=20)
        shape = network.NetworkShape((2, 3, 1), ("logistic", "logistic"))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        config = optim.OptimizerConfig(
            method=optim.SMW_GN, n1=20 if semi_stochastic else 8, n2=5,
            alpha=1.0, semi_stochastic=semi_stochastic, seed=4,
        )
        drawn, built = [], []
        sample, build = optim.EpochSampler.sample_batches, curvature.gn_batch_factors

        def spy_sample(self):
            s1, s2 = sample(self)
            drawn.append(s2.copy())
            return s1, s2

        def spy_build(shape, theta, cache, *args, **kwargs):
            built.append(cache.x.copy())
            return build(shape, theta, cache, *args, **kwargs)

        monkeypatch.setattr(optim.EpochSampler, "sample_batches", spy_sample)
        monkeypatch.setattr(curvature, "gn_batch_factors", spy_build)
        trainer = optim.Trainer(shape, spec, x, y, config)
        for _ in range(3):  # stochastic mode ends on a 4-sample tail batch
            trainer.step()
        assert len(drawn) == len(built) == 3
        for s2, cache_x in zip(drawn, built):
            assert np.array_equal(cache_x, x[s2].T)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_numeric_failure_reports_iteration(self, rng):
        shape, spec, x, y = linear_regression_data(rng, n=4)
        config = optim.OptimizerConfig(method=optim.SMW_GN, n1=4, n2=2)
        trainer = optim.Trainer(shape, spec, x, y, config)
        trainer.theta = np.full(shape.num_params, np.inf)
        with pytest.raises(optim.TrainingError, match="iteration 0") as err:
            trainer.step()
        assert isinstance(err.value, NumericError)


def _packed_step(trainer):
    """One stochastic curvature step with g and p packed: the trainer's
    batches, direction and damping update, a forward at theta + p, and
    theta + alpha p."""
    shape, spec, counters = trainer.shape, trainer.spec, trainer.counters
    s1, s2 = trainer.sampler.sample_batches()
    x1, y1 = trainer.inputs.columns(s1), trainer.y[:, s1]
    cache1 = network.forward(shape, trainer.theta, x1, counters)
    f_before = float(np.mean(loss.loss_value(spec, cache1, y1)))
    g, gfactors = diff.gradient(shape, trainer.theta, cache1, y1, spec, counters)
    lam = trainer.damping.lam
    result = trainer._direction(np.arange(s2.size), cache1, g, gfactors, lam)
    trial = network.forward(shape, trainer.theta + result.p, x1, counters)
    f_after = float(np.mean(loss.loss_value(spec, trial, y1)))
    rho = damping.compute_rho(
        f_before, f_after, result.grad_dot, result.quad_term
    ).rho
    trainer.damping = damping.update_lambda(trainer.damping, rho)
    trainer.theta = trainer.theta + trainer.config.alpha * result.p
    return SimpleNamespace(
        counters=counters.snapshot(), batch_loss=f_before, rho=rho, lam=lam,
        grad_norm=float(np.linalg.norm(g)), step_norm=result.step_norm,
    )


class TestFactoredStep:
    """At lambda >= REFINE_LAMBDA the stochastic curvature step keeps g and
    p in factor space."""

    @staticmethod
    def _trainer(method, lambda_lm=1.0, tau=1e-3):
        rng = np.random.default_rng(7)
        config = optim.OptimizerConfig(
            method=method, n1=12, n2=5, alpha=0.5,
            damping=damping.DampingState(lambda_lm=lambda_lm, tau=tau),
            seed=11,
        )
        return make_binary_trainer(rng, config, hidden=(6, 4), n=60)

    @pytest.mark.parametrize("method", [optim.SMW_GN, optim.SMW_NG, optim.HF])
    def test_matches_the_packed_step(self, method):
        factored = self._trainer(method)
        records = [factored.step() for _ in range(12)]
        assert isinstance(factored.theta, np.ndarray)
        packed = self._trainer(method)
        for rec in records:
            ref = _packed_step(packed)
            assert rec.counters == ref.counters
            for name in ("batch_loss", "rho", "lam", "grad_norm", "step_norm"):
                assert getattr(rec, name) == pytest.approx(getattr(ref, name), rel=1e-10)
        scale = np.max(np.abs(packed.theta))
        assert np.max(np.abs(factored.theta - packed.theta)) <= 1e-12 * scale

    @pytest.mark.parametrize("method", [optim.SMW_GN, optim.SMW_NG])
    @pytest.mark.parametrize("lambda_lm,tau", [(1.0, 1e-3), (0.0, 1e-8)])
    def test_per_iteration_counters(self, method, lambda_lm, tau):
        trainer = self._trainer(method, lambda_lm, tau)
        n1, n2, m_out = 12, 5, 1
        before = OpCounters()
        for _ in range(5):
            rec = trainer.step()
            delta = {
                name: getattr(rec.counters, name) - getattr(before, name)
                for name in ("forward_passes", "backward_passes", "jvp_products",
                             "vjp_products")
            }
            before = rec.counters
            vjp = 0
            if method == optim.SMW_GN:
                vjp = n2 * m_out + n2
                if rec.lam < solver.REFINE_LAMBDA:
                    vjp += 2 * solver.REFINE_ROUNDS * n2
            assert delta == dict(
                forward_passes=2 * n1, backward_passes=n1, jvp_products=0,
                vjp_products=vjp,
            )

    @pytest.mark.parametrize("method", [optim.SMW_GN, optim.SMW_NG, optim.HF])
    def test_one_parameter_length_write(self, method, monkeypatch):
        """theta + alpha p is the step's only expansion."""
        trainer = self._trainer(method)
        calls = []
        expand_sum = diff.BackpropFactors.expand_sum

        def spy(*args, **kwargs):
            calls.append(1)
            return expand_sum(*args, **kwargs)

        monkeypatch.setattr(diff.BackpropFactors, "expand_sum", spy)
        trainer.step()
        assert len(calls) == 1

    def test_factored_forms_reach_the_solver_and_trial_forward(self, monkeypatch):
        """The Woodbury solve sees g and returns p in g's frame, and the
        trial forward is the low-rank one."""
        trainer = self._trainer(optim.SMW_GN)
        calls = []
        direction, low_rank = solver.smw_direction, network.forward_low_rank

        def spy_direction(shape, theta, system, g, counters):
            res = direction(shape, theta, system, g, counters)
            assert isinstance(g, diff.PrefixVector)
            assert isinstance(res.p, diff.PrefixVector) and res.p.frame is g.frame
            calls.append("direction")
            return res

        def spy_trial(*args, **kwargs):
            calls.append("trial")
            return low_rank(*args, **kwargs)

        monkeypatch.setattr(solver, "smw_direction", spy_direction)
        monkeypatch.setattr(optim, "forward_low_rank", spy_trial)
        trainer.step()
        assert calls == ["direction", "trial"]


class TestPackedBelowRefineLambda:
    """Below REFINE_LAMBDA the stochastic curvature step is packed, as only
    packed refinement reaches the solve's backward error."""

    @pytest.mark.parametrize("method", [optim.SMW_GN, optim.SMW_NG, optim.HF])
    def test_no_frame_and_no_low_rank_trial(self, method, monkeypatch):
        trainer = TestFactoredStep._trainer(method, lambda_lm=0.0, tau=1e-8)
        assert trainer.damping.lam < solver.REFINE_LAMBDA

        def refused(*args, **kwargs):
            raise AssertionError("factor-space step below REFINE_LAMBDA")

        monkeypatch.setattr(diff.PrefixFrame, "of", refused)
        monkeypatch.setattr(optim, "forward_low_rank", refused)
        for _ in range(3):
            trainer.step()

    def test_step_norm_is_the_applied_step(self):
        """step_norm is ||theta_{t+1} - theta_t|| / alpha on unstandardized
        regression data at lambda = 1e-9. Read from Grams, a factor-space
        p's norm was 32% and 84% off at iterations 4 and 5."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 4))
        rng.integers(0, 3, 50)
        y = rng.normal(size=(50, 1))
        shape = network.NetworkShape((4, 5, 1), (network.LOGISTIC, network.LINEAR))
        config = optim.OptimizerConfig(
            method=optim.SMW_GN, n1=10, n2=5, alpha=0.1, seed=0,
            damping=damping.DampingState(lambda_lm=0.0, tau=1e-9),
        )
        trainer = optim.Trainer(shape, loss.LossSpec(loss.SQUARED_ERROR), x, y, config)
        for _ in range(8):
            theta = trainer.theta
            rec = trainer.step()
            moved = np.linalg.norm(trainer.theta - theta) / config.alpha
            assert rec.step_norm == pytest.approx(moved, rel=1e-9, abs=0.0)


class TestSemiStochastic:
    def make_trainer(
        self, seed=0, n2=10, lambda_lm=1.0, theta_scale=1.0, method=optim.SMW_GN
    ):
        rng = np.random.default_rng(seed)
        config = optim.OptimizerConfig(
            method=method,
            n1=100,
            n2=n2,
            alpha=1.0,
            semi_stochastic=True,
            eta=0.1,
            damping=damping.DampingState(lambda_lm=lambda_lm),
            seed=seed,
        )
        trainer = make_binary_trainer(rng, config)
        if theta_scale != 1.0:
            trainer.theta = theta_scale * trainer.theta
        return trainer

    def test_requires_full_batch(self, rng):
        x, y = blob_classification_data(rng, n=50)
        shape = network.NetworkShape((2, 1), (network.LOGISTIC,))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        config = optim.OptimizerConfig(
            method=optim.SMW_GN, n1=20, n2=5, alpha=1.0,
            semi_stochastic=True, eta=0.1,
        )
        with pytest.raises(ConfigError):
            optim.Trainer(shape, spec, x, y, config)

    def test_rejected_step_leaves_theta_and_boosts(self):
        # Saturated logistics with near-Newton steps make the model poor.
        trainer = self.make_trainer(seed=2, lambda_lm=1e-3, theta_scale=3.0)
        rejected = 0
        for _ in range(60):
            theta_before = trainer.theta.copy()
            lam_before = trainer.damping.lambda_lm
            rec = trainer.step()
            if not rec.accepted:
                rejected += 1
                assert np.array_equal(trainer.theta, theta_before)
                assert rec.rho < trainer.config.eta
                assert trainer.damping.lambda_lm == pytest.approx(
                    lam_before * trainer.damping.boost
                )
        assert rejected >= 1

    def test_accepted_decrease_meets_threshold(self):
        trainer = self.make_trainer(seed=1)
        for _ in range(30):
            f_before = trainer.full_loss()
            rec = trainer.step()
            f_after = trainer.full_loss()
            if rec.accepted:
                decrease = f_before - f_after
                assert decrease > 0.0
                assert rec.rho >= trainer.config.eta

    def test_loss_sequence_non_increasing(self):
        trainer = self.make_trainer(seed=3)
        losses = [rec.batch_loss for rec in trainer.run(80, eval_interval=0)]
        diffs = np.diff(np.array(losses))
        assert np.all(diffs <= 1e-12)

    @pytest.mark.parametrize("method", [optim.HF, optim.SMW_GN, optim.SMW_NG])
    def test_reused_forward_matches_recomputed(self, method):
        """Reusing the iterate's forward changes nothing but forward_passes."""
        kwargs = dict(seed=2, lambda_lm=1e-3, theta_scale=3.0, method=method)
        reusing, recomputing = self.make_trainer(**kwargs), self.make_trainer(**kwargs)
        n = reusing.n_samples
        accepted = set()
        passes = recomputing.counters.forward_passes
        for _ in range(30):
            recomputing.theta = recomputing.theta.copy()
            a, b = reusing.step(), recomputing.step()
            # A fresh theta array forces both forwards again.
            assert b.counters.forward_passes - passes == 2 * n
            passes = b.counters.forward_passes
            a.wall_time = b.wall_time = 0.0
            a.counters.forward_passes = b.counters.forward_passes = 0
            assert a == b
            accepted.add(a.accepted)
        assert accepted == {True, False}

    def test_accepted_step_keeps_the_trial_point(self, monkeypatch):
        """theta + p is formed once: an accepted step's theta is the array
        the trial forward ran at, a rejected step keeps theta."""
        trainer = self.make_trainer(seed=2, lambda_lm=1e-3, theta_scale=3.0)
        points, forward = [], optim.forward

        def spy(shape, theta, *args, **kwargs):
            points.append(theta)
            return forward(shape, theta, *args, **kwargs)

        monkeypatch.setattr(optim, "forward", spy)
        accepted = set()
        for _ in range(30):
            before = trainer.theta
            rec = trainer.step()
            assert trainer.theta is (points[-1] if rec.accepted else before)
            accepted.add(rec.accepted)
        assert accepted == {True, False}

    def test_forward_passes_count_one_full_set_per_iteration(self):
        trainer = self.make_trainer(seed=2, lambda_lm=1e-3, theta_scale=3.0)
        n = trainer.n_samples
        counts = [0] + [trainer.step().counters.forward_passes for _ in range(6)]
        assert np.diff(counts).tolist() == [2 * n] + [n] * 5
        trainer.theta = trainer.theta.copy()
        assert trainer.step().counters.forward_passes - counts[-1] == 2 * n

    def test_full_loss_reads_the_held_forward(self):
        """No forward pass, and exactly the value a fresh chunked forward
        over the same column-major inputs gives."""
        trainer = self.make_trainer(seed=2, lambda_lm=1e-3, theta_scale=3.0)
        for _ in range(4):
            trainer.step()
            passes = trainer.counters.forward_passes
            held = trainer.full_loss()
            assert trainer.counters.forward_passes == passes
            recomputed = trainer._chunked_mean(
                trainer.inputs, trainer.y,
                lambda cache, y: float(np.sum(loss.loss_value(trainer.spec, cache, y))),
            )
            assert held == recomputed
        trainer.theta = trainer.theta.copy()
        trainer.full_loss()
        assert trainer.counters.forward_passes == passes + 2 * trainer.n_samples

    def test_evaluation_rows_add_no_forward_pass(self):
        trainer = self.make_trainer(seed=2, lambda_lm=1e-3, theta_scale=3.0)
        n = trainer.n_samples
        records = trainer.run(6, eval_interval=2)
        assert [r.full_loss is not None for r in records] == [False, True] * 3
        counts = [0] + [r.counters.forward_passes for r in records]
        assert np.diff(counts).tolist() == [2 * n] + [n] * 5

    def test_rebound_theta_is_not_served_the_old_forward(self):
        trainer = self.make_trainer(seed=1)
        for _ in range(3):
            trainer.step()
        stale = trainer.full_loss()
        trainer.theta = 0.5 * trainer.theta
        expected = trainer.full_loss()
        assert expected != pytest.approx(stale, rel=1e-6)
        assert trainer.step().batch_loss == pytest.approx(expected, rel=1e-12)


class TestRunLoop:
    @staticmethod
    def _softmax_trainer(rng):
        """smw-gn on a 20-sample 4-5-3 softmax net."""
        x = rng.normal(size=(20, 4))
        y = np.eye(3)[rng.integers(0, 3, size=20)]
        shape = network.NetworkShape((4, 5, 3), (network.LOGISTIC, network.SOFTMAX))
        spec = loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY)
        config = optim.OptimizerConfig(method=optim.SMW_GN, n1=5, n2=2)
        return optim.Trainer(shape, spec, x, y, config)

    def test_negative_iteration_count_raises_before_any_step(self, rng):
        trainer = self._softmax_trainer(rng)
        with pytest.raises(ConfigError, match="num_iters"):
            trainer.run(-2)
        assert trainer.t == 0 and trainer.counters.forward_passes == 0
        assert trainer.run(0) == []

    def test_negative_eval_interval_raises_before_any_step(self, rng):
        """None (once per epoch) and 0 (never) stay valid; -3 is refused."""
        trainer = self._softmax_trainer(rng)
        with pytest.raises(ConfigError, match="eval_interval"):
            trainer.run(6, eval_interval=-3)
        assert trainer.t == 0 and trainer.counters.forward_passes == 0
        assert [r.full_loss is None for r in trainer.run(4)] == [True] * 3 + [False]
        assert all(r.full_loss is None for r in trainer.run(4, eval_interval=0))

    def test_eval_interval_defaults_to_epoch(self, rng):
        x, y = blob_classification_data(rng, n=40)
        shape = network.NetworkShape((2, 1), (network.LOGISTIC,))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        config = optim.OptimizerConfig(method=optim.SGD, n1=10, n2=1, alpha=0.2)
        trainer = optim.Trainer(shape, spec, x, y, config)
        records = trainer.run(8)
        evaluated = [r.iteration for r in records if r.full_loss is not None]
        assert evaluated == [3, 7]

    def test_counters_monotone(self, rng):
        x, y = blob_classification_data(rng, n=30)
        shape = network.NetworkShape((2, 3, 1), ("logistic", "logistic"))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        config = optim.OptimizerConfig(method=optim.SMW_GN, n1=10, n2=4, alpha=0.5)
        trainer = optim.Trainer(shape, spec, x, y, config)
        records = trainer.run(5, eval_interval=0)
        for earlier, later in zip(records, records[1:]):
            for field_name in (
                "forward_passes", "backward_passes", "jvp_products", "vjp_products"
            ):
                assert getattr(later.counters, field_name) >= getattr(
                    earlier.counters, field_name
                )

    def test_test_split_is_evaluated_on_a_view(self, rng, monkeypatch):
        """The test inputs are held as given, not copied, and test_error
        equals the error of row-major forwards of the same chunks."""
        x, y = blob_classification_data(rng, n=40)
        tx, ty = blob_classification_data(rng, n=25)
        shape = network.NetworkShape((2, 3, 1), ("logistic", "logistic"))
        spec = loss.LossSpec(loss.BINARY_CROSS_ENTROPY)
        config = optim.OptimizerConfig(method=optim.SMW_GN, n1=10, n2=4, alpha=0.5)
        trainer = optim.Trainer(
            shape, spec, x, y, config, test_inputs=tx, test_targets=ty
        )
        assert trainer.test_inputs.stored is tx
        trainer.run(4, eval_interval=0)
        monkeypatch.setattr(optim, "EVAL_CHUNK", 7)
        errors = 0.0
        for start in range(0, 25, 7):
            rows = slice(start, start + 7)
            chunk = np.ascontiguousarray(tx[rows].T)
            cache = network.forward(shape, trainer.theta, chunk)
            errors += loss.error_rate(cache.output, ty[rows].T) * cache.ncols
        assert trainer.test_error() == errors / 25
