import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smwopt import curvature, diff, loss, network
from smwopt.counters import OpCounters
from smwopt.exceptions import ShapeError
from tests.conftest import (
    fd_loss_gradient,
    fd_preact_jacobian_product,
    make_net,
    pack,
    random_targets,
)


class TestGradient:
    def test_zero_at_perfect_fit(self, rng):
        shape = network.NetworkShape((3, 2), ("linear",))
        theta = network.init_theta(shape, rng)
        x = rng.normal(size=(3, 1))
        cache = network.forward(shape, theta, x)
        y = cache.output
        g, _ = diff.gradient(
            shape, theta, cache, y, loss.LossSpec(loss.SQUARED_ERROR)
        )
        assert np.array_equal(g, np.zeros(shape.num_params))

    def test_linear_closed_form(self, rng):
        shape = network.NetworkShape((3, 2), ("linear",))
        theta = network.init_theta(shape, rng)
        (w, b), = network.unpack(shape, theta)
        x = rng.normal(size=(3, 1))
        y = rng.normal(size=(2, 1))
        cache = network.forward(shape, theta, x)
        g, _ = diff.gradient(
            shape, theta, cache, y, loss.LossSpec(loss.SQUARED_ERROR)
        )
        r = w @ x[:, 0] + b - y[:, 0]
        expected = pack(shape, [(2.0 * np.outer(r, x), 2.0 * r)])
        assert np.max(np.abs(g - expected)) < 1e-14

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_matches_finite_differences(self, kind, rng):
        shape, spec, theta = make_net(rng, kind, hidden=[5, 4], m_in=3)
        x = rng.normal(size=(3, 1))
        y = random_targets(rng, kind, shape.output_size)
        cache = network.forward(shape, theta, x)
        g, _ = diff.gradient(shape, theta, cache, y, spec)
        fd = fd_loss_gradient(shape, theta, x, y, spec)
        assert np.max(np.abs(g - fd) / (1.0 + np.abs(fd))) < 1e-6

    def test_batch_gradient_is_mean(self, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR, hidden=[4])
        x = rng.normal(size=(shape.input_size, 5))
        y = random_targets(rng, spec.kind, shape.output_size, 5)
        cache = network.forward(shape, theta, x)
        g, _ = diff.gradient(shape, theta, cache, y, spec)
        singles = []
        for i in range(5):
            ci = network.forward(shape, theta, x[:, [i]])
            gi, _ = diff.gradient(shape, theta, ci, y[:, [i]], spec)
            singles.append(gi)
        assert np.max(np.abs(g - np.mean(singles, axis=0))) < 1e-14

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_factored_gradient_expands_to_packed(self, kind, rng):
        """factored=True: the per-sample adjoints over the batch size, on
        the cache's layer inputs."""
        shape, spec, theta = make_net(rng, kind, hidden=[5, 4])
        x = rng.normal(size=(shape.input_size, 6))
        y = random_targets(rng, kind, shape.output_size, 6)
        cache = network.forward(shape, theta, x)
        counters = OpCounters()
        g, factors = diff.gradient(shape, theta, cache, y, spec, counters, factored=True)
        packed, _ = diff.gradient(shape, theta, cache, y, spec)
        assert isinstance(g, diff.BackpropFactors)
        assert g.layer_inputs is factors.layer_inputs
        expanded = g.expand_sum()
        assert np.max(np.abs(expanded - packed)) <= 1e-15 * np.max(np.abs(packed))
        assert counters == OpCounters(backward_passes=6)
        for a, full in zip(factors.layer_adjoints, g.layer_adjoints):
            assert np.array_equal(full, a / 6)

    def test_counter_one_forward_one_backward(self, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        counters = OpCounters()
        x = rng.normal(size=(shape.input_size, 1))
        cache = network.forward(shape, theta, x, counters)
        diff.gradient(
            shape, theta, cache,
            random_targets(rng, spec.kind, shape.output_size),
            spec, counters,
        )
        assert counters.forward_passes == 1
        assert counters.backward_passes == 1
        assert counters.jvp_products == counters.vjp_products == 0


class TestJvp:
    def test_zero_direction(self, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        cache = network.forward(shape, theta, rng.normal(size=(shape.input_size, 1)))
        out = diff.jvp(shape, theta, cache, np.zeros(shape.num_params))
        assert np.array_equal(out, np.zeros((shape.output_size, 1)))

    def test_linear_layer(self, rng):
        shape = network.NetworkShape((3, 2), ("linear",))
        theta = network.init_theta(shape, rng)
        x = rng.normal(size=(3, 1))
        cache = network.forward(shape, theta, x)
        w1 = rng.normal(size=(2, 3))
        b1 = rng.normal(size=2)
        direction = pack(shape, [(w1, b1)])
        out = diff.jvp(shape, theta, cache, direction)
        assert np.max(np.abs(out[:, 0] - (w1 @ x[:, 0] + b1))) < 1e-14

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_matches_finite_differences(self, kind, rng):
        shape, spec, theta = make_net(rng, kind)
        x = rng.normal(size=(shape.input_size, 1))
        cache = network.forward(shape, theta, x)
        direction = rng.normal(size=shape.num_params)
        out = diff.jvp(shape, theta, cache, direction)
        fd = fd_preact_jacobian_product(shape, theta, x, direction)
        assert np.max(np.abs(out - fd) / (1.0 + np.abs(fd))) < 1e-6

    def test_packed_tangent_sums_in_layer_order(self, rng):
        """h1_l = (W1_l v_{l-1} + b1_l) + W_l v1_{l-1} and
        v1_l = (1 - v_l) v_l h1_l, bit for bit."""
        shape, spec, theta = make_net(rng, loss.SOFTMAX_CROSS_ENTROPY, hidden=[5, 4])
        cache = network.forward(shape, theta, rng.normal(size=(shape.input_size, 3)))
        t1 = rng.normal(size=shape.num_params)
        params, direction = network.unpack(shape, theta), network.unpack(shape, t1)
        for l, ((w, _), (w1, b1)) in enumerate(zip(params, direction), start=1):
            h1 = w1 @ cache.v(l - 1) + b1[:, None]
            if l > 1:
                h1 += w @ v1
            if l < shape.num_layers:
                v = cache.v(l)
                v1 = (1.0 - v) * v * h1
        assert np.array_equal(diff.jvp(shape, theta, cache, t1), h1)


class TestVjp:
    def test_zero_seed(self, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        cache = network.forward(shape, theta, rng.normal(size=(shape.input_size, 1)))
        packed, _ = diff.vjp(shape, theta, cache, np.zeros((shape.output_size, 1)))
        assert np.array_equal(packed, np.zeros(shape.num_params))

    def test_linear_unit_seed(self, rng):
        shape = network.NetworkShape((3, 2), ("linear",))
        theta = network.init_theta(shape, rng)
        x = rng.normal(size=(3, 1))
        cache = network.forward(shape, theta, x)
        packed, _ = diff.vjp(shape, theta, cache, np.array([[1.0], [0.0]]))
        (w_block, b_block), = network.unpack(shape, packed)
        assert np.max(np.abs(w_block[0] - x[:, 0])) < 1e-15
        assert np.array_equal(w_block[1], np.zeros(3))
        assert np.array_equal(b_block, [1.0, 0.0])

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_adjoint_identity(self, kind, rng):
        for _ in range(34):
            shape, spec, theta = make_net(rng, kind)
            x = rng.normal(size=(shape.input_size, 1))
            cache = network.forward(shape, theta, x)
            t1 = rng.normal(size=shape.num_params)
            xo = rng.normal(size=(shape.output_size, 1))
            lhs = float(diff.jvp(shape, theta, cache, t1)[:, 0] @ xo[:, 0])
            packed, _ = diff.vjp(shape, theta, cache, xo)
            rhs = float(t1 @ packed)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_factors_only_mode(self, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        cache = network.forward(shape, theta, rng.normal(size=(shape.input_size, 1)))
        xo = rng.normal(size=(shape.output_size, 1))
        packed, factors = diff.vjp(shape, theta, cache, xo)
        none_packed, factors2 = diff.vjp(shape, theta, cache, xo, expand=False)
        assert none_packed is None
        assert np.max(np.abs(factors2.expand_sum() - packed)) < 1e-15

    def test_batch_sums_over_columns(self, rng):
        shape, spec, theta = make_net(rng, loss.SOFTMAX_CROSS_ENTROPY)
        x = rng.normal(size=(shape.input_size, 4))
        cache = network.forward(shape, theta, x)
        seeds = rng.normal(size=(shape.output_size, 4))
        packed, _ = diff.vjp(shape, theta, cache, seeds)
        total = np.zeros(shape.num_params)
        for i in range(4):
            ci = network.forward(shape, theta, x[:, [i]])
            pi, _ = diff.vjp(shape, theta, ci, seeds[:, [i]])
            total += pi
        assert np.max(np.abs(packed - total)) < 1e-12

    def test_gradient_equals_vjp_of_output_gradient(self, rng):
        """The gradient is the mean vjp of the loss gradient in h_L, bit for bit."""
        for kind in loss.LOSS_KINDS:
            shape, spec, theta = make_net(rng, kind)
            x = rng.normal(size=(shape.input_size, 3))
            y = random_targets(rng, kind, shape.output_size, 3)
            cache = network.forward(shape, theta, x)
            g, _ = diff.gradient(shape, theta, cache, y, spec)
            r = loss.loss_grad_h(spec, cache, y)
            packed, _ = diff.vjp(shape, theta, cache, r)
            assert np.array_equal(g, packed / 3)

    def test_counters(self, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        counters = OpCounters()
        x = rng.normal(size=(shape.input_size, 3))
        cache = network.forward(shape, theta, x)
        diff.jvp(shape, theta, cache, np.zeros(shape.num_params), counters)
        diff.vjp(shape, theta, cache, np.zeros((shape.output_size, 3)), counters)
        assert counters.jvp_products == 3
        assert counters.vjp_products == 3

    @pytest.mark.parametrize(
        "out_act", (network.LINEAR, network.LOGISTIC, network.SOFTMAX)
    )
    def test_trailing_axis_matches_per_column_sweeps(self, out_act, rng):
        """A (m_L, B, k) seed sweeps B*k columns at once: slot [:, :, j] of
        every adjoint is the sweep of seed j alone, and B*k products count."""
        shape = network.NetworkShape(
            (4, 5, 3, 3), (network.LINEAR, network.LOGISTIC, out_act)
        )
        theta = network.init_theta(shape, rng)
        nb, k = 5, 4
        cache = network.forward(shape, theta, rng.normal(size=(4, nb)))
        seeds = rng.normal(size=(3, nb, k))
        counters = OpCounters()
        packed, factors = diff.vjp(
            shape, theta, cache, seeds, counters, expand=False
        )
        assert packed is None
        assert counters.vjp_products == nb * k
        for j in range(k):
            _, single = diff.vjp(shape, theta, cache, seeds[:, :, j], expand=False)
            for a, ref in zip(factors.layer_adjoints, single.layer_adjoints):
                assert a.shape == (len(ref), nb, k)
                assert np.max(np.abs(a[:, :, j] - ref)) <= 1e-15 * np.max(
                    np.abs(ref)
                )

    def test_trailing_axis_needs_factors_only(self, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        cache = network.forward(shape, theta, rng.normal(size=(shape.input_size, 2)))
        seeds = rng.normal(size=(shape.output_size, 2, 3))
        with pytest.raises(ShapeError):
            diff.vjp(shape, theta, cache, seeds)
        with pytest.raises(ShapeError):
            diff.vjp(shape, theta, cache, seeds[:, :1], expand=False)


class TestExpandSum:
    """BackpropFactors.expand_sum against explicit per-sample outer products,
    on the column layouts training hands it."""

    @staticmethod
    def _outer_products(factors, weights):
        params = []
        for a, v in zip(factors.layer_adjoints, factors.layer_inputs):
            w = sum(weights[i] * np.outer(a[:, i], v[:, i]) for i in range(a.shape[1]))
            b = sum(weights[i] * a[:, i] for i in range(a.shape[1]))
            params.append((w, b))
        return pack(factors.shape, params)

    @pytest.mark.parametrize(
        "idx,layout",
        [(slice(1, None, 2), "strided"), (np.array([5, 0, 3, 2]), "F")],
        ids=["strided_view", "column_major_gather"],
    )
    @pytest.mark.parametrize("weighted", [False, True], ids=["sum", "weights"])
    def test_matches_outer_products(self, idx, layout, weighted, rng):
        shape, spec, theta = make_net(rng, loss.SOFTMAX_CROSS_ENTROPY, hidden=[5, 4])
        cache = network.forward(shape, theta, rng.normal(size=(shape.input_size, 7)))
        seeds = rng.normal(size=(shape.output_size, 7))
        sub = cache.cols(idx)
        _, from_sub_cache = diff.vjp(shape, theta, sub, seeds[:, idx], expand=False)
        _, full = diff.vjp(shape, theta, cache, seeds, expand=False)
        for factors in (from_sub_cache, full.cols(idx)):
            v = factors.layer_inputs[1]
            if layout == "F":
                assert v.flags.f_contiguous and not v.flags.c_contiguous
            else:
                assert not (v.flags.c_contiguous or v.flags.f_contiguous)
            nb = factors.ncols
            weights = rng.normal(size=nb) if weighted else np.ones(nb)
            got = factors.expand_sum(weights=weights if weighted else None)
            expected = self._outer_products(factors, weights)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestFactoredDot:
    """The factored identity <J_a^T x_a, J_b^T x_b> = sum_l (v_a.v_b + 1)(a_a.a_b),
    read off the off-diagonal entry of curvature.gn_block_gram over two columns."""

    def _factor_pair(self, rng, kind=loss.SQUARED_ERROR):
        shape, spec, theta = make_net(rng, kind, hidden=[4, 3])
        x = rng.normal(size=(2, shape.input_size)).T
        cache = network.forward(shape, theta, x)
        seeds = rng.normal(size=(2, shape.output_size)).T
        _, factors = diff.vjp(shape, theta, cache, seeds)
        return factors

    def test_zero_side(self, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        x = rng.normal(size=(shape.input_size, 1))
        cache = network.forward(shape, theta, np.hstack([x, x]))
        m_out = shape.output_size
        seeds = np.hstack([np.zeros((m_out, 1)), rng.normal(size=(m_out, 1))])
        _, factors = diff.vjp(shape, theta, cache, seeds)
        assert curvature.gn_block_gram(factors)[0, 1] == 0.0

    def test_self_dot_nonnegative(self, rng):
        factors = self._factor_pair(rng)
        assert curvature.gn_block_gram(factors)[0, 0] >= 0.0

    def test_matches_expansion(self, rng):
        for _ in range(20):
            factors = self._factor_pair(rng)
            ea, eb = factors.cols([0]).expand_sum(), factors.cols([1]).expand_sum()
            expected = float(ea @ eb)
            got = curvature.gn_block_gram(factors)[0, 1]
            assert abs(got - expected) <= 1e-12 * (1.0 + abs(expected))

    def test_plus_one_accounts_for_bias(self, rng):
        """The +1 adds the bias-block dot product; dropping it leaves the weights'."""
        factors = self._factor_pair(rng)
        weights_only = 0.0
        for a, v in zip(factors.layer_adjoints, factors.layer_inputs):
            weights_only += float((v[:, 0] @ v[:, 1]) * (a[:, 0] @ a[:, 1]))
        ea, eb = factors.cols([0]).expand_sum(), factors.cols([1]).expand_sum()
        biases = [bsl for _, bsl, _, _ in factors.shape.param_layout()]
        bias_dot = sum(float(ea[bsl] @ eb[bsl]) for bsl in biases)
        got = curvature.gn_block_gram(factors)[0, 1]
        assert abs(got - weights_only - bias_dot) <= 1e-12 * (1.0 + abs(got))
        for bsl in biases:
            ea[bsl] = 0.0
            eb[bsl] = 0.0
        assert abs(weights_only - float(ea @ eb)) <= 1e-12 * (1.0 + abs(weights_only))

    def test_dots_with_matches_expansion(self, rng):
        shape, spec, theta = make_net(rng, loss.SQUARED_ERROR)
        x = rng.normal(size=(shape.input_size, 4))
        cache = network.forward(shape, theta, x)
        _, factors = diff.vjp(
            shape, theta, cache, rng.normal(size=(shape.output_size, 4))
        )
        packed = rng.normal(size=shape.num_params)
        dots = factors.dots_with(packed)
        for i in range(4):
            expected = float(factors.cols([i]).expand_sum() @ packed)
            assert abs(dots[i] - expected) <= 1e-12 * (1.0 + abs(expected))


class TestFactoredVector:
    """Vectors kept as adjoints over a batch's samples, here PrefixVectors
    on the first 3 of 5 columns, against their expansions."""

    def test_inner_products_and_norm_match_expansion(self, rng):
        *_, x, y = TestPrefixVector()._frame(rng)
        ex, ey = x.expand(), y.expand()
        assert x @ y == pytest.approx(float(ex @ ey), rel=1e-12)
        assert diff.norm(x) == pytest.approx(float(np.linalg.norm(ex)), rel=1e-12)
        assert diff.norm(x) == math.sqrt(x @ x)
        assert diff.norm(ex) == float(np.linalg.norm(ex))

    def test_linear_combinations_match_expansion(self, rng):
        *_, x, y = TestPrefixVector()._frame(rng)
        ex, ey = x.expand(), y.expand()
        scale = 1.0 + np.max(np.abs(ex)) + np.max(np.abs(ey))
        for got, expected in (
            (-x, -ex), (x + y, ex + ey), (x - y, ex - ey), (2.5 * x, 2.5 * ex),
            (x * 2.5, 2.5 * ex),
        ):
            assert isinstance(got, diff.PrefixVector)
            assert np.max(np.abs(got.expand() - expected)) <= 1e-14 * scale
        z = x - y  # owns its buffer
        z -= y
        z /= 4.0
        assert np.max(np.abs(z.expand() - (ex - 2 * ey) / 4.0)) <= 1e-14 * scale
        assert np.max(np.abs(x.expand() - ex)) == 0.0

    def test_in_place_operators_and_copy(self, rng):
        *_, x, y = TestPrefixVector()._frame(rng)
        ex, ey = x.expand(), y.expand()
        scale = 1.0 + np.max(np.abs(ex)) + np.max(np.abs(ey))
        z = x.copy()
        z += y
        z *= 2.5
        assert np.max(np.abs(z.expand() - 2.5 * (ex + ey))) <= 1e-14 * scale
        assert np.array_equal(x.expand(), ex)
        assert not np.shares_memory(x.data, z.data)

    @pytest.mark.parametrize("hidden", ([5, 4], [5, 4, 3]), ids=("two", "three"))
    def test_jvp_of_a_factored_tangent_matches_its_expansion(self, hidden, rng):
        """At S2, J theta1 from the tangent's layer pre-activations."""
        shape, theta, cache, _, _, x, _ = TestPrefixVector()._frame(rng, hidden=hidden)
        prefix = cache.cols(slice(0, 3))
        counters = OpCounters()
        got = diff.jvp(shape, theta, prefix, x, counters)
        expected = diff.jvp(shape, theta, prefix, x.expand())
        assert np.max(np.abs(got - expected)) <= 1e-12 * (
            1.0 + np.max(np.abs(expected))
        )
        assert counters == OpCounters(jvp_products=3)


class TestPrefixVector:
    """Vectors held as a multiple of g plus adjoints on the first 3 of the
    5 columns of g's factors over S1, against the same vectors placed on
    S1 and their expansions."""

    def _frame(self, rng, hidden=(5, 4)):
        shape, spec, theta = make_net(rng, loss.SOFTMAX_CROSS_ENTROPY, hidden=hidden)
        cache = network.forward(shape, theta, rng.normal(size=(shape.input_size, 5)))
        g = diff.BackpropFactors(
            shape,
            [rng.normal(size=(m, 5)) for m in shape.layer_sizes[1:]],
            [cache.v(l) for l in range(shape.num_layers)],
        )
        frame = diff.PrefixFrame.of(g, 3)
        x, y = (
            diff.PrefixVector(
                frame,
                np.concatenate(
                    [rng.normal(size=(m, 3)).ravel() for m in shape.layer_sizes[1:]]
                    + [rng.normal(size=1)]
                ),
            )
            for _ in range(2)
        )
        return shape, theta, cache, g, frame, x, y

    def test_factored_places_the_prefix_and_g_elsewhere(self, rng):
        _, _, _, g, frame, x, _ = self._frame(rng)
        got = x.factored()
        assert got.layer_inputs is g.layer_inputs
        for full, a, ga in zip(got.layer_adjoints, x.adjoints, g.layer_adjoints):
            assert np.array_equal(full[:, :3], a)
            assert np.array_equal(full[:, 3:], x.beta * ga[:, 3:])
        for full, ga in zip(frame.gradient.factored().layer_adjoints, g.layer_adjoints):
            assert np.array_equal(full, ga)

    def test_inner_products_and_norm_match_factored(self, rng):
        """Among them g itself, whose norm the trainer reads as grad_norm."""
        _, _, _, g, frame, x, _ = self._frame(rng)
        gx = frame.gradient
        eg, ex = g.expand_sum(), x.expand()
        assert gx @ x == pytest.approx(float(eg @ ex), rel=1e-12)
        assert x @ gx == pytest.approx(float(eg @ ex), rel=1e-12)
        assert diff.norm(gx) == pytest.approx(float(np.linalg.norm(eg)), rel=1e-12)

    def test_linear_combinations_act_on_beta_too(self, rng):
        _, _, _, _, _, x, y = self._frame(rng)
        ex, ey = x.expand(), y.expand()
        scale = 1.0 + np.max(np.abs(ex)) + np.max(np.abs(ey))
        z = x - y * 2.0
        z += x
        z *= 0.5
        z /= 4.0
        assert isinstance(z, diff.PrefixVector)
        assert z.beta == pytest.approx((x.beta - y.beta) / 4.0, rel=1e-15)
        assert np.max(np.abs(z.expand() - (ex - ey) / 4.0)) <= 1e-14 * scale

    @pytest.mark.parametrize("hidden", ([5, 4], [5, 4, 3]), ids=("two", "three"))
    def test_jvp_matches_factored_tangent(self, hidden, rng):
        """g itself as the tangent: beta 1 and g's S2 adjoints."""
        shape, theta, cache, g, frame, _, _ = self._frame(rng, hidden=hidden)
        prefix = cache.cols(slice(0, 3))
        counters = OpCounters()
        got = diff.jvp(shape, theta, prefix, frame.gradient, counters)
        expected = diff.jvp(shape, theta, prefix, g.expand_sum())
        assert np.max(np.abs(got - expected)) <= 1e-12 * (
            1.0 + np.max(np.abs(expected))
        )
        assert counters == OpCounters(jvp_products=3)

    def test_array_is_the_expansion(self, rng):
        """numpy functions read a vector in g's frame as its expansion."""
        *_, x, _ = self._frame(rng)
        ex = x.expand()
        assert np.array_equal(np.asarray(x), ex)
        assert np.linalg.norm(x) == np.linalg.norm(ex)

    def test_added_to_packed_is_one_fresh_expansion(self, rng):
        *_, x, _ = self._frame(rng)
        theta = rng.normal(size=x.expand().size)
        before = theta.copy()
        out = theta + x
        assert isinstance(out, np.ndarray) and out is not theta
        assert np.array_equal(theta, before)
        assert np.array_equal(out, x.expand() + theta)

    def test_dots_with_matches_packed(self, rng):
        """A curvature batch S2 reads U^T x from the frame's blocks of S1's
        Grams, with one and with m_L vectors per sample."""
        shape, theta, cache, _, _, x, _ = self._frame(rng)
        prefix = cache.cols(slice(0, 3))
        seeds = rng.normal(size=(shape.output_size, 3, shape.output_size))
        _, gn = diff.vjp(shape, theta, prefix, seeds, expand=False)
        _, ng = diff.vjp(shape, theta, prefix, seeds[:, :, 0], expand=False)
        packed = x.expand()
        for factors in (gn, ng):
            expected = factors.dots_with(packed)
            got = factors.dots_with(x)
            assert np.max(np.abs(got - expected)) <= 1e-12 * (
                1.0 + np.max(np.abs(expected))
            )

    def test_embed_pads_a_prefix_and_weights_it(self, rng):
        """S2's factors summed in g's frame with weights, then placed on S1:
        S2's adjoints weighted on S1's first columns, and beta g's, zero
        here, on the others."""
        shape, theta, cache, g, frame, _, _ = self._frame(rng)
        seeds = rng.normal(size=(shape.output_size, 3))
        _, factors = diff.vjp(shape, theta, cache.cols(slice(0, 3)), seeds)
        w = rng.normal(size=3)
        y = frame.embed(factors, weights=w)
        assert y.beta == 0.0
        x = y.factored()
        assert x.layer_inputs is g.layer_inputs
        for a, full in zip(factors.layer_adjoints, x.layer_adjoints):
            assert np.array_equal(full[:, :3], a * w)
            assert not full[:, 3:].any()
        expected = factors.expand_sum(weights=w)
        got = x.expand_sum()
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_operators_act_part_by_part_on_one_buffer(self, rng):
        """Each operator gives, bit for bit, the part-wise result on the
        adjoints and beta; a fresh result owns a buffer of its own."""
        *_, x, y = self._frame(rng)

        def parts(v):
            return [*v.adjoints, v.coef]

        px, py = parts(x), parts(y)
        for got, expected in (
            (-x, [-a for a in px]),
            (x + y, [a + b for a, b in zip(px, py)]),
            (x - y, [a - b for a, b in zip(px, py)]),
            (x * 0.3, [a * 0.3 for a in px]),
            (0.3 * x, [a * 0.3 for a in px]),
            (x.copy(), px),
        ):
            assert isinstance(got, diff.PrefixVector) and got.frame is x.frame
            for a, b in zip(parts(got), expected):
                assert a.shape == b.shape
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
            assert not np.shares_memory(got.data, x.data)
            assert not np.shares_memory(got.data, y.data)
            assert all(np.shares_memory(a, got.data) for a in parts(got))

    def test_in_place_operators_show_through_adjoints_and_coef(self, rng):
        """In-place operators write the part-wise bits into the buffer that
        adjoints and coef view."""
        *_, x, y = self._frame(rng)
        data, held = x.data, [*x.adjoints, x.coef]
        py = [*y.adjoints, y.coef]
        expected = [a.copy() for a in held]

        def holds_expected():
            assert x.data is data
            return all(
                np.array_equal(a.view(np.int64), e.view(np.int64))
                for a, e in zip(held, expected)
            )

        x += y
        expected = [e + b for e, b in zip(expected, py)]
        assert holds_expected()
        x -= y
        expected = [e - b for e, b in zip(expected, py)]
        assert holds_expected()
        x *= 0.7
        expected = [e * 0.7 for e in expected]
        assert holds_expected()
        x /= 3.0
        expected = [e / 3.0 for e in expected]
        assert holds_expected()

    def test_frame_vectors_own_their_adjoints(self, rng):
        """embed and gradient copy what they read: writing to the vector
        leaves g's and the factors' adjoints as they were."""
        shape, theta, cache, g, frame, _, _ = self._frame(rng)
        _, factors = diff.vjp(
            shape, theta, cache.cols(slice(0, 3)),
            rng.normal(size=(shape.output_size, 3)),
        )
        w = rng.normal(size=3)
        for vec, read in (
            (frame.gradient, g.layer_adjoints),
            (frame.embed(factors), factors.layer_adjoints),
            (frame.embed(factors, weights=w), factors.layer_adjoints),
        ):
            kept = [a.copy() for a in read]
            assert all(np.shares_memory(x, vec.data) for x in vec.adjoints)
            assert not any(np.shares_memory(vec.data, a) for a in read)
            vec *= 2.0
            assert all(np.array_equal(a, k) for a, k in zip(read, kept))
        assert frame.gradient.beta == 1.0 and frame.embed(factors).beta == 0.0
        for a, b in zip(frame.embed(factors).adjoints, factors.layer_adjoints):
            assert np.array_equal(a, b)

    def test_rounding_negative_square_reads_zero_norm(self):
        """Grams are positive semidefinite only up to rounding; a square
        that rounds below zero is a zero norm, not a sqrt error."""
        gram = np.array([[1.0, 1.0 + 2.0**-52], [1.0 + 2.0**-52, 1.0]])
        frame = diff.PrefixFrame(
            g=None, grams=[gram], cross=[np.zeros((1, 2))], tail_sq=0.0,
            first_gram=None,
        )
        x = diff.PrefixVector(frame, np.concatenate([[1.0, -1.0], np.zeros(1)]))
        assert x @ x < 0.0
        assert diff.norm(x) == 0.0


def test_mixed_hidden_activations(rng):
    """Linear and logistic hidden layers together: gradient and adjoint hold."""
    shape = network.NetworkShape(
        (4, 5, 3, 2), ("linear", "logistic", "softmax")
    )
    spec = loss.LossSpec(loss.SOFTMAX_CROSS_ENTROPY)
    theta = network.init_theta(shape, rng)
    x = rng.normal(size=(4, 1))
    y = random_targets(rng, spec.kind, 2)
    cache = network.forward(shape, theta, x)
    g, _ = diff.gradient(shape, theta, cache, y, spec)
    fd = fd_loss_gradient(shape, theta, x, y, spec)
    assert np.max(np.abs(g - fd) / (1.0 + np.abs(fd))) < 1e-6
    for _ in range(20):
        t1 = rng.normal(size=shape.num_params)
        xo = rng.normal(size=(2, 1))
        lhs = float(diff.jvp(shape, theta, cache, t1)[:, 0] @ xo[:, 0])
        packed, _ = diff.vjp(shape, theta, cache, xo)
        assert abs(lhs - float(t1 @ packed)) <= 1e-10 * (1.0 + abs(lhs))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_adjoint_identity_property(seed):
    rng = np.random.default_rng(seed)
    kind = loss.LOSS_KINDS[seed % 3]
    shape, spec, theta = make_net(rng, kind)
    x = rng.normal(size=(shape.input_size, 1))
    cache = network.forward(shape, theta, x)
    t1 = rng.normal(size=shape.num_params)
    xo = rng.normal(size=(shape.output_size, 1))
    lhs = float(diff.jvp(shape, theta, cache, t1)[:, 0] @ xo[:, 0])
    packed, _ = diff.vjp(shape, theta, cache, xo)
    assert abs(lhs - float(t1 @ packed)) <= 1e-10 * (1.0 + abs(lhs))
