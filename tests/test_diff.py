import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smwopt import curvature, diff, loss, network
from smwopt.counters import OpCounters
from smwopt.exceptions import ShapeError
from smwopt.oracles import pack
from tests.conftest import (
    fd_loss_gradient,
    fd_preact_jacobian_product,
    make_net,
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
    """Vectors kept as adjoints over a batch's samples against their expansions."""

    def _pair(self, rng, n=5):
        shape, spec, theta = make_net(rng, loss.SOFTMAX_CROSS_ENTROPY, hidden=[5, 4])
        cache = network.forward(shape, theta, rng.normal(size=(shape.input_size, n)))
        span = diff.SampleSpan.of(cache)
        x, y = (
            diff.FactoredVector(
                span, [rng.normal(size=(m, n)) for m in shape.layer_sizes[1:]]
            )
            for _ in range(2)
        )
        return shape, theta, cache, span, x, y

    def test_inner_products_and_norm_match_expansion(self, rng):
        _, _, _, _, x, y = self._pair(rng)
        ex, ey = x.expand(), y.expand()
        assert x @ y == pytest.approx(float(ex @ ey), rel=1e-12)
        assert x.norm() == pytest.approx(float(np.linalg.norm(ex)), rel=1e-12)
        assert diff.norm(x) == x.norm()
        assert diff.norm(ex) == float(np.linalg.norm(ex))

    def test_linear_combinations_match_expansion(self, rng):
        _, _, _, _, x, y = self._pair(rng)
        ex, ey = x.expand(), y.expand()
        scale = 1.0 + np.max(np.abs(ex)) + np.max(np.abs(ey))
        for got, expected in (
            (-x, -ex), (x + y, ex + ey), (x - y, ex - ey), (2.5 * x, 2.5 * ex),
            (x * 2.5, 2.5 * ex),
        ):
            assert isinstance(got, diff.FactoredVector)
            assert np.max(np.abs(got.expand() - expected)) <= 1e-14 * scale
        z = x - y  # owns its adjoints
        z -= y
        z /= 4.0
        assert np.max(np.abs(z.expand() - (ex - 2 * ey) / 4.0)) <= 1e-14 * scale
        assert np.max(np.abs(x.expand() - ex)) == 0.0

    def test_added_to_packed_is_one_fresh_expansion(self, rng):
        _, _, _, _, x, _ = self._pair(rng)
        theta = rng.normal(size=x.expand().size)
        before = theta.copy()
        out = theta + x
        assert isinstance(out, np.ndarray) and out is not theta
        assert np.array_equal(theta, before)
        assert np.array_equal(out, x.expand() + theta)

    def test_dots_with_matches_packed(self, rng):
        """A curvature batch that is a prefix of the span reads U^T x from
        the span's Grams, with one and with m_L vectors per sample."""
        shape, theta, cache, _, x, _ = self._pair(rng)
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
        shape, theta, cache, span, _, _ = self._pair(rng)
        seeds = rng.normal(size=(shape.output_size, 3))
        _, factors = diff.vjp(shape, theta, cache.cols(slice(0, 3)), seeds)
        w = rng.normal(size=3)
        x = span.embed(factors, weights=w)
        for a, full in zip(factors.layer_adjoints, x.adjoints):
            assert np.array_equal(full[:, :3], a * w)
            assert not full[:, 3:].any()
        expected = factors.expand_sum(weights=w)
        assert np.max(np.abs(x.expand() - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_rounding_negative_square_reads_zero_norm(self, rng):
        """Grams are positive semidefinite only up to rounding; a square
        that rounds below zero is a zero norm, not a sqrt error."""
        shape = network.NetworkShape((1, 1), ("linear",))
        gram = np.array([[1.0, 1.0 + 2.0**-52], [1.0 + 2.0**-52, 1.0]])
        span = diff.SampleSpan(shape, [np.ones((1, 2))], [gram])
        x = diff.FactoredVector(span, [np.array([[1.0, -1.0]])])
        assert x @ x < 0.0
        assert x.norm() == 0.0

    @pytest.mark.parametrize("kind", loss.LOSS_KINDS)
    def test_factored_gradient_expands_to_packed(self, kind, rng):
        shape, spec, theta = make_net(rng, kind, hidden=[5, 4])
        x = rng.normal(size=(shape.input_size, 6))
        y = random_targets(rng, kind, shape.output_size, 6)
        cache = network.forward(shape, theta, x)
        counters = OpCounters()
        g, factors = diff.gradient(shape, theta, cache, y, spec, counters, factored=True)
        packed, _ = diff.gradient(shape, theta, cache, y, spec)
        assert isinstance(g, diff.FactoredVector)
        assert np.max(np.abs(g.expand() - packed)) <= 1e-15 * np.max(np.abs(packed))
        assert counters == OpCounters(backward_passes=6)
        for a, full in zip(factors.layer_adjoints, g.adjoints):
            assert np.array_equal(full, a / 6)


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
