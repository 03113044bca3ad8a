import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smwopt import network
from smwopt.counters import OpCounters
from smwopt.exceptions import NumericError, ShapeError
from smwopt.oracles import activation_jacobian, pack
from tests.conftest import scalar_forward


class TestShapeAndPacking:
    def test_unpack_layout(self):
        shape = network.NetworkShape((2, 3), ("linear",))
        theta = np.arange(9, dtype=float)
        (w, b), = network.unpack(shape, theta)
        assert w.shape == (3, 2)
        assert np.array_equal(w[:, 0], [0.0, 1.0, 2.0])
        assert np.array_equal(w[:, 1], [3.0, 4.0, 5.0])
        assert np.array_equal(b, [6.0, 7.0, 8.0])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_pack_unpack_round_trip(self, seed):
        shape = network.NetworkShape((3, 5, 2), ("logistic", "linear"))
        theta = np.random.default_rng(seed).normal(size=shape.num_params)
        packed = pack(shape, network.unpack(shape, theta))
        assert np.array_equal(packed, theta)

    def test_unpack_views_through_the_layout_derived_once(self, rng):
        """unpack returns each layer's W as a column-major view of theta
        and b as a view, through the layout the shape derived once."""
        shape = network.NetworkShape((4, 9, 2), ("logistic", "linear"))
        assert shape.param_layout() is shape.param_layout()
        assert shape == network.NetworkShape([4, 9, 2], ["logistic", "linear"])
        theta = rng.normal(size=shape.num_params)
        offset = 0
        for (w, b), (m_out, m_in) in zip(network.unpack(shape, theta), ((9, 4), (2, 9))):
            assert w.shape == (m_out, m_in) and w.flags.f_contiguous
            assert w.base is theta and b.base is theta
            size = m_out * m_in
            expected = theta[offset : offset + size].reshape((m_out, m_in), order="F")
            assert np.array_equal(w, expected)
            assert np.array_equal(b, theta[offset + size : offset + size + m_out])
            offset += size + m_out
        assert offset == shape.num_params == 9 * 4 + 9 + 2 * 9 + 2

    def test_mnist_parameter_count(self):
        shape = network.NetworkShape(
            (784, 500, 10), ("logistic", "softmax")
        )
        assert shape.num_params == 784 * 500 + 500 + 500 * 10 + 10 == 397510

    def test_theta_length_mismatch(self):
        shape = network.NetworkShape((2, 3), ("linear",))
        with pytest.raises(ShapeError):
            network.unpack(shape, np.zeros(8))

    def test_softmax_only_last(self):
        with pytest.raises(ShapeError):
            network.NetworkShape((2, 3, 2), ("softmax", "linear"))

    def test_init_theta(self):
        shape = network.NetworkShape((4, 9, 2), ("logistic", "linear"))
        theta = network.init_theta(shape, 7)
        assert np.array_equal(theta, network.init_theta(shape, 7))
        for (w, b), m_in in zip(network.unpack(shape, theta), (4, 9)):
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(m_in))
            assert np.all(b == 0.0)


class TestForward:
    def test_identity_linear(self):
        shape = network.NetworkShape((2, 2), ("linear",))
        theta = pack(shape, [(np.eye(2), np.zeros(2))])
        cache = network.forward(shape, theta, np.array([[1.0], [2.0]]))
        assert np.array_equal(cache.output[:, 0], [1.0, 2.0])

    def test_logistic_at_zero(self, rng):
        shape = network.NetworkShape((3, 2), ("logistic",))
        theta = np.zeros(shape.num_params)
        cache = network.forward(shape, theta, rng.normal(size=(3, 1)))
        assert np.array_equal(cache.output[:, 0], [0.5, 0.5])

    def test_against_scalar_loop(self, rng):
        shape = network.NetworkShape((3, 4, 2), ("logistic", "softmax"))
        theta = network.init_theta(shape, rng)
        x = rng.normal(size=(3, 1))
        cache = network.forward(shape, theta, x)
        params = [
            ([list(row) for row in w], list(b))
            for w, b in network.unpack(shape, theta)
        ]
        expected = scalar_forward(
            shape.layer_sizes, shape.activations, params, list(x[:, 0])
        )
        assert np.max(np.abs(cache.output[:, 0] - expected)) < 1e-14

    def test_batch_matches_single_columns(self, rng):
        shape = network.NetworkShape((3, 5, 2), ("logistic", "linear"))
        theta = network.init_theta(shape, rng)
        x = rng.normal(size=(3, 4))
        batch = network.forward(shape, theta, x)
        for i in range(4):
            single = network.forward(shape, theta, x[:, [i]])
            assert np.max(np.abs(batch.output[:, i] - single.output[:, 0])) < 1e-14

    def test_deterministic(self, rng):
        shape = network.NetworkShape((4, 3, 2), ("logistic", "linear"))
        theta = network.init_theta(shape, rng)
        x = rng.normal(size=(4, 5))
        a = network.forward(shape, theta, x)
        b = network.forward(shape, theta, x)
        assert np.array_equal(a.output_preact, b.output_preact)
        for l in range(1, 3):
            assert np.array_equal(a.v(l), b.v(l))

    def test_input_length_mismatch(self, rng):
        shape = network.NetworkShape((3, 2), ("linear",))
        with pytest.raises(ShapeError):
            network.forward(shape, np.zeros(shape.num_params), np.zeros((4, 1)))

    def test_nonfinite_names_layer(self):
        shape = network.NetworkShape((2, 2, 2), ("linear", "linear"))
        theta = np.zeros(shape.num_params)
        theta[0] = np.inf
        with pytest.raises(NumericError, match="layer 1"):
            network.forward(shape, theta, np.ones((2, 1)))

    def test_forward_counter(self, rng):
        shape = network.NetworkShape((3, 2), ("linear",))
        counters = OpCounters()
        network.forward(shape, np.zeros(shape.num_params), rng.normal(size=(3, 5)), counters)
        assert counters.forward_passes == 5


class TestForwardLowRank:
    """The trial forward at theta + p for p factored over the cache's samples."""

    def _instance(self, rng, hidden, n=6, scale=1.0):
        sizes = (5, *hidden, 3)
        shape = network.NetworkShape(
            sizes, ("logistic",) * len(hidden) + ("softmax",)
        )
        theta = network.init_theta(shape, rng)
        x = rng.normal(size=(5, n))
        cache = network.forward(shape, theta, x, keep_first_preact=True)
        adjoints = [scale * rng.normal(size=(m, n)) for m in sizes[1:]]
        gram = x.T @ x + 1.0
        return shape, theta, x, cache, adjoints, gram

    @staticmethod
    def _expand(shape, cache, adjoints):
        params = []
        for l, a in enumerate(adjoints, start=1):
            params.append((a @ cache.v(l - 1).T, a.sum(axis=1)))
        return pack(shape, params)

    @pytest.mark.parametrize("hidden", [(4, 6), (4, 6, 3)], ids=["2_hidden", "3_hidden"])
    def test_matches_dense_forward_at_expanded_point(self, hidden, rng):
        shape, theta, x, cache, adjoints, gram = self._instance(rng, hidden)
        p = self._expand(shape, cache, adjoints)
        dense = network.forward(shape, theta + p, x)
        counters = OpCounters()
        low = network.forward_low_rank(shape, theta, cache, adjoints, gram, counters)
        for got, expected in zip(
            [*low.acts, low.output_preact], [*dense.acts, dense.output_preact]
        ):
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert counters.forward_passes == x.shape[1]
        assert low.x is cache.x

    def test_zero_step_reproduces_the_forward(self, rng):
        shape, theta, x, cache, adjoints, gram = self._instance(rng, (4, 6))
        zero = [np.zeros_like(a) for a in adjoints]
        low = network.forward_low_rank(shape, theta, cache, zero, gram)
        assert np.array_equal(low.output_preact, cache.output_preact)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("layer", [1, 2, 3])
    def test_non_finite_trial_preactivation_is_numeric_error(self, layer, rng):
        shape, theta, x, cache, adjoints, gram = self._instance(rng, (4, 6))
        adjoints[layer - 1][0, 0] = np.inf
        with pytest.raises(NumericError, match=f"layer {layer}"):
            network.forward_low_rank(shape, theta, cache, adjoints, gram)

    def test_kept_first_preact_leaves_the_forward_unchanged(self, rng):
        shape, theta, x, cache, _, _ = self._instance(rng, (4, 6))
        plain = network.forward(shape, theta, x)
        assert plain.first_preact is None
        for kept, fresh in zip(cache.acts, plain.acts):
            assert np.array_equal(kept, fresh)
        w, b = network.unpack(shape, theta)[0]
        assert np.array_equal(cache.first_preact, w @ x + b[:, None])
        assert np.array_equal(cache.cols([1, 3]).first_preact, cache.first_preact[:, [1, 3]])


def masked_sigmoid(h):
    """The two-branch logistic function, written with boolean masks."""
    out = np.empty_like(h)
    pos = h >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-h[pos]))
    eh = np.exp(h[~pos])
    out[~pos] = eh / (1.0 + eh)
    return out


def where_sigmoid(h):
    """The logistic function with its numerator selected by np.where."""
    e = np.exp(-np.abs(h))
    return np.where(h >= 0, 1.0, e) / (1.0 + e)


class TestActivations:
    def test_sigmoid_matches_masked_form_bitwise(self, rng):
        tiny = np.finfo(float).tiny
        edges = np.array(
            [0.0, -0.0, 800.0, -800.0, tiny, -tiny, 36.7, -36.7, 745.0, -745.0]
        )
        for h in (edges, rng.normal(scale=10.0, size=(50, 40))):
            assert network.sigmoid(h).tobytes() == masked_sigmoid(h).tobytes()

    def test_sigmoid_matches_where_form_bitwise(self, rng):
        edges = np.array([0.0, -0.0, 40.0, -40.0, 800.0, -800.0])
        for h in (edges, rng.normal(scale=10.0, size=(50, 40))):
            assert network.sigmoid(h).tobytes() == where_sigmoid(h).tobytes()

    def test_sigmoid_in_place_matches_fresh_bitwise(self, rng):
        """out=h overwrites h with the bits a fresh sigmoid(h) returns, as
        forward does for every hidden logistic layer."""
        edges = np.array([0.0, -0.0, 800.0, -800.0, 36.7, -36.7, 745.0, -745.0])
        for h in (edges, rng.normal(scale=10.0, size=(50, 40))):
            expected = network.sigmoid(h)
            buf = h.copy()
            got = network.sigmoid(buf, out=buf)
            assert got is buf
            assert got.tobytes() == expected.tobytes()
        shape = network.NetworkShape((6, 5, 4, 3), ("logistic",) * 3)
        theta = network.init_theta(shape, rng)
        x = rng.normal(scale=3.0, size=(6, 7))
        cache = network.forward(shape, theta, x)
        for l, (w, b) in enumerate(network.unpack(shape, theta), start=1):
            h = w @ cache.v(l - 1)
            h += b[:, None]
            assert cache.v(l).tobytes() == network.sigmoid(h).tobytes()
        assert cache.output_preact.tobytes() == h.tobytes()

    def test_softmax_sums_to_one_extreme(self):
        h = np.array([[1000.0], [0.0], [-1000.0]])
        v = network.softmax(h)
        assert abs(np.sum(v) - 1.0) <= 1e-12
        assert np.all(np.isfinite(v))

    def test_jacobian_linear(self, rng):
        h = rng.normal(size=4)
        assert np.array_equal(
            activation_jacobian("linear", h, h), np.eye(4)
        )

    def test_jacobian_logistic_at_half(self):
        v = 0.5 * np.ones(3)
        assert np.array_equal(
            activation_jacobian("logistic", np.zeros(3), v),
            0.25 * np.eye(3),
        )

    def test_jacobian_softmax_uniform(self):
        v = np.array([0.5, 0.5])
        expected = np.array([[0.25, -0.25], [-0.25, 0.25]])
        out = activation_jacobian("softmax", np.zeros(2), v)
        assert np.max(np.abs(out - expected)) < 1e-15

    @pytest.mark.parametrize("kind", network.ACTIVATION_KINDS)
    def test_jacobian_matches_finite_differences(self, kind, rng):
        step = 1e-6
        for _ in range(10):
            h = rng.uniform(-5.0, 5.0, size=4)
            v = network.apply_activation(kind, h.reshape(-1, 1))[:, 0]
            jac = activation_jacobian(kind, h, v)
            fd = np.zeros((4, 4))
            for k in range(4):
                hp, hm = h.copy(), h.copy()
                hp[k] += step
                hm[k] -= step
                fd[:, k] = (
                    network.apply_activation(kind, hp.reshape(-1, 1))[:, 0]
                    - network.apply_activation(kind, hm.reshape(-1, 1))[:, 0]
                ) / (2 * step)
            assert np.max(np.abs(jac - fd)) < 1e-7

    @pytest.mark.parametrize("kind", (network.LINEAR, network.LOGISTIC))
    def test_apply_matches_materialized(self, kind, rng):
        h = rng.normal(size=(4, 3))
        u = rng.normal(size=(4, 3))
        u_in = u.copy()
        for order in ("C", "F"):  # a gathered batch is column-major
            v = np.asarray(network.apply_activation(kind, h), order=order)
            v_in = v.copy()
            applied = network.act_jac_apply(kind, v, u)
            assert np.array_equal(v, v_in) and np.array_equal(u, u_in)
            for i in range(3):
                jac = activation_jacobian(kind, h[:, i], v[:, i])
                assert np.max(np.abs(applied[:, i] - jac @ u[:, i])) < 1e-14

    def test_logistic_apply_keeps_product_layout(self, rng):
        """Bits and memory layout of v * (1 - v) * u for every operand layout.

        The layout of an adjoint decides how later BLAS products round.
        """
        h = rng.normal(size=(5, 4))
        u = rng.normal(size=(5, 4))
        for v_order in "CF":
            for u_order in "CF":
                v = np.asarray(network.sigmoid(h), order=v_order)
                uo = np.asarray(u, order=u_order)
                expected = v * (1.0 - v) * uo
                got = network.act_jac_apply(network.LOGISTIC, v, uo)
                assert np.array_equal(got, expected)
                assert got.flags.c_contiguous == expected.flags.c_contiguous
                assert got.flags.f_contiguous == expected.flags.f_contiguous

    def test_kept_slopes_give_the_bits_and_layout_of_apply(self, rng):
        """A cache's kept slopes v (1 - v), applied to u with or without a
        trailing axis, read as act_jac_apply does; only the copy that
        with_slopes returns holds them."""
        shape = network.NetworkShape(
            (3, 5, 4, 2), (network.LOGISTIC, network.LINEAR, network.SOFTMAX)
        )
        theta = network.init_theta(shape, rng)
        cache = network.forward(shape, theta, rng.normal(size=(3, 6)))
        kept = cache.with_slopes()
        assert cache.slopes is None and kept.slopes[1] is None
        for l, m in ((1, 5), (2, 4)):
            for u in (
                rng.normal(size=(m, 6)),
                np.asfortranarray(rng.normal(size=(m, 6))),
                rng.normal(size=(m, 6, 3)),
            ):
                v = cache.v(l) if u.ndim == 2 else cache.v(l)[:, :, None]
                expected = network.act_jac_apply(shape.activations[l - 1], v, u)
                for c in (cache, kept):
                    got = c.act_jac(l, u)
                    assert np.array_equal(got, expected)
                    assert got.flags.c_contiguous == expected.flags.c_contiguous


class TestBlockedKernels:
    """The logistic kernels work over BLOCK-element pieces of an array's
    memory; the bits and layouts are those of the whole-array formulas."""

    SIZES = (
        (127, network.BLOCK // 128),  # below one block
        (128, network.BLOCK // 128),  # exactly one block
        (129, network.BLOCK // 128 + 1),  # just above one block
        (300, 250),  # several blocks, the last one partial
    )

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("order", "CF")
    def test_sigmoid_keeps_its_bits(self, size, order, rng):
        h = np.asarray(rng.normal(scale=10.0, size=size), order=order)
        h.flat[:4] = (0.0, -0.0, 800.0, -800.0)
        expected = where_sigmoid(h)
        fresh = network.sigmoid(h)
        assert fresh.tobytes(order="A") == expected.tobytes(order="A")
        assert fresh.flags.c_contiguous == h.flags.c_contiguous
        assert fresh.flags.f_contiguous == h.flags.f_contiguous
        buf = h.copy(order="K")
        got = network.sigmoid(buf, out=buf)
        assert got is buf
        assert np.array_equal(buf, expected)

    def test_sigmoid_of_a_strided_view_has_the_unblocked_layout(self, rng):
        h = rng.normal(scale=10.0, size=(40, 90))[:, ::3]
        got = network.sigmoid(h)
        assert np.array_equal(got, where_sigmoid(h))
        assert got.strides == np.abs(h).strides
        into = np.asfortranarray(np.zeros(h.shape))
        assert network.sigmoid(h, out=into) is into
        assert np.array_equal(into, where_sigmoid(h))

    @pytest.mark.parametrize("size", SIZES)
    def test_slope_product_into_u_keeps_the_bits_and_layout(self, size, rng):
        """act_jac_apply(..., out=u) writes v (1 - v) u over u; for the
        C-ordered u that the reverse sweep's W^T a is, the bits and layout
        of the fresh product. Without out, u is left as it was."""
        m, n = size
        for v_order in "CF":
            v = np.asarray(network.sigmoid(rng.normal(size=size)), order=v_order)
            for u in (rng.normal(size=size), rng.normal(size=(m, n, 3))):
                vv = v if u.ndim == 2 else v[:, :, None]
                u_in = u.copy()
                expected = network.act_jac_apply(network.LOGISTIC, vv, u)
                assert np.array_equal(u, u_in)
                got = network.act_jac_apply(network.LOGISTIC, vv, u, out=u)
                assert got is u
                assert got.tobytes() == expected.tobytes()
                assert got.flags.c_contiguous == expected.flags.c_contiguous
        u = np.asfortranarray(rng.normal(size=size))
        v = np.asfortranarray(network.sigmoid(rng.normal(size=size)))
        expected = v * (1.0 - v) * u
        got = network.act_jac_apply(network.LOGISTIC, v, u, out=u)
        assert np.array_equal(got, expected)

    def test_cache_act_jac_into_u(self, rng):
        shape = network.NetworkShape(
            (3, 5, 4, 2), (network.LOGISTIC, network.LINEAR, network.SOFTMAX)
        )
        theta = network.init_theta(shape, rng)
        cache = network.forward(shape, theta, rng.normal(size=(3, 6)))
        for c in (cache, cache.with_slopes(), cache.cols([4, 0, 2])):
            for l, m in ((1, 5), (2, 4)):
                for u in (
                    rng.normal(size=(m, c.ncols)),
                    rng.normal(size=(m, c.ncols, 2)),
                ):
                    expected = c.act_jac(l, u)
                    got = c.act_jac(l, u, out=u)
                    assert got is u and np.array_equal(got, expected)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_forward_finds_a_non_finite_entry_in_a_later_block(self, bad, rng):
        shape = network.NetworkShape((2, 400, 3), (network.LOGISTIC, network.SOFTMAX))
        theta = network.init_theta(shape, rng)
        w, _ = network.unpack(shape, theta)[0]
        w[-1, 0] = bad  # only h_1's last row, in its last block, is not finite
        assert 400 * 2000 > network.BLOCK
        with pytest.raises(NumericError, match="layer 1"):
            network.forward(shape, theta, rng.normal(size=(2, 2000)))

    def test_forward_holds_no_extra_hidden_size_array(self, rng):
        """A wide logistic layer's forward allocates its m_1 x N activation
        and a few BLOCK-element temporaries, no more: no finiteness mask
        of one byte per entry."""
        shape = network.NetworkShape(
            (20, 400, 3), (network.LOGISTIC, network.SOFTMAX)
        )
        theta = network.init_theta(shape, rng)
        x = rng.normal(size=(20, 2000))
        hidden = 400 * 2000 * 8
        tracemalloc.start()
        try:
            cache = network.forward(shape, theta, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= hidden + 3 * network.BLOCK * 8
        w, b = network.unpack(shape, theta)[0]
        h = w @ x
        h += b[:, None]
        assert np.array_equal(cache.v(1), where_sigmoid(h))
