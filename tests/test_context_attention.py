import numpy as np
import numpy.testing as npt
import pytest

import oracles

from otfusion import context_attention as ctx
from otfusion import diffcore as dc
from otfusion.diffcore import grad_check
from otfusion.errors import DimensionError, ParameterError


def make_layer(d=8, d_q=6, seed=0):
    return ctx.ContextAttentionLayer(d, d_q, np.random.default_rng(seed))


def softmax_np(m):
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def straight_line_forward(x, c, layer):
    """Independent re-evaluation of the full layer, plain numpy."""
    q = x @ layer.w_q.value
    k = x @ layer.w_k.value
    q_c = c @ layer.w_qc.value
    k_c = c @ layer.w_kc.value
    g_q = 1.0 / (1.0 + np.exp(-(q @ layer.w_gq.value + q_c @ layer.w_gqc.value)))
    g_k = 1.0 / (1.0 + np.exp(-(k @ layer.w_gk.value + k_c @ layer.w_gkc.value)))
    q_bar = (1 - g_q) * q + g_q * q_c
    k_bar = (1 - g_k) * k + g_k * k_c
    attn = softmax_np(q_bar @ k_bar.T / np.sqrt(layer.d_q))
    return attn @ x


class TestGlobalContext:
    def test_single_row_is_itself(self):
        x = np.array([[1.0, 2.0, 3.0]])
        out = ctx.global_context(dc.constant(x))
        npt.assert_array_equal(out.value, x)

    def test_hand_case(self):
        out = ctx.global_context(dc.constant([[1.0, 1.0], [3.0, 3.0]]))
        npt.assert_array_equal(out.value, [[2.0, 2.0]])

    def test_rows_identical_and_equal_column_means(self):
        # one row, shared by every row of x through broadcasting
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, (5, 4))
        out = ctx.global_context(dc.constant(x)).value
        assert out.shape == (1, 4)
        npt.assert_allclose(out[0], x.mean(axis=0), rtol=0, atol=0)


class TestDeepContext:
    def test_identity_projection(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-2, 2, (4, 3))
        out = ctx.deep_context([dc.constant(x)], dc.constant(np.eye(3)))
        npt.assert_array_equal(out.value, x)

    def test_selector_projection(self):
        rng = np.random.default_rng(3)
        x0, x1 = rng.uniform(-2, 2, (4, 3)), rng.uniform(-2, 2, (4, 3))
        w = np.vstack([np.eye(3), np.zeros((3, 3))])
        out = ctx.deep_context([dc.constant(x0), dc.constant(x1)], dc.constant(w))
        npt.assert_array_equal(out.value, x0)

    def test_random_against_dense_algebra(self):
        rng = np.random.default_rng(4)
        hist = [rng.uniform(-2, 2, (4, 3)) for _ in range(3)]
        w = rng.uniform(-1, 1, (9, 3))
        out = ctx.deep_context([dc.constant(h) for h in hist], dc.constant(w))
        npt.assert_allclose(out.value, np.concatenate(hist, axis=1) @ w, atol=1e-14)

    def test_empty_history(self):
        with pytest.raises(ParameterError):
            ctx.deep_context([], dc.constant(np.eye(2)))


class TestDeepGlobalContext:
    def test_reduces_to_global_with_identity(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (4, 3))
        out = ctx.deep_global_context([dc.constant(x)], dc.constant(np.eye(3)))
        npt.assert_allclose(out.value, x.mean(axis=0, keepdims=True), atol=1e-15)

    def test_constant_history(self):
        hist = [np.full((3, 2), 2.0), np.full((3, 2), -1.0)]
        w = np.random.default_rng(6).uniform(-1, 1, (4, 2))
        out = ctx.deep_global_context([dc.constant(h) for h in hist], dc.constant(w))
        expected = np.array([[2.0, 2.0, -1.0, -1.0]]) @ w
        npt.assert_allclose(out.value, expected, atol=1e-14)

    def test_random_against_direct_evaluation(self):
        rng = np.random.default_rng(7)
        hist = [rng.uniform(-2, 2, (5, 3)) for _ in range(2)]
        w = rng.uniform(-1, 1, (6, 3))
        out = ctx.deep_global_context([dc.constant(h) for h in hist], dc.constant(w))
        pooled = np.concatenate([h.mean(axis=0) for h in hist])
        npt.assert_allclose(out.value, (pooled @ w)[None, :], atol=1e-14)


class TestGatedSum:
    """The gate mix, on its composed-graph oracle; test_fused_layers.py
    holds the fused layer to that oracle."""

    def test_zero_weights_average(self):
        rng = np.random.default_rng(8)
        a, a_c = rng.uniform(-2, 2, (4, 3)), rng.uniform(-2, 2, (4, 3))
        zero = dc.constant(np.zeros((3, 1)))
        gate, mixed = oracles.gated_sum(dc.constant(a), dc.constant(a_c), zero, zero)
        npt.assert_array_equal(gate.value, np.full((4, 1), 0.5))
        npt.assert_allclose(mixed.value, (a + a_c) / 2, atol=1e-15)

    def test_override_zero_returns_first(self):
        rng = np.random.default_rng(9)
        a, a_c = rng.uniform(-2, 2, (4, 3)), rng.uniform(-2, 2, (4, 3))
        w = dc.constant(rng.uniform(-1, 1, (3, 1)))
        _, mixed = oracles.gated_sum(dc.constant(a), dc.constant(a_c), w, w, gate_override=0.0)
        npt.assert_array_equal(mixed.value, a)

    def test_override_one_returns_context(self):
        rng = np.random.default_rng(10)
        a, a_c = rng.uniform(-2, 2, (4, 3)), rng.uniform(-2, 2, (4, 3))
        w = dc.constant(rng.uniform(-1, 1, (3, 1)))
        _, mixed = oracles.gated_sum(dc.constant(a), dc.constant(a_c), w, w, gate_override=1.0)
        npt.assert_array_equal(mixed.value, a_c)

    def test_gate_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(11)
        layer = make_layer()
        x = rng.uniform(-2, 2, (6, 8))
        q = dc.matmul(dc.constant(x), layer.w_q)
        q_c = dc.matmul(dc.constant(x), layer.w_qc)
        gate, _ = oracles.gated_sum(q, q_c, layer.w_gq, layer.w_gqc)
        assert np.all(gate.value > 0) and np.all(gate.value < 1)


class TestContextAttentionForward:
    def test_single_row_returns_input(self):
        rng = np.random.default_rng(12)
        layer = make_layer()
        x = rng.uniform(-2, 2, (1, 8))
        out = ctx.context_attention_forward(dc.constant(x), dc.constant(x), layer)
        npt.assert_allclose(out.value, x, atol=1e-15)

    def test_gate_zero_reduces_to_vanilla_attention(self):
        rng = np.random.default_rng(13)
        layer = make_layer()
        x = rng.uniform(-2, 2, (5, 8))
        out = ctx.context_attention_forward(
            dc.constant(x), dc.constant(x), layer, gate_override=0.0
        )
        # same op order, computed with the same projections and V = x
        q = dc.matmul(dc.constant(x), layer.w_q)
        k = dc.matmul(dc.constant(x), layer.w_k)
        scores = oracles.scale(dc.matmul(q, oracles.transpose(k)), 1.0 / np.sqrt(layer.d_q))
        vanilla = dc.matmul(oracles.softmax_rows(scores), dc.constant(x))
        npt.assert_array_equal(out.value, vanilla.value)

    def test_random_against_straight_line_oracle(self):
        rng = np.random.default_rng(14)
        layer = make_layer()
        x = rng.uniform(-2, 2, (4, 8))
        c = rng.uniform(-2, 2, (4, 8))
        out = ctx.context_attention_forward(dc.constant(x), dc.constant(c), layer)
        npt.assert_allclose(out.value, straight_line_forward(x, c, layer), atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        # with V = x, a stack of one row r maps to r exactly when every
        # attention row sums to one
        rng = np.random.default_rng(15)
        layer = make_layer()
        x = np.repeat(rng.uniform(-2, 2, (1, 8)), 5, axis=0)
        c = rng.uniform(-2, 2, (5, 8))
        out = ctx.context_attention_forward(dc.constant(x), dc.constant(c), layer)
        npt.assert_allclose(out.value, x, rtol=0, atol=1e-12)

    def test_output_rows_are_convex_combinations(self):
        rng = np.random.default_rng(19)
        layer = make_layer()
        x = rng.uniform(-2, 2, (5, 8))
        c = rng.uniform(-2, 2, (5, 8))
        out = ctx.context_attention_forward(dc.constant(x), dc.constant(c), layer).value
        assert np.all(out >= x.min(axis=0) - 1e-12)
        assert np.all(out <= x.max(axis=0) + 1e-12)

    def test_input_width_mismatch(self):
        layer = make_layer()
        with pytest.raises(DimensionError, match="input width 7"):
            ctx.context_attention_forward(
                dc.constant(np.zeros((4, 7))), dc.constant(np.zeros((4, 8))), layer
            )

    def test_context_width_mismatch(self):
        layer = make_layer()
        with pytest.raises(DimensionError, match="context width 6 != layer d 8"):
            ctx.context_attention_forward(
                dc.constant(np.zeros((4, 8))), dc.constant(np.zeros((4, 6))), layer
            )

    def test_row_count_mismatch(self):
        layer = make_layer()
        with pytest.raises(DimensionError):
            ctx.context_attention_forward(
                dc.constant(np.zeros((4, 8))), dc.constant(np.zeros((3, 8))), layer
            )


class TestContextStack:
    def test_strategy_defaults(self):
        assert ctx.DEFAULT_LAYERS == {"global": 1, "deep": 3, "deep_global": 2}
        rng = np.random.default_rng(15)
        with pytest.raises(ParameterError):
            ctx.ContextStack.build(6, 4, "bogus", 1, rng)
        with pytest.raises(ParameterError):
            ctx.ContextStack.build(6, 4, "deep", 0, rng)

    def test_single_global_layer_equals_direct_forward(self):
        rng = np.random.default_rng(16)
        stack = ctx.ContextStack.build(6, 4, "global", 1, rng)
        x = rng.uniform(-2, 2, (5, 6))
        out = ctx.stack_forward(dc.constant(x), stack)
        direct = ctx.context_attention_forward(
            dc.constant(x), ctx.global_context(dc.constant(x)), stack.layers[0]
        )
        npt.assert_array_equal(out.value, direct.value)

    def test_deep_stack_shape_and_finite(self):
        rng = np.random.default_rng(17)
        stack = ctx.ContextStack.build(6, 4, "deep", 3, rng)
        x = rng.uniform(-2, 2, (5, 6))
        out = ctx.stack_forward(dc.constant(x), stack)
        assert out.shape == (5, 6)
        assert np.all(np.isfinite(out.value))

    def test_deep_projection_widths_grow(self):
        rng = np.random.default_rng(18)
        stack = ctx.ContextStack.build(6, 4, "deep", 3, rng)
        assert [p.value.shape for p in stack.context_projections] == [(6, 6), (12, 6), (18, 6)]

    @pytest.mark.parametrize("variant,layers", [("global", 1), ("deep", 3), ("deep_global", 2)])
    def test_stack_gradients(self, variant, layers):
        rng = np.random.default_rng(19)
        stack = ctx.ContextStack.build(4, 3, variant, layers, rng)
        x = rng.uniform(-2, 2, (3, 4))

        def loss():
            out = ctx.stack_forward(dc.constant(x), stack)
            return dc.sum_all(dc.elementwise_mul(out, out))

        reports = grad_check(loss, stack.parameters(), tol=1e-4)
        assert all(r.passed for r in reports)


def test_global_attention_permutation_equivariance():
    rng = np.random.default_rng(20)
    layer = make_layer(6, 4, seed=21)
    x = rng.uniform(-2, 2, (5, 6))
    perm = rng.permutation(5)
    out = ctx.context_attention_forward(
        dc.constant(x), ctx.global_context(dc.constant(x)), layer
    ).value
    out_perm = ctx.context_attention_forward(
        dc.constant(x[perm]), ctx.global_context(dc.constant(x[perm])), layer
    ).value
    npt.assert_allclose(out_perm, out[perm], atol=1e-12)


@pytest.mark.parametrize("variant", [ctx.GLOBAL, ctx.DEEP_GLOBAL])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_one_row_context_equals_its_explicit_copy(variant, batch):
    """A layer fed the 1-row context gives what it gives on the n-row copy."""
    rng = np.random.default_rng(24)
    stack = ctx.ContextStack.build(8, 6, variant, ctx.DEFAULT_LAYERS[variant], rng)
    x = dc.constant(rng.uniform(-2, 2, batch + (5, 8)))
    if variant == ctx.GLOBAL:
        row = ctx.global_context(x)
    else:
        row = ctx.deep_global_context([x], stack.context_projections[0])
    assert row.rows == 1
    copy = dc.constant(np.repeat(row.value, 5, axis=-2))
    layer = stack.layers[0]
    out_row = ctx.context_attention_forward(x, row, layer).value
    out_copy = ctx.context_attention_forward(x, copy, layer).value
    npt.assert_allclose(out_row, out_copy, rtol=0, atol=1e-12)

