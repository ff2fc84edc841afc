import numpy as np
import numpy.testing as npt
import pytest

from otfusion import diffcore as dc
from otfusion import fusion
from otfusion.errors import DimensionError


def softmax_np(m):
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def make_inputs(n=3, d_prime=6, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.uniform(-2, 2, (n, d_prime))
    s = rng.uniform(-2, 2, (n, d_prime))
    return c, s, fusion.FusedInputs(dc.constant(c), dc.constant(s))


def co_head(d_prime=6, k=4, seed=1):
    return fusion.CoAttentionHead(d_prime, k, np.random.default_rng(seed))


def attn_head(d_prime=6, d_z=5, seed=2):
    return fusion.AttnFusionHead(d_prime, d_z, np.random.default_rng(seed))


class TestBuildFusedInputs:
    def test_widths_double(self):
        rng = np.random.default_rng(3)
        mats = [dc.constant(rng.uniform(-1, 1, (3, 2))) for _ in range(4)]
        fused = fusion.build_fused_inputs(*mats)
        assert fused.c.shape == (3, 4)
        assert fused.s.shape == (3, 4)

    def test_identical_halves(self):
        rng = np.random.default_rng(4)
        f = dc.constant(rng.uniform(-1, 1, (3, 2)))
        h = dc.constant(rng.uniform(-1, 1, (3, 2)))
        fused = fusion.build_fused_inputs(f, f, h, h)
        npt.assert_array_equal(fused.c.value[:, :2], fused.c.value[:, 2:])

    def test_contents_by_slicing(self):
        rng = np.random.default_rng(5)
        parts = [rng.uniform(-1, 1, (3, 2)) for _ in range(4)]
        fused = fusion.build_fused_inputs(*(dc.constant(p) for p in parts))
        npt.assert_array_equal(fused.c.value[:, :2], parts[0])
        npt.assert_array_equal(fused.c.value[:, 2:], parts[1])
        npt.assert_array_equal(fused.s.value[:, :2], parts[2])
        npt.assert_array_equal(fused.s.value[:, 2:], parts[3])

    def test_shape_mismatch(self):
        good = dc.constant(np.zeros((3, 2)))
        bad = dc.constant(np.zeros((3, 3)))
        with pytest.raises(DimensionError):
            fusion.build_fused_inputs(good, good, good, bad)


def co_attention_oracle(c, s, head):
    """Straight-line re-evaluation in the column-major orientation."""
    c_col, s_col = c.T, s.T
    aff = np.tanh(c_col.T @ head.w_l.value @ s_col)
    h_s = np.tanh(head.w_s.value @ s_col + head.w_c.value @ c_col @ aff)
    h_c = np.tanh(head.w_c.value @ c_col + head.w_s.value @ s_col @ aff.T)
    a_s = softmax_np(head.w_hs.value.T @ h_s)
    a_c = softmax_np(head.w_hc.value.T @ h_c)
    s_hat = (s_col @ a_s.T).T
    c_hat = (c_col @ a_c.T).T
    p = np.concatenate([c_hat, s_hat], axis=1)
    hidden = np.maximum(p @ head.w1.value + head.b1.value, 0.0)
    return hidden @ head.w_out.value + head.b_out.value


class TestCoAttention:
    def test_single_position(self):
        c, s, inputs = make_inputs(n=1)
        head = co_head()
        logits, a_c, a_s = fusion.co_attention_forward(
            inputs, head, training=False, return_weights=True
        )
        npt.assert_array_equal(a_c.value, [[1.0]])
        npt.assert_array_equal(a_s.value, [[1.0]])
        assert logits.shape == (1, 2)

    def test_attention_weights_are_probability_vectors(self):
        _, _, inputs = make_inputs(n=4, seed=6)
        _, a_c, a_s = fusion.co_attention_forward(
            inputs, co_head(), training=False, return_weights=True
        )
        assert a_c.value.sum() == pytest.approx(1.0, abs=1e-12)
        assert a_s.value.sum() == pytest.approx(1.0, abs=1e-12)

    def test_random_against_straight_line_oracle(self):
        c, s, inputs = make_inputs(n=3, seed=7)
        head = co_head()
        logits = fusion.co_attention_forward(inputs, head, training=False)
        npt.assert_allclose(logits.value, co_attention_oracle(c, s, head), atol=1e-12)

    def test_attended_vectors_are_convex_combinations(self):
        c, s, inputs = make_inputs(n=5, seed=8)
        head = co_head()
        _, a_c, a_s = fusion.co_attention_forward(
            inputs, head, training=False, return_weights=True
        )
        c_hat = a_c.value @ c
        assert np.all(c_hat >= c.min(axis=0) - 1e-12)
        assert np.all(c_hat <= c.max(axis=0) + 1e-12)

    def test_eval_mode_deterministic(self):
        _, _, inputs = make_inputs(n=3, seed=9)
        head = co_head()
        first = fusion.co_attention_forward(inputs, head, training=False).value
        second = fusion.co_attention_forward(inputs, head, training=False).value
        npt.assert_array_equal(first, second)

    def test_width_mismatch(self):
        _, _, inputs = make_inputs(d_prime=5)
        with pytest.raises(DimensionError, match="fused width 5"):
            fusion.co_attention_forward(inputs, co_head(), training=False)

    def test_training_mode_uses_dropout(self):
        _, _, inputs = make_inputs(n=3, seed=10)
        head = co_head()
        rng = np.random.default_rng(11)
        eval_logits = fusion.co_attention_forward(inputs, head, training=False).value
        train_logits = fusion.co_attention_forward(inputs, head, training=True, rng=rng).value
        assert not np.array_equal(eval_logits, train_logits)


def attn_fusion_oracle(c, s, head):
    def weights(m, w1, b1, w2):
        h = np.maximum(m @ w1 + b1, 0.0)
        return softmax_np((h @ w2).T)

    a_c = weights(c, head.c_w1.value, head.c_b1.value, head.c_w2.value)
    a_s = weights(s, head.s_w1.value, head.s_b1.value, head.s_w2.value)
    c_tilde = a_c @ c
    s_tilde = a_s @ s
    z = c_tilde @ head.w_c.value + s_tilde @ head.w_s.value
    mu, var = z.mean(), z.var()
    z = (z - mu) / np.sqrt(var + 1e-5) * head.ln_gain.value + head.ln_bias.value
    return z @ head.w_out.value + head.b_out.value


class TestAttnFusion:
    def test_single_row_pools_to_that_row(self):
        c, s, inputs = make_inputs(n=1, seed=12)
        head = attn_head()
        logits, a_c, a_s = fusion.attn_fusion_forward(
            inputs, head, training=False, return_weights=True
        )
        npt.assert_array_equal(a_c.value, [[1.0]])
        npt.assert_allclose(a_c.value @ c, c, atol=1e-15)
        assert logits.shape == (1, 2)

    def test_weights_sum_to_one_and_convex(self):
        c, s, inputs = make_inputs(n=5, seed=13)
        _, a_c, _ = fusion.attn_fusion_forward(
            inputs, attn_head(), training=False, return_weights=True
        )
        assert a_c.value.sum() == pytest.approx(1.0, abs=1e-12)
        pooled = a_c.value @ c
        assert np.all(pooled >= c.min(axis=0) - 1e-12)
        assert np.all(pooled <= c.max(axis=0) + 1e-12)

    def test_random_against_straight_line_oracle(self):
        c, s, inputs = make_inputs(n=4, seed=14)
        head = attn_head()
        logits = fusion.attn_fusion_forward(inputs, head, training=False)
        npt.assert_allclose(logits.value, attn_fusion_oracle(c, s, head), atol=1e-12)

    def test_eval_mode_deterministic(self):
        _, _, inputs = make_inputs(n=4, seed=15)
        head = attn_head()
        first = fusion.attn_fusion_forward(inputs, head, training=False).value
        second = fusion.attn_fusion_forward(inputs, head, training=False).value
        npt.assert_array_equal(first, second)

    def test_width_mismatch(self):
        _, _, inputs = make_inputs(d_prime=5)
        with pytest.raises(DimensionError, match="fused width 5"):
            fusion.attn_fusion_forward(inputs, attn_head(), training=False)

    def test_reduction_models_are_independent(self):
        head = attn_head()
        c_params = {id(head.c_w1), id(head.c_b1), id(head.c_w2)}
        s_params = {id(head.s_w1), id(head.s_b1), id(head.s_w2)}
        assert not c_params & s_params
        assert not np.array_equal(head.c_w1.value, head.s_w1.value)
