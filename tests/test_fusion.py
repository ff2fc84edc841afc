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
    return c, s, (dc.constant(c), dc.constant(s))


def co_head(d_prime=6, k=4, seed=1):
    return fusion.CoAttentionHead(d_prime, k, np.random.default_rng(seed))


def attn_head(d_prime=6, d_z=5, seed=2):
    return fusion.AttnFusionHead(d_prime, d_z, np.random.default_rng(seed))


def co_attention_tail(p, head):
    """The dense(relu) / dense(2) tail of the co-attention head in eval
    mode, on the concatenated pooled rows p."""
    hidden = np.maximum(p @ head.w1.value + head.b1.value, 0.0)
    return hidden @ head.w_out.value + head.b_out.value


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
    return co_attention_tail(np.concatenate([c_hat, s_hat], axis=1), head)


def identical_rows(n, seed=0):
    """c and s of n copies of one row each, and those two rows concatenated."""
    r_c, r_s, _ = make_inputs(n=1, seed=seed)
    c, s = np.repeat(r_c, n, axis=0), np.repeat(r_s, n, axis=0)
    return np.concatenate([r_c, r_s], axis=1), (dc.constant(c), dc.constant(s))


class TestCoAttention:
    def test_single_position(self):
        p, inputs = identical_rows(n=1)
        head = co_head()
        logits = fusion.co_attention_forward(*inputs, head, training=False)
        assert logits.shape == (1, 2)
        npt.assert_array_equal(logits.value, co_attention_tail(p, head))

    @pytest.mark.parametrize("n", [4, 5])
    def test_identical_rows_pool_to_that_row(self, n):
        # the weights over each side's positions sum to one exactly when n
        # copies of a row pool to that row, and so the logits are the tail's
        p, inputs = identical_rows(n, seed=6)
        head = co_head()
        logits = fusion.co_attention_forward(*inputs, head, training=False)
        npt.assert_allclose(logits.value, co_attention_tail(p, head), rtol=0, atol=1e-12)

    def test_random_against_straight_line_oracle(self):
        c, s, inputs = make_inputs(n=3, seed=7)
        head = co_head()
        logits = fusion.co_attention_forward(*inputs, head, training=False)
        npt.assert_allclose(logits.value, co_attention_oracle(c, s, head), atol=1e-12)

    def test_eval_mode_deterministic(self):
        _, _, inputs = make_inputs(n=3, seed=9)
        head = co_head()
        first = fusion.co_attention_forward(*inputs, head, training=False).value
        second = fusion.co_attention_forward(*inputs, head, training=False).value
        npt.assert_array_equal(first, second)

    def test_width_mismatch(self):
        _, _, inputs = make_inputs(d_prime=5)
        with pytest.raises(DimensionError, match="fused width 5"):
            fusion.co_attention_forward(*inputs, co_head(), training=False)

    @pytest.mark.parametrize("s_shape", [(4, 6), (3, 5), (2, 3, 6)])
    def test_shape_mismatch(self, s_shape):
        c = dc.constant(np.zeros((3, 6)))
        with pytest.raises(DimensionError, match="fused inputs differ"):
            fusion.co_attention_forward(c, dc.constant(np.zeros(s_shape)), co_head(), training=False)

    def test_training_mode_uses_dropout(self):
        _, _, inputs = make_inputs(n=3, seed=10)
        head = co_head()
        rng = np.random.default_rng(11)
        eval_logits = fusion.co_attention_forward(*inputs, head, training=False).value
        train_logits = fusion.co_attention_forward(*inputs, head, training=True, rng=rng).value
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


def pool_c(head, c):
    """The head's eval-mode attentive pooling of its text side c."""
    return fusion._attentive_pool(dc.constant(c), head.c_w1, head.c_b1, head.c_w2, None).value


class TestAttnFusion:
    def test_single_row_pools_to_that_row(self):
        c, s, inputs = make_inputs(n=1, seed=12)
        head = attn_head()
        logits = fusion.attn_fusion_forward(*inputs, head, training=False)
        npt.assert_array_equal(pool_c(head, c), c)
        assert logits.shape == (1, 2)

    def test_weights_sum_to_one_and_convex(self):
        # identical rows pool to that row exactly when the weights sum to
        # one; pooled random rows lie within each column's range
        c, _, _ = make_inputs(n=5, seed=13)
        head = attn_head()
        npt.assert_allclose(pool_c(head, np.repeat(c[:1], 5, axis=0)), c[:1], rtol=0, atol=1e-12)
        pooled = pool_c(head, c)
        assert np.all(pooled >= c.min(axis=0) - 1e-12)
        assert np.all(pooled <= c.max(axis=0) + 1e-12)

    def test_random_against_straight_line_oracle(self):
        c, s, inputs = make_inputs(n=4, seed=14)
        head = attn_head()
        logits = fusion.attn_fusion_forward(*inputs, head, training=False)
        npt.assert_allclose(logits.value, attn_fusion_oracle(c, s, head), atol=1e-12)

    def test_eval_mode_deterministic(self):
        _, _, inputs = make_inputs(n=4, seed=15)
        head = attn_head()
        first = fusion.attn_fusion_forward(*inputs, head, training=False).value
        second = fusion.attn_fusion_forward(*inputs, head, training=False).value
        npt.assert_array_equal(first, second)

    def test_width_mismatch(self):
        _, _, inputs = make_inputs(d_prime=5)
        with pytest.raises(DimensionError, match="fused width 5"):
            fusion.attn_fusion_forward(*inputs, attn_head(), training=False)

    @pytest.mark.parametrize("s_shape", [(4, 6), (3, 5), (2, 3, 6)])
    def test_shape_mismatch(self, s_shape):
        c = dc.constant(np.zeros((3, 6)))
        with pytest.raises(DimensionError, match="fused inputs differ"):
            fusion.attn_fusion_forward(c, dc.constant(np.zeros(s_shape)), attn_head(), training=False)

    def test_reduction_models_are_independent(self):
        head = attn_head()
        c_params = {id(head.c_w1), id(head.c_b1), id(head.c_w2)}
        s_params = {id(head.s_w1), id(head.s_b1), id(head.s_w2)}
        assert not c_params & s_params
        assert not np.array_equal(head.c_w1.value, head.s_w1.value)
