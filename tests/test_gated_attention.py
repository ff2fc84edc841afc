import numpy as np
import numpy.testing as npt
import pytest

import oracles

from otfusion import diffcore as dc
from otfusion import gated_attention as ga
from otfusion.diffcore import grad_check
from otfusion.errors import DimensionError


def make_layer(d=8, d_g=5, seed=0):
    return ga.GatedSelfAttentionLayer(d, d_g, np.random.default_rng(seed))


def softmax_np(m):
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def straight_line_masks(q, k, layer):
    pre = ((q @ layer.fc_q.value) * (k @ layer.fc_k.value)) @ layer.fc_out.value
    return 1.0 / (1.0 + np.exp(-pre))


def straight_line_attention(s, layer):
    m = straight_line_masks(s, s, layer)
    mq = np.repeat(m[:, :1], s.shape[1], axis=1)
    mk = np.repeat(m[:, 1:2], s.shape[1], axis=1)
    attn = softmax_np((s * mq) @ (s * mk).T / np.sqrt(s.shape[1]))
    return attn @ s


class TestGatingMasks:
    def test_zero_weights_give_half(self):
        layer = make_layer()
        for p in (layer.fc_q, layer.fc_k, layer.fc_out):
            p.value[...] = 0.0
        s = np.random.default_rng(1).uniform(-2, 2, (4, 8))
        masks = oracles.gating_masks(dc.constant(s), dc.constant(s), layer)
        npt.assert_array_equal(masks.value, np.full((4, 2), 0.5))

    def test_masks_in_open_unit_interval(self):
        layer = make_layer()
        s = np.random.default_rng(2).uniform(-2, 2, (6, 8))
        masks = oracles.gating_masks(dc.constant(s), dc.constant(s), layer).value
        assert masks.shape == (6, 2)
        assert np.all(masks > 0) and np.all(masks < 1)

    def test_random_against_straight_line(self):
        layer = make_layer()
        rng = np.random.default_rng(3)
        q, k = rng.uniform(-2, 2, (5, 8)), rng.uniform(-2, 2, (5, 8))
        masks = oracles.gating_masks(dc.constant(q), dc.constant(k), layer)
        npt.assert_allclose(masks.value, straight_line_masks(q, k, layer), atol=1e-13)

    def test_shape_mismatch(self):
        layer = make_layer()
        with pytest.raises(DimensionError):
            oracles.gating_masks(dc.constant(np.zeros((3, 8))), dc.constant(np.zeros((4, 8))), layer)


class TestGatedAttention:
    def test_all_ones_mask_is_vanilla_attention(self):
        layer = make_layer()
        s = np.random.default_rng(4).uniform(-2, 2, (5, 8))
        out = ga.gated_attention(dc.constant(s), layer, ones_mask=True)
        # same op order as the implementation with unit masks
        vanilla = softmax_np((s * 1.0) @ (s * 1.0).T * (1.0 / np.sqrt(8))) @ s
        npt.assert_array_equal(out.value, vanilla)

    def test_single_row_is_identity(self):
        layer = make_layer()
        s = np.random.default_rng(5).uniform(-2, 2, (1, 8))
        out = ga.gated_attention(dc.constant(s), layer)
        npt.assert_allclose(out.value, s, atol=1e-15)

    def test_random_against_straight_line(self):
        layer = make_layer()
        s = np.random.default_rng(6).uniform(-2, 2, (5, 8))
        out = ga.gated_attention(dc.constant(s), layer)
        npt.assert_allclose(out.value, straight_line_attention(s, layer), atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        # with V = s, a stack of one row r maps to r exactly when every
        # attention row sums to one
        layer = make_layer()
        r = np.random.default_rng(7).uniform(-2, 2, (1, 8))
        out = ga.gated_attention(dc.constant(np.repeat(r, 6, axis=0)), layer)
        npt.assert_allclose(out.value, np.repeat(r, 6, axis=0), rtol=0, atol=1e-12)

    def test_output_rows_are_convex_combinations(self):
        layer = make_layer()
        s = np.random.default_rng(10).uniform(-2, 2, (6, 8))
        out = ga.gated_attention(dc.constant(s), layer).value
        assert np.all(out >= s.min(axis=0) - 1e-12)
        assert np.all(out <= s.max(axis=0) + 1e-12)

    @pytest.mark.parametrize("ones_mask", [False, True])
    def test_input_width_mismatch(self, ones_mask):
        layer = make_layer()
        with pytest.raises(DimensionError, match="input width 7"):
            ga.gated_attention(dc.constant(np.zeros((4, 7))), layer, ones_mask)

    def test_gradients(self):
        layer = make_layer(d=5, d_g=3, seed=8)
        s = np.random.default_rng(9).uniform(-2, 2, (4, 5))

        def loss():
            out = ga.gated_attention(dc.constant(s), layer)
            return dc.sum_all(dc.elementwise_mul(out, out))

        reports = grad_check(loss, layer.parameters(), tol=1e-4)
        assert all(r.passed for r in reports)
