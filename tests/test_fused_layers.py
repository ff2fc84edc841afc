"""The fused attention layers against their composed-graph oracles.

Each of the context-attention layer, gated attention, the attn-fusion
head's attentive pooling and the co-attention head is one graph node with
a hand-written vjp. Its values must equal those of the same layer built
from ``diffcore`` primitives (``tests/oracles.py``), and its gradients
must agree with the oracle's within 1e-12 and with central differences.
"""

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from otfusion import context_attention as ctx
from otfusion import diffcore as dc
from otfusion import fusion
from otfusion import gated_attention as ga
from otfusion.diffcore import Parameter, grad_check
from otfusion.gradsuite import FD_STEP, LAYER_TOL
from otfusion.errors import ParameterError
from otfusion.model import ATTN_FUSION, CO_ATTENTION, ModelConfig, assemble_model

GRAD_ATOL = 1e-12
BATCHES = [None, 1, 3]  # None: one sample without a batch axis


def lead(batch):
    return () if batch is None else (batch,)


def weighted_loss(out, weights):
    """sum(out * out * weights): a loss that weighs every entry differently."""
    return dc.sum_all(dc.elementwise_mul(dc.elementwise_mul(out, out), dc.constant(weights)))


def grads_of(build, nodes):
    """The output value, the attention-style maps and the gradients of every
    node in ``nodes`` for one forward of ``build`` under a weighted loss."""
    out, *maps = build()
    weights = np.random.default_rng(99).uniform(0.5, 1.5, out.shape)
    dc.zero_grads(nodes)
    dc.backward(weighted_loss(out, weights))
    return out.value, [m.value for m in maps], [p.grad.copy() for p in nodes]


def assert_same(fused, composed):
    out_f, maps_f, grads_f = fused
    out_c, maps_c, grads_c = composed
    npt.assert_array_equal(out_f, out_c)
    assert len(maps_f) == len(maps_c)
    for m_f, m_c in zip(maps_f, maps_c):
        npt.assert_array_equal(m_f, m_c)
    for g_f, g_c in zip(grads_f, grads_c):
        npt.assert_allclose(g_f, g_c, rtol=0, atol=GRAD_ATOL)


class TestContextAttention:
    @staticmethod
    def setup(batch, context_rows, n=5, d=8, seed=0):
        rng = np.random.default_rng(seed)
        layer = ctx.ContextAttentionLayer(d, d, 6, 6, rng)
        x = Parameter(rng.uniform(-2, 2, lead(batch) + (n, d)), "x")
        c = Parameter(rng.uniform(-2, 2, lead(batch) + (context_rows or n, d)), "c")
        return layer, x, c

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("context_rows", [1, None])
    @pytest.mark.parametrize("gate_override", [None, 0.0, 1.0])
    def test_matches_composed_graph(self, batch, context_rows, gate_override):
        layer, x, c = self.setup(batch, context_rows)
        nodes = [x, c] + layer.parameters()
        fused = grads_of(lambda: ctx.context_attention_forward(
            x, c, layer, gate_override, return_attention=True), nodes)
        composed = grads_of(lambda: oracles.context_attention_composed(
            x, c, layer, gate_override), nodes)
        assert_same(fused, composed)

    def test_single_input_row(self):
        layer, x, c = self.setup(2, 1, n=1)
        nodes = [x, c] + layer.parameters()
        fused = grads_of(lambda: ctx.context_attention_forward(
            x, c, layer, return_attention=True), nodes)
        assert_same(fused, grads_of(lambda: oracles.context_attention_composed(x, c, layer), nodes))

    @pytest.mark.parametrize("context_rows", [1, None])
    def test_finite_differences_of_the_inputs(self, context_rows):
        layer, x, c = self.setup(2, context_rows, n=4, d=5, seed=1)
        weights = np.random.default_rng(2).uniform(0.5, 1.5, x.shape)

        def loss():
            return weighted_loss(ctx.context_attention_forward(x, c, layer), weights)

        reports = grad_check(loss, [x, c] + layer.parameters(), eps=FD_STEP, tol=LAYER_TOL)
        assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


class TestGatedAttention:
    @staticmethod
    def setup(batch, t=5, d=8, seed=0):
        rng = np.random.default_rng(seed)
        layer = ga.GatedSelfAttentionLayer(d, 5, rng)
        return layer, Parameter(rng.uniform(-2, 2, lead(batch) + (t, d)), "s")

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("ones_mask", [False, True])
    def test_matches_composed_graph(self, batch, ones_mask):
        layer, s = self.setup(batch)
        mask = np.ones((s.rows, 2)) if ones_mask else None
        nodes = [s] + layer.parameters()
        fused = grads_of(lambda: ga.gated_attention(s, layer, mask, return_attention=True), nodes)
        composed = grads_of(lambda: oracles.gated_attention_composed(s, layer, mask), nodes)
        assert_same(fused, composed)

    @pytest.mark.parametrize("ones_mask", [False, True])
    def test_finite_differences_of_the_input(self, ones_mask):
        layer, s = self.setup(2, t=4, d=5, seed=3)
        mask = np.ones((4, 2)) if ones_mask else None
        weights = np.random.default_rng(4).uniform(0.5, 1.5, s.shape)

        def loss():
            return weighted_loss(ga.gated_attention(s, layer, mask), weights)

        reports = grad_check(loss, [s] + layer.parameters(), eps=FD_STEP, tol=LAYER_TOL)
        assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


class TestAttentivePool:
    @staticmethod
    def setup(batch, n=6, d_prime=8, seed=0):
        rng = np.random.default_rng(seed)
        head = fusion.AttnFusionHead(d_prime, 6, rng)
        # nonzero score bias, so its gradient path is exercised too
        head.c_b2.value[...] = 0.3
        m = Parameter(rng.uniform(-2, 2, lead(batch) + (n, d_prime)), "m")
        return [m, head.c_w1, head.c_b1, head.c_w2, head.c_b2]

    @staticmethod
    def draws(m, training):
        """A fresh, identically seeded draw for each build in training mode."""
        if not training:
            return None
        return dc.SampleMajorDraws(np.random.default_rng(7), [m.shape[:-1] + (fusion.HIDDEN,)])

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("training", [False, True])
    def test_matches_composed_graph(self, batch, training):
        nodes = self.setup(batch)
        m = nodes[0]

        def build_fused():
            pooled, alpha = fusion._attentive_pool(*nodes, training, self.draws(m, training))
            return pooled, dc.constant(alpha)

        fused = grads_of(build_fused, nodes)
        composed = grads_of(lambda: oracles.attentive_pool_composed(
            *nodes, training, self.draws(m, training)), nodes)
        assert_same(fused, composed)

    def test_training_mode_drops_units(self):
        nodes = self.setup(3)
        m = nodes[0]
        train, _ = fusion._attentive_pool(*nodes, True, self.draws(m, True))
        evaluated, _ = fusion._attentive_pool(*nodes, False, None)
        assert not np.array_equal(train.value, evaluated.value)

    @pytest.mark.parametrize("training", [False, True])
    def test_finite_differences_of_the_input(self, training):
        nodes = self.setup(2, n=4, d_prime=5, seed=5)
        m = nodes[0]
        weights = np.random.default_rng(6).uniform(0.5, 1.5, (2, 1, 5))

        def loss():
            pooled, _ = fusion._attentive_pool(*nodes, training, self.draws(m, training))
            return weighted_loss(pooled, weights)

        reports = grad_check(loss, nodes, eps=FD_STEP, tol=LAYER_TOL)
        assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


class TestCoAttention:
    @staticmethod
    def setup(batch, n=6, d_prime=8, k=4, seed=0):
        rng = np.random.default_rng(seed)
        head = fusion.CoAttentionHead(d_prime, k, rng)
        # nonzero biases, so that the ReLU mask is mixed
        head.b1.value[...] = rng.uniform(-0.5, 0.5, head.b1.shape)
        head.b_out.value[...] = rng.uniform(-0.5, 0.5, head.b_out.shape)
        c = Parameter(rng.uniform(-2, 2, lead(batch) + (n, d_prime)), "c")
        s = Parameter(rng.uniform(-2, 2, lead(batch) + (n, d_prime)), "s")
        return head, fusion.FusedInputs(c, s), [c, s] + head.parameters()

    @staticmethod
    def draws(training):
        """A fresh, identically seeded generator for each build in training mode."""
        return np.random.default_rng(7) if training else None

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("training", [False, True])
    def test_matches_composed_graph(self, batch, training):
        head, inputs, nodes = self.setup(batch)
        fused = grads_of(lambda: fusion.co_attention_forward(
            inputs, head, training, self.draws(training), return_weights=True), nodes)
        composed = grads_of(lambda: oracles.co_attention_composed(
            inputs, head, training, self.draws(training)), nodes)
        assert_same(fused, composed)

    def test_training_without_rng_is_rejected(self):
        head, inputs, _ = self.setup(2)
        with pytest.raises(ParameterError):
            fusion.co_attention_forward(inputs, head, training=True)

    def test_finite_differences_in_training_mode(self):
        head, inputs, nodes = self.setup(2, n=4, d_prime=4, k=3, seed=5)
        weights = np.random.default_rng(6).uniform(0.5, 1.5, (2, 1, 2))

        def loss():
            return weighted_loss(fusion.co_attention_forward(inputs, head, True, self.draws(True)),
                                 weights)

        reports = grad_check(loss, nodes, eps=FD_STEP, tol=LAYER_TOL)
        assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


class TestGraphSize:
    @staticmethod
    def batch(seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((4, 12, 32)), rng.standard_normal((4, 12, 32))

    def test_training_step_builds_few_nodes(self, monkeypatch):
        # the composed layers built 130 grad-requiring nodes per step with
        # the attn-fusion head, and the composed co-attention head 51
        models = [assemble_model(ModelConfig(fusion=head), seed=0)
                  for head in (ATTN_FUSION, CO_ATTENTION)]
        x, y = self.batch()
        built = []
        init = dc.Node.__init__

        def counting_init(node, *args, **kwargs):
            init(node, *args, **kwargs)
            built.append(node.requires_grad)

        monkeypatch.setattr(dc.Node, "__init__", counting_init)
        for model in models:
            built.clear()
            model.loss(model.forward(x, y, True, np.random.default_rng(1)), np.array([0, 1, 1, 0]))
            assert sum(built) <= 30

    def test_inference_keeps_no_graph(self):
        rng = np.random.default_rng(2)
        layer = ctx.ContextAttentionLayer(8, 8, 6, 6, rng)
        gated = ga.GatedSelfAttentionLayer(8, 5, rng)
        head = fusion.AttnFusionHead(8, 6, rng)
        co_head = fusion.CoAttentionHead(8, 4, rng)
        x = dc.constant(rng.standard_normal((3, 5, 8)))
        pool_params = [head.c_w1, head.c_b1, head.c_w2, head.c_b2]
        with dc.inference(layer.parameters() + gated.parameters() + pool_params
                          + co_head.parameters()):
            nodes = [ctx.context_attention_forward(x, ctx.global_context(x), layer),
                     ga.gated_attention(x, gated),
                     fusion._attentive_pool(x, *pool_params, False, None)[0],
                     fusion.co_attention_forward(fusion.FusedInputs(x, x), co_head, False)]
        for node in nodes:
            assert not node.requires_grad
            assert node._parents == () and node._vjp is None
