"""The fused attention layers and the fused loss against their
composed-graph oracles.

Each of the context-attention layer, gated attention, the attn-fusion
head's attentive pooling and the co-attention head is one graph node with
a hand-written vjp. Its values must equal those of the same layer built
from ``diffcore`` primitives (``tests/oracles.py``), and its gradients
must agree with the oracle's within 1e-12 and with central differences.
The smoothed cross-entropy is one node too; its value and gradients equal
the composed loss's bit for bit.
"""

from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from otfusion import calibration as calib
from otfusion import context_attention as ctx
from otfusion import diffcore as dc
from otfusion import fusion
from otfusion import gated_attention as ga
from otfusion.diffcore import Parameter, grad_check
from otfusion.gradsuite import LAYER_TOL
from otfusion.errors import ParameterError
from otfusion.model import ATTN_FUSION, CO_ATTENTION, CONCAT, ModelConfig, assemble_model

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
        layer = ctx.ContextAttentionLayer(d, 6, rng)
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

        reports = grad_check(loss, [x, c] + layer.parameters(), tol=LAYER_TOL)
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

        reports = grad_check(loss, [s] + layer.parameters(), tol=LAYER_TOL)
        assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


class TestAttentivePool:
    @staticmethod
    def setup(batch, n=6, d_prime=8, seed=0):
        rng = np.random.default_rng(seed)
        head = fusion.AttnFusionHead(d_prime, 6, rng)
        m = Parameter(rng.uniform(-2, 2, lead(batch) + (n, d_prime)), "m")
        return [m, head.c_w1, head.c_b1, head.c_w2]

    @staticmethod
    def keep(m, training):
        """The hidden layer's dropout multiplier (None in eval mode), from a
        fixed seed."""
        (keep,) = dc.dropout_masks(np.random.default_rng(7), training,
                                   [(m.shape[:-1] + (fusion.HIDDEN,), fusion.ATTN_MLP_DROPOUT)])
        return keep

    @pytest.mark.parametrize("batch", BATCHES)
    @pytest.mark.parametrize("training", [False, True])
    def test_matches_composed_graph(self, batch, training):
        nodes = self.setup(batch)
        keep = self.keep(nodes[0], training)

        def build_fused():
            pooled, alpha = fusion._attentive_pool(*nodes, keep)
            return pooled, dc.constant(alpha)

        fused = grads_of(build_fused, nodes)
        composed = grads_of(lambda: oracles.attentive_pool_composed(*nodes, keep), nodes)
        assert_same(fused, composed)

    def test_training_mode_drops_units(self):
        nodes = self.setup(3)
        train, _ = fusion._attentive_pool(*nodes, self.keep(nodes[0], True))
        evaluated, _ = fusion._attentive_pool(*nodes, None)
        assert not np.array_equal(train.value, evaluated.value)

    @pytest.mark.parametrize("training", [False, True])
    def test_finite_differences_of_the_input(self, training):
        nodes = self.setup(2, n=4, d_prime=5, seed=5)
        keep = self.keep(nodes[0], training)
        weights = np.random.default_rng(6).uniform(0.5, 1.5, (2, 1, 5))

        def loss():
            pooled, _ = fusion._attentive_pool(*nodes, keep)
            return weighted_loss(pooled, weights)

        reports = grad_check(loss, nodes, tol=LAYER_TOL)
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

        reports = grad_check(loss, nodes, tol=LAYER_TOL)
        assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


class TestSmoothedCrossEntropy:
    @staticmethod
    def value_and_grad(loss_fn, logits, targets):
        z = Parameter(logits, "z")
        loss = loss_fn(z, targets)
        dc.backward(loss)
        return loss.value, z.grad

    def assert_same(self, logits, targets):
        fused = self.value_and_grad(calib.ls_cross_entropy, logits, targets)
        composed = self.value_and_grad(oracles.ls_cross_entropy_composed, logits, targets)
        npt.assert_array_equal(fused[0], composed[0])
        npt.assert_array_equal(fused[1], composed[1])
        return fused

    @pytest.mark.parametrize("batch", BATCHES + [4])
    @pytest.mark.parametrize("spread", [1.0, 30.0, 80.0])
    def test_matches_composed_graph(self, batch, spread):
        rng = np.random.default_rng(0)
        logits = spread * rng.standard_normal(lead(batch) + (1, 2))
        labels = rng.integers(0, 2, batch or 1)
        self.assert_same(logits, calib.smooth_targets(labels, 0.001, 2))

    def test_probability_below_the_floor_passes_no_gradient(self):
        # sample 0's true class has probability e^-40, below the floor, so
        # its loss is -log(PROB_FLOOR) and its gradient is exactly 0
        assert np.exp(-40.0) < calib.PROB_FLOOR
        logits = np.array([[[0.0, -40.0]], [[0.3, -0.2]]])
        value, grad = self.assert_same(logits, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not grad[0].any() and grad[1].all()
        sample_1 = -np.log(dc._softmax(logits[1])[0, 0])
        assert value[0, 0] == pytest.approx((-np.log(calib.PROB_FLOOR) + sample_1) / 2, rel=1e-12)

    @pytest.mark.parametrize("head", [ATTN_FUSION, CO_ATTENTION, CONCAT])
    def test_model_loss_matches_composed_graph(self, head):
        model = assemble_model(ModelConfig(fusion=head), seed=0)
        params = model.parameters()
        x, y = TestGraphSize.batch()
        labels = np.array([0, 1, 1, 0])
        logits = model.forward(x, y, True, np.random.default_rng(1))
        targets = calib.smooth_targets(labels, model.cfg.label_smoothing_alpha, 2)
        runs = []
        for loss in (model.loss(logits, labels), oracles.ls_cross_entropy_composed(logits, targets)):
            dc.zero_grads(params)
            dc.backward(loss)
            runs.append((loss.value, [p.grad.copy() for p in params]))
        (value_f, grads_f), (value_c, grads_c) = runs
        npt.assert_array_equal(value_f, value_c)
        for p, g_f, g_c in zip(params, grads_f, grads_c):
            npt.assert_array_equal(g_f, g_c, err_msg=p.name)


def test_only_diffcore_reduces_gradients_to_a_parent_shape():
    """A fused vjp returns each gradient in the shape of its own output;
    ``backward`` alone sums it down to the parent's shape."""
    package = Path(dc.__file__).parent
    users = {path.name for path in package.glob("*.py")
             if "_unbroadcast" in path.read_text(encoding="utf-8")}
    assert users == {"diffcore.py"}


class TestGraphSize:
    @staticmethod
    def batch(seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((4, 12, 32)), rng.standard_normal((4, 12, 32))

    def test_training_step_builds_few_nodes(self, monkeypatch):
        # grad-requiring nodes of one training step, loss included: each
        # heavy layer and the loss is one node, the rest is diffcore glue
        budget = {ATTN_FUSION: 23, CO_ATTENTION: 16, CONCAT: 20}
        models = {head: assemble_model(ModelConfig(fusion=head), seed=0) for head in budget}
        x, y = self.batch()
        built = []
        init = dc.Node.__init__

        def counting_init(node, *args, **kwargs):
            init(node, *args, **kwargs)
            built.append(node.requires_grad)

        monkeypatch.setattr(dc.Node, "__init__", counting_init)
        for head, model in models.items():
            built.clear()
            model.loss(model.forward(x, y, True, np.random.default_rng(1)), np.array([0, 1, 1, 0]))
            assert sum(built) == budget[head], head

    def test_inference_keeps_no_graph(self):
        rng = np.random.default_rng(2)
        layer = ctx.ContextAttentionLayer(8, 6, rng)
        gated = ga.GatedSelfAttentionLayer(8, 5, rng)
        head = fusion.AttnFusionHead(8, 6, rng)
        co_head = fusion.CoAttentionHead(8, 4, rng)
        x = dc.constant(rng.standard_normal((3, 5, 8)))
        pool_params = [head.c_w1, head.c_b1, head.c_w2]
        with dc.inference(layer.parameters() + gated.parameters() + pool_params
                          + co_head.parameters()):
            nodes = [ctx.context_attention_forward(x, ctx.global_context(x), layer),
                     ga.gated_attention(x, gated),
                     fusion._attentive_pool(x, *pool_params, None)[0],
                     fusion.co_attention_forward(fusion.FusedInputs(x, x), co_head, False)]
        for node in nodes:
            assert not node.requires_grad
            assert node._parents == () and node._vjp is None
