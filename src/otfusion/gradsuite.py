"""Named finite-difference gradient checks for every trainable layer and
the assembled model, at desk-scale sizes so the whole suite runs in
seconds, each at ``grad_check``'s default step. Used by the ``gradcheck``
CLI subcommand and the acceptance tests."""

from __future__ import annotations

import numpy as np

from . import calibration as calib
from . import context_attention as ctx
from . import diffcore as dc
from . import gated_attention as gated
from . import transport
from .diffcore import GradCheckReport, Parameter, grad_check
from .errors import require_seed
from .fusion import (AttnFusionHead, CoAttentionHead, FusedInputs,
                     attn_fusion_forward, co_attention_forward)
from .model import ModelConfig, assemble_model

LAYER_TOL = 1e-4
END_TO_END_TOL = 1e-3


def _sq_loss(out):
    return dc.sum_all(dc.elementwise_mul(out, out))


def _check(name: str, loss_fn, params, tol: float) -> GradCheckReport:
    reports = grad_check(loss_fn, params, tol=tol)
    worst = max(r.max_rel_error for r in reports)
    return GradCheckReport(name, worst, tol, all(r.passed for r in reports))


def _context_check(variant: str, rng: np.random.Generator) -> GradCheckReport:
    n, d = 4, 5
    stack = ctx.ContextStack.build(d, 4, variant, ctx.DEFAULT_LAYERS[variant], rng, f"gc.{variant}")
    x = rng.uniform(-2, 2, (n, d))

    def loss_fn():
        return _sq_loss(ctx.stack_forward(dc.constant(x), stack))

    return _check(f"context_attention[{variant}]", loss_fn, stack.parameters(), LAYER_TOL)


def _gated_check(rng: np.random.Generator) -> GradCheckReport:
    t, d = 4, 5
    layer = gated.GatedSelfAttentionLayer(d, 3, rng, "gc.gated")
    s = rng.uniform(-2, 2, (t, d))

    def loss_fn():
        return _sq_loss(gated.gated_attention(dc.constant(s), layer))

    return _check("gated_self_attention", loss_fn, layer.parameters(), LAYER_TOL)


def _head_check(name: str, head, forward, rng: np.random.Generator) -> GradCheckReport:
    """A fusion head (already built from ``rng``) in eval mode, on two
    4-row inputs of its width drawn next."""
    c = rng.uniform(-2, 2, (4, head.d_prime))
    s = rng.uniform(-2, 2, (4, head.d_prime))

    def loss_fn():
        inputs = FusedInputs(dc.constant(c), dc.constant(s))
        return _sq_loss(forward(inputs, head, training=False))

    return _check(name, loss_fn, head.parameters(), LAYER_TOL)


def _layer_norm_check(rng: np.random.Generator) -> GradCheckReport:
    n, d = 3, 6
    gain = Parameter(rng.uniform(0.5, 1.5, (1, d)), "gc.ln_gain")
    bias = Parameter(rng.uniform(-0.5, 0.5, (1, d)), "gc.ln_bias")
    mat = Parameter(rng.uniform(-2, 2, (n, d)), "gc.ln_input")

    def loss_fn():
        return _sq_loss(dc.layer_norm(mat, gain, bias))

    return _check("layer_norm", loss_fn, [mat, gain, bias], LAYER_TOL)


def _smoothed_ce_check(rng: np.random.Generator) -> GradCheckReport:
    logits = Parameter(rng.uniform(-2, 2, (1, 2)), "gc.logits")
    targets = calib.smooth_targets(1, 0.001, 2)

    def loss_fn():
        return calib.ls_cross_entropy(logits, targets)

    return _check("smoothed_cross_entropy", loss_fn, [logits], LAYER_TOL)


def _otk_check(rng: np.random.Generator) -> GradCheckReport:
    t, n, d = 5, 4, 3
    y = Parameter(rng.uniform(-2, 2, (t, d)), "gc.otk_y")
    z = Parameter(rng.uniform(-2, 2, (n, d)), "gc.otk_refs")

    def loss_fn():
        return _sq_loss(transport.otk_embed(y, z, 0.2, 10).values)

    return _check("otk_embed[unrolled_sinkhorn]", loss_fn, [y, z], END_TO_END_TOL)


def _assembled_check(fusion: str, rng: np.random.Generator, batch: int | None = None) -> GradCheckReport:
    """The whole model on one sample, or with ``batch`` on a stacked
    minibatch, which checks the gradient sums over the batch axis."""
    cfg = ModelConfig(d=4, seq_len=3, strategy="deep", layers=2, fusion=fusion,
                      d_q=3, d_g=3, k=3, d_z=4, otk_eps=0.2, otk_iters=8)
    model = assemble_model(cfg, seed=7)
    lead = () if batch is None else (batch,)
    x = rng.uniform(-1, 1, lead + (3, 4))
    y = rng.uniform(-1, 1, lead + (5, 4))
    labels = 1 if batch is None else rng.integers(0, 2, batch)
    model.freeze_ot_plans(True)

    def loss_fn():
        return model.loss(model.forward(x, y, training=False), labels)

    name = fusion if batch is None else "batch"
    return _check(f"assembled_model[{name}]", loss_fn, model.parameters(), END_TO_END_TOL)


def run_suite(seed: int = 0) -> list[GradCheckReport]:
    require_seed("seed", seed)
    rng = np.random.default_rng(seed)
    return [
        _layer_norm_check(rng),
        _smoothed_ce_check(rng),
        _context_check("global", rng),
        _context_check("deep", rng),
        _context_check("deep_global", rng),
        _gated_check(rng),
        _head_check("co_attention_head", CoAttentionHead(6, 3, rng, "gc.co"),
                    co_attention_forward, rng),
        _head_check("attn_fusion_head", AttnFusionHead(6, 6, rng, "gc.attnfuse"),
                    attn_fusion_forward, rng),
        _otk_check(rng),
        _assembled_check("attn_fusion", rng),
        _assembled_check("co_attention", rng),
        _assembled_check("attn_fusion", rng, batch=3),
    ]
