"""Context-aware self-attention for the sequence branch.

A layer mixes the plain query/key projections of the input with projections
of a context matrix through learned sigmoid gates, then runs scaled
dot-product attention with V fixed to the input. Three ways of building
the context are provided: the row mean of the current input (global), a
learned projection of all earlier layer outputs (deep), and a projection
of their pooled means (deep-global).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Node, Parameter, _t
from .errors import DimensionError, ParameterError

GLOBAL = "global"
DEEP = "deep"
DEEP_GLOBAL = "deep_global"

DEFAULT_LAYERS = {GLOBAL: 1, DEEP: 3, DEEP_GLOBAL: 2}


class ContextAttentionLayer:
    """One context-gated attention layer.

    Queries are compared with keys, so both have one width d_q, and the
    context is as wide as the input (d). The layer holds the input
    projections w_q, w_k and the context projections w_qc, w_kc, each
    d x d_q, and the four d_q x 1 gate vectors.
    """

    def __init__(self, d: int, d_q: int, rng: np.random.Generator, name: str = "ctx"):
        self.d, self.d_q = d, d_q
        self.w_q = Parameter(dc.xavier_uniform(rng, d, d_q), f"{name}.w_q")
        self.w_k = Parameter(dc.xavier_uniform(rng, d, d_q), f"{name}.w_k")
        self.w_qc = Parameter(dc.xavier_uniform(rng, d, d_q), f"{name}.w_qc")
        self.w_kc = Parameter(dc.xavier_uniform(rng, d, d_q), f"{name}.w_kc")
        self.w_gq = Parameter(dc.xavier_uniform(rng, d_q, 1), f"{name}.w_gq")
        self.w_gqc = Parameter(dc.xavier_uniform(rng, d_q, 1), f"{name}.w_gqc")
        self.w_gk = Parameter(dc.xavier_uniform(rng, d_q, 1), f"{name}.w_gk")
        self.w_gkc = Parameter(dc.xavier_uniform(rng, d_q, 1), f"{name}.w_gkc")

    def parameters(self) -> list[Parameter]:
        return [self.w_q, self.w_k, self.w_qc, self.w_kc,
                self.w_gq, self.w_gqc, self.w_gk, self.w_gkc]


def global_context(x: Node) -> Node:
    """The row mean of x: one context row shared by every row of x."""
    return dc.mean_rows(x)


def deep_context(history: list[Node], w_c0: Node) -> Node:
    """Project the column-concatenated layer history down to one context matrix."""
    if not history:
        raise ParameterError("deep_context needs a nonempty history")
    stacked = history[0]
    for h in history[1:]:
        stacked = dc.concat_cols(stacked, h)
    return dc.matmul(stacked, w_c0)


def deep_global_context(history: list[Node], w_c0: Node) -> Node:
    """Pool each history member to a row, concatenate and project to one
    context row."""
    return deep_context([dc.mean_rows(h) for h in history], w_c0)


def _gate_vjp(g_mixed, a, a_c, gate, w_a, w_ac, learned: bool):
    """Gradients of ``(1 - g) * a + g * a_c`` for a, a_c, w_a and w_ac, where
    a learned gate is ``g = sigmoid(a w_a + a_c w_ac)``; a pinned one passes
    no gradient to w_a and w_ac."""
    g_a = g_mixed * (1.0 - gate)
    g_ac = g_mixed * gate
    shared = a_c.shape[-2] == 1  # one context row, shared by every row of a
    if shared:
        g_ac = g_ac.sum(axis=-2, keepdims=True)
    if not learned:
        return g_a, g_ac, None, None
    g_pre = (g_mixed * (a_c - a)).sum(axis=-1, keepdims=True) * gate * (1.0 - gate)
    g_a += g_pre @ w_a.value.T
    g_wa = _t(a) @ g_pre
    if shared:
        g_pre = g_pre.sum(axis=-2, keepdims=True)
    g_ac += g_pre @ w_ac.value.T
    return g_a, g_ac, g_wa, _t(a_c) @ g_pre


def context_attention_forward(x: Node, c: Node, layer: ContextAttentionLayer,
                              gate_override: float | None = None,
                              return_attention: bool = False):
    """Context-gated scaled dot-product attention with V = x.

    ``c`` is as wide as x and has x's rows, or one row shared by all of
    them. Output is n x d.
    Q and K are each mixed with their context projection by an n x 1
    sigmoid gate, ``(1 - g) * q + g * q_c``; ``gate_override`` is a
    test/ablation seam that pins both gates to a constant. With
    ``return_attention`` the row-stochastic attention map is returned as
    well, as a constant.

    The layer is one graph node with parents ``x``, ``c`` and the layer's
    eight parameters: its forward runs in numpy and its vjp is written out.
    """
    if x.cols != layer.d:
        raise DimensionError(f"input width {x.cols} != layer d {layer.d}")
    if c.rows not in (1, x.rows):
        raise DimensionError(f"context rows {c.rows} != input rows {x.rows} or 1")
    if c.cols != layer.d:
        raise DimensionError(f"context width {c.cols} != layer d {layer.d}")
    xv, cv = x.value, c.value
    params = layer.parameters()
    w_q, w_k, w_qc, w_kc, w_gq, w_gqc, w_gk, w_gkc = params
    q, k = xv @ w_q.value, xv @ w_k.value
    q_c, k_c = cv @ w_qc.value, cv @ w_kc.value
    learned = gate_override is None
    if learned:
        gate_q = dc._sigmoid(q @ w_gq.value + q_c @ w_gqc.value)
        gate_k = dc._sigmoid(k @ w_gk.value + k_c @ w_gkc.value)
    else:
        gate_q = gate_k = np.full((x.rows, 1), float(gate_override))
    q_bar = q - gate_q * q + gate_q * q_c
    k_bar = k - gate_k * k + gate_k * k_c
    scale = 1.0 / math.sqrt(layer.d_q)
    attn = dc._softmax((q_bar @ _t(k_bar).copy()) * scale)

    def vjp(g):
        g_scores = dc._softmax_vjp(attn, g @ _t(xv)) * scale
        g_q, g_qc, g_wgq, g_wgqc = _gate_vjp(g_scores @ k_bar, q, q_c, gate_q,
                                             w_gq, w_gqc, learned)
        g_k, g_kc, g_wgk, g_wgkc = _gate_vjp(_t(g_scores) @ q_bar, k, k_c, gate_k,
                                             w_gk, w_gkc, learned)
        g_x = g_c = None
        if x.requires_grad:
            g_x = _t(attn) @ g + g_q @ w_q.value.T + g_k @ w_k.value.T
        if c.requires_grad:
            g_c = g_qc @ w_qc.value.T + g_kc @ w_kc.value.T
        return (g_x, g_c, _t(xv) @ g_q, _t(xv) @ g_k, _t(cv) @ g_qc, _t(cv) @ g_kc,
                g_wgq, g_wgqc, g_wgk, g_wgkc)

    out = Node(attn @ xv, (x, c, *params), vjp)
    if return_attention:
        return out, dc.constant(attn)
    return out


@dataclass
class ContextStack:
    """A stack of context-attention layers sharing one context strategy.

    ``variant`` is the context construction, one of ``DEFAULT_LAYERS``'s
    keys, and the layer count is ``len(layers)``. For the deep variants,
    layer j builds its context from the inputs of layers 0..j (so the first
    layer sees a one-element history); its projection matrix therefore has
    (j + 1) * d rows.
    """

    layers: list[ContextAttentionLayer]
    variant: str
    context_projections: list[Parameter] = field(default_factory=list)

    @classmethod
    def build(cls, d: int, d_q: int, variant: str, layers: int,
              rng: np.random.Generator, name: str = "stack") -> "ContextStack":
        if variant not in DEFAULT_LAYERS:
            raise ParameterError(f"unknown context strategy {variant!r}")
        if layers < 1:
            raise ParameterError(f"layer count must be >= 1, got {layers}")
        attention = [ContextAttentionLayer(d, d_q, rng, f"{name}.L{j}")
                     for j in range(layers)]
        projections = []
        if variant in (DEEP, DEEP_GLOBAL):
            projections = [Parameter(dc.xavier_uniform(rng, (j + 1) * d, d), f"{name}.L{j}.w_c0")
                           for j in range(layers)]
        return cls(attention, variant, projections)

    def parameters(self) -> list[Parameter]:
        params = []
        for layer in self.layers:
            params.extend(layer.parameters())
        params.extend(self.context_projections)
        return params


def stack_forward(x: Node, stack: ContextStack, gate_override: float | None = None) -> Node:
    """Run the full layer stack and return the last layer's output."""
    history = [x]
    out = x
    for j, layer in enumerate(stack.layers):
        current = history[-1]
        if stack.variant == GLOBAL:
            c = global_context(current)
        elif stack.variant == DEEP:
            c = deep_context(history, stack.context_projections[j])
        else:
            c = deep_global_context(history, stack.context_projections[j])
        out = context_attention_forward(current, c, layer, gate_override)
        history.append(out)
    return out
