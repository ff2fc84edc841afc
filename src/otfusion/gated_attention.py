"""Self-attention with a learned gating model on queries and keys.

The gate network maps the (identical) query/key inputs to a T x 2 sigmoid
mask; its two columns are broadcast across the feature axis and multiply Q
and K before the scaled dot product. The score scale is sqrt of the feature
width, and V is the raw input.
"""

from __future__ import annotations

import math

import numpy as np

from . import diffcore as dc
from .diffcore import Node, Parameter, _t
from .errors import DimensionError


class GatedSelfAttentionLayer:
    """Gate projections for one gated self-attention layer.

    The three fully-connected gate maps carry no bias, matching the plain
    matrix products in the defining equations.
    """

    def __init__(self, d: int, d_g: int, rng: np.random.Generator, name: str = "gated"):
        self.d = d
        self.fc_q = Parameter(dc.xavier_uniform(rng, d, d_g), f"{name}.fc_q")
        self.fc_k = Parameter(dc.xavier_uniform(rng, d, d_g), f"{name}.fc_k")
        self.fc_out = Parameter(dc.xavier_uniform(rng, d_g, 2), f"{name}.fc_out")

    def parameters(self) -> list[Parameter]:
        return [self.fc_q, self.fc_k, self.fc_out]


def gated_attention(s: Node, layer: GatedSelfAttentionLayer,
                    mask_override: np.ndarray | None = None,
                    return_attention: bool = False):
    """Gated self-attention of s against itself (Q = K = V = s).

    The gate model maps s to T x 2 sigmoid masks,
    ``sigmoid(((s fc_q) * (s fc_k)) fc_out)``; column 0 gates the queries,
    column 1 the keys. ``mask_override`` replaces the learned mask with a
    constant, which is both the test seam and the "no gate model" ablation
    (an all-ones mask reproduces vanilla scaled self-attention exactly).
    With ``return_attention`` the attention map is returned as well, as a
    constant.

    The layer is one graph node with parents ``s``, ``fc_q``, ``fc_k`` and
    ``fc_out``: its forward runs in numpy and its vjp is written out.
    """
    t, d = s.rows, s.cols
    if d != layer.d:
        raise DimensionError(f"input width {d} != layer d {layer.d}")
    sv = s.value
    learned = mask_override is None
    if learned:
        h_q, h_k = sv @ layer.fc_q.value, sv @ layer.fc_k.value
        m = dc._sigmoid((h_q * h_k) @ layer.fc_out.value)
    else:
        m = np.asarray(mask_override, dtype=float)
        if m.shape != (t, 2):
            raise DimensionError(f"mask_override must be {t}x2, got {m.shape}")
    m_q, m_k = m[..., 0:1], m[..., 1:2]
    s_q, s_k = sv * m_q, sv * m_k
    scale = 1.0 / math.sqrt(d)
    attn = dc._softmax((s_q @ _t(s_k).copy()) * scale)

    def vjp(g):
        g_scores = dc._softmax_vjp(attn, g @ _t(sv)) * scale
        g_sq = g_scores @ s_k
        g_sk = _t(g_scores) @ s_q
        g_s = _t(attn) @ g + g_sq * m_q + g_sk * m_k if s.requires_grad else None
        if not learned:
            return g_s, None, None, None
        g_m = np.concatenate([(g_sq * sv).sum(axis=-1, keepdims=True),
                              (g_sk * sv).sum(axis=-1, keepdims=True)], axis=-1)
        g_pre = g_m * m * (1.0 - m)
        g_h = g_pre @ layer.fc_out.value.T
        g_hq, g_hk = g_h * h_k, g_h * h_q
        if s.requires_grad:
            g_s += g_hq @ layer.fc_q.value.T + g_hk @ layer.fc_k.value.T
        return g_s, _t(sv) @ g_hq, _t(sv) @ g_hk, _t(h_q * h_k) @ g_pre

    out = Node(attn @ sv, (s, *layer.parameters()), vjp)
    if return_attention:
        return out, dc.constant(attn)
    return out
