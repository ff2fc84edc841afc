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
from .diffcore import Node, Parameter
from .errors import DimensionError


class GatedSelfAttentionLayer:
    """Gate projections for one gated self-attention layer.

    The three fully-connected gate maps carry no bias, matching the plain
    matrix products in the defining equations.
    """

    def __init__(self, d: int, d_g: int, rng: np.random.Generator, name: str = "gated"):
        self.d, self.d_g = d, d_g
        self.fc_q = Parameter(dc.xavier_uniform(rng, d, d_g), f"{name}.fc_q")
        self.fc_k = Parameter(dc.xavier_uniform(rng, d, d_g), f"{name}.fc_k")
        self.fc_out = Parameter(dc.xavier_uniform(rng, d_g, 2), f"{name}.fc_out")

    def parameters(self) -> list[Parameter]:
        return [self.fc_q, self.fc_k, self.fc_out]


def gating_masks(q: Node, k: Node, layer: GatedSelfAttentionLayer) -> Node:
    """T x 2 sigmoid masks; column 0 gates the queries, column 1 the keys."""
    if q.shape != k.shape:
        raise DimensionError(f"gating_masks: shapes {q.shape} and {k.shape} differ")
    hq = dc.matmul(q, layer.fc_q)
    hk = dc.matmul(k, layer.fc_k)
    return dc.sigmoid(dc.matmul(dc.elementwise_mul(hq, hk), layer.fc_out))


def gated_attention(s: Node, layer: GatedSelfAttentionLayer,
                    mask_override: np.ndarray | None = None,
                    return_attention: bool = False):
    """Gated self-attention of s against itself (Q = K = V = s).

    ``mask_override`` replaces the learned T x 2 mask with a constant, which
    is both the test seam and the "no gate model" ablation (all-ones mask
    reproduces vanilla scaled self-attention exactly).
    """
    t, d = s.rows, s.cols
    if mask_override is not None:
        mask_override = np.asarray(mask_override, dtype=float)
        if mask_override.shape != (t, 2):
            raise DimensionError(f"mask_override must be {t}x2, got {mask_override.shape}")
        m = dc.constant(mask_override)
    else:
        m = gating_masks(s, s, layer)
    m_q = dc.slice_cols(m, 0, 1)
    m_k = dc.slice_cols(m, 1, 2)
    scores = dc.scale(
        dc.matmul(dc.elementwise_mul(s, m_q), dc.transpose(dc.elementwise_mul(s, m_k))),
        1.0 / math.sqrt(d),
    )
    attn = dc.softmax_rows(scores)
    out = dc.matmul(attn, s)
    if return_attention:
        return out, attn
    return out
