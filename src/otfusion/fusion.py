"""Fusion heads over the concatenated self-attended and transported features.

Both heads consume a pair of n x d' matrices (d' twice the branch width),
or a pair of B x n x d' stacks for a minibatch: the text side [attended,
transported-from-image] and the image side [attended,
transported-from-text]. The co-attention head couples them with
a tanh affinity matrix; the attentional-reduction head pools each side
with an independent softmax-weighted MLP before a layer-normalized sum.
Final dense layers emit raw 2-class logits; softmax lives in the loss and
metric paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Node, Parameter, _t, _unbroadcast
from .errors import DimensionError

# Width of the heads' hidden layers and their dropout rates.
HIDDEN = 128
CO_DROPOUT_CONCAT = 0.5
CO_DROPOUT_HIDDEN = 0.2
ATTN_MLP_DROPOUT = 0.1


@dataclass
class FusedInputs:
    """Row-major fused branch matrices, both n x d'."""

    c: Node
    s: Node

    def __post_init__(self):
        if self.c.shape != self.s.shape:
            raise DimensionError(f"fused inputs differ: {self.c.shape} vs {self.s.shape}")


def build_fused_inputs(f: Node, x_t: Node, h: Node, s_t: Node) -> FusedInputs:
    """Feature-axis concatenation: text side [f, x_t], image side [h, s_t]."""
    for name, m in (("f", f), ("x_t", x_t), ("h", h), ("s_t", s_t)):
        if m.shape != f.shape:
            raise DimensionError(f"{name} has shape {m.shape}, expected {f.shape}")
    return FusedInputs(dc.concat_cols(f, x_t), dc.concat_cols(h, s_t))


class CoAttentionHead:
    """Affinity-matrix co-attention over the two fused branches.

    The branch matrices enter in the column-major d' x n orientation used
    by the defining equations; the row-major inputs are transposed at
    entry. Attention weights over positions are produced for each side,
    the attended feature vectors are concatenated and classified by a
    dropout / dense(relu) / dropout / dense(2) tail.
    """

    def __init__(self, d_prime: int, k: int, rng: np.random.Generator, name: str = "co"):
        self.d_prime, self.k = d_prime, k
        self.w_l = Parameter(dc.xavier_uniform(rng, d_prime, d_prime), f"{name}.w_l")
        self.w_s = Parameter(dc.xavier_uniform(rng, k, d_prime), f"{name}.w_s")
        self.w_c = Parameter(dc.xavier_uniform(rng, k, d_prime), f"{name}.w_c")
        self.w_hs = Parameter(dc.xavier_uniform(rng, k, 1), f"{name}.w_hs")
        self.w_hc = Parameter(dc.xavier_uniform(rng, k, 1), f"{name}.w_hc")
        self.w1 = Parameter(dc.xavier_uniform(rng, 2 * d_prime, HIDDEN), f"{name}.w1")
        self.b1 = Parameter(np.zeros((1, HIDDEN)), f"{name}.b1")
        self.w_out = Parameter(dc.xavier_uniform(rng, HIDDEN, 2), f"{name}.w_out")
        self.b_out = Parameter(np.zeros((1, 2)), f"{name}.b_out")

    def parameters(self) -> list[Parameter]:
        return [self.w_l, self.w_s, self.w_c, self.w_hs, self.w_hc,
                self.w1, self.b1, self.w_out, self.b_out]


def co_attention_forward(inputs: FusedInputs, head: CoAttentionHead, training: bool,
                         rng: np.random.Generator | None = None,
                         return_weights: bool = False):
    """Logits (1 x 2, or B x 1 x 2 for a batch) from the co-attention head."""
    c_row, s_row = inputs.c, inputs.s
    c_col = dc.transpose(c_row)
    s_col = dc.transpose(s_row)
    affinity = dc.tanh_ew(dc.matmul(dc.matmul(c_row, head.w_l), s_col))
    ws_s = dc.matmul(head.w_s, s_col)
    wc_c = dc.matmul(head.w_c, c_col)
    h_s = dc.tanh_ew(dc.add(ws_s, dc.matmul(wc_c, affinity)))
    h_c = dc.tanh_ew(dc.add(wc_c, dc.matmul(ws_s, dc.transpose(affinity))))
    a_s = dc.softmax_rows(dc.matmul(dc.transpose(head.w_hs), h_s))
    a_c = dc.softmax_rows(dc.matmul(dc.transpose(head.w_hc), h_c))
    s_hat = dc.matmul(a_s, s_row)
    c_hat = dc.matmul(a_c, c_row)
    p = dc.concat_cols(c_hat, s_hat)
    if training and rng is not None:
        rng = dc.SampleMajorDraws(rng, [p.shape, p.shape[:-1] + (HIDDEN,)])
    p = dc.dropout(p, CO_DROPOUT_CONCAT, training, rng)
    hidden = dc.relu(dc.add(dc.matmul(p, head.w1), head.b1))
    hidden = dc.dropout(hidden, CO_DROPOUT_HIDDEN, training, rng)
    logits = dc.add(dc.matmul(hidden, head.w_out), head.b_out)
    if return_weights:
        return logits, a_c, a_s
    return logits


class AttnFusionHead:
    """Attentional-reduction fusion: each branch is pooled by softmax
    weights from its own FC(hidden)-ReLU-Dropout-FC(1) scorer (the two
    scorers share no parameters), then the pooled vectors are projected to
    a common width, summed, layer-normalized, and classified.
    """

    def __init__(self, d_prime: int, d_z: int, rng: np.random.Generator, name: str = "attnfuse"):
        self.d_prime, self.d_z = d_prime, d_z
        self.c_w1 = Parameter(dc.xavier_uniform(rng, d_prime, HIDDEN), f"{name}.c_w1")
        self.c_b1 = Parameter(np.zeros((1, HIDDEN)), f"{name}.c_b1")
        self.c_w2 = Parameter(dc.xavier_uniform(rng, HIDDEN, 1), f"{name}.c_w2")
        self.c_b2 = Parameter(np.zeros((1, 1)), f"{name}.c_b2")
        self.s_w1 = Parameter(dc.xavier_uniform(rng, d_prime, HIDDEN), f"{name}.s_w1")
        self.s_b1 = Parameter(np.zeros((1, HIDDEN)), f"{name}.s_b1")
        self.s_w2 = Parameter(dc.xavier_uniform(rng, HIDDEN, 1), f"{name}.s_w2")
        self.s_b2 = Parameter(np.zeros((1, 1)), f"{name}.s_b2")
        self.w_c = Parameter(dc.xavier_uniform(rng, d_prime, d_z), f"{name}.w_c")
        self.w_s = Parameter(dc.xavier_uniform(rng, d_prime, d_z), f"{name}.w_s")
        self.ln_gain = Parameter(np.ones((1, d_z)), f"{name}.ln_gain")
        self.ln_bias = Parameter(np.zeros((1, d_z)), f"{name}.ln_bias")
        self.w_out = Parameter(dc.xavier_uniform(rng, d_z, 2), f"{name}.w_out")
        self.b_out = Parameter(np.zeros((1, 2)), f"{name}.b_out")

    def parameters(self) -> list[Parameter]:
        return [self.c_w1, self.c_b1, self.c_w2, self.c_b2,
                self.s_w1, self.s_b1, self.s_w2, self.s_b2,
                self.w_c, self.w_s, self.ln_gain, self.ln_bias,
                self.w_out, self.b_out]


def _attentive_pool(m: Node, w1: Parameter, b1: Parameter, w2: Parameter, b2: Parameter,
                    training: bool, rng) -> tuple[Node, np.ndarray]:
    """Pool the rows of m (n x d', or a stack) by softmax weights over
    positions from the scorer FC(hidden)-ReLU-Dropout-FC(1).

    Returns the pooled 1 x d' rows as one graph node with parents
    ``(m, w1, b1, w2, b2)``, and the 1 x n weights. The dropout mask is
    drawn from ``rng`` inside the node.
    """
    mv = m.value
    pre = mv @ w1.value + b1.value
    relu_mask = pre > 0
    h = pre * relu_mask
    keep = dc._dropout_keep(h.shape, ATTN_MLP_DROPOUT, training, rng)
    if keep is not None:
        h = h * keep
    alpha = dc._softmax(_t(h @ w2.value + b2.value).copy())

    def vjp(g):
        g_scores = _t(dc._softmax_vjp(alpha, g @ _t(mv)))
        g_h = g_scores @ w2.value.T
        if keep is not None:
            g_h *= keep
        g_pre = g_h * relu_mask
        g_m = _t(alpha) @ g + g_pre @ w1.value.T if m.requires_grad else None
        return (g_m, _unbroadcast(_t(mv) @ g_pre, w1), _unbroadcast(g_pre, b1),
                _unbroadcast(_t(h) @ g_scores, w2), _unbroadcast(g_scores, b2))

    return Node(alpha @ mv, (m, w1, b1, w2, b2), vjp), alpha


def attn_fusion_forward(inputs: FusedInputs, head: AttnFusionHead, training: bool,
                        rng: np.random.Generator | None = None,
                        return_weights: bool = False):
    """Logits (1 x 2, or B x 1 x 2 for a batch) from the attentional-reduction head.
    With ``return_weights`` the two sides' pooling weights follow, as constants."""
    if training and rng is not None:
        rng = dc.SampleMajorDraws(rng, [inputs.c.shape[:-1] + (HIDDEN,),
                                        inputs.s.shape[:-1] + (HIDDEN,)])
    c_tilde, alpha_c = _attentive_pool(inputs.c, head.c_w1, head.c_b1, head.c_w2, head.c_b2,
                                       training, rng)
    s_tilde, alpha_s = _attentive_pool(inputs.s, head.s_w1, head.s_b1, head.s_w2, head.s_b2,
                                       training, rng)
    z = dc.layer_norm(dc.add(dc.matmul(c_tilde, head.w_c), dc.matmul(s_tilde, head.w_s)),
                      head.ln_gain, head.ln_bias)
    logits = dc.add(dc.matmul(z, head.w_out), head.b_out)
    if return_weights:
        return logits, dc.constant(alpha_c), dc.constant(alpha_s)
    return logits
