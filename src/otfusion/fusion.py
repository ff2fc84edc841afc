"""Fusion heads over the concatenated self-attended and transported features.

Both heads consume a pair of n x d' matrices (d' twice the branch width),
or a pair of B x n x d' stacks for a minibatch: the text side ``c``
[attended, transported-from-image] and the image side ``s`` [attended,
transported-from-text], of one shape. The co-attention head, the parallel
co-attention of Lu et al. (arXiv 1606.00061), couples them with a tanh
affinity matrix; the attentional-reduction head pools each side with an
independent softmax-weighted MLP before a layer-normalized sum. Final
dense layers emit raw 2-class logits; softmax lives in the loss and
metric paths. The co-attention head, and each side's pooling, is one
graph node with a hand-written vjp. Each head gets all of its dropout
masks for the batch from one ``diffcore.dropout_masks`` call.
"""

from __future__ import annotations

import numpy as np

from . import diffcore as dc
from .diffcore import Node, Parameter, _t
from .errors import DimensionError

# Width of the heads' hidden layers and their dropout rates.
HIDDEN = 128
CO_DROPOUT_CONCAT = 0.5
CO_DROPOUT_HIDDEN = 0.2
ATTN_MLP_DROPOUT = 0.1


def _check_fused(c: Node, s: Node, d_prime: int):
    """The two fused stacks share one shape, and its width is the head's d'."""
    if c.shape != s.shape:
        raise DimensionError(f"fused inputs differ: {c.shape} vs {s.shape}")
    if c.cols != d_prime:
        raise DimensionError(f"fused width {c.cols} != head d' {d_prime}")


class CoAttentionHead:
    """Parallel co-attention over the two fused branches.

    With c and s as d' x n columns, ``C = tanh(cᵀ W_l s)``,
    ``H_s = tanh(W_s s + (W_c c) C)`` and ``H_c = tanh(W_c c + (W_s s) Cᵀ)``;
    ``softmax(w_hsᵀ H_s)`` and ``softmax(w_hcᵀ H_c)`` weigh each side's
    positions, and the two pooled rows, concatenated, pass a dropout /
    dense(relu) / dropout / dense(2) tail.
    """

    def __init__(self, d_prime: int, k: int, rng: np.random.Generator, name: str = "co"):
        self.d_prime = d_prime
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


def co_attention_forward(c: Node, s: Node, head: CoAttentionHead, training: bool,
                         rng: np.random.Generator | None = None) -> Node:
    """Logits (1 x 2, or B x 1 x 2 for a batch) from the co-attention head.
    The head is one graph node with parents ``c``, ``s`` and its nine
    parameters; both dropout masks come from one ``dc.dropout_masks`` call
    on ``rng``."""
    _check_fused(c, s, head.d_prime)
    cv, sv = c.value, s.value
    params = head.parameters()
    w_l, w_s, w_c, w_hs, w_hc, w1, b1, w_out, b_out = (p.value for p in params)
    # the transposed copies keep the layouts, and so the bits, of the
    # composed graph this node replaced
    c_col, s_col = _t(cv).copy(), _t(sv).copy()
    affinity = np.tanh(cv @ w_l @ s_col)
    ws_s, wc_c = w_s @ s_col, w_c @ c_col
    h_s = np.tanh(ws_s + wc_c @ affinity)
    h_c = np.tanh(wc_c + ws_s @ _t(affinity).copy())
    a_s = dc._softmax(_t(w_hs) @ h_s)
    a_c = dc._softmax(_t(w_hc) @ h_c)
    p = np.concatenate([a_c @ cv, a_s @ sv], axis=-1)
    keep_p, keep_h = dc.dropout_masks(
        rng, training, [(p.shape, CO_DROPOUT_CONCAT), (p.shape[:-1] + (HIDDEN,), CO_DROPOUT_HIDDEN)])
    if keep_p is not None:
        p *= keep_p
    hidden = p @ w1 + b1
    relu_mask = hidden > 0
    hidden *= relu_mask
    if keep_h is not None:
        hidden *= keep_h

    def vjp(g):
        # every gradient sums its terms in the order in which the composed
        # graph's backward added them, so the last bits match it too
        g_h = g @ w_out.T
        if keep_h is not None:
            g_h *= keep_h
        g_h *= relu_mask
        g_p = g_h @ w1.T
        if keep_p is not None:
            g_p *= keep_p
        g_chat, g_shat = g_p[..., :head.d_prime], g_p[..., head.d_prime:]
        g_scores_c = dc._softmax_vjp(a_c, g_chat @ _t(cv))
        g_hc = (w_hc @ g_scores_c) * (1.0 - h_c * h_c)
        g_scores_s = dc._softmax_vjp(a_s, g_shat @ _t(sv))
        g_hs = (w_hs @ g_scores_s) * (1.0 - h_s * h_s)
        g_ws_s = g_hc @ _t(_t(affinity).copy()) + g_hs
        g_wc_c = g_hc + g_hs @ _t(affinity)
        g_aff = (_t(_t(ws_s) @ g_hc) + _t(wc_c) @ g_hs) * (1.0 - affinity * affinity)
        g_cwl = g_aff @ _t(s_col)
        return (_t(a_c) @ g_chat + _t(_t(w_c) @ g_wc_c) + g_cwl @ w_l.T,
                _t(a_s) @ g_shat + _t(_t(w_s) @ g_ws_s + _t(cv @ w_l) @ g_aff),
                _t(cv) @ g_cwl, g_ws_s @ _t(s_col), g_wc_c @ _t(c_col),
                _t(g_scores_s @ _t(h_s)), _t(g_scores_c @ _t(h_c)),
                _t(p) @ g_h, g_h, _t(hidden) @ g, g)

    return Node(hidden @ w_out + b_out, (c, s, *params), vjp)


class AttnFusionHead:
    """Attentional-reduction fusion: each branch is pooled by softmax
    weights from its own FC(hidden)-ReLU-Dropout-FC(1) scorer (the two
    scorers share no parameters), then the pooled vectors are projected to
    a common width, summed, layer-normalized, and classified.
    """

    def __init__(self, d_prime: int, d_z: int, rng: np.random.Generator, name: str = "attnfuse"):
        self.d_prime = d_prime
        self.c_w1 = Parameter(dc.xavier_uniform(rng, d_prime, HIDDEN), f"{name}.c_w1")
        self.c_b1 = Parameter(np.zeros((1, HIDDEN)), f"{name}.c_b1")
        self.c_w2 = Parameter(dc.xavier_uniform(rng, HIDDEN, 1), f"{name}.c_w2")
        self.s_w1 = Parameter(dc.xavier_uniform(rng, d_prime, HIDDEN), f"{name}.s_w1")
        self.s_b1 = Parameter(np.zeros((1, HIDDEN)), f"{name}.s_b1")
        self.s_w2 = Parameter(dc.xavier_uniform(rng, HIDDEN, 1), f"{name}.s_w2")
        self.w_c = Parameter(dc.xavier_uniform(rng, d_prime, d_z), f"{name}.w_c")
        self.w_s = Parameter(dc.xavier_uniform(rng, d_prime, d_z), f"{name}.w_s")
        self.ln_gain = Parameter(np.ones((1, d_z)), f"{name}.ln_gain")
        self.ln_bias = Parameter(np.zeros((1, d_z)), f"{name}.ln_bias")
        self.w_out = Parameter(dc.xavier_uniform(rng, d_z, 2), f"{name}.w_out")
        self.b_out = Parameter(np.zeros((1, 2)), f"{name}.b_out")

    def parameters(self) -> list[Parameter]:
        return [self.c_w1, self.c_b1, self.c_w2,
                self.s_w1, self.s_b1, self.s_w2,
                self.w_c, self.w_s, self.ln_gain, self.ln_bias,
                self.w_out, self.b_out]


def _attentive_pool(m: Node, w1: Parameter, b1: Parameter, w2: Parameter,
                    keep: np.ndarray | None) -> Node:
    """Pool the rows of m (n x d', or a stack) by softmax weights over
    positions from the scorer FC(hidden)-ReLU-Dropout-FC(1).

    Returns the pooled 1 x d' rows as one graph node with parents
    ``(m, w1, b1, w2)``. ``keep`` is the dropout multiplier of the
    hidden layer, or None in eval mode.
    """
    mv = m.value
    pre = mv @ w1.value + b1.value
    relu_mask = pre > 0
    h = pre * relu_mask
    if keep is not None:
        h = h * keep
    alpha = dc._softmax(_t(h @ w2.value).copy())

    def vjp(g):
        g_scores = _t(dc._softmax_vjp(alpha, g @ _t(mv)))
        g_h = g_scores @ w2.value.T
        if keep is not None:
            g_h *= keep
        g_pre = g_h * relu_mask
        g_m = _t(alpha) @ g + g_pre @ w1.value.T if m.requires_grad else None
        return g_m, _t(mv) @ g_pre, g_pre, _t(h) @ g_scores

    return Node(alpha @ mv, (m, w1, b1, w2), vjp)


def attn_fusion_forward(c: Node, s: Node, head: AttnFusionHead, training: bool,
                        rng: np.random.Generator | None = None) -> Node:
    """Logits (1 x 2, or B x 1 x 2 for a batch) from the attentional-reduction head."""
    _check_fused(c, s, head.d_prime)
    site = (c.shape[:-1] + (HIDDEN,), ATTN_MLP_DROPOUT)  # c and s have one shape
    keep_c, keep_s = dc.dropout_masks(rng, training, [site, site])
    c_tilde = _attentive_pool(c, head.c_w1, head.c_b1, head.c_w2, keep_c)
    s_tilde = _attentive_pool(s, head.s_w1, head.s_b1, head.s_w2, keep_s)
    z = dc.layer_norm(dc.add(dc.matmul(c_tilde, head.w_c), dc.matmul(s_tilde, head.w_s)),
                      head.ln_gain, head.ln_bias)
    return dc.add(dc.matmul(z, head.w_out), head.b_out)
