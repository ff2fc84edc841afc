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
from .diffcore import Node, Parameter
from .errors import DimensionError, ParameterError

GLOBAL = "global"
DEEP = "deep"
DEEP_GLOBAL = "deep_global"

_DEFAULT_LAYERS = {GLOBAL: 1, DEEP: 3, DEEP_GLOBAL: 2}


@dataclass(frozen=True)
class ContextStrategy:
    """Which context construction to use and how many layers to stack."""

    variant: str
    layers: int

    def __post_init__(self):
        if self.variant not in _DEFAULT_LAYERS:
            raise ParameterError(f"unknown context strategy {self.variant!r}")
        if self.layers < 1:
            raise ParameterError(f"layer count must be >= 1, got {self.layers}")

    @classmethod
    def default(cls, variant: str) -> "ContextStrategy":
        # an unknown name gets a placeholder count and fails in __post_init__
        return cls(variant, _DEFAULT_LAYERS.get(variant, 1))


class ContextAttentionLayer:
    """One context-gated attention layer.

    Holds the input projections (d x d_q / d x d_k), the context
    projections (d_c x d_q / d_c x d_k) and the four gate vectors.
    d_q must equal d_k for the score product to be defined.
    """

    def __init__(self, d: int, d_c: int, d_q: int, d_k: int, rng: np.random.Generator, name: str = "ctx"):
        if d_q != d_k:
            raise ParameterError(f"d_q ({d_q}) must equal d_k ({d_k})")
        self.d, self.d_c, self.d_q, self.d_k = d, d_c, d_q, d_k
        self.w_q = Parameter(dc.xavier_uniform(rng, d, d_q), f"{name}.w_q")
        self.w_k = Parameter(dc.xavier_uniform(rng, d, d_k), f"{name}.w_k")
        self.w_qc = Parameter(dc.xavier_uniform(rng, d_c, d_q), f"{name}.w_qc")
        self.w_kc = Parameter(dc.xavier_uniform(rng, d_c, d_k), f"{name}.w_kc")
        self.w_gq = Parameter(dc.xavier_uniform(rng, d_q, 1), f"{name}.w_gq")
        self.w_gqc = Parameter(dc.xavier_uniform(rng, d_q, 1), f"{name}.w_gqc")
        self.w_gk = Parameter(dc.xavier_uniform(rng, d_k, 1), f"{name}.w_gk")
        self.w_gkc = Parameter(dc.xavier_uniform(rng, d_k, 1), f"{name}.w_gkc")

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
    if not history:
        raise ParameterError("deep_global_context needs a nonempty history")
    pooled = dc.mean_rows(history[0])
    for h in history[1:]:
        pooled = dc.concat_cols(pooled, dc.mean_rows(h))
    return dc.matmul(pooled, w_c0)


def gated_sum(a: Node, a_c: Node, w_g_a: Node, w_g_ac: Node,
              gate_override: float | None = None) -> tuple[Node, Node]:
    """Sigmoid-gated mix of a matrix with its context counterpart.

    Returns the n x 1 gate and the mixed matrix (1 - g) * a + g * a_c.
    ``a_c`` has a's rows, or one row shared by all of them.
    ``gate_override`` is a test/ablation seam that pins the gate to a
    constant instead of computing it.
    """
    if a_c.shape not in (a.shape, a.shape[:-2] + (1, a.cols)):
        raise DimensionError(f"gated_sum: shapes {a.shape} and {a_c.shape} differ")
    if gate_override is None:
        gate = dc.sigmoid(dc.add(dc.matmul(a, w_g_a), dc.matmul(a_c, w_g_ac)))
    else:
        gate = dc.constant(np.full((a.rows, 1), float(gate_override)))
    mixed = dc.add(dc.sub(a, dc.elementwise_mul(gate, a)), dc.elementwise_mul(gate, a_c))
    return gate, mixed


def context_attention_forward(x: Node, c: Node, layer: ContextAttentionLayer,
                              gate_override: float | None = None,
                              return_attention: bool = False):
    """Context-gated scaled dot-product attention with V = x.

    ``c`` has x's rows, or one row shared by all of them. Output is n x d.
    With ``return_attention`` the row-stochastic attention map is returned
    as well.
    """
    if c.rows not in (1, x.rows):
        raise DimensionError(f"context rows {c.rows} != input rows {x.rows} or 1")
    if c.cols != layer.d_c:
        raise DimensionError(f"context width {c.cols} != layer d_c {layer.d_c}")
    q = dc.matmul(x, layer.w_q)
    k = dc.matmul(x, layer.w_k)
    q_c = dc.matmul(c, layer.w_qc)
    k_c = dc.matmul(c, layer.w_kc)
    _, q_bar = gated_sum(q, q_c, layer.w_gq, layer.w_gqc, gate_override)
    _, k_bar = gated_sum(k, k_c, layer.w_gk, layer.w_gkc, gate_override)
    scores = dc.scale(dc.matmul(q_bar, dc.transpose(k_bar)), 1.0 / math.sqrt(layer.d_k))
    attn = dc.softmax_rows(scores)
    out = dc.matmul(attn, x)
    if return_attention:
        return out, attn
    return out


@dataclass
class ContextStack:
    """A stack of context-attention layers sharing one context strategy.

    For the deep variants, layer j builds its context from the inputs of
    layers 0..j (so the first layer sees a one-element history); its
    projection matrix therefore has (j + 1) * d rows.
    """

    layers: list[ContextAttentionLayer]
    strategy: ContextStrategy
    context_projections: list[Parameter] = field(default_factory=list)

    @classmethod
    def build(cls, d: int, d_q: int, d_k: int, strategy: ContextStrategy,
              rng: np.random.Generator, name: str = "stack") -> "ContextStack":
        layers = [ContextAttentionLayer(d, d, d_q, d_k, rng, f"{name}.L{j}")
                  for j in range(strategy.layers)]
        projections = []
        if strategy.variant in (DEEP, DEEP_GLOBAL):
            projections = [Parameter(dc.xavier_uniform(rng, (j + 1) * d, d), f"{name}.L{j}.w_c0")
                           for j in range(strategy.layers)]
        return cls(layers, strategy, projections)

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
        if stack.strategy.variant == GLOBAL:
            c = global_context(current)
        elif stack.strategy.variant == DEEP:
            c = deep_context(history, stack.context_projections[j])
        else:
            c = deep_global_context(history, stack.context_projections[j])
        out = context_attention_forward(current, c, layer, gate_override)
        history.append(out)
    return out
