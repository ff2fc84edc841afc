"""Dense matrix algebra with reverse-mode differentiation.

Every value is a float array wrapped in a :class:`Node`: a 2-D
``(rows, cols)`` matrix, or a ``(B, rows, cols)`` stack of B matrices.
Each op works on the last two axes, so it runs a whole minibatch in one
call; a per-sample call is simply the same op without the batch axis
(B=1). A 2-D operand, such as a :class:`Parameter`, is shared by every
matrix in a stack, and its gradient is summed over the batch.
:func:`add` and :func:`elementwise_mul` follow numpy's broadcasting
rule on the last two axes: an axis of size 1 stretches to the other
operand's size (a 1 x d row, an n x 1 column or a 1 x 1 scalar), and
:func:`backward` sums the gradient of a stretched operand over every axis
it was stretched along.
Operations build a graph on the fly; calling :func:`backward` on a 1x1
node fills in ``grad`` on every node that (transitively) depends on a
trainable :class:`Parameter`. Gradients are checked against central
finite differences by :func:`grad_check`; those checks assume 64-bit
arrays. :func:`dropout_masks` builds the inverted-dropout multipliers of
all of one forward's dropout sites from one draw, laid out sample by
sample.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DimensionError, ParameterError

DEFAULT_DTYPE = np.float64


def _as_array(value) -> np.ndarray:
    a = np.asarray(value)
    if a.dtype.kind != "f":
        a = a.astype(DEFAULT_DTYPE)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim not in (2, 3):
        raise DimensionError(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    return a


class Node:
    """A matrix value plus the bookkeeping needed for backpropagation."""

    __slots__ = ("value", "grad", "_parents", "_vjp", "requires_grad")

    def __init__(self, value, parents=(), vjp=None, requires_grad=False):
        self.value = _as_array(value)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        # backward never visits a node outside the gradient graph, so such a
        # node keeps no links that would hold its inputs' values alive
        self._parents = parents if self.requires_grad else ()
        self._vjp = vjp if self.requires_grad else None

    @property
    def shape(self):
        return self.value.shape

    @property
    def rows(self):
        return self.value.shape[-2]

    @property
    def cols(self):
        return self.value.shape[-1]

    def __repr__(self):
        return f"Node(shape={self.value.shape}, requires_grad={self.requires_grad})"


class Parameter(Node):
    """A named trainable matrix with a persistent gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(value, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.value)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def constant(value) -> Node:
    """Wrap an array as a graph leaf that never receives gradients."""
    return Node(value)


def _wrap(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _require_same_batch(a: Node, b: Node, op: str):
    """Two stacks must have the same batch size; a 2-D operand fits any."""
    sa, sb = a.value.shape, b.value.shape
    if len(sa) == len(sb) == 3 and sa[0] != sb[0]:
        raise DimensionError(f"{op}: batch sizes of {sa} and {sb} differ")


def _require_broadcastable(a: Node, b: Node, op: str):
    """Each of the last two axes must agree or be 1 in one operand."""
    sa, sb = a.value.shape, b.value.shape
    if sa == sb:
        return
    if any(m != n and 1 not in (m, n) for m, n in zip(sa[-2:], sb[-2:])):
        raise DimensionError(f"{op}: shapes {sa} and {sb} do not broadcast")
    _require_same_batch(a, b, op)


def _unbroadcast(g: np.ndarray, node: Node) -> np.ndarray:
    """Sum a gradient over every axis along which ``node`` was stretched:
    the batch axis it lacks, then its size-1 columns, then its size-1 rows."""
    shape = node.value.shape
    if g.shape == shape:
        return g
    if g.ndim > len(shape):
        g = g.sum(axis=0)
    if shape[-1] == 1 < g.shape[-1]:
        g = g.sum(axis=-1, keepdims=True)
    if shape[-2] == 1 < g.shape[-2]:
        g = g.sum(axis=-2, keepdims=True)
    return g


def _t(v: np.ndarray) -> np.ndarray:
    return v.swapaxes(-1, -2)


def backward(root: Node):
    """Accumulate d(root)/d(node) into ``grad`` for every contributing node.

    ``root`` must be 1x1. Traversal is a depth-first topological order over
    the sub-graph that requires gradients; nodes outside it are skipped.
    A vjp returns each parent's gradient in the shape of its own output;
    backward sums it over the axes along which that parent was stretched
    (:func:`_unbroadcast`). A Parameter's gradient is added into its buffer
    in place, so calls accumulate until :func:`zero_grads`.
    """
    if root.value.shape != (1, 1):
        raise DimensionError(f"backward root must be 1x1, got {root.value.shape}")
    topo: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    for node in topo:
        if not isinstance(node, Parameter):
            node.grad = None
    root.grad = np.ones((1, 1), dtype=root.value.dtype)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        for parent, contrib in zip(node._parents, node._vjp(node.grad)):
            if not parent.requires_grad or contrib is None:
                continue
            contrib = _unbroadcast(contrib, parent)
            if isinstance(parent, Parameter):
                parent.grad += contrib
            elif parent.grad is None:
                parent.grad = contrib
            else:
                # out of place: this grad may be a child's array
                parent.grad = parent.grad + contrib


def zero_grads(params):
    for p in params:
        p.grad[...] = 0.0


@contextmanager
def inference(params):
    """Treat ``params`` as constants inside the block: ops then record no
    graph, and each intermediate value is freed once nothing uses it."""
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in params:
            p.requires_grad = True


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def matmul(a, b) -> Node:
    """Matrix product a @ b."""
    a, b = _wrap(a), _wrap(b)
    if a.cols != b.rows:
        raise DimensionError(f"matmul: inner dims of {a.value.shape} and {b.value.shape} differ")
    _require_same_batch(a, b, "matmul")
    av, bv = a.value, b.value

    def vjp(g):
        return (g @ _t(bv) if a.requires_grad else None,
                _t(av) @ g if b.requires_grad else None)

    return Node(av @ bv, (a, b), vjp)


def add(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    _require_broadcastable(a, b, "add")

    def vjp(g):
        return (g if a.requires_grad else None,
                g if b.requires_grad else None)

    return Node(a.value + b.value, (a, b), vjp)


def elementwise_mul(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    _require_broadcastable(a, b, "elementwise_mul")
    av, bv = a.value, b.value

    def vjp(g):
        return (g * bv if a.requires_grad else None,
                g * av if b.requires_grad else None)

    return Node(av * bv, (a, b), vjp)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: exp is only taken of -|v|."""
    e = np.exp(-np.abs(v))
    denom = 1.0 + e
    return np.where(v >= 0, 1.0 / denom, e / denom)


def _softmax(v: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    e = np.exp(v - v.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a row-wise softmax's input, given its output ``out``."""
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def concat_cols(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    if a.value.shape[:-1] != b.value.shape[:-1]:
        raise DimensionError(f"concat_cols: shapes {a.value.shape} and {b.value.shape} "
                             "differ before the last axis")
    na = a.cols

    def vjp(g):
        return g[..., :na], g[..., na:]

    return Node(np.concatenate([a.value, b.value], axis=-1), (a, b), vjp)


def mean_rows(a) -> Node:
    """Average over rows: n x d -> 1 x d."""
    a = _wrap(a)
    n = a.rows

    def vjp(g):
        return (np.repeat(g / n, n, axis=-2),)

    return Node(a.value.mean(axis=-2, keepdims=True), (a,), vjp)


def sum_all(a) -> Node:
    """Sum of every entry, over the whole batch too: the 1x1 loss root."""
    a = _wrap(a)

    def vjp(g):
        return (np.full_like(a.value, g[0, 0]),)

    return Node(a.value.sum().reshape(1, 1), (a,), vjp)


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Node:
    """Per-row normalization to zero mean / unit variance, then affine gain/bias."""
    a, gain, bias = _wrap(a), _wrap(gain), _wrap(bias)
    if gain.value.shape != (1, a.cols) or bias.value.shape != (1, a.cols):
        raise DimensionError(
            f"layer_norm: gain/bias must be 1x{a.cols}, got {gain.value.shape} and {bias.value.shape}"
        )
    v = a.value
    mu = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (v - mu) * inv
    gv = gain.value

    def vjp(g):
        gx = g * gv
        dxhat_term = gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        da = dxhat_term * inv
        dgain = (g * xhat).sum(axis=-2, keepdims=True)
        dbias = g.sum(axis=-2, keepdims=True)
        return da, dgain, dbias

    return Node(xhat * gv + bias.value, (a, gain, bias), vjp)


def dropout_masks(rng: np.random.Generator | None, training: bool, sites) -> list:
    """The inverted-dropout multiplier (0 or 1/(1-rate) per entry) of each
    dropout site of one forward, or None for each in eval mode.

    ``sites`` lists ``(shape, rate)`` in the order the forward reaches the
    sites; every shape carries the same batch axis ``lead``, or none. All
    draws come from one ``rng.random(lead + (total,))`` call, laid out
    sample by sample: sample b takes all of its sites' draws before sample
    b + 1 takes any, the order in which one-sample forwards run one after
    another consume ``rng``.
    """
    shapes = [tuple(shape) for shape, _ in sites]
    for _, rate in sites:
        if not 0.0 <= rate < 1.0:
            raise ParameterError(f"dropout rate must be in [0, 1), got {rate}")
    if not training:
        return [None] * len(shapes)
    if rng is None:
        raise ParameterError("dropout in training mode needs an rng")
    lead = shapes[0][:-2]
    if any(s[:-2] != lead for s in shapes):
        raise DimensionError(f"dropout sites disagree in batch axis: {shapes}")
    sizes = [s[-2] * s[-1] for s in shapes]
    flat = rng.random(lead + (sum(sizes),))
    offsets = np.cumsum([0] + sizes)
    return [(flat[..., o:o + n].reshape(s) >= rate) / (1.0 - rate)
            for o, n, s, (_, rate) in zip(offsets, sizes, shapes, sites)]


def xavier_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Finite-difference agreement for one parameter, or the worst over a
    named check's parameters: passed when the error is below ``tol``."""

    name: str
    max_rel_error: float
    tol: float
    passed: bool


def grad_check(loss_fn, params, eps: float = 1e-6, tol: float = 1e-4) -> list[GradCheckReport]:
    """Compare reverse-mode gradients of ``loss_fn`` against central differences
    of step ``eps``. The fusion heads' ReLUs have kinks: a 1e-5 step can
    straddle one for some seeds and report a wrong difference, not a wrong
    gradient; 1e-6 keeps the gradient suite far below its tolerances.

    ``loss_fn`` takes no arguments, rebuilds the graph from ``params`` and
    returns a 1x1 Node. It must be deterministic; two baseline evaluations
    that disagree raise :class:`ContractViolationError`. Relative error per
    entry is ``|g_ad - g_fd| / max(1, |g_ad|, |g_fd|)``.
    """
    if not eps > 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    base = loss_fn()
    if base.value.shape != (1, 1):
        raise ContractViolationError(f"loss_fn must return a 1x1 node, got {base.value.shape}")
    if loss_fn().value[0, 0] != base.value[0, 0]:
        raise ContractViolationError("loss_fn is not deterministic under repeated evaluation")
    zero_grads(params)
    backward(base)
    analytic = {id(p): p.grad.copy() for p in params}

    reports = []
    for p in params:
        g_ad = analytic[id(p)]
        g_fd = np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        fd_flat = g_fd.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn().value[0, 0]
            flat[i] = orig - eps
            lo = loss_fn().value[0, 0]
            flat[i] = orig
            fd_flat[i] = (hi - lo) / (2.0 * eps)
        denom = np.maximum(1.0, np.maximum(np.abs(g_ad), np.abs(g_fd)))
        errors = np.abs(g_ad - g_fd) / denom
        max_err = float(errors.max()) if errors.size else 0.0
        reports.append(GradCheckReport(p.name, max_err, tol, max_err < tol))
    return reports
