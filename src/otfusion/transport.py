"""Optimal-transport machinery: exact EMD, entropic Sinkhorn, barycentric
domain-adaptation maps, and the transport-kernel embedding that equalizes
sequence lengths.

``sinkhorn`` runs stabilized scaling: matrix-vector steps on a kernel into
which the log-domain duals are absorbed. Its one log-domain kernel,
``_log_step``, starts it and takes over whenever a scaling leaves its range.

``emd_exact`` solves uniform masses whose sizes have a small lcm as one
square assignment on split copies of the points, and everything else
(non-uniform masses, coprime-like sizes) as a sparse HiGHS LP.

The exact solvers work on plain arrays and are not differentiated through:
a plan is a constant, and gradients flow through the barycentric averaging
of the target features only. ``transport_weights`` is the one weight path,
for a pair or a ``(B, n, d)`` stack (one batched cost, one assignment per
sample). The transport-kernel embedding ``otk_embed`` is one graph node:
its forward runs a fixed number of plain-domain Sinkhorn steps in numpy,
and its backward replays the reverse pass of those steps. It takes its
entropic eps and step count as plain arguments; the model's live in
``ModelConfig``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csc_matrix

from . import diffcore as dc
from .diffcore import Node, _t
from .errors import DimensionError, InputError, NumericalError, ParameterError, require_count

OTK_MARGINAL_TOL = 1e-3  # otk_embed reports converged below this violation
_SCALING_MIN, _SCALING_MAX = 1e-50, 1e50  # sinkhorn absorbs a scaling outside this range


@dataclass
class Coupling:
    """A transport plan with its prescribed marginals and solve diagnostics."""

    plan: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray
    cost: float
    converged: bool = True
    marginal_violation: float = 0.0


def cost_matrix(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean costs between the rows of src and tgt:
    ``(n, d), (m, d) -> (n, m)``, or ``(B, n, d), (B, m, d) -> (B, n, m)``.

    A 2-D ``(m, d)`` target is shared by every matrix of a ``(B, n, d)``
    stack (diffcore's rule for a 2-D operand): its squared norms are
    computed once, and the result equals, bit for bit, that of the target
    broadcast to ``(B, m, d)``."""
    src = np.asarray(src, dtype=float)
    tgt = np.asarray(tgt, dtype=float)
    if src.ndim not in (2, 3) or tgt.ndim not in (2, src.ndim) or (
            tgt.ndim == 3 and src.shape[0] != tgt.shape[0]):
        raise DimensionError(f"cost_matrix expects a 2-D or 3-D source and a 2-D target or "
                             f"an equal-batch 3-D stack, got {src.shape} and {tgt.shape}")
    if src.shape[-1] != tgt.shape[-1]:
        raise DimensionError(f"feature dims differ: {src.shape[-1]} vs {tgt.shape[-1]}")
    sq = (src * src).sum(axis=-1)[..., :, None] + (tgt * tgt).sum(axis=-1)[..., None, :]
    cross = src @ tgt.swapaxes(-1, -2)
    cross *= 2.0
    sq -= cross
    np.maximum(sq, 0.0, out=sq)
    return sq


def _check_marginals(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    if cost.ndim != 2 or cost.shape != (a.size, b.size):
        raise DimensionError(
            f"cost shape {cost.shape} does not match marginals ({a.size}, {b.size})"
        )
    if a.size == 0 or b.size == 0:
        raise ParameterError("marginals must be nonempty")
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(cost).all()):
        raise InputError("marginals and costs must be finite")
    if (a < 0).any() or (b < 0).any():
        raise InputError("marginals must be nonnegative")
    if abs(a.sum() - 1.0) > 1e-9 or abs(b.sum() - 1.0) > 1e-9:
        raise InputError(
            f"marginals must sum to 1 within 1e-9, got {a.sum():.12f} and {b.sum():.12f}"
        )


def _marginal_violation(plan: np.ndarray, a, b) -> float:
    """Worst absolute gap between the plan's row/column sums and a / b;
    over every plan of a ``(B, n, m)`` stack."""
    return float(max(
        np.abs(plan.sum(axis=-1) - a).max(),
        np.abs(plan.sum(axis=-2) - b).max(),
    ))


def emd_exact(a, b, cost: np.ndarray) -> Coupling:
    """Exact solution of the transport linear program min <plan, cost>.

    Uniform marginals with ``L = lcm(n, m) <= 2 * max(n, m)`` are solved
    as one square assignment: each source point is split into L/n equal
    copies and each target point into L/m, which leaves the optimal cost
    unchanged, and the assignment counts folded back to ``(n, m)`` over L
    are the plan. On ``n == m`` (L = n) the plan is a permutation over n.
    The assignment costs O(L^3), so the size rule keeps L small. Measured
    on 1 BLAS thread, split assignment against LP: 300x200 (L = 2 max)
    22 ms against 346 ms, 300x240 (L = 4 max) 169-221 ms against
    396-447 ms, 300x250 (L = 5 max) 236-262 ms against 497-629 ms.

    Everything else (non-uniform masses, or a large lcm such as coprime
    sizes) goes through an exact LP solve by HiGHS. Its equality
    constraints form a sparse ``(n+m-1) x nm`` matrix with ``2nm - n``
    nonzeros (n row sums, m-1 column sums; the last column sum is
    implied), so its memory grows as nm. Desk scale only (sizes <= a few
    hundred).
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    cost = np.asarray(cost, dtype=float)
    _check_marginals(a, b, cost)
    n, m = cost.shape

    size = math.lcm(n, m)
    uniform = max(np.abs(a - 1.0 / n).max(), np.abs(b - 1.0 / m).max()) <= 1e-12
    if uniform and size <= 2 * max(n, m):
        rn, rm = size // n, size // m
        rows, cols = linear_sum_assignment(np.repeat(np.repeat(cost, rn, axis=0), rm, axis=1))
        plan = np.bincount(rows // rn * m + cols // rm, minlength=n * m).reshape(n, m) / size
    else:
        # Equality-constrained LP on the flattened plan; HiGHS returns a
        # vertex solution. Column k = i*m + j has a 1 in row-sum row i and,
        # unless j is the last column (its redundant constraint is dropped),
        # a 1 in column-sum row n + j.
        k = np.arange(n * m)
        i, j = np.divmod(k, m)
        keep = j < m - 1
        rows = np.concatenate([i, n + j[keep]])
        cols = np.concatenate([k, k[keep]])
        a_eq = csc_matrix((np.ones(rows.size), (rows, cols)), shape=(n + m - 1, n * m))
        b_eq = np.concatenate([a, b[:-1]])
        res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        if not res.success:
            raise InputError(f"transport LP failed: {res.message}")
        plan = res.x.reshape(n, m)
    return Coupling(plan, a, b, float((plan * cost).sum()), True,
                    _marginal_violation(plan, a, b))


def _round_to_feasible(plan: np.ndarray, a: np.ndarray, b: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Project an approximate plan onto the exact marginal polytope. Both
    scalings work on ``plan`` in place; the final correction, if any, is
    added into ``out`` (a C-ordered array of the plan's shape) or a new one."""
    r = plan.sum(axis=1)
    plan *= np.where(r > 0, np.minimum(1.0, a / np.where(r > 0, r, 1.0)), 0.0)[:, None]
    c = plan.sum(axis=0)
    plan *= np.where(c > 0, np.minimum(1.0, b / np.where(c > 0, c, 1.0)), 0.0)
    err_a = a - plan.sum(axis=1)
    err_b = b - plan.sum(axis=0)
    total = err_a.sum()
    if total > 0:
        correction = np.outer(err_a, err_b, out=out)
        plan = np.add(plan, np.divide(correction, total, out=correction), out=correction)
    return plan


def _log_step(k: np.ndarray, dual: np.ndarray | None, log_marginal: np.ndarray) -> np.ndarray:
    """One log-domain Sinkhorn half-step over the last axis of the log-kernel
    ``k`` (``(n, m)`` or ``(B, n, m)``): ``log_marginal - logsumexp(k + dual)``,
    a None dual being all zeros. The max shift keeps every exponent <= 0, so
    no term overflows and a row whose kernel underflows everywhere still gets
    a finite dual."""
    z = k if dual is None else k + dual[..., None, :]
    top = z.max(axis=-1, keepdims=True)
    return log_marginal - (top[..., 0] + np.log(np.exp(w := z - top, out=w).sum(axis=-1)))


def _in_range(scaling: np.ndarray) -> bool:
    """False outside the scaling range, and for a NaN, 0 or inf entry."""
    return _SCALING_MIN <= np.minimum.reduce(scaling) and np.maximum.reduce(scaling) <= _SCALING_MAX


def sinkhorn(a, b, cost: np.ndarray, eps: float, max_iters: int = 5000,
             tol: float = 1e-6) -> Coupling:
    """Entropic-regularized transport by stabilized scaling (Schmitzer,
    arXiv 1610.06519).

    The plan is ``diag(u) K diag(v)`` with the absorbed kernel
    ``K = exp(-cost/eps + alpha (+) beta)``. One iteration is a row scaling
    ``u = a / (K v)`` and a column scaling ``v = b / (K^T u)``: two
    matrix-vector products. A scaling that leaves [1e-50, 1e50] or turns
    non-finite is redone as a log-domain half-step (``_log_step``) that
    absorbs ``log u`` and ``log v`` into the duals and rebuilds ``K``; the
    first row scaling is one such step. Zero-mass rows and columns are left
    out and keep all-zero plan rows and columns. A ``cost / eps`` that
    overflows raises NumericalError before iterating.

    Stops when the worst marginal violation of the current iterate, read
    from ``u * (K v)`` and ``v * (K^T u)``, drops below ``tol``; a plan that
    did not converge is returned with ``converged=False`` rather than
    silently. The returned plan is projected onto the exact marginal
    polytope after iterating, so its cost can never undercut the exact
    optimum; ``marginal_violation`` is that of the last iterate before the
    projection.

    BLAS products and numpy sums add in an order set by the memory layout,
    so the layouts are part of the result. ``K`` is one Fortran-ordered
    buffer, as ``k[:, cols]`` makes it, rebuilt in place. The plan is
    scaled in place in the layout of ``cost`` and corrected into a C-ordered
    array, as the out-of-place projection laid them out; the returned plan
    is C-ordered.
    """
    if not eps > 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    require_count("max_iters", max_iters)
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    cost = np.asarray(cost, dtype=float)
    _check_marginals(a, b, cost)
    rows, cols = a > 0, b > 0
    k = cost[rows]
    try:
        with np.errstate(over="raise"):
            np.divide(k, -eps, out=k)
    except FloatingPointError:
        raise NumericalError(f"cost / eps overflows at eps={eps}; use a larger eps") from None
    a_s, b_s = a[rows], b[cols]
    n, m = a_s.size, b_s.size
    log_a, log_b = np.log(a_s), np.log(b_s)
    # The first row step sees every column at dual 0; from then on the zero-mass
    # columns have dual -inf and drop out. kc = k[:, cols] waits for an absorption.
    alpha, beta = _log_step(k, None, log_a), np.zeros(m)
    kc = None if cols.all() else k[:, cols]
    kernel = np.add(k if kc is None else kc, alpha[:, None], out=np.empty((n, m), order="F"))
    np.exp(kernel, out=kernel)
    kv, ktu, gap = a_s.copy(), np.empty(m), np.empty(n)  # K v = a: the first u is all ones
    halves = [(uv, uv[:n], uv[n:]) for uv in np.empty((2, n + m))]  # [u | v], this step and last
    converged, violation = False, np.inf
    with np.errstate(all="ignore"):
        for it in range(max_iters):
            uv, u, v = halves[it % 2]
            np.divide(a_s, kv, out=u)
            np.divide(b_s, np.matmul(kernel.T, u, out=ktu), out=v)
            if not _in_range(uv):  # redo in the plain loop's order: u from the last v first
                kc = k[:, cols] if kc is None else kc
                if not _in_range(u):
                    beta += np.log(halves[it % 2 - 1][2])
                    alpha = _log_step(kc, beta, log_a)
                    np.exp(np.add(kc + alpha[:, None], beta, out=kernel), out=kernel)
                    u.fill(1.0)
                    np.divide(b_s, np.matmul(kernel.T, u, out=ktu), out=v)
                if not _in_range(v):
                    alpha += np.log(u)
                    beta = _log_step(kc.T, alpha, log_b)
                    np.exp(np.add(kc + alpha[:, None], beta, out=kernel), out=kernel)
                    uv.fill(1.0)
                    np.sum(kernel, axis=0, out=ktu)
            np.matmul(kernel, v, out=kv)
            np.subtract(np.multiply(u, kv, out=gap), a_s, out=gap)
            row = np.maximum.reduce(np.abs(gap, out=gap))
            # stopping needs both terms below tol: read the column one only then
            if row < tol or it == max_iters - 1:
                violation = max(row, np.maximum.reduce(np.abs(v * ktu - b_s)))
                if violation < tol:
                    converged = True
                    break
    if rows.all() and cols.all() and cost.flags.c_contiguous:  # k and K are free now
        # the plan goes into k, its correction into K's buffer read as C-ordered
        plan, spare = np.multiply(u[:, None], kernel, out=k), kernel.T.reshape(n, m)
        plan *= v
    else:
        plan, spare = np.zeros_like(cost), None
        plan[np.ix_(rows, cols)] = u[:, None] * kernel * v
    plan = _round_to_feasible(plan, a, b, spare)
    weighted = np.multiply(plan, cost, out=None if spare is None else k if plan is spare else spare)
    return Coupling(np.ascontiguousarray(plan), a, b, float(weighted.sum()), converged,
                    float(violation))


def barycentric_map(coupling: Coupling, target_points: np.ndarray) -> np.ndarray:
    """Replace each source point by its plan-weighted average of target rows."""
    target_points = np.asarray(target_points, dtype=float)
    if coupling.plan.shape[1] != target_points.shape[0]:
        raise DimensionError(
            f"plan has {coupling.plan.shape[1]} columns but target has {target_points.shape[0]} rows"
        )
    a = coupling.row_marginal
    if (a <= 0).any():
        raise InputError("barycentric map undefined for zero row marginals")
    return (coupling.plan / a[:, None]) @ target_points


def transport_weights(src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
    """Barycentric weights (plan * n) of the exact EMD plan between uniform
    marginals on the rows of src and tgt; ``weights @ tgt`` maps each
    source row into tgt's domain. On equal lengths that plan is a
    permutation over n (Birkhoff): 0/1 weights from one assignment solve per
    sample of a ``(B, n, d)`` stack. Unequal 2-D pairs take ``emd_exact``."""
    if np.ndim(src) != np.ndim(tgt):
        raise DimensionError(f"transport_weights expects two 2-D arrays or two 3-D stacks, "
                             f"got {np.shape(src)} and {np.shape(tgt)}")
    cost = cost_matrix(src, tgt)
    if not (cost.size and np.isfinite(cost).all()):
        raise InputError(f"transport needs nonempty point sets and finite costs, got {cost.shape}")
    n, m = cost.shape[-2:]
    if n != m:
        if cost.ndim == 3:
            raise DimensionError(f"stacked weights need equal lengths, got {n} and {m}")
        return emd_exact(np.full(n, 1.0 / n), np.full(m, 1.0 / m), cost).plan * n
    weights = np.zeros_like(cost)
    for w, c in zip(weights.reshape(-1, n, n), cost.reshape(-1, n, n)):
        w[linear_sum_assignment(c)] = 1.0
    return weights


def ot_adapt(src, tgt) -> np.ndarray:
    """Transport src into tgt's domain: uniform marginals, exact EMD, then
    barycentric projection."""
    src = np.asarray(src, dtype=float)
    tgt = np.asarray(tgt, dtype=float)
    return transport_weights(src, tgt) @ tgt


@dataclass
class OTKEmbedding:
    """Result of otk_embed: the embedded sequence plus solve diagnostics.
    For a batch, ``marginal_violation`` is the worst over its samples."""

    values: Node
    marginal_violation: float
    converged: bool


def otk_embed(y, references, entropic_eps: float, sinkhorn_iters: int) -> OTKEmbedding:
    """Pool a length-T sequence against n references via an entropic plan.

    Output row i is the mass-renormalized plan-weighted average of y's rows
    attending to reference i, so each output row is a convex combination of
    input rows and the result has one row per reference. ``y`` may be a
    ``(B, t, d)`` stack; each sample gets its own plan. ``entropic_eps`` is
    relative to the mean pairwise cost (costs are mean-normalized before the
    Gibbs kernel). The result is one graph node: its forward runs exactly
    ``sinkhorn_iters`` plain-domain steps from u = 1 (``v = b / K^T u``, then
    ``u = a / K v``) in numpy, and its backward replays their reverse pass,
    from iterates kept only when an input requires a gradient, so the
    gradient is that of those steps. An underflowing kernel raises
    NumericalError.
    """
    if not entropic_eps > 0:
        raise ParameterError("entropic_eps must be positive")
    require_count("sinkhorn_iters", sinkhorn_iters)
    y = y if isinstance(y, Node) else dc.constant(y)
    z = references if isinstance(references, Node) else dc.constant(references)
    t, d = y.rows, y.cols
    n = z.rows
    if z.cols != d:
        raise DimensionError(f"references width {z.cols} != sequence width {d}")
    if min(t, n) < 1:
        raise InputError(f"otk_embed needs nonempty sequences and references, got {t} and {n}")

    yv, zv, eps = y.value, z.value, entropic_eps
    cost = cost_matrix(yv, zv)
    mean = cost.sum(axis=-1, keepdims=True).mean(axis=-2, keepdims=True) * (1.0 / n)
    scaled = np.divide(cost, mean, out=cost)
    kernel = scaled * (-1.0 / eps)
    np.exp(kernel, out=kernel)
    kernel_t = _t(kernel)
    u = np.ones(yv.shape[:-1] + (1,))
    us, vs = [u], []  # the iterates, for the backward pass
    with np.errstate(all="ignore"):  # an underflowing kernel is caught below
        for _ in range(sinkhorn_iters):
            v = (1.0 / n) / (kernel_t @ u)
            kv = kernel @ v
            u = (1.0 / t) / kv
            if y.requires_grad or z.requires_grad:
                us.append(u)
                vs.append(v)
        # The plan is diag(u) K diag(v). Output i averages y under the plan's
        # column i over that column's mass, in which v cancels: the weights
        # are uk = K * u over its column sums K^T u.
        weights = kernel * u
        ktu = weights.sum(axis=-2, keepdims=True)
        weights /= ktu
        out = _t(weights) @ yv
    if not np.isfinite(out).all():
        raise NumericalError(f"otk_embed is not finite at entropic_eps={eps}: the Gibbs "
                             "kernel underflowed (or the inputs are not finite)")
    # the plan's row sums are u * K v and its column sums v * K^T u
    violation = float(max(np.abs(u * kv - 1.0 / t).max(), np.abs(_t(v) * ktu - 1.0 / n).max()))

    def vjp(g):
        g_weights = yv @ _t(g)
        g_uk = (g_weights - (g_weights * weights).sum(axis=-2, keepdims=True)) / ktu
        g_u = (g_uk * kernel).sum(axis=-1, keepdims=True)
        # Steps in reverse: u = a / K v gives g_kv = -g_u u^2 / a, and
        # v = b / K^T u gives g_ktu = -g_v v^2 / b. The kernel's share of
        # each step, g_kv v^T + u g_ktu^T, is summed as two stacked products.
        g_kvs, g_ktus = [], []
        for k in reversed(range(sinkhorn_iters)):
            g_kvs.append(-t * g_u * us[k + 1] ** 2)
            g_ktus.append(-n * (kernel_t @ g_kvs[-1]) * vs[k] ** 2)
            g_u = kernel @ g_ktus[-1]
        g_kernel = (g_uk * u + np.concatenate(g_kvs, axis=-1) @ _t(np.concatenate(vs[::-1], axis=-1))
                    + np.concatenate(us[-2::-1], axis=-1) @ _t(np.concatenate(g_ktus, axis=-1)))
        # kernel = exp(-(cost / mean) / eps), mean = the average of cost
        g_scaled = g_kernel * kernel * (-1.0 / eps)
        g_cost = (g_scaled - (g_scaled * scaled).sum(axis=(-2, -1), keepdims=True) / (n * t)) / mean
        g_y = g_z = None
        if y.requires_grad:
            g_y = weights @ g + 2.0 * (yv * g_cost.sum(axis=-1, keepdims=True) - g_cost @ zv)
        if z.requires_grad:
            g_z = 2.0 * (zv * _t(g_cost.sum(axis=-2, keepdims=True)) - _t(g_cost) @ yv)
        return g_y, g_z

    return OTKEmbedding(Node(out, (y, z), vjp), violation, violation < OTK_MARGINAL_TOL)
