"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the library's own code paths: the transport
oracle enumerates basic solutions of the transportation polytope, the
assignment oracle enumerates permutations, the uniform-split oracle turns
uniform transport of any shape into a square assignment, the LP oracle
hands the whole transport program to HiGHS as it stands, the Sinkhorn
oracle runs the log-domain loop with scipy's ``logsumexp``, the OTK
oracle builds the embedding as an unrolled graph of ``diffcore``
primitives, the attention oracles build the context, gated, pooling
and co-attention layers the same way, as the loss oracle builds the
smoothed cross-entropy, and the calibration oracles
re-derive the binning from comparisons alone. The loop oracles (``aso_loop``,
``stft_per_frame`` and ``resize_by_interp``) do one bootstrap iteration,
frame or line at a time, in the arithmetic the vectorized library code
must reproduce bit for bit, and ``sinkhorn_scaling_loop`` is the scaling
loop with a fresh array for every step, which the buffer-reusing
``transport.sinkhorn`` reproduces bit for bit. ``mel_power_dense`` is the mel projection
over every FFT bin, which the band-blocked ``log_mel`` reproduces within
rounding. ``generate_task_per_sample`` draws the synthetic task one sample
at a time, which ``generate_task``'s one draw per split reproduces bit for
bit.

The graph primitives that only these oracles use (``sub``,
``elementwise_div``, ``scale``, ``log_ew``, ``softmax_rows``,
``clamp_min``, ``sigmoid``, ``exp_ew``, ``slice_cols``, ``sum_cols``,
``tanh_ew``, ``relu``, ``transpose``, ``apply_mask`` and ``dropout``)
live here rather than in ``diffcore``: the library's fused layers and its
loss compute the same values in one node each. ``dropout_masks_per_sample``
draws a batch's dropout masks one sample and one site at a time, as the
library's single draw must lay them out.
"""

import itertools
import math
from statistics import NormalDist

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.special import logsumexp

from otfusion import context_attention as ctx
from otfusion import diffcore as dc
from otfusion.calibration import PROB_FLOOR
from otfusion.diffcore import (Node, _require_broadcastable, _sigmoid, _softmax, _softmax_vjp, _t,
                               _wrap)
from otfusion.errors import DimensionError
from otfusion.fusion import CO_DROPOUT_CONCAT, CO_DROPOUT_HIDDEN, HIDDEN
from otfusion.model import ATTN_FUSION, CO_ATTENTION, OTK
from otfusion.transport import OTK_MARGINAL_TOL, Coupling, _round_to_feasible


def emd_cost_bruteforce(a, b, cost):
    """Exact minimum transport cost by enumerating spanning-tree bases.

    Every vertex of the transportation polytope is the unique flow on some
    spanning tree of the complete bipartite graph; the optimum is the best
    feasible one. Only sensible for sizes <= 4.
    """
    n, m = cost.shape
    nodes = n + m
    edges = [(i, j) for i in range(n) for j in range(m)]
    best = np.inf
    for combo in itertools.combinations(edges, nodes - 1):
        parent = list(range(nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i, j in combo:
            ri, rj = find(i), find(n + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic or len({find(k) for k in range(nodes)}) != 1:
            continue
        adj = {k: [] for k in range(nodes)}
        for e, (i, j) in enumerate(combo):
            adj[i].append((n + j, e))
            adj[n + j].append((i, e))
        balance = list(a) + list(b)
        flow = [0.0] * len(combo)
        used = [False] * len(combo)
        degree = {k: len(adj[k]) for k in range(nodes)}
        queue = [k for k in range(nodes) if degree[k] == 1]
        feasible = True
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            live = [(v, e) for v, e in adj[u] if not used[e]]
            if len(live) != 1:
                continue
            v, e = live[0]
            flow[e] = balance[u]
            if flow[e] < -1e-12:
                feasible = False
                break
            balance[v] -= balance[u]
            balance[u] = 0.0
            used[e] = True
            degree[v] -= 1
            if degree[v] == 1:
                queue.append(v)
        if not feasible:
            continue
        total = sum(f * cost[i, j] for f, (i, j) in zip(flow, combo))
        best = min(best, total)
    return best


def emd_cost_permutations(cost):
    """Optimal uniform-marginal transport cost via permutation enumeration."""
    n = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(cost[i, perm[i]] for i in range(n)) / n)
    return best


def emd_cost_uniform_split(cost):
    """Optimal uniform-marginal transport cost for any n x m cost matrix.

    Splitting every source point into lcm(n, m)/n equal copies and every
    target point into lcm(n, m)/m leaves the optimal cost unchanged and
    makes the problem a square assignment, solved without any LP.
    """
    n, m = cost.shape
    size = math.lcm(n, m)
    split = np.repeat(np.repeat(cost, size // n, axis=0), size // m, axis=1)
    rows, cols = linear_sum_assignment(split)
    return float(split[rows, cols].sum() / size)


def emd_cost_lp(a, b, cost):
    """Optimal transport cost from one HiGHS solve of the full LP: all n row
    sums and all m column sums as equalities (the redundant one kept), on a
    constraint matrix built as two Kronecker products."""
    n, m = cost.shape
    a_eq = sparse.vstack([sparse.kron(sparse.eye(n), np.ones((1, m))),
                          sparse.kron(np.ones((1, n)), sparse.eye(m))])
    res = linprog(np.ravel(cost), A_eq=a_eq, b_eq=np.concatenate([a, b]), bounds=(0, None),
                  method="highs")
    assert res.success, res.message
    return float(res.fun)


def sinkhorn_log_domain(a, b, cost, eps, max_iters=5000, tol=1e-6):
    """``transport.sinkhorn``'s contract by log-domain iterations: one
    iteration updates the duals f (rows), then g (columns), each with a
    full ``logsumexp``, and builds the plan to check its marginals. Stops
    at the first plan within ``tol``; the plan then goes through the
    library's own projection ``_round_to_feasible``. Zero-mass entries get
    the dual -inf, so their plan rows and columns are zero."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    cost = np.asarray(cost, dtype=float)
    log_a = np.log(np.where(a > 0, a, 1.0))
    log_b = np.log(np.where(b > 0, b, 1.0))
    f = np.zeros_like(a)
    g = np.zeros_like(b)
    k = -cost / eps
    converged = False
    violation = np.inf
    for _ in range(max_iters):
        f = eps * (log_a - logsumexp(k + g[None, :] / eps, axis=1))
        f[a == 0] = -np.inf
        g = eps * (log_b - logsumexp(k + f[:, None] / eps, axis=0))
        g[b == 0] = -np.inf
        plan = np.exp(k + f[:, None] / eps + g[None, :] / eps)
        violation = float(max(np.abs(plan.sum(axis=1) - a).max(),
                              np.abs(plan.sum(axis=0) - b).max()))
        if violation < tol:
            converged = True
            break
    plan = _round_to_feasible(np.exp(k + f[:, None] / eps + g[None, :] / eps), a, b)
    return Coupling(plan, a, b, float((plan * cost).sum()), converged, violation)


def _projection_copying(plan, a, b):
    """``transport._round_to_feasible`` as it was before it worked in place:
    every scaling and the final correction make a new array."""
    r = plan.sum(axis=1)
    scale_r = np.where(r > 0, np.minimum(1.0, a / np.where(r > 0, r, 1.0)), 0.0)
    p = plan * scale_r[:, None]
    c = p.sum(axis=0)
    scale_c = np.where(c > 0, np.minimum(1.0, b / np.where(c > 0, c, 1.0)), 0.0)
    p = p * scale_c[None, :]
    err_a = a - p.sum(axis=1)
    err_b = b - p.sum(axis=0)
    total = err_a.sum()
    if total > 0:
        p = p + np.outer(err_a, err_b) / total
    return p


def _log_step_copying(k, dual, log_marginal):
    """``transport._log_step`` as it was: the dual is always added, and the
    shifted exponent is a new array."""
    z = k + dual[..., None, :]
    top = z.max(axis=-1, keepdims=True)
    return log_marginal - (top[..., 0] + np.log(np.exp(z - top).sum(axis=-1)))


def _in_scaling_range(scaling):
    return 1e-50 <= scaling.min() and scaling.max() <= 1e50


def sinkhorn_scaling_loop(a, b, cost, eps, max_iters=5000, tol=1e-6):
    """``transport.sinkhorn`` as it was before its buffers were reused: fresh
    arrays for every kernel, scaling and violation, one range check per
    scaling, both marginal violations on every iteration, the plan scattered
    through ``np.ix_`` and projected out of place. The library must return
    the same plan bytes, cost, flag and violation."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    cost = np.asarray(cost, dtype=float)
    rows, cols = a > 0, b > 0
    k = cost[rows] / -eps
    a_s, b_s = a[rows], b[cols]
    log_a, log_b = np.log(a_s), np.log(b_s)
    alpha, beta = _log_step_copying(k, np.zeros(b.size), log_a), np.zeros(b_s.size)
    k = k[:, cols]
    kernel = np.exp(k + alpha[:, None])
    u = np.ones(a_s.size)
    converged = False
    violation = np.inf
    with np.errstate(divide="ignore", over="ignore"):
        for it in range(max_iters):
            if it:
                u = a_s / kv
                if not _in_scaling_range(u):
                    beta = beta + np.log(v)
                    alpha = _log_step_copying(k, beta, log_a)
                    kernel = np.exp(k + alpha[:, None] + beta)
                    u = np.ones(a_s.size)
            ktu = kernel.T @ u
            v = b_s / ktu
            if not _in_scaling_range(v):
                alpha = alpha + np.log(u)
                beta = _log_step_copying(k.T, alpha, log_b)
                kernel = np.exp(k + alpha[:, None] + beta)
                u = np.ones(a_s.size)
                v = np.ones(b_s.size)
                ktu = kernel.sum(axis=0)
            kv = kernel @ v
            violation = max(np.abs(u * kv - a_s).max(), np.abs(v * ktu - b_s).max())
            if violation < tol:
                converged = True
                break
    plan = np.zeros_like(cost)
    plan[np.ix_(rows, cols)] = u[:, None] * kernel * v
    plan = _projection_copying(plan, a, b)
    return Coupling(plan, a, b, float((plan * cost).sum()), converged, float(violation))


def ece_bruteforce(probs, labels, num_bins):
    """Comparison-based equal-width binning, written from the definition."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n = probs.shape[0]
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    total = 0.0
    for m in range(1, num_bins + 1):
        lo, hi = (m - 1) / num_bins, m / num_bins
        members = (conf > lo) & (conf <= hi)
        count = members.sum()
        if count == 0:
            continue
        total += count / n * abs(correct[members].mean() - conf[members].mean())
    return total


def ace_bruteforce(probs, labels, num_ranges):
    """Per-class equal-mass ranges from a stable sort, from the definition."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n, k = probs.shape
    total = 0.0
    cells = 0
    for cls in range(k):
        conf = probs[:, cls]
        order = sorted(range(n), key=lambda i: (conf[i], i))
        base, extra = divmod(n, num_ranges)
        start = 0
        for r in range(num_ranges):
            size = base + (1 if r < extra else 0)
            chunk = order[start:start + size]
            start += size
            if not chunk:
                continue
            acc = np.mean([labels[i] == cls for i in chunk])
            mean_conf = np.mean([conf[i] for i in chunk])
            total += abs(acc - mean_conf)
            cells += 1
    return total / cells


def violation_ratio_1d(a, b, grid):
    """The violation ratio of two score samples on a midpoint grid, from
    one sort and one gather per sample."""
    t = (np.arange(grid) + 0.5) / grid

    def quantiles(scores):
        s = np.sort(scores)
        return s[np.clip(np.ceil(t * s.size).astype(int) - 1, 0, s.size - 1)]

    diff = quantiles(np.asarray(a, dtype=float)) - quantiles(np.asarray(b, dtype=float))
    w2_sq = float((diff * diff).mean())
    if w2_sq == 0.0:
        return 0.5
    viol = np.maximum(-diff, 0.0)
    return float((viol * viol).mean() / w2_sq)


def aso_loop(a, b, confidence=0.95, bootstrap_iters=1000, num_comparisons=50, seed=0,
             grid=1000):
    """``(eps_min, violation_ratio)`` of ``significance.aso``, one bootstrap
    iteration at a time with the generator ``default_rng((seed, it))``."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if np.ptp(a) == 0.0 and np.ptp(b) == 0.0 and a[0] == b[0]:
        return 0.5, 0.5
    point = violation_ratio_1d(a, b, grid)
    ratios = np.empty(bootstrap_iters)
    for it in range(bootstrap_iters):
        rng = np.random.default_rng((seed, it))
        ra = a[rng.integers(0, a.size, a.size)]
        rb = b[rng.integers(0, b.size, b.size)]
        ratios[it] = violation_ratio_1d(ra, rb, grid)
    z = NormalDist().inv_cdf(1.0 - (1.0 - confidence) / num_comparisons)
    std_err = float(ratios.std()) / np.sqrt(bootstrap_iters)
    return float(np.clip(point + z * std_err, 0.0, 1.0)), point


def stft_per_frame(samples, n_fft, hop):
    """Centered, reflect-padded, periodic-Hann STFT with one ``rfft`` call
    per frame, as a (bins, frames) matrix."""
    x = np.pad(np.asarray(samples, dtype=float), n_fft // 2, mode="reflect")
    frames = 1 + (x.size - n_fft) // hop
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n_fft) / n_fft)
    out = np.empty((n_fft // 2 + 1, frames), dtype=complex)
    for t in range(frames):
        out[:, t] = np.fft.rfft(x[t * hop:t * hop + n_fft] * window)
    return out


def mel_power_dense(fb, power):
    """The mel projection as one dense product over every FFT bin, the
    filterbank's zero weights included."""
    return fb @ power


def resize_by_interp(m, rows, cols):
    """Endpoint-aligned separable linear resize with one ``np.interp`` call
    per input row, then one per output column."""
    m = np.asarray(m, dtype=float)
    in_r, in_c = m.shape
    row_pos = np.linspace(0.0, in_r - 1.0, rows) if in_r > 1 else np.zeros(rows)
    col_pos = np.linspace(0.0, in_c - 1.0, cols) if in_c > 1 else np.zeros(cols)
    tmp = np.empty((in_r, cols))
    for i in range(in_r):
        tmp[i] = np.interp(col_pos, np.arange(in_c, dtype=float), m[i])
    out = np.empty((rows, cols))
    for j in range(cols):
        out[:, j] = np.interp(row_pos, np.arange(in_r, dtype=float), tmp[:, j])
    return out


def sub(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    _require_broadcastable(a, b, "sub")

    def vjp(g):
        return (g if a.requires_grad else None,
                -g if b.requires_grad else None)

    return Node(a.value - b.value, (a, b), vjp)


def elementwise_div(a, b) -> Node:
    a, b = _wrap(a), _wrap(b)
    _require_broadcastable(a, b, "elementwise_div")
    av, bv = a.value, b.value
    out = av / bv

    def vjp(g):
        return (g / bv if a.requires_grad else None,
                -g * out / bv if b.requires_grad else None)

    return Node(out, (a, b), vjp)


def sigmoid(a) -> Node:
    a = _wrap(a)
    out = _sigmoid(a.value)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return Node(out, (a,), vjp)


def scale(a, s: float) -> Node:
    a = _wrap(a)
    s = float(s)

    def vjp(g):
        return (g * s,)

    return Node(a.value * s, (a,), vjp)


def log_ew(a) -> Node:
    a = _wrap(a)
    v = a.value

    def vjp(g):
        return (g / v,)

    return Node(np.log(v), (a,), vjp)


def softmax_rows(a) -> Node:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    a = _wrap(a)
    out = _softmax(a.value)

    def vjp(g):
        return (_softmax_vjp(out, g),)

    return Node(out, (a,), vjp)


def clamp_min(a, floor: float) -> Node:
    """Elementwise max(a, floor); gradient is zero where the floor is active."""
    a = _wrap(a)
    mask = a.value > floor

    def vjp(g):
        return (g * mask,)

    return Node(np.maximum(a.value, floor), (a,), vjp)


def exp_ew(a) -> Node:
    a = _wrap(a)
    out = np.exp(a.value)

    def vjp(g):
        return (g * out,)

    return Node(out, (a,), vjp)


def slice_cols(a, start: int, stop: int) -> Node:
    a = _wrap(a)
    if not (0 <= start < stop <= a.cols):
        raise DimensionError(f"slice_cols: [{start}:{stop}) out of range for {a.cols} columns")

    def vjp(g):
        full = np.zeros_like(a.value)
        full[..., start:stop] = g
        return (full,)

    return Node(a.value[..., start:stop].copy(), (a,), vjp)


def sum_cols(a) -> Node:
    a = _wrap(a)
    d = a.cols

    def vjp(g):
        return (np.repeat(g, d, axis=-1),)

    return Node(a.value.sum(axis=-1, keepdims=True), (a,), vjp)


def tanh_ew(a) -> Node:
    a = _wrap(a)
    out = np.tanh(a.value)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return Node(out, (a,), vjp)


def relu(a) -> Node:
    a = _wrap(a)
    mask = a.value > 0

    def vjp(g):
        return (g * mask,)

    return Node(a.value * mask, (a,), vjp)


def transpose(a) -> Node:
    a = _wrap(a)

    def vjp(g):
        return (_t(g),)

    return Node(_t(a.value).copy(), (a,), vjp)


def apply_mask(a, keep) -> Node:
    """``a`` times a dropout multiplier, or ``a`` itself where ``keep`` is None."""
    a = _wrap(a)
    if keep is None:
        return a

    def vjp(g):
        return (g * keep,)

    return Node(a.value * keep, (a,), vjp)


def dropout(a, rate: float, training: bool, rng=None) -> Node:
    """Inverted dropout with the library's mask (``diffcore.dropout_masks``
    for one site); in eval mode or at rate 0 it returns ``a`` itself."""
    a = _wrap(a)
    (keep,) = dc.dropout_masks(rng, training and rate != 0.0, [(a.value.shape, rate)])
    return apply_mask(a, keep)


def dropout_masks_per_sample(rng, training, sites):
    """``diffcore.dropout_masks`` drawn as one-sample forwards run in
    sequence draw them: sample by sample, one ``rng.random`` call per site."""
    if not training:
        return [None] * len(sites)
    count = int(np.prod(sites[0][0][:-2]))
    draws = [[rng.random(shape[-2:]) for shape, _ in sites] for _ in range(count)]
    return [(np.stack([d[i] for d in draws]).reshape(shape) >= rate) / (1.0 - rate)
            for i, (shape, rate) in enumerate(sites)]


def otk_embed_unrolled(y, references, entropic_eps, sinkhorn_iters):
    """The OTK embedding as one graph node per primitive: the cost, the
    mean-normalized Gibbs kernel and ``sinkhorn_iters`` plain-domain
    Sinkhorn steps from u = 1, each unrolled. ``backward`` differentiates
    it op by op. Returns ``(values, marginal_violation, converged)``."""
    y = y if isinstance(y, dc.Node) else dc.constant(y)
    z = references if isinstance(references, dc.Node) else dc.constant(references)
    t, n = y.rows, z.rows

    y_sq = sum_cols(dc.elementwise_mul(y, y))
    z_sq = sum_cols(dc.elementwise_mul(z, z))
    cross = scale(dc.matmul(y, transpose(z)), -2.0)
    cost = dc.add(dc.add(y_sq, transpose(z_sq)), cross)
    mean = scale(dc.mean_rows(sum_cols(cost)), 1.0 / n)
    kernel = exp_ew(scale(elementwise_div(cost, mean), -1.0 / entropic_eps))
    kernel_t = transpose(kernel)

    a = dc.constant(np.full((t, 1), 1.0 / t))
    b = dc.constant(np.full((n, 1), 1.0 / n))
    u = dc.constant(np.full((t, 1), 1.0))
    for _ in range(sinkhorn_iters):
        v = elementwise_div(b, dc.matmul(kernel_t, u))
        u = elementwise_div(a, dc.matmul(kernel, v))
    plan = dc.elementwise_mul(dc.elementwise_mul(u, kernel), transpose(v))
    weights = transpose(plan)
    weights = elementwise_div(weights, sum_cols(weights))
    out = dc.matmul(weights, y)

    p = plan.value
    violation = float(max(np.abs(p.sum(axis=-1) - 1.0 / t).max(),
                          np.abs(p.sum(axis=-2) - 1.0 / n).max()))
    return out, violation, violation < OTK_MARGINAL_TOL


def gated_sum(a, a_c, w_g_a, w_g_ac, gate_override=None):
    """Sigmoid-gated mix of a matrix with its context counterpart, as a
    graph of primitives. Returns the n x 1 gate and the mixed matrix
    (1 - g) * a + g * a_c; ``a_c`` has a's rows, or one row shared by all
    of them. ``gate_override`` pins the gate to a constant."""
    if a_c.shape not in (a.shape, a.shape[:-2] + (1, a.cols)):
        raise DimensionError(f"gated_sum: shapes {a.shape} and {a_c.shape} differ")
    if gate_override is None:
        gate = sigmoid(dc.add(dc.matmul(a, w_g_a), dc.matmul(a_c, w_g_ac)))
    else:
        gate = dc.constant(np.full((a.rows, 1), float(gate_override)))
    mixed = dc.add(sub(a, dc.elementwise_mul(gate, a)), dc.elementwise_mul(gate, a_c))
    return gate, mixed


def context_attention_composed(x, c, layer, gate_override=None):
    """``context_attention.context_attention_forward`` as a graph of
    primitives. Returns the output and the attention map."""
    q = dc.matmul(x, layer.w_q)
    k = dc.matmul(x, layer.w_k)
    q_c = dc.matmul(c, layer.w_qc)
    k_c = dc.matmul(c, layer.w_kc)
    _, q_bar = gated_sum(q, q_c, layer.w_gq, layer.w_gqc, gate_override)
    _, k_bar = gated_sum(k, k_c, layer.w_gk, layer.w_gkc, gate_override)
    scores = scale(dc.matmul(q_bar, transpose(k_bar)), 1.0 / math.sqrt(layer.d_q))
    attn = softmax_rows(scores)
    return dc.matmul(attn, x), attn


def gating_masks(q, k, layer):
    """T x 2 sigmoid masks of gated attention as a graph of primitives;
    column 0 gates the queries, column 1 the keys."""
    if q.shape != k.shape:
        raise DimensionError(f"gating_masks: shapes {q.shape} and {k.shape} differ")
    hq = dc.matmul(q, layer.fc_q)
    hk = dc.matmul(k, layer.fc_k)
    return sigmoid(dc.matmul(dc.elementwise_mul(hq, hk), layer.fc_out))


def gated_attention_composed(s, layer, mask_override=None):
    """``gated_attention.gated_attention`` as a graph of primitives.
    Returns the output and the attention map."""
    if mask_override is not None:
        m = dc.constant(np.asarray(mask_override, dtype=float))
    else:
        m = gating_masks(s, s, layer)
    m_q = slice_cols(m, 0, 1)
    m_k = slice_cols(m, 1, 2)
    scores = scale(
        dc.matmul(dc.elementwise_mul(s, m_q), transpose(dc.elementwise_mul(s, m_k))),
        1.0 / math.sqrt(s.cols),
    )
    attn = softmax_rows(scores)
    return dc.matmul(attn, s), attn


def reduction_weights(m, w1, b1, w2, keep):
    """The attn-fusion head's 1 x n pooling weights as a graph of
    primitives, with the dropout multiplier ``keep`` (None in eval mode)."""
    h = apply_mask(relu(dc.add(dc.matmul(m, w1), b1)), keep)
    return softmax_rows(transpose(dc.matmul(h, w2)))


def attentive_pool_composed(m, w1, b1, w2, keep):
    """``fusion._attentive_pool`` as a graph of primitives. Returns the
    pooled rows and the weights."""
    alpha = reduction_weights(m, w1, b1, w2, keep)
    return dc.matmul(alpha, m), alpha


def co_attention_composed(inputs, head, training, rng=None):
    """``fusion.co_attention_forward`` as a graph of primitives, with the
    branches transposed to the column-major d' x n orientation of the
    defining equations. Returns the logits and the weights over c's and
    s's positions."""
    c_row, s_row = inputs.c, inputs.s
    c_col = transpose(c_row)
    s_col = transpose(s_row)
    affinity = tanh_ew(dc.matmul(dc.matmul(c_row, head.w_l), s_col))
    ws_s = dc.matmul(head.w_s, s_col)
    wc_c = dc.matmul(head.w_c, c_col)
    h_s = tanh_ew(dc.add(ws_s, dc.matmul(wc_c, affinity)))
    h_c = tanh_ew(dc.add(wc_c, dc.matmul(ws_s, transpose(affinity))))
    a_s = softmax_rows(dc.matmul(transpose(head.w_hs), h_s))
    a_c = softmax_rows(dc.matmul(transpose(head.w_hc), h_c))
    s_hat = dc.matmul(a_s, s_row)
    c_hat = dc.matmul(a_c, c_row)
    p = dc.concat_cols(c_hat, s_hat)
    keep_p, keep_h = dropout_masks_per_sample(
        rng, training, [(p.shape, CO_DROPOUT_CONCAT), (p.shape[:-1] + (HIDDEN,), CO_DROPOUT_HIDDEN)])
    p = apply_mask(p, keep_p)
    hidden = apply_mask(relu(dc.add(dc.matmul(p, head.w1), head.b1)), keep_h)
    logits = dc.add(dc.matmul(hidden, head.w_out), head.b_out)
    return logits, a_c, a_s


def ls_cross_entropy_composed(logits, targets):
    """``calibration.ls_cross_entropy`` as a graph of primitives: softmax,
    the probability floor, log, the product with the targets, the sum and
    the scalings by -1 and by one over the row count."""
    logits = _wrap(logits)
    targets = dc.constant(np.asarray(targets, dtype=float).reshape(logits.shape))
    logp = log_ew(clamp_min(softmax_rows(logits), PROB_FLOOR))
    loss = scale(dc.sum_all(dc.elementwise_mul(targets, logp)), -1.0)
    return scale(loss, 1.0 / (logits.value.size // logits.cols))


def expected_parameter_count(cfg):
    """Closed-form parameter count of an assembled model from the declared
    shapes; the heads' hidden width (128) and the default layer counts are
    written out, not read from the library."""
    d, d_q = cfg.d, cfg.d_q
    layers = cfg.layers or {"global": 1, "deep": 3, "deep_global": 2}[cfg.strategy]
    per_layer = 4 * d * d_q + 4 * d_q  # four d x d_q projections, four d_q x 1 gates
    total = layers * per_layer
    if cfg.strategy in (ctx.DEEP, ctx.DEEP_GLOBAL):
        total += sum((j + 1) * d * d for j in range(layers))
    total += d * cfg.d_g * 2 + cfg.d_g * 2
    d_prime = 2 * d
    if cfg.fusion == CO_ATTENTION:
        total += d_prime * d_prime + 2 * cfg.k * d_prime + 2 * cfg.k
        total += 2 * d_prime * 128 + 128 + 128 * 2 + 2
    elif cfg.fusion == ATTN_FUSION:
        total += 2 * (d_prime * 128 + 128 + 128)
        total += 2 * d_prime * cfg.d_z + 2 * cfg.d_z
        total += cfg.d_z * 2 + 2
    else:
        total += 2 * d_prime * 2 + 2
    if cfg.otk_mode == OTK:
        total += cfg.seq_len * d
    return total


def window_slope_bruteforce(row, width):
    """Least-squares slope per centered window with edge replication."""
    half = width // 2
    padded = np.concatenate([np.full(half, row[0]), row, np.full(half, row[-1])])
    t = np.arange(width, dtype=float)
    out = np.empty_like(row, dtype=float)
    for i in range(row.size):
        window = padded[i:i + width]
        slope, _ = np.polyfit(t, window, 1)
        out[i] = slope
    return out


def generate_task_per_sample(cfg):
    """``synthetic.generate_task`` one sample at a time, with three generator
    calls per sample (shared latent, x noise, y noise); the single draw per
    split must reproduce it bit for bit. Returns ``(x, y, labels)`` per
    split, stacked, in the order train, val, test."""
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    dir_rng = np.random.default_rng(streams[0])

    def unit():
        v = dir_rng.standard_normal(cfg.d)
        return v / np.linalg.norm(v)

    means = {("x", 0): unit(), ("x", 1): unit(), ("y", 0): unit(), ("y", 1): unit()}

    def gen_split(stream, size):
        rng = np.random.default_rng(stream)
        labels = np.zeros(size, dtype=int)
        labels[size // 2:] = 1
        rng.shuffle(labels)
        sigma = cfg.noise_std
        rho = cfg.cross_modal_correlation
        w_shared, w_own = np.sqrt(rho), np.sqrt(1.0 - rho)
        xs, ys = [], []
        for label in labels:
            mu_x = cfg.class_separation * sigma * means[("x", int(label))]
            mu_y = cfg.class_separation * sigma * means[("y", int(label))]
            shared = rng.standard_normal(cfg.d)
            xs.append(mu_x + sigma * (w_own * rng.standard_normal((cfg.n, cfg.d)) + w_shared * shared))
            ys.append(mu_y + sigma * (w_own * rng.standard_normal((cfg.t, cfg.d)) + w_shared * shared))
        return np.stack(xs), np.stack(ys), labels

    return [gen_split(streams[1], cfg.train_size), gen_split(streams[2], cfg.val_size),
            gen_split(streams[3], cfg.test_size)]
