"""Label smoothing, the smoothed cross-entropy loss, and calibration
metrics (equal-width ECE, equal-mass per-class ACE) with reliability-bin
data for reporting.

``smooth_targets(labels, alpha, num_classes)`` builds a batch's smoothed
target rows in one call.

The loss is one graph node on the logits: its forward takes the softmax,
floors it at ``PROB_FLOOR`` and averages the cross-entropy over the rows,
and its vjp is written out in the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Node
from .errors import InputError, ParameterError, require_count

PROB_FLOOR = 1e-12
# the default bin count of ece and range count of ace
NUM_BINS = 10


@dataclass
class PredictionSet:
    """Predicted class-probability rows plus true labels.

    ``top_class`` gives each row's confidence (its largest probability)
    and predicted class together, in one pass.
    """

    probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        labels = np.asarray(self.labels)
        if self.probs.ndim != 2:
            raise InputError(f"probs must be N x K, got shape {self.probs.shape}")
        if labels.shape != (self.probs.shape[0],):
            raise InputError("labels must be one index per prediction row")
        if self.probs.shape[0] == 0:
            raise InputError("prediction set is empty")
        if not np.isfinite(self.probs).all() or (self.probs < 0).any():
            raise InputError("probabilities must be finite and nonnegative")
        if np.abs(self.probs.sum(axis=1) - 1.0).max() > 1e-9:
            raise InputError("probability rows must sum to 1 within 1e-9")
        if not np.array_equal(labels, np.round(labels)):
            raise InputError("labels must be integers")
        k = self.probs.shape[1]
        if labels.min() < 0 or labels.max() >= k:
            raise InputError(f"labels must lie in [0, {k})")
        self.labels = labels.astype(int)

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def k(self) -> int:
        return self.probs.shape[1]

    def top_class(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's largest probability and the first column holding it:
        ``probs.max(axis=1)`` and ``probs.argmax(axis=1)``, bit for bit.

        One pass over the contiguous class columns: a running
        ``np.maximum`` is the reduction ``max`` does, and a column takes
        the prediction only where it is strictly larger, so a tie keeps
        the first column, as ``argmax`` does.
        """
        columns = np.ascontiguousarray(self.probs.T)
        best = columns[0].copy()
        predicted = np.zeros(self.n, dtype=np.intp)
        for cls in range(1, self.k):
            # every prediction so far is below cls: a branch-free masked write
            np.maximum(predicted, (columns[cls] > best) * cls, out=predicted)
            np.maximum(best, columns[cls], out=best)
        return best, predicted


def smooth_targets(labels, alpha: float, num_classes: int) -> np.ndarray:
    """Smoothed one-hot targets y_k * (1 - alpha) + alpha / K, one row per
    label, with alpha in [0, 1] (0 = one-hot, 1 = uniform). A plain int is
    one label; a label not of an integer type, such as 1.0, is rejected.

    The true-class entry is evaluated as 1 - alpha * (K - 1) / K, which is
    algebraically identical but keeps the decimal values exact (e.g.
    alpha = 0.001, K = 2 gives precisely 0.9995 / 0.0005).
    """
    labels = np.ravel(labels)
    if labels.dtype.kind not in "iu":
        raise InputError(f"labels must be of an integer type, got {labels.tolist()}")
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha}")
    k = num_classes
    if k < 2:
        raise ParameterError("need at least two classes")
    if ((labels < 0) | (labels >= k)).any():
        raise ParameterError(f"labels {labels.tolist()} out of range for K={k}")
    t = np.full((labels.size, k), alpha / k)
    t[np.arange(labels.size), labels] = 1.0 - alpha * (k - 1) / k
    return t


def ls_cross_entropy(logits, targets: np.ndarray) -> Node:
    """Mean smoothed cross-entropy of softmax rows against target rows, as
    one differentiable 1x1 node (an array ``logits`` is wrapped as a
    constant).

    ``logits`` holds N rows of class scores (``(1, K)``, or ``(B, 1, K)``
    for a batch) and ``targets`` one target row each. With
    ``p = softmax(z)`` and ``p_fl = max(p, 1e-12)`` the value is
    ``-sum(t * log p_fl) / N``; the gradient of the logits is the softmax
    vjp of ``-(t / p_fl) * [p > 1e-12] / N``, so it is zero for a
    probability below the floor.
    """
    logits = dc._wrap(logits)
    z = logits.value
    targets = np.asarray(targets, dtype=float)
    if z.size != targets.size:
        raise InputError("logits and targets disagree in length")
    t = targets.reshape(z.shape)
    inv_n = 1.0 / (z.size // z.shape[-1])
    p = dc._softmax(z)
    floored = np.maximum(p, PROB_FLOOR)

    def vjp(g):
        g_p = np.full_like(p, g[0, 0] * inv_n * -1.0) * t / floored * (p > PROB_FLOOR)
        return (dc._softmax_vjp(p, g_p),)

    return Node((t * np.log(floored)).sum().reshape(1, 1) * -1.0 * inv_n, (logits,), vjp)


@dataclass
class ReliabilityBins:
    """Per-bin sample counts, accuracies and mean confidences.

    ``ece``'s bins are arrays of length M, bin m covering ((m-1)/M, m/M],
    with the M + 1 ``edges``; ``ace``'s are arrays shaped K x R, one row of
    adaptive ranges per class, and carry no edges. Empty bins carry count
    0 and NaN stats.
    """

    counts: np.ndarray
    accuracy: np.ndarray
    confidence: np.ndarray
    edges: np.ndarray | None = None


def equal_width_bins(conf: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Each confidence's bin among the M = ``len(edges) - 1`` bins that
    ``edges`` bound: ``clip(searchsorted(edges, conf, "left") - 1, 0, M - 1)``,
    the same bins, at a cost that does not grow with M.

    The guess ``ceil(conf * M) - 1`` is one bin off at most (the product
    rounds, by far less than a bin's width), and one comparison with
    each of its two edges corrects it. A confidence at or below 0 goes to
    the first bin, one above 1 to the last.
    """
    last = edges.size - 2
    idx = np.ceil(conf * (last + 1)).astype(np.intp)
    idx -= 1
    # ufuncs, not np.clip: its call costs more than the binning of a small set
    np.minimum(np.maximum(idx, 0, out=idx), last, out=idx)
    idx -= conf <= edges[idx]
    idx += conf > edges[idx + 1]
    return np.minimum(np.maximum(idx, 0, out=idx), last, out=idx)


def ece(preds: PredictionSet, num_bins: int = NUM_BINS) -> tuple[float, ReliabilityBins]:
    """Expected calibration error over equal-width confidence bins.

    Confidence is the max-class probability, correctness is argmax vs
    label; ECE weights each bin's |accuracy - confidence| gap by its
    occupancy. Empty bins contribute zero. Both come from one pass over
    the class columns (``PredictionSet.top_class``), and each bin from
    ``equal_width_bins``.
    """
    require_count("num_bins", num_bins)
    conf, predicted = preds.top_class()
    correct = predicted == preds.labels
    # bin m (1-based) covers ((m-1)/M, m/M]; edges are the exact floats m/M
    edges = np.arange(num_bins + 1) / num_bins
    idx = equal_width_bins(conf, edges)
    counts = np.bincount(idx, minlength=num_bins)
    # a hit count is exact in float64, so hits / count is the bin's mean
    acc = np.divide(np.bincount(idx, weights=correct, minlength=num_bins), counts,
                    out=np.full(num_bins, np.nan), where=counts > 0)
    # a stable (radix) sort keeps each bin's members in sample order, as a mask does
    order = np.argsort(idx.astype(np.min_scalar_type(num_bins)), kind="stable")
    mean_conf = np.array([members.mean() if members.size else np.nan
                          for members in np.split(conf[order], np.cumsum(counts)[:-1])])
    gaps = np.where(counts > 0, counts / preds.n * np.abs(acc - mean_conf), 0.0)
    # cumsum adds left to right, as a scalar loop over the bins does
    return float(np.cumsum(gaps)[-1]), ReliabilityBins(counts, acc, mean_conf, edges)


def ace(preds: PredictionSet, num_ranges: int = NUM_BINS) -> tuple[float, ReliabilityBins]:
    """Adaptive calibration error over equal-mass per-class ranges.

    For every class k the predicted probabilities for k are stably sorted
    and split into ``num_ranges`` contiguous ranges whose sizes differ by
    at most one (none is empty: ``num_ranges`` may not exceed the sample
    count). The result is the unweighted mean of |accuracy - confidence|
    over all (class, range) cells.

    A range's confidences are a slice of the sorted column: equal values
    are equal bits, except that the sort may change the sign of a zero,
    which no mean shows (its sum starts at +0.0). A range's accuracy is
    its hit count over its size. Where every range cut falls between two
    distinct values, no permutation is built: the hits before a cut are
    those whose value is below the value at the cut, counted by a search
    of the sorted hit values. Where a tie run straddles a cut, the hits
    are counted along the stable order, built as a default sort whose
    runs at the cuts have their indices sorted ascending. Every mean is
    the same bits as the mean over the stable sort's chunk.
    """
    require_count("num_ranges", num_ranges)
    if num_ranges > preds.n:
        raise ParameterError(f"num_ranges {num_ranges} exceeds sample count {preds.n}")
    k = preds.k
    # np.array_split's sizes: the first ``extra`` ranges hold one more
    base, extra = divmod(preds.n, num_ranges)
    split = extra * (base + 1)
    sizes = np.array([base + 1] * extra + [base] * (num_ranges - extra))
    starts = np.cumsum(sizes) - sizes
    cuts = starts[1:]
    counts = np.tile(sizes, (k, 1))
    acc = np.empty((k, num_ranges))
    mean_conf = np.empty((k, num_ranges))
    columns = np.ascontiguousarray(preds.probs.T)
    for cls in range(k):
        column, hit = columns[cls], preds.labels == cls
        values = np.sort(column)
        ties = values[cuts][values[cuts - 1] == values[cuts]]
        if ties.size:
            # count along the stable order: a default sort whose tie runs at the
            # cuts hold their indices ascending
            order = np.argsort(column)
            lows, highs = np.searchsorted(values, ties, "left"), np.searchsorted(values, ties, "right")
            for lo, hi in dict.fromkeys(zip(lows, highs)):  # a run over several cuts once
                order[lo:hi].sort()
            range_hits = np.add.reduceat(hit[order], starts)
        else:
            # each cut lies between two values: the hits before it are those below
            # it (np.compress, not a boolean index: the same values, several times faster)
            below = np.searchsorted(np.sort(np.compress(hit, column)), values[cuts], "left")
            range_hits = np.diff(below, prepend=0, append=np.count_nonzero(hit))
        # an exact count over the size: the division a mean over booleans does
        acc[cls] = range_hits / sizes
        # each range is one contiguous row, so its mean sums as a lone chunk's
        mean_conf[cls, :extra] = values[:split].reshape(extra, base + 1).mean(axis=1)
        mean_conf[cls, extra:] = values[split:].reshape(num_ranges - extra, base).mean(axis=1)
    total = np.cumsum(np.abs(acc - mean_conf))[-1]
    return float(total / (k * num_ranges)), ReliabilityBins(counts, acc, mean_conf)
