"""Label smoothing, the smoothed cross-entropy loss, and calibration
metrics (equal-width ECE, equal-mass per-class ACE) with reliability-bin
data for reporting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Node
from .errors import InputError, ParameterError

PROB_FLOOR = 1e-12


@dataclass
class PredictionSet:
    """Predicted class-probability rows plus true labels."""

    probs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.probs.ndim != 2:
            raise InputError(f"probs must be N x K, got shape {self.probs.shape}")
        if self.labels.shape != (self.probs.shape[0],):
            raise InputError("labels must be one index per prediction row")
        if self.probs.shape[0] == 0:
            raise InputError("prediction set is empty")
        if not np.isfinite(self.probs).all() or (self.probs < 0).any():
            raise InputError("probabilities must be finite and nonnegative")
        if np.abs(self.probs.sum(axis=1) - 1.0).max() > 1e-9:
            raise InputError("probability rows must sum to 1 within 1e-9")
        k = self.probs.shape[1]
        if self.labels.min() < 0 or self.labels.max() >= k:
            raise InputError(f"labels must lie in [0, {k})")

    @property
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def k(self) -> int:
        return self.probs.shape[1]

    def confidences(self) -> np.ndarray:
        return self.probs.max(axis=1)

    def predicted(self) -> np.ndarray:
        return self.probs.argmax(axis=1)


@dataclass(frozen=True)
class SmoothingConfig:
    """Smoothing strength alpha (0 = one-hot, 1 = uniform) and class count."""

    alpha: float
    num_classes: int

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.num_classes < 2:
            raise ParameterError("need at least two classes")


def smooth_targets(label: int, cfg: SmoothingConfig) -> np.ndarray:
    """Smoothed one-hot target: y_k * (1 - alpha) + alpha / K.

    The true-class entry is evaluated as 1 - alpha * (K - 1) / K, which is
    algebraically identical but keeps the decimal values exact (e.g.
    alpha = 0.001, K = 2 gives precisely 0.9995 / 0.0005).
    """
    if not 0 <= label < cfg.num_classes:
        raise ParameterError(f"label {label} out of range for K={cfg.num_classes}")
    k = cfg.num_classes
    t = np.full(k, cfg.alpha / k)
    t[label] = 1.0 - cfg.alpha * (k - 1) / k
    return t


def ls_cross_entropy(probs, smoothed: np.ndarray) -> Node:
    """Cross-entropy sum_k -target_k * log(p_k) with a 1e-12 floor on p, as
    a differentiable 1x1 node (an array ``probs`` is wrapped as a constant).
    ``probs`` may hold a batch of probability rows with one target row
    each; the result is then the sum over the batch.
    """
    probs = dc._wrap(probs)
    smoothed = np.asarray(smoothed, dtype=float).ravel()
    if probs.value.size != smoothed.size:
        raise InputError("probs and targets disagree in length")
    logp = dc.log_ew(dc.clamp_min(probs, PROB_FLOOR))
    return dc.scale(dc.sum_all(dc.elementwise_mul(dc.constant(smoothed.reshape(probs.shape)), logp)), -1.0)


@dataclass
class ReliabilityBins:
    """Per-bin sample counts, accuracies and mean confidences.

    ``mode`` is "equal_width" (arrays of length M, bin m covering
    ((m-1)/M, m/M]) or "equal_mass" (arrays shaped K x R, one row of
    adaptive ranges per class). Empty bins carry count 0 and NaN stats.
    """

    mode: str
    counts: np.ndarray
    accuracy: np.ndarray
    confidence: np.ndarray
    edges: np.ndarray = field(default=None)


def ece(preds: PredictionSet, num_bins: int = 10) -> tuple[float, ReliabilityBins]:
    """Expected calibration error over equal-width confidence bins.

    Confidence is the max-class probability, correctness is argmax vs
    label; ECE weights each bin's |accuracy - confidence| gap by its
    occupancy. Empty bins contribute zero.
    """
    if num_bins < 1:
        raise ParameterError("need at least one bin")
    conf = preds.confidences()
    correct = preds.predicted() == preds.labels
    # bin m (1-based) covers ((m-1)/M, m/M]; edges are the exact floats m/M
    edges = np.arange(num_bins + 1) / num_bins
    idx = np.searchsorted(edges, conf, side="left") - 1
    idx = np.clip(idx, 0, num_bins - 1)
    counts = np.zeros(num_bins, dtype=int)
    acc = np.full(num_bins, np.nan)
    mean_conf = np.full(num_bins, np.nan)
    total = 0.0
    for m in range(num_bins):
        members = idx == m
        counts[m] = members.sum()
        if counts[m] == 0:
            continue
        acc[m] = correct[members].mean()
        mean_conf[m] = conf[members].mean()
        total += counts[m] / preds.n * abs(acc[m] - mean_conf[m])
    return float(total), ReliabilityBins("equal_width", counts, acc, mean_conf, edges)


def ace(preds: PredictionSet, num_ranges: int = 10) -> tuple[float, ReliabilityBins]:
    """Adaptive calibration error over equal-mass per-class ranges.

    For every class k the predicted probabilities for k are stably sorted
    and split into ``num_ranges`` contiguous ranges whose sizes differ by
    at most one (none is empty: ``num_ranges`` may not exceed the sample
    count). The result is the unweighted mean of |accuracy - confidence|
    over all (class, range) cells.
    """
    if num_ranges < 1:
        raise ParameterError("need at least one range")
    if num_ranges > preds.n:
        raise ParameterError(f"num_ranges {num_ranges} exceeds sample count {preds.n}")
    k = preds.k
    counts = np.zeros((k, num_ranges), dtype=int)
    acc = np.full((k, num_ranges), np.nan)
    mean_conf = np.full((k, num_ranges), np.nan)
    total = 0.0
    for cls in range(k):
        conf = preds.probs[:, cls]
        order = np.argsort(conf, kind="stable")
        for r, chunk in enumerate(np.array_split(order, num_ranges)):
            counts[cls, r] = chunk.size
            acc[cls, r] = (preds.labels[chunk] == cls).mean()
            mean_conf[cls, r] = conf[chunk].mean()
            total += abs(acc[cls, r] - mean_conf[cls, r])
    return float(total / (k * num_ranges)), ReliabilityBins("equal_mass", counts, acc, mean_conf)
