"""Almost Stochastic Order comparison of two score samples.

The violation ratio measures how much of the squared Wasserstein distance
between the empirical score distributions comes from the region where the
first sample's quantiles fall below the second's; 0 means the first sample
dominates everywhere, 1 means it is dominated everywhere, and 0.5 (also
the convention for identical samples) means no order. ``aso`` turns the
ratio into a score eps_min by adding a one-sided normal upper bound on the
bootstrap estimate's uncertainty, Bonferroni-adjusted for the number of
comparisons, so dominance claims (eps_min < 0.5) stay conservative.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InputError, ParameterError, require_count

QUANTILE_GRID = 1000
BOOTSTRAP_BLOCK = 64  # bootstrap iterations resampled and sorted together


@dataclass(frozen=True)
class ASOResult:
    """eps_min plus the settings that produced it."""

    eps_min: float
    violation_ratio: float
    confidence_level: float
    num_comparisons: int
    bootstrap_iters: int
    seed: int
    degenerate: bool = False

    @property
    def verdict(self) -> str:
        if self.eps_min == 0.0:
            return "stochastically dominant"
        if self.eps_min < 0.5:
            return "almost stochastically dominant"
        return "no order determinable"


def _grid_positions(size: int, grid: int) -> np.ndarray:
    """Index into a sorted sample of ``size`` scores of the right-continuous
    order-statistic inverse CDF at each midpoint of a ``grid``-point grid
    on (0, 1)."""
    t = (np.arange(grid) + 0.5) / grid
    return np.clip(np.ceil(t * size).astype(int) - 1, 0, size - 1)


def _ratios(sorted_a: np.ndarray, sorted_b: np.ndarray, pos_a, pos_b) -> np.ndarray:
    """The violation ratio of each row pair of sorted samples.

    ``np.take`` gives C-contiguous quantile rows, so each row's mean sums
    in the same order as for a lone 1-D sample.
    """
    diff = np.take(sorted_a, pos_a, axis=1) - np.take(sorted_b, pos_b, axis=1)
    w2_sq = (diff * diff).mean(axis=1)
    viol = np.maximum(-diff, 0.0)
    zero = w2_sq == 0.0
    return np.where(zero, 0.5, (viol * viol).mean(axis=1) / np.where(zero, 1.0, w2_sq))


def violation_ratio(scores_a, scores_b, grid: int = QUANTILE_GRID) -> float:
    """Share of the squared quantile gap where sample b sits above sample a.

    Evaluated on a uniform midpoint grid over the empirical inverse CDFs.
    Returns 0.5 when the squared Wasserstein denominator is zero (identical
    empirical distributions: no order determinable).
    """
    require_count("grid", grid)
    a = np.asarray(scores_a, dtype=float).ravel()
    b = np.asarray(scores_b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise InputError("score samples must be nonempty")
    return float(_ratios(np.sort(a)[None], np.sort(b)[None],
                         _grid_positions(a.size, grid), _grid_positions(b.size, grid))[0])


def aso(scores_a, scores_b, confidence: float = 0.95, bootstrap_iters: int = 1000,
        num_comparisons: int = 50, seed: int = 0, grid: int = QUANTILE_GRID) -> ASOResult:
    """Bootstrap upper confidence bound eps_min on the violation ratio.

    Each bootstrap iteration resamples both score lists with replacement
    (per-iteration derived seeds, so a parallel evaluation would reproduce
    the sequential one) and recomputes the violation ratio. Iterations are
    evaluated ``BOOTSTRAP_BLOCK`` at a time, with the same result as one
    at a time. eps_min is the point estimate plus the z-quantile of the
    Bonferroni-corrected confidence times the bootstrap standard error,
    clipped to [0, 1].
    Identical constant samples short-circuit to 0.5 with the degenerate
    flag set.
    """
    if not 0.0 < confidence < 1.0:
        raise ParameterError(f"confidence must be in (0, 1), got {confidence}")
    require_count("bootstrap_iters", bootstrap_iters)
    require_count("num_comparisons", num_comparisons)
    require_count("grid", grid)
    a = np.asarray(scores_a, dtype=float).ravel()
    b = np.asarray(scores_b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise InputError("score samples must be nonempty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InputError("scores must be finite")
    if min(a.size, b.size) < 5:
        warnings.warn("fewer than 5 scores per sample; eps_min will be unstable", stacklevel=2)

    if np.ptp(a) == 0.0 and np.ptp(b) == 0.0 and a[0] == b[0]:
        return ASOResult(0.5, 0.5, confidence, num_comparisons, bootstrap_iters, seed, True)

    point = violation_ratio(a, b, grid)
    pos_a, pos_b = _grid_positions(a.size, grid), _grid_positions(b.size, grid)
    ratios = np.empty(bootstrap_iters)
    for start in range(0, bootstrap_iters, BOOTSTRAP_BLOCK):
        draws = []
        for it in range(start, min(start + BOOTSTRAP_BLOCK, bootstrap_iters)):
            rng = np.random.default_rng((seed, it))
            draws.append((rng.integers(0, a.size, a.size), rng.integers(0, b.size, b.size)))
        idx_a, idx_b = (np.array(rows) for rows in zip(*draws))
        ratios[start:start + len(draws)] = _ratios(np.sort(a[idx_a], axis=1),
                                                   np.sort(b[idx_b], axis=1), pos_a, pos_b)

    corrected = 1.0 - (1.0 - confidence) / num_comparisons
    z = NormalDist().inv_cdf(corrected)
    std_err = float(ratios.std()) / np.sqrt(bootstrap_iters)
    eps_min = float(np.clip(point + z * std_err, 0.0, 1.0))
    return ASOResult(eps_min, point, confidence, num_comparisons, bootstrap_iters, seed, False)
