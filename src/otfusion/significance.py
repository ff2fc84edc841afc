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

import numbers
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InputError, ParameterError

QUANTILE_GRID = 1000


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


def _empirical_quantiles(scores: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Right-continuous order-statistic inverse CDF on grid points t in (0, 1)."""
    s = np.sort(scores)
    idx = np.ceil(t * s.size).astype(int) - 1
    return s[np.clip(idx, 0, s.size - 1)]


def _require_count(name: str, value) -> None:
    """A grid size or iteration count must be an integer >= 1: a fraction
    would build a wrong grid or fail inside numpy, and NaN fails too."""
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ParameterError(f"{name} must be >= 1 and an integer, got {value!r}")


def violation_ratio(scores_a, scores_b, grid: int = QUANTILE_GRID) -> float:
    """Share of the squared quantile gap where sample b sits above sample a.

    Evaluated on a uniform midpoint grid over the empirical inverse CDFs.
    Returns 0.5 when the squared Wasserstein denominator is zero (identical
    empirical distributions: no order determinable).
    """
    _require_count("grid", grid)
    a = np.asarray(scores_a, dtype=float).ravel()
    b = np.asarray(scores_b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise InputError("score samples must be nonempty")
    t = (np.arange(grid) + 0.5) / grid
    qa = _empirical_quantiles(a, t)
    qb = _empirical_quantiles(b, t)
    diff = qa - qb
    w2_sq = float((diff * diff).mean())
    if w2_sq == 0.0:
        return 0.5
    viol = np.maximum(-diff, 0.0)
    return float((viol * viol).mean() / w2_sq)


def aso(scores_a, scores_b, confidence: float = 0.95, bootstrap_iters: int = 1000,
        num_comparisons: int = 50, seed: int = 0, grid: int = QUANTILE_GRID) -> ASOResult:
    """Bootstrap upper confidence bound eps_min on the violation ratio.

    Each bootstrap iteration resamples both score lists with replacement
    (per-iteration derived seeds, so a parallel evaluation would reproduce
    the sequential one) and recomputes the violation ratio. eps_min is the
    point estimate plus the z-quantile of the Bonferroni-corrected
    confidence times the bootstrap standard error, clipped to [0, 1].
    Identical constant samples short-circuit to 0.5 with the degenerate
    flag set.
    """
    if not 0.0 < confidence < 1.0:
        raise ParameterError(f"confidence must be in (0, 1), got {confidence}")
    _require_count("bootstrap_iters", bootstrap_iters)
    if num_comparisons < 1:
        raise ParameterError("num_comparisons must be >= 1")
    _require_count("grid", grid)
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
    ratios = np.empty(bootstrap_iters)
    for it in range(bootstrap_iters):
        rng = np.random.default_rng((seed, it))
        ra = a[rng.integers(0, a.size, a.size)]
        rb = b[rng.integers(0, b.size, b.size)]
        ratios[it] = violation_ratio(ra, rb, grid)

    corrected = 1.0 - (1.0 - confidence) / num_comparisons
    z = NormalDist().inv_cdf(corrected)
    std_err = float(ratios.std()) / np.sqrt(bootstrap_iters)
    eps_min = float(np.clip(point + z * std_err, 0.0, 1.0))
    return ASOResult(eps_min, point, confidence, num_comparisons, bootstrap_iters, seed, False)
