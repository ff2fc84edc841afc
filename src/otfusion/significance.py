"""Almost Stochastic Order comparison of two score samples.

The violation ratio measures how much of the squared Wasserstein distance
between the empirical score distributions comes from the region where the
first sample's quantiles fall below the second's; 0 means the first sample
dominates everywhere, 1 means it is dominated everywhere, and 0.5 (also
the convention for identical samples) means no order. ``aso`` turns the
ratio into a score eps_min by adding a one-sided normal upper bound on the
bootstrap estimate's uncertainty, Bonferroni-adjusted for the number of
comparisons, so dominance claims (eps_min < 0.5) stay conservative.

Bootstrap iteration ``it`` resamples with the streams of
``np.random.default_rng((seed, it))``. They are computed in numpy for
``DRAW_CHUNK`` iterations at once: the ``SeedSequence`` words, the PCG64
outputs and the Lemire bounded draws, each bit for bit numpy's. The rare
iteration with a rejected draw is redrawn by numpy's own generator.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InputError, ParameterError, require_count, require_seed

QUANTILE_GRID = 1000
BOOTSTRAP_BLOCK = 64  # bootstrap iterations resampled and sorted together
DRAW_CHUNK = 512  # bootstrap iterations whose random draws are generated together
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341  # PCG64's 128-bit LCG multiplier


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


def _score_samples(scores_a, scores_b) -> tuple[np.ndarray, np.ndarray]:
    """Both score lists as flat float arrays, each nonempty and finite."""
    a = np.asarray(scores_a, dtype=float).ravel()
    b = np.asarray(scores_b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise InputError("score samples must be nonempty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InputError("scores must be finite")
    return a, b


def _hasher(const: int, mult: int):
    """numpy ``SeedSequence``'s hashmix with its running multiplier, on
    uint32 values held in Python ints or uint64 arrays."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _seed_state(seed: int, its: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence((seed, it)).generate_state(4, np.uint64)`` for each
    ``it < 2**32`` in ``its`` (uint64): four arrays, word by word.

    The entropy is the seed's 32-bit words, low first (one word for 0),
    then ``it``'s one word. Words that do not depend on ``it`` stay
    Python ints; numpy mixes words past the 4-word pool in afterwards.
    """
    seed = int(seed)
    entropy = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)] + [its]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(entropy[4:], range(4)):
        pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [hashmix(pool[i % 4]) for i in range(8)]
    return [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]


def _mul128(x_hi, x_lo, consts: list[int]):
    """``x * c mod 2**128`` as (hi, lo) uint64 arrays, for (rows, 1)
    arrays ``x`` against each Python int ``c``, giving (rows, len(consts)).
    The low product's high word is built from 32-bit halves; the cross
    terms only reach the high word, so they wrap mod 2**64."""
    c_hi = np.array([c >> 64 for c in consts], np.uint64)
    c_lo = np.array([c & _M64 for c in consts], np.uint64)
    x0, x1, c0, c1 = x_lo & _M32, x_lo >> 32, c_lo & _M32, c_lo >> 32
    p10, p01 = x1 * c0, x0 * c1
    mid = (x0 * c0 >> 32) + (p10 & _M32) + (p01 & _M32)
    hi = x1 * c1 + (p10 >> 32) + (p01 >> 32) + (mid >> 32) + x_lo * c_hi + x_hi * c_lo
    return hi, x_lo * c_lo


def _pcg64_raw(state: list[np.ndarray], k: int) -> np.ndarray:
    """The first ``k`` outputs of ``PCG64.random_raw`` for each row's
    seeding words, as a (rows, k) uint64 array.

    numpy seeds with ``inc = (seq << 1) | 1``, one LCG step from 0, the
    seed state added, and one more step. So with ``t = state + inc`` the
    state behind output ``j`` is ``M**(j+1) t + sum(M**i, i <= j) inc``;
    the jump constants make every output one array expression. Each
    output is the XSL-RR of its state.
    """
    s_hi, s_lo, i_hi, i_lo = (w[:, None] for w in state)
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    t_lo = s_lo + inc_lo
    t_hi = s_hi + inc_hi + (t_lo < s_lo)
    power, total, powers, totals = _PCG_MULT, 1, [], []
    for _ in range(k):
        power, total = power * _PCG_MULT & _M128, (total + power) & _M128
        powers.append(power)
        totals.append(total)
    h1, l1 = _mul128(t_hi, t_lo, powers)
    h2, l2 = _mul128(inc_hi, inc_lo, totals)
    lo = l1 + l2
    hi = h1 + h2 + (lo < l1)
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (-rot & 63)


def _bounded_draws(seed: int, its: np.ndarray, draws) -> list[np.ndarray]:
    """Per ``(bound, count)`` in ``draws``, a (rows, count) int64 array
    whose row for ``it`` is what ``rng = np.random.default_rng((seed, it))``
    returns for ``rng.integers(0, bound, count)``, the draws in order on
    one ``rng``; each bound at most 2**32.

    numpy draws such a bound by Lemire's method on ``next_uint32``: the low
    half, then the high half of each 64-bit output, a half left over
    carrying into the next draw, and a bound of 1 consuming nothing. A row
    where any draw would be rejected (chance below ``bound / 2**32`` per
    draw) is drawn again by numpy's own generator.
    """
    used = [count if bound > 1 else 0 for bound, count in draws]
    raw = _pcg64_raw(_seed_state(seed, its), (sum(used) + 1) // 2)
    words = np.stack([raw & _M32, raw >> 32], axis=-1).reshape(its.size, -1)
    out, rejected, at = [], np.zeros(its.size, bool), 0
    for (bound, count), n in zip(draws, used):
        m = words[:, at:at + n] * np.uint64(bound) if n else np.zeros((its.size, count), np.uint64)
        rejected |= ((m & _M32) < 2**32 % bound).any(axis=1)
        out.append((m >> 32).astype(np.int64))
        at += n
    for row in np.flatnonzero(rejected):
        rng = np.random.default_rng((seed, int(its[row])))
        for values, (bound, count) in zip(out, draws):
            values[row] = rng.integers(0, bound, count)
    return out


def violation_ratio(scores_a, scores_b, grid: int = QUANTILE_GRID) -> float:
    """Share of the squared quantile gap where sample b sits above sample a.

    Evaluated on a uniform midpoint grid over the empirical inverse CDFs.
    Returns 0.5 when the squared Wasserstein denominator is zero (identical
    empirical distributions: no order determinable). An empty or non-finite
    sample raises ``InputError``, as in ``aso``.
    """
    require_count("grid", grid)
    a, b = _score_samples(scores_a, scores_b)
    return float(_ratios(np.sort(a)[None], np.sort(b)[None],
                         _grid_positions(a.size, grid), _grid_positions(b.size, grid))[0])


def aso(scores_a, scores_b, confidence: float = 0.95, bootstrap_iters: int = 1000,
        num_comparisons: int = 50, seed: int = 0, grid: int = QUANTILE_GRID) -> ASOResult:
    """Bootstrap upper confidence bound eps_min on the violation ratio.

    Bootstrap iteration ``it`` resamples both score lists with replacement
    by ``rng.integers(0, a.size, a.size)`` then ``rng.integers(0, b.size,
    b.size)`` on ``rng = np.random.default_rng((seed, it))`` (per-iteration
    derived seeds, so a parallel evaluation would reproduce the sequential
    one) and recomputes the violation ratio. ``_bounded_draws`` computes
    those draws for ``DRAW_CHUNK`` iterations at once and falls back to the
    generator itself only for an iteration where a draw is rejected
    (chance below n / 2**32 per draw). Ratios are evaluated
    ``BOOTSTRAP_BLOCK`` iterations at a time; the result is the same as
    one iteration at a time. ``seed`` must be an integer >= 0.
    eps_min is the point estimate plus the z-quantile of the
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
    require_seed("seed", seed)
    a, b = _score_samples(scores_a, scores_b)
    if min(a.size, b.size) < 5:
        warnings.warn("fewer than 5 scores per sample; eps_min will be unstable", stacklevel=2)

    if np.ptp(a) == 0.0 and np.ptp(b) == 0.0 and a[0] == b[0]:
        return ASOResult(0.5, 0.5, confidence, num_comparisons, bootstrap_iters, seed, True)

    point = violation_ratio(a, b, grid)
    pos_a, pos_b = _grid_positions(a.size, grid), _grid_positions(b.size, grid)
    ratios = np.empty(bootstrap_iters)
    for start in range(0, bootstrap_iters, DRAW_CHUNK):
        its = np.arange(start, min(start + DRAW_CHUNK, bootstrap_iters), dtype=np.uint64)
        idx_a, idx_b = _bounded_draws(seed, its, ((a.size, a.size), (b.size, b.size)))
        out = ratios[start:start + its.size]
        for lo in range(0, its.size, BOOTSTRAP_BLOCK):
            rows = slice(lo, lo + BOOTSTRAP_BLOCK)
            out[rows] = _ratios(np.sort(a[idx_a[rows]], axis=1), np.sort(b[idx_b[rows]], axis=1),
                                pos_a, pos_b)

    corrected = 1.0 - (1.0 - confidence) / num_comparisons
    z = NormalDist().inv_cdf(corrected)
    std_err = float(ratios.std()) / np.sqrt(bootstrap_iters)
    eps_min = float(np.clip(point + z * std_err, 0.0, 1.0))
    return ASOResult(eps_min, point, confidence, num_comparisons, bootstrap_iters, seed, False)
