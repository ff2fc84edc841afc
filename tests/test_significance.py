import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import aso_loop, violation_ratio_1d

from otfusion.errors import InputError, ParameterError
from otfusion.significance import (BOOTSTRAP_BLOCK, DRAW_CHUNK, ASOResult, _bounded_draws,
                                   _pcg64_raw, _seed_state, aso, violation_ratio)


class TestViolationRatio:
    def test_complete_dominance_is_zero(self):
        assert violation_ratio([5.0, 6.0, 7.0], [1.0, 2.0, 3.0]) == 0.0

    def test_identical_samples_give_half(self):
        assert violation_ratio([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.5

    def test_hand_case_matches_fine_grid_oracle(self):
        a, b = [2.0, 3.0], [1.0, 4.0]
        value = violation_ratio(a, b)
        # independent fine-grid integration over right-continuous quantiles
        t = (np.arange(100_000) + 0.5) / 100_000
        qa = np.quantile(a, t, method="inverted_cdf")
        qb = np.quantile(b, t, method="inverted_cdf")
        w2 = ((qa - qb) ** 2).mean()
        oracle = (np.maximum(qb - qa, 0.0) ** 2).mean() / w2
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_complement_under_swap(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(0, 1, 7), rng.normal(0.5, 1, 6)
        assert violation_ratio(a, b) + violation_ratio(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.normal(0, 1, 6), rng.normal(0.3, 1.5, 8)
            scale = rng.uniform(0.1, 5)
            shift = rng.uniform(-10, 10)
            base = violation_ratio(a, b)
            mapped = violation_ratio(scale * a + shift, scale * b + shift)
            assert mapped == pytest.approx(base, abs=1e-6)

    def test_empty_input(self):
        with pytest.raises(InputError):
            violation_ratio([], [1.0])

    @pytest.mark.parametrize("grid", [0, -3, np.nan])
    def test_grid_below_one_rejected(self, grid):
        with pytest.raises(ParameterError, match="grid must be >= 1"):
            violation_ratio([1.0, 2.0, 3.0], [0.5, 1.5, 2.5], grid=grid)

    def test_fractional_grid_rejected(self):
        # grid=2.5 would build the points [0.2, 0.6, 1.0], one of them at t = 1
        with pytest.raises(ParameterError, match="grid must be >= 1"):
            violation_ratio([1.0, 2.0, 3.0], [0.5, 1.5, 3.5], grid=2.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(InputError, match="finite"):
            violation_ratio([0.9, bad, 0.8], [0.5, 0.4, 0.3])
        with pytest.raises(InputError, match="finite"):
            violation_ratio([0.5, 0.4, 0.3], [0.9, 0.8, bad])

    def test_numpy_integer_grid_accepted(self):
        assert violation_ratio([1.0, 2.0, 3.0], [0.5, 1.5, 3.5], grid=np.int64(2)) == 0.5


class TestASO:
    def test_nonoverlapping_shift_is_dominant(self):
        rng = np.random.default_rng(2)
        b = rng.normal(0, 1, 5)
        a = b + 10.0
        result = aso(a, b, seed=0)
        assert result.eps_min < 0.05
        assert result.verdict == "stochastically dominant"

    def test_identical_constant_samples_exactly_half(self):
        result = aso([2.0] * 5, [2.0] * 5, seed=0)
        assert result.eps_min == 0.5
        assert result.degenerate
        assert result.verdict == "no order determinable"

    def test_seed_determinism(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(0, 1, 6), rng.normal(0.2, 1, 6)
        first = aso(a, b, seed=11)
        second = aso(a, b, seed=11)
        assert first.eps_min == second.eps_min

    def test_identical_multiset_samples_near_half(self):
        scores = [1.0, 2.0, 3.0, 4.0, 5.0]
        for seed in range(4):
            result = aso(scores, list(scores), seed=seed)
            assert 0.35 <= result.eps_min <= 0.65
            assert not result.degenerate

    def test_same_distribution_centered_at_no_order(self):
        # simulation oracle: across data draws from one distribution the
        # eps_min values center on 0.5 with no directional bias
        rng = np.random.default_rng(4)
        values = []
        for _ in range(40):
            a, b = rng.normal(0, 1, 5), rng.normal(0, 1, 5)
            values.append(aso(a, b, seed=0, bootstrap_iters=200).eps_min)
        mean = float(np.mean(values))
        assert 0.35 <= mean <= 0.65
        below = np.mean([v < 0.5 for v in values])
        assert 0.2 <= below <= 0.8

    def test_swap_crosses_half(self):
        rng = np.random.default_rng(5)
        b = rng.normal(0, 1, 8)
        a = b + 2.0
        forward = aso(a, b, seed=0)
        backward = aso(b, a, seed=0)
        assert forward.eps_min < 0.5 < backward.eps_min

    def test_upward_shift_never_increases_eps_min(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            a = rng.normal(0, 1, 6)
            b = rng.normal(0, 1, 6)
            values = [aso(a + shift, b, seed=7).eps_min for shift in (0.0, 0.5, 1.0, 2.0, 4.0)]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-9

    def test_eps_min_always_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), 6)
            b = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3), 6)
            result = aso(a, b, seed=1, bootstrap_iters=100)
            assert 0.0 <= result.eps_min <= 1.0

    def test_small_sample_warning(self):
        with pytest.warns(UserWarning):
            aso([1.0, 2.0], [0.0, 1.0], seed=0, bootstrap_iters=10)

    @pytest.mark.parametrize("seed", [-1, 1.5, np.nan, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            aso([1.0, 2.0, 3.0, 4.0, 5.0], [2.0] * 5, bootstrap_iters=10, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(0, 1, 6), rng.normal(0.2, 1, 6)
        assert aso(a, b, seed=np.uint64(2**63 + 1)) == aso(a, b, seed=2**63 + 1)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            aso([1.0] * 5, [2.0] * 5, confidence=1.0)
        with pytest.raises(ParameterError):
            aso([1.0] * 5, [2.0] * 5, bootstrap_iters=0)
        with pytest.raises(InputError):
            aso([], [1.0])

    @pytest.mark.parametrize("grid", [0, -3, np.nan])
    @pytest.mark.parametrize("a", [[1.0, 2.0, 3.0, 4.0, 5.0], [2.0] * 5],
                             ids=["spread", "degenerate"])
    def test_grid_below_one_rejected(self, a, grid):
        with pytest.raises(ParameterError, match="grid must be >= 1"):
            aso(a, [2.0] * 5, bootstrap_iters=10, grid=grid)

    def test_fractional_grid_rejected(self):
        with pytest.raises(ParameterError, match="grid must be >= 1"):
            aso([1.0, 2.0, 3.0, 4.0, 5.0], [2.0] * 5, bootstrap_iters=10, grid=2.5)

    def test_fractional_bootstrap_iters_rejected(self):
        with pytest.raises(ParameterError, match="bootstrap_iters must be >= 1"):
            aso([1.0, 2.0, 3.0, 4.0, 5.0], [2.0] * 5, bootstrap_iters=2.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(InputError):
            aso([0.9, bad, 0.8, 0.7, 0.6], [0.5, 0.4, 0.3, 0.2, 0.1])
        with pytest.raises(InputError):
            aso([0.5, 0.4, 0.3, 0.2, 0.1], [0.9, 0.8, 0.7, 0.6, bad])

    @pytest.mark.parametrize("bad", [np.nan, 2.5, 0])
    def test_bad_num_comparisons_rejected(self, bad):
        with pytest.raises(ParameterError, match="num_comparisons must be >= 1"):
            aso([1.0, 2.0, 3.0, 4.0, 5.0], [2.0] * 5, bootstrap_iters=10, num_comparisons=bad)

    def test_verdict_strings(self):
        assert ASOResult(0.0, 0.0).verdict == "stochastically dominant"
        assert ASOResult(0.2, 0.2).verdict == "almost stochastically dominant"
        assert ASOResult(0.6, 0.6).verdict == "no order determinable"


scores = st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=60)


def assert_aso_matches_loop(a, b, **kwargs):
    """The blocked bootstrap gives eps_min and the point ratio of the
    one-iteration-at-a-time loop, to the last bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = aso(a, b, **kwargs)
    assert (result.eps_min, result.violation_ratio) == aso_loop(a, b, **kwargs)


class TestBlockedBootstrapMatchesLoop:
    @settings(max_examples=60, deadline=None)
    @given(a=scores, b=scores, grid=st.integers(1, 1500), iters=st.integers(1, 3 * BOOTSTRAP_BLOCK),
           seed=st.integers(0, 2**128), decimals=st.sampled_from([None, 0, 1]))
    def test_random_samples(self, a, b, grid, iters, seed, decimals):
        if decimals is not None:  # rounded scores tie
            a, b = np.round(a, decimals), np.round(b, decimals)
        assert violation_ratio(a, b, grid) == violation_ratio_1d(a, b, grid)
        assert_aso_matches_loop(a, b, bootstrap_iters=iters, seed=seed, grid=grid)

    @pytest.mark.parametrize("iters", [1, BOOTSTRAP_BLOCK - 1, BOOTSTRAP_BLOCK,
                                       BOOTSTRAP_BLOCK + 1, 2 * BOOTSTRAP_BLOCK + 7])
    def test_iteration_counts_around_the_block(self, iters):
        rng = np.random.default_rng(iters)
        assert_aso_matches_loop(rng.normal(0, 1, 40), rng.normal(0.2, 1, 37),
                                bootstrap_iters=iters, seed=3)

    @pytest.mark.parametrize("iters", [DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1,
                                       2 * DRAW_CHUNK + 5])
    def test_iteration_counts_around_the_draw_chunk(self, iters):
        rng = np.random.default_rng(iters)
        assert_aso_matches_loop(rng.normal(0, 1, 9), rng.normal(0.2, 1, 1),
                                bootstrap_iters=iters, seed=2**70 + iters, grid=50)

    def test_identical_samples(self):
        # about 3 in 8 resample pairs of [1, 2] coincide, so w2 == 0 in those
        # rows and their ratio is the 0.5 convention
        assert_aso_matches_loop([1.0, 2.0], [1.0, 2.0], bootstrap_iters=100, seed=0, grid=7)
        assert_aso_matches_loop([0.8, 0.8, 0.9], [0.9, 0.8, 0.8], bootstrap_iters=50, seed=4)

    def test_default_settings(self):
        rng = np.random.default_rng(8)
        assert_aso_matches_loop(np.round(rng.normal(0.8, 0.03, 40), 3),
                                np.round(rng.normal(0.78, 0.03, 40), 3), seed=8)


class TestVectorisedGenerator:
    """The draw kernel against numpy's own ``SeedSequence``, ``PCG64`` and
    ``Generator.integers``."""

    ITS = np.array([0, 1, 2, 63, 2**31, 2**32 - 1], dtype=np.uint64)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 7, 2**100 + 5,
                                      2**128 + 1])
    def test_seed_words_and_raw_outputs_match_numpy(self, seed):
        state = _seed_state(seed, self.ITS)
        for row, it in enumerate(self.ITS):
            words = np.random.SeedSequence((seed, int(it))).generate_state(4, np.uint64)
            assert [int(w[row]) for w in state] == words.tolist()
        expected = [np.random.PCG64((seed, int(it))).random_raw(9) for it in self.ITS]
        np.testing.assert_array_equal(_pcg64_raw(state, 9), expected)

    def test_rejected_rows_are_drawn_again_by_numpy(self, monkeypatch):
        # Lemire's method rejects a 32-bit word below 2**32 % bound, which at
        # bound 2**31 + 1 is about half of them; the odd counts carry a half
        # output into the next draw, and a bound of 1 consumes nothing
        draws = ((2**31 + 1, 3), (1, 2), (7, 5), (2**31 + 1, 1), (2**32, 2))
        its = np.arange(200, dtype=np.uint64)
        fallback = []
        numpy_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: fallback.append(s) or numpy_rng(s))
        got = _bounded_draws(5, its, draws)
        assert 0 < len(fallback) < its.size
        for row, it in enumerate(its):
            rng = numpy_rng((5, int(it)))
            for values, (bound, count) in zip(got, draws):
                np.testing.assert_array_equal(values[row], rng.integers(0, bound, count))


def test_aso_memory_does_not_grow_with_iterations():
    """The bootstrap is resampled one block at a time, so its peak
    allocation at 5000 iterations stays near that at 200; a (5000, grid)
    matrix would take 40 MB per temporary."""
    rng = np.random.default_rng(9)
    a, b = rng.normal(0, 1, 40), rng.normal(0.1, 1, 40)

    def peak_bytes(iters):
        tracemalloc.start()
        try:
            aso(a, b, bootstrap_iters=iters, grid=1000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(5000) <= 2 * peak_bytes(200)
