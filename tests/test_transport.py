import math
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (emd_cost_bruteforce, emd_cost_lp, emd_cost_permutations,
                     emd_cost_uniform_split, otk_embed_unrolled, sinkhorn_log_domain,
                     sinkhorn_scaling_loop)

from otfusion import diffcore as dc
from otfusion import transport as tr
from otfusion.diffcore import Parameter, grad_check
from otfusion.errors import DimensionError, InputError, NumericalError, ParameterError


def uniform(n):
    return np.full(n, 1.0 / n)


def random_marginal(rng, n):
    w = rng.uniform(0.1, 1, n)
    return w / w.sum()


# (which input, bad value): NaN marginals pass every comparison, so only a
# finiteness check catches them; non-finite costs would reach scipy.
NON_FINITE = [("a", np.nan), ("b", np.nan), ("cost", np.nan), ("cost", np.inf),
              ("cost", -np.inf)]


def with_non_finite(a, b, cost, which, value):
    inputs = {"a": np.array(a, dtype=float), "b": np.array(b, dtype=float),
              "cost": np.array(cost, dtype=float)}
    inputs[which].flat[0] = value
    return inputs["a"], inputs["b"], inputs["cost"]


class TestCostMatrix:
    def test_self_cost_zero_diagonal(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
        cost = tr.cost_matrix(pts, pts)
        npt.assert_array_equal(np.diag(cost), np.zeros(3))
        off = cost[~np.eye(3, dtype=bool)]
        assert np.all(off > 0)

    def test_one_dimensional_hand_case(self):
        cost = tr.cost_matrix(np.array([[0.0]]), np.array([[3.0]]))
        npt.assert_allclose(cost, [[9.0]])

    def test_random_against_double_loop(self):
        rng = np.random.default_rng(0)
        src, tgt = rng.uniform(-2, 2, (5, 3)), rng.uniform(-2, 2, (4, 3))
        cost = tr.cost_matrix(src, tgt)
        expected = np.array([[np.sum((s - t) ** 2) for t in tgt] for s in src])
        npt.assert_allclose(cost, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            tr.cost_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_stack_equals_per_pair_costs(self):
        rng = np.random.default_rng(1)
        src, tgt = rng.standard_normal((4, 12, 32)), rng.standard_normal((4, 9, 32))
        per_pair = np.stack([tr.cost_matrix(s, t) for s, t in zip(src, tgt)])
        npt.assert_array_equal(tr.cost_matrix(src, tgt), per_pair)

    @pytest.mark.parametrize("batch", [0, 1, 4, 60])
    def test_shared_target_equals_broadcast_and_per_sample_costs(self, batch):
        rng = np.random.default_rng(2)
        src, tgt = rng.standard_normal((batch, 96, 32)), rng.standard_normal((12, 32))
        shared = tr.cost_matrix(src, tgt)
        assert shared.shape == (batch, 96, 12)
        broadcast = tr.cost_matrix(src, np.broadcast_to(tgt, (batch, 12, 32)))
        per_sample = np.stack([tr.cost_matrix(s, tgt) for s in src]) if batch else broadcast
        assert shared.tobytes() == broadcast.tobytes() == per_sample.tobytes()

    @pytest.mark.parametrize("src_shape,tgt_shape", [
        ((3, 6, 4), (2, 6, 4)), ((3, 6, 4), (6, 5)), ((6, 4), (3, 6, 4)),
        ((2, 3, 6, 4), (2, 3, 6, 4)), ((4,), (4,)), ((3, 6, 4), (4,)), ((3, 6, 4), (3, 6, 5)),
    ])
    def test_stack_shape_mismatch(self, src_shape, tgt_shape):
        with pytest.raises(DimensionError):
            tr.cost_matrix(np.zeros(src_shape), np.zeros(tgt_shape))


class TestEmdExact:
    def test_identity_transport_diagonal_plan(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, (4, 3))
        coupling = tr.emd_exact(uniform(4), uniform(4), tr.cost_matrix(pts, pts))
        npt.assert_allclose(coupling.plan, np.eye(4) / 4, atol=1e-12)
        assert coupling.cost == pytest.approx(0.0, abs=1e-12)

    def test_single_mass_pair(self):
        coupling = tr.emd_exact([1.0], [1.0], np.array([[9.0]]))
        npt.assert_array_equal(coupling.plan, [[1.0]])
        assert coupling.cost == pytest.approx(9.0)

    def test_three_by_three_uniform_matches_permutations(self):
        rng = np.random.default_rng(2)
        cost = rng.uniform(0, 4, (3, 3))
        coupling = tr.emd_exact(uniform(3), uniform(3), cost)
        assert coupling.cost == pytest.approx(emd_cost_permutations(cost), abs=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_general_marginals_match_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 5, size=2)
        a = rng.uniform(0.1, 1, n)
        a /= a.sum()
        b = rng.uniform(0.1, 1, m)
        b /= b.sum()
        cost = rng.uniform(0, 3, (n, m))
        coupling = tr.emd_exact(a, b, cost)
        assert coupling.cost == pytest.approx(emd_cost_bruteforce(a, b, cost), abs=1e-9)
        assert coupling.marginal_violation < 1e-9

    def test_marginal_violation_tiny(self):
        rng = np.random.default_rng(3)
        for n, m in [(8, 8), (6, 10), (16, 16)]:
            a = rng.uniform(0.1, 1, n)
            a /= a.sum()
            b = rng.uniform(0.1, 1, m)
            b /= b.sum()
            coupling = tr.emd_exact(a, b, rng.uniform(0, 3, (n, m)))
            assert coupling.marginal_violation < 1e-9

    def test_near_uniform_marginals_are_met_exactly(self):
        # 1e-7 off uniform is not uniform: the plan must still meet a
        a = np.array([0.5 + 1e-7, 0.5 - 1e-7])
        coupling = tr.emd_exact(a, uniform(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert coupling.marginal_violation < 1e-12

    def test_bad_marginal_sum(self):
        with pytest.raises(InputError):
            tr.emd_exact([0.6, 0.6], [0.5, 0.5], np.zeros((2, 2)))

    def test_degenerate_sizes(self):
        with pytest.raises(ParameterError):
            tr.emd_exact(np.array([]), np.array([]), np.zeros((0, 0)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            tr.emd_exact([0.5, 0.5], [1.0], np.zeros((2, 2)))

    def test_few_hundred_points_match_uniform_split(self):
        rng = np.random.default_rng(21)
        n, m = 240, 160
        cost = tr.cost_matrix(rng.uniform(0, 1, (n, 2)), rng.uniform(0, 1, (m, 2)))
        coupling = tr.emd_exact(uniform(n), uniform(m), cost)
        assert coupling.cost == pytest.approx(emd_cost_uniform_split(cost), abs=1e-9)
        assert coupling.marginal_violation < 1e-9

    @pytest.mark.parametrize("n,m", [(5, 1), (1, 4)])
    def test_single_row_or_column_lp(self, n, m):
        # One side has a single point, so the plan is forced: the other
        # side's masses. With m = 1 the LP has no column-sum rows at all.
        rng = np.random.default_rng(22)
        a, b = random_marginal(rng, n), random_marginal(rng, m)
        cost = rng.uniform(0, 3, (n, m))
        coupling = tr.emd_exact(a, b, cost)
        expected = np.outer(a, b)
        npt.assert_allclose(coupling.plan, expected, rtol=0, atol=1e-12)
        assert coupling.cost == pytest.approx(float((expected * cost).sum()), abs=1e-12)
        assert coupling.marginal_violation < 1e-12

    def test_lp_memory_peak_is_small(self):
        # A dense (n+m-1) x nm constraint matrix alone would be 240 MB here.
        rng = np.random.default_rng(23)
        n, m = 300, 200
        cost = tr.cost_matrix(rng.uniform(0, 1, (n, 2)), rng.uniform(0, 1, (m, 2)))
        tracemalloc.start()
        try:
            tr.emd_exact(uniform(n), uniform(m), cost)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_lp_memory_peak_is_small_on_non_uniform_masses(self):
        # Non-uniform masses always take the LP, whatever the sizes.
        rng = np.random.default_rng(23)
        n, m = 300, 200
        cost = tr.cost_matrix(rng.uniform(0, 1, (n, 2)), rng.uniform(0, 1, (m, 2)))
        a, b = random_marginal(rng, n), random_marginal(rng, m)
        tracemalloc.start()
        try:
            tr.emd_exact(a, b, cost)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.parametrize("n,m", [(3, 4), (3, 3)], ids=["lp", "assignment"])
    @pytest.mark.parametrize("which,value", NON_FINITE)
    def test_non_finite_input_rejected(self, n, m, which, value):
        rng = np.random.default_rng(24)
        a, b, cost = with_non_finite(uniform(n), uniform(m), rng.uniform(0, 1, (n, m)),
                                     which, value)
        with pytest.raises(InputError, match="finite"):
            tr.emd_exact(a, b, cost)


def count_lp_calls(monkeypatch):
    """Make ``transport.linprog`` count its calls; returns the count list."""
    calls, linprog = [], tr.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(tr, "linprog", counting)
    return calls


class TestEmdUniformSplit:
    """Uniform masses with lcm(n, m) <= 2 max(n, m) take one split assignment;
    every other input takes the LP."""

    @pytest.mark.parametrize("n,m", [(300, 200), (200, 300), (240, 160), (96, 12), (12, 96),
                                     (7, 7)])
    def test_cost_matches_lp_oracle(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        cost = tr.cost_matrix(rng.uniform(0, 1, (n, 2)), rng.uniform(0, 1, (m, 2)))
        coupling = tr.emd_exact(uniform(n), uniform(m), cost)
        assert coupling.cost == pytest.approx(emd_cost_lp(uniform(n), uniform(m), cost),
                                              rel=1e-9)
        assert coupling.marginal_violation < 1e-12

    @pytest.mark.parametrize("n,m", [(300, 200), (6, 4), (96, 12), (1, 1), (5, 5), (12, 12)])
    def test_small_lcm_skips_the_lp(self, monkeypatch, n, m):
        rng = np.random.default_rng(n + m)
        cost = rng.uniform(0, 3, (n, m))

        def refuse(*args, **kwargs):
            raise AssertionError("emd_exact reached the LP")

        monkeypatch.setattr(tr, "linprog", refuse)
        coupling = tr.emd_exact(uniform(n), uniform(m), cost)
        assert coupling.cost == pytest.approx(emd_cost_uniform_split(cost), abs=1e-9)
        assert coupling.marginal_violation < 1e-12

    def test_large_lcm_takes_the_lp(self, monkeypatch):
        # lcm(7, 5) = 35 > 14: splitting would need a 35 x 35 assignment.
        rng = np.random.default_rng(31)
        cost = rng.uniform(0, 3, (7, 5))
        calls = count_lp_calls(monkeypatch)
        coupling = tr.emd_exact(uniform(7), uniform(5), cost)
        assert calls == [1]
        assert coupling.cost == pytest.approx(emd_cost_lp(uniform(7), uniform(5), cost),
                                              abs=1e-9)
        assert coupling.cost == pytest.approx(emd_cost_uniform_split(cost), abs=1e-9)

    # Uniform (3, 4) and (4, 3) have lcm 12 > 8; any non-uniform pair takes
    # the LP. All are small enough for the spanning-tree enumeration.
    @pytest.mark.parametrize("masses,n,m", [("uniform", 3, 4), ("uniform", 4, 3),
                                            ("random", 3, 3), ("random", 2, 4),
                                            ("random", 4, 2)])
    def test_lp_path_matches_bruteforce(self, monkeypatch, masses, n, m):
        rng = np.random.default_rng(n * 10 + m)
        if masses == "uniform":
            a, b = uniform(n), uniform(m)
        else:
            a, b = random_marginal(rng, n), random_marginal(rng, m)
        cost = rng.uniform(0, 3, (n, m))
        calls = count_lp_calls(monkeypatch)
        coupling = tr.emd_exact(a, b, cost)
        assert calls == [1]
        assert coupling.cost == pytest.approx(emd_cost_bruteforce(a, b, cost), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           integer_costs=st.booleans())
    def test_split_cost_matches_bruteforce(self, n, m, seed, integer_costs):
        assume(math.lcm(n, m) <= 2 * max(n, m))
        rng = np.random.default_rng(seed)
        # Integer costs make many optimal plans tie.
        cost = rng.integers(0, 4, (n, m)) if integer_costs else rng.uniform(0, 3, (n, m))
        coupling = tr.emd_exact(uniform(n), uniform(m), cost)
        assert coupling.cost == pytest.approx(emd_cost_bruteforce(uniform(n), uniform(m), cost),
                                              abs=1e-9)
        assert coupling.marginal_violation < 1e-12


class TestSinkhorn:
    def test_symmetric_two_by_two(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        coupling = tr.sinkhorn(uniform(2), uniform(2), cost, eps=1.0)
        assert coupling.converged
        npt.assert_allclose(coupling.plan, coupling.plan.T, atol=1e-9)
        npt.assert_allclose(coupling.plan.sum(axis=0), uniform(2), atol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_cost_dominates_exact_optimum(self, seed):
        rng = np.random.default_rng(seed)
        n, m = rng.integers(2, 7, size=2)
        a = rng.uniform(0.1, 1, n)
        a /= a.sum()
        b = rng.uniform(0.1, 1, m)
        b /= b.sum()
        cost = rng.uniform(0, 1, (n, m))
        exact = tr.emd_exact(a, b, cost)
        entropic = tr.sinkhorn(a, b, cost, eps=0.05)
        assert entropic.cost >= exact.cost - 1e-9

    def test_small_eps_approaches_exact(self):
        # small eps converges slowly in the marginals but the cost is what
        # matters here: within 1% of the exact optimum on unit-scale costs
        rng = np.random.default_rng(11)
        pts_a, pts_b = rng.uniform(0, 1, (5, 2)), rng.uniform(0, 1, (5, 2))
        cost = tr.cost_matrix(pts_a, pts_b)
        cost /= cost.max()
        exact = tr.emd_exact(uniform(5), uniform(5), cost)
        entropic = tr.sinkhorn(uniform(5), uniform(5), cost, eps=1e-3,
                               max_iters=20000, tol=1e-4)
        assert entropic.converged
        assert exact.cost - 1e-9 <= entropic.cost <= exact.cost * 1.01 + 1e-12

    def test_marginals_within_tolerance(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(0.1, 1, 6)
        a /= a.sum()
        b = rng.uniform(0.1, 1, 4)
        b /= b.sum()
        coupling = tr.sinkhorn(a, b, rng.uniform(0, 2, (6, 4)), eps=0.1)
        assert coupling.converged
        assert coupling.marginal_violation < 1e-6

    def test_rounded_plan_has_exact_marginals(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(0.1, 1, 5)
        a /= a.sum()
        b = rng.uniform(0.1, 1, 7)
        b /= b.sum()
        coupling = tr.sinkhorn(a, b, rng.uniform(0, 2, (5, 7)), eps=0.2)
        assert np.abs(coupling.plan.sum(axis=1) - a).max() < 1e-12
        assert np.abs(coupling.plan.sum(axis=0) - b).max() < 1e-12

    def test_nonconvergence_is_flagged(self):
        rng = np.random.default_rng(14)
        coupling = tr.sinkhorn(uniform(4), uniform(4), rng.uniform(0, 2, (4, 4)),
                               eps=1e-4, max_iters=2, tol=1e-12)
        assert not coupling.converged

    @pytest.mark.parametrize("max_iters", [0, -3, 2.5, np.nan])
    def test_max_iters_below_one_rejected(self, max_iters):
        with pytest.raises(ParameterError, match="max_iters must be >= 1 and an integer"):
            tr.sinkhorn(uniform(2), uniform(2), np.ones((2, 2)), eps=0.1, max_iters=max_iters)

    def test_bad_eps(self):
        with pytest.raises(ParameterError):
            tr.sinkhorn(uniform(2), uniform(2), np.zeros((2, 2)), eps=0.0)

    @pytest.mark.parametrize("eps", [-1e-3, np.nan])
    def test_non_positive_eps_rejected_before_iterating(self, eps):
        with pytest.raises(ParameterError, match="eps must be positive"):
            tr.sinkhorn(uniform(4), uniform(4), np.ones((4, 4)), eps=eps, max_iters=5000)

    @pytest.mark.parametrize("which,value", NON_FINITE)
    def test_non_finite_input_rejected(self, which, value):
        rng = np.random.default_rng(25)
        a, b, cost = with_non_finite(uniform(3), uniform(2), rng.uniform(0, 1, (3, 2)),
                                     which, value)
        with pytest.raises(InputError, match="finite"):
            tr.sinkhorn(a, b, cost, eps=0.1)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
    def test_non_positive_tol_rejected_before_iterating(self, tol):
        with pytest.raises(ParameterError, match="tol must be positive"):
            tr.sinkhorn(uniform(3), uniform(2), np.ones((3, 2)), eps=0.1, tol=tol)

    def test_row_whose_kernel_underflows_everywhere_converges(self):
        rng = np.random.default_rng(31)
        src = np.vstack([rng.uniform(0, 1, (4, 2)), [[100.0, 100.0]]])
        cost = tr.cost_matrix(src, rng.uniform(0, 1, (3, 2)))
        eps = 1e-3
        assert np.exp(-cost[-1] / eps).max() == 0.0
        coupling = tr.sinkhorn(uniform(5), uniform(3), cost, eps=eps)
        assert coupling.converged
        assert np.isfinite(coupling.plan).all()
        npt.assert_allclose(coupling.plan.sum(axis=1), uniform(5), rtol=0, atol=1e-12)

    def test_tiny_eps_on_large_cloud_is_finite_and_flagged(self):
        rng = np.random.default_rng(32)
        cost = tr.cost_matrix(rng.uniform(0, 1, (300, 2)), rng.uniform(0, 1, (200, 2)))
        coupling = tr.sinkhorn(uniform(300), uniform(200), cost, eps=1e-4, max_iters=50)
        assert not coupling.converged
        assert np.isfinite(coupling.plan).all() and np.isfinite(coupling.cost)
        npt.assert_allclose(coupling.plan.sum(axis=1), uniform(300), rtol=0, atol=1e-12)
        npt.assert_allclose(coupling.plan.sum(axis=0), uniform(200), rtol=0, atol=1e-12)

    def test_overflowing_cost_over_eps_raises_before_iterating(self):
        rng = np.random.default_rng(34)
        cost = tr.cost_matrix(rng.uniform(0, 1, (5, 2)), rng.uniform(0, 1, (4, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="eps=1e-310"):
                tr.sinkhorn(uniform(5), uniform(4), cost, eps=1e-310)

    @pytest.mark.parametrize("eps", [1.0, 0.05, 1e-3])
    def test_zero_mass_rows_and_columns_stay_zero(self, eps):
        rng = np.random.default_rng(33)
        a = random_marginal(rng, 6)
        b = random_marginal(rng, 5)
        a[[1, 4]] = 0.0
        b[[0, 3]] = 0.0
        a /= a.sum()
        b /= b.sum()
        coupling = tr.sinkhorn(a, b, rng.uniform(0, 2, (6, 5)), eps=eps)
        assert coupling.converged
        assert np.isfinite(coupling.plan).all()
        assert (coupling.plan[[1, 4], :] == 0.0).all()
        assert (coupling.plan[:, [0, 3]] == 0.0).all()


def random_instance(seed, zero_mass):
    """Random marginals and unit-scale costs of size 3..7 a side; with
    ``zero_mass``, one or two entries of each marginal are zero and at
    least two are positive."""
    rng = np.random.default_rng(seed)
    n, m = rng.integers(3, 8, size=2)
    a, b = random_marginal(rng, n), random_marginal(rng, m)
    if zero_mass:
        a[rng.choice(n, size=min(2, n - 2), replace=False)] = 0.0
        b[rng.choice(m, size=min(2, m - 2), replace=False)] = 0.0
        a /= a.sum()
        b /= b.sum()
    return a, b, rng.uniform(0, 2, (n, m))


def bench_clouds(seed, n=300, m=200):
    """Squared distances between uniform points in the unit square, as the
    ``sinkhorn`` benchmark draws them."""
    rng = np.random.default_rng(seed)
    return tr.cost_matrix(rng.uniform(0, 1, (n, 2)), rng.uniform(0, 1, (m, 2)))


def scaling_loop_cases():
    """(id, a, b, cost, eps, keyword arguments) for the bit-identity oracle."""
    rng = np.random.default_rng(2500)
    a, b = random_marginal(rng, 300), random_marginal(rng, 200)
    za, zb = a.copy(), b.copy()
    za[[0, 41, 299]] = 0.0
    zb[[7, 150]] = 0.0
    za /= za.sum()
    zb /= zb.sum()
    cost = bench_clouds(2500)
    u300, u200 = uniform(300), uniform(200)
    cases = [(f"bench{seed}", u300, u200, bench_clouds(seed), 0.01, {})
             for seed in (2501, 2502, 2503)]
    cases += [
        ("eps1e-3", u300, u200, cost, 1e-3, {}),
        ("absorbing_eps1e-4", u300, u200, cost, 1e-4, dict(max_iters=50)),
        ("absorbing_eps1e-4_rows_and_columns", u300, u200, cost, 1e-4, dict(max_iters=300)),
        ("zero_mass_rows_and_columns", za, zb, cost, 0.01, {}),
        ("zero_mass_absorbing", za, zb, cost, 1e-4, dict(max_iters=300)),
        ("non_uniform", a, b, cost, 0.003, dict(tol=1e-9)),
        ("max_iters_1", u300, u200, cost, 0.01, dict(max_iters=1)),
        ("max_iters_7", u300, u200, cost, 0.01, dict(max_iters=7)),
        ("tol_1e-20", uniform(30), uniform(20), bench_clouds(2504, 30, 20), 0.05,
         dict(tol=1e-20, max_iters=400)),
        ("1x1", np.ones(1), np.ones(1), np.array([[0.7]]), 0.1, {}),
        ("1x3", np.ones(1), uniform(3), np.array([[0.2, 1.0, 3.0]]), 0.01, {}),
        ("fortran_cost", u300, u200, np.asfortranarray(cost), 0.01, {}),
        ("fortran_cost_absorbing", a, b, np.asfortranarray(cost), 1e-4, dict(max_iters=300)),
        # converges so far that the projection adds no correction, and the
        # cost is summed over a Fortran-ordered plan
        ("fortran_cost_uncorrected", uniform(5), uniform(10),
         np.asfortranarray(bench_clouds(2509, 5, 10)), 0.05, dict(tol=1e-20, max_iters=400)),
        ("strided_cost", uniform(150), uniform(100), cost[::2, ::2], 0.01, {}),
        ("integer_cost", uniform(4), uniform(3), np.arange(12).reshape(4, 3) % 5, 0.5, {}),
    ]
    # small instances that absorb several times on the way to converging
    cases += [(f"small{seed}_{'zero_mass' if zero_mass else 'positive'}",
               *random_instance(seed, zero_mass), 1e-3, {})
              for seed in (1900, 1901) for zero_mass in (False, True)]
    return cases


class TestSinkhornMatchesScalingLoop:
    """The buffer-reusing kernel against the plain scaling loop it replaced
    (``oracles.sinkhorn_scaling_loop``): the same plan bytes, cost, flag and
    violation, inputs left as they were and a C-ordered plan."""

    @pytest.mark.parametrize("case", scaling_loop_cases(), ids=lambda case: case[0])
    def test_bit_identical(self, case):
        _, a, b, cost, eps, kw = case
        inputs = [np.array(x, copy=True, order="K") for x in (a, b, cost)]
        got = tr.sinkhorn(a, b, cost, eps, **kw)
        want = sinkhorn_scaling_loop(a, b, cost, eps, **kw)
        assert got.plan.dtype == want.plan.dtype and got.plan.shape == want.plan.shape
        assert got.plan.tobytes() == want.plan.tobytes()
        assert got.cost == want.cost
        assert got.converged == want.converged
        assert got.marginal_violation == want.marginal_violation
        assert got.plan.flags.c_contiguous
        for before, after in zip(inputs, (a, b, cost)):
            assert before.tobytes() == np.asarray(after).tobytes()
            assert before.flags.f_contiguous == np.asarray(after).flags.f_contiguous

    @pytest.mark.parametrize("case_id,absorptions", [
        ("bench2501", 0), ("absorbing_eps1e-4", 1), ("absorbing_eps1e-4_rows_and_columns", 2),
        ("zero_mass_absorbing", 2), ("fortran_cost_absorbing", 2), ("small1900_positive", 6),
    ])
    def test_cases_absorb_as_named(self, case_id, absorptions, monkeypatch):
        _, a, b, cost, eps, kw = next(c for c in scaling_loop_cases() if c[0] == case_id)
        steps = []
        log_step = tr._log_step
        monkeypatch.setattr(tr, "_log_step", lambda *args: steps.append(1) or log_step(*args))
        tr.sinkhorn(a, b, cost, eps, **kw)
        assert len(steps) == 1 + absorptions


class TestSinkhornMatchesLogDomain:
    """The scaling kernel against the log-domain loop it replaced
    (``oracles.sinkhorn_log_domain``): the same stopping iteration, so the
    same flag, cost and plan up to rounding."""

    @staticmethod
    def check(a, b, cost, eps, **kw):
        got = tr.sinkhorn(a, b, cost, eps, **kw)
        want = sinkhorn_log_domain(a, b, cost, eps, **kw)
        assert got.converged == want.converged
        assert np.isfinite(got.plan).all()
        if want.converged:
            assert got.cost == pytest.approx(want.cost, rel=1e-12, abs=0)
            npt.assert_allclose(got.plan, want.plan, rtol=0, atol=1e-12)
        else:
            npt.assert_allclose(got.plan.sum(axis=1), a, rtol=0, atol=1e-12)
            npt.assert_allclose(got.plan.sum(axis=0), b, rtol=0, atol=1e-12)
        return want

    @pytest.mark.parametrize("seed", [1501, 1502, 1503])
    def test_benchmark_shaped_clouds(self, seed):
        rng = np.random.default_rng(seed)
        cost = tr.cost_matrix(rng.uniform(0, 1, (300, 2)), rng.uniform(0, 1, (200, 2)))
        self.check(uniform(300), uniform(200), cost, 0.01)

    @pytest.mark.parametrize("zero_mass", [False, True], ids=["positive", "zero_mass"])
    @pytest.mark.parametrize("eps", [1.0, 0.05, 1e-3])
    @pytest.mark.parametrize("seed", range(1600, 1608))
    def test_random_small_instances(self, seed, eps, zero_mass):
        self.check(*random_instance(seed, zero_mass), eps)

    @pytest.mark.parametrize("zero_mass", [False, True], ids=["positive", "zero_mass"])
    def test_absorbed_scalings(self, zero_mass, monkeypatch):
        steps = []
        log_step = tr._log_step
        monkeypatch.setattr(tr, "_log_step", lambda *args: steps.append(1) or log_step(*args))
        want = self.check(*random_instance(1900, zero_mass), 1e-3)
        assert want.converged
        assert len(steps) > 1  # scalings left their range after the first step

    @pytest.mark.parametrize("zero_mass", [False, True], ids=["positive", "zero_mass"])
    @pytest.mark.parametrize("seed", range(1700, 1704))
    def test_unconverged(self, seed, zero_mass):
        want = self.check(*random_instance(seed, zero_mass), 1e-3, max_iters=5, tol=1e-9)
        assert not want.converged


class TestBarycentricMap:
    def test_identity_transport(self):
        rng = np.random.default_rng(15)
        pts = rng.uniform(-2, 2, (4, 3))
        coupling = tr.Coupling(np.eye(4) / 4, uniform(4), uniform(4), 0.0)
        npt.assert_allclose(tr.barycentric_map(coupling, pts), pts, atol=1e-12)

    def test_single_target_point(self):
        coupling = tr.Coupling(np.full((3, 1), 1 / 3), uniform(3), np.array([1.0]), 0.0)
        target = np.array([[2.0, -1.0]])
        out = tr.barycentric_map(coupling, target)
        npt.assert_allclose(out, np.tile(target, (3, 1)), atol=1e-12)

    def test_random_against_double_loop(self):
        rng = np.random.default_rng(16)
        plan = rng.uniform(0, 1, (4, 5))
        a = plan.sum(axis=1)
        plan /= a.sum()
        a = plan.sum(axis=1)
        b = plan.sum(axis=0)
        target = rng.uniform(-2, 2, (5, 3))
        coupling = tr.Coupling(plan, a, b, 0.0)
        out = tr.barycentric_map(coupling, target)
        expected = np.array([
            sum(plan[i, j] * target[j] for j in range(5)) / a[i] for i in range(4)
        ])
        npt.assert_allclose(out, expected, atol=1e-12)

    def test_zero_row_marginal(self):
        coupling = tr.Coupling(np.zeros((2, 2)), np.array([0.0, 1.0]), uniform(2), 0.0)
        with pytest.raises(InputError):
            tr.barycentric_map(coupling, np.zeros((2, 2)))


class TestTransportWeights:
    """The model's weight path: one batched cost, one assignment per sample."""

    @staticmethod
    def tie_fixture(n):
        """Duplicated points on both sides, so many plans are optimal."""
        rng = np.random.default_rng(n)
        src = rng.standard_normal((3, 4))[np.arange(n) % 3]
        tgt = rng.standard_normal((2, 4))[np.arange(n) % 2]
        return src, tgt

    @pytest.mark.parametrize("n,d", [(1, 3), (6, 8), (12, 32)])
    def test_stack_equals_per_pair_calls(self, n, d):
        rng = np.random.default_rng(n)
        src, tgt = rng.standard_normal((5, n, d)), rng.standard_normal((5, n, d))
        per_pair = np.stack([tr.transport_weights(s, t) for s, t in zip(src, tgt)])
        npt.assert_array_equal(tr.transport_weights(src, tgt), per_pair)

    @pytest.mark.parametrize("n", [1, 6, 12, 49])
    def test_weights_are_a_permutation(self, n):
        rng = np.random.default_rng(n)
        w = tr.transport_weights(rng.standard_normal((3, n, 4)), rng.standard_normal((3, n, 4)))
        assert set(np.unique(w)) <= {0.0, 1.0}
        npt.assert_array_equal(w.sum(axis=-1), np.ones((3, n)))
        npt.assert_array_equal(w.sum(axis=-2), np.ones((3, n)))

    @pytest.mark.parametrize("n", [1, 6, 12, 49])
    @pytest.mark.parametrize("ties", [False, True])
    def test_plan_cost_equals_exact_emd(self, n, ties):
        rng = np.random.default_rng(n + 100)
        if ties:
            src, tgt = self.tie_fixture(n)
        else:
            src, tgt = rng.standard_normal((n, 4)), rng.standard_normal((n, 4))
        cost = tr.cost_matrix(src, tgt)
        w = tr.transport_weights(src[None], tgt[None])[0]
        plan_cost = (w / n * cost).sum()
        assert abs(plan_cost - tr.emd_exact(uniform(n), uniform(n), cost).cost) <= 1e-12
        if n <= 6:
            assert abs(plan_cost - emd_cost_permutations(cost)) <= 1e-12

    @pytest.mark.parametrize("sample", [0, 2])
    @pytest.mark.parametrize("side", ["src", "tgt"])
    def test_nan_point_in_any_sample_rejected(self, sample, side):
        rng = np.random.default_rng(3)
        arrays = {"src": rng.standard_normal((3, 6, 4)), "tgt": rng.standard_normal((3, 6, 4))}
        arrays[side][sample, 4, 1] = np.nan
        with pytest.raises(InputError):
            tr.transport_weights(arrays["src"], arrays["tgt"])

    @pytest.mark.parametrize("src_shape,tgt_shape", [
        ((0, 3), (0, 3)), ((0, 3), (2, 3)), ((2, 0, 3), (2, 0, 3)), ((0, 4, 3), (0, 4, 3)),
    ])
    def test_empty_point_sets_rejected(self, src_shape, tgt_shape):
        with pytest.raises(InputError):
            tr.transport_weights(np.zeros(src_shape), np.zeros(tgt_shape))

    @pytest.mark.parametrize("src_shape,tgt_shape", [
        ((3, 6, 4), (2, 6, 4)), ((3, 6, 4), (3, 5, 4)), ((3, 6, 4), (6, 4)),
    ])
    def test_mismatched_stacks_rejected(self, src_shape, tgt_shape):
        with pytest.raises(DimensionError):
            tr.transport_weights(np.zeros(src_shape), np.zeros(tgt_shape))

    def test_unequal_pair_takes_emd_exact(self):
        rng = np.random.default_rng(4)
        src, tgt = rng.standard_normal((6, 3)), rng.standard_normal((4, 3))
        exact = tr.emd_exact(uniform(6), uniform(4), tr.cost_matrix(src, tgt))
        npt.assert_array_equal(tr.transport_weights(src, tgt), exact.plan * 6)


class TestOtAdapt:
    def test_row_count_follows_source(self):
        rng = np.random.default_rng(17)
        out = tr.ot_adapt(rng.uniform(-1, 1, (6, 3)), rng.uniform(-1, 1, (4, 3)))
        assert out.shape == (6, 3)

    def test_identical_modalities_identity(self):
        rng = np.random.default_rng(18)
        pts = rng.uniform(-1, 1, (5, 3))
        npt.assert_allclose(tr.ot_adapt(pts, pts), pts, atol=1e-12)

    def test_outputs_in_target_convex_hull(self):
        rng = np.random.default_rng(19)
        src, tgt = rng.uniform(-2, 2, (6, 4)), rng.uniform(-2, 2, (5, 4))
        out = tr.ot_adapt(src, tgt)
        assert np.all(out >= tgt.min(axis=0) - 1e-12)
        assert np.all(out <= tgt.max(axis=0) + 1e-12)


class TestOtkEmbed:
    @staticmethod
    def cfg(entropic_eps=0.1, sinkhorn_iters=30):
        return entropic_eps, sinkhorn_iters

    def test_one_to_one(self):
        y = np.array([[1.5, -2.0]])
        z = np.array([[0.0, 0.0]])
        emb = tr.otk_embed(y, z, *self.cfg())
        npt.assert_allclose(emb.values.value, y, atol=1e-12)

    def test_identical_rows_collapse(self):
        y = np.tile([[2.0, -1.0, 0.5]], (6, 1))
        z = np.random.default_rng(21).uniform(-1, 1, (4, 3))
        emb = tr.otk_embed(y, z, *self.cfg())
        npt.assert_allclose(emb.values.value, np.tile(y[0], (4, 1)), atol=1e-9)

    def test_outputs_in_convex_hull_of_rows(self):
        rng = np.random.default_rng(22)
        y = rng.uniform(-2, 2, (7, 4))
        z = rng.uniform(-2, 2, (5, 4))
        emb = tr.otk_embed(y, z, *self.cfg())
        out = emb.values.value
        assert np.all(out >= y.min(axis=0) - 1e-9)
        assert np.all(out <= y.max(axis=0) + 1e-9)

    def test_gradients_through_unrolled_sinkhorn(self):
        rng = np.random.default_rng(23)
        y = Parameter(rng.uniform(-1, 1, (5, 3)), "y")
        z = Parameter(rng.uniform(-1, 1, (4, 3)), "z")
        cfg = self.cfg(entropic_eps=0.2, sinkhorn_iters=10)

        def loss():
            out = tr.otk_embed(y, z, *cfg).values
            return dc.sum_all(dc.elementwise_mul(out, out))

        reports = grad_check(loss, [y, z], tol=1e-3)
        assert all(r.passed for r in reports)

    @staticmethod
    def fused(y, z, eps, iters):
        emb = tr.otk_embed(y, z, eps, iters)
        return emb.values, emb.marginal_violation, emb.converged

    @pytest.mark.parametrize("y_shape", [(7, 4), (3, 7, 4)])
    @pytest.mark.parametrize("trained", ["references", "both", "y"])
    @pytest.mark.parametrize("eps,iters", [(0.2, 12), (0.1, 30)])
    def test_fused_node_matches_unrolled_graph(self, y_shape, trained, eps, iters):
        rng = np.random.default_rng(24)
        y_value, z_value = rng.uniform(-2, 2, y_shape), rng.uniform(-2, 2, (5, 4))
        upstream = dc.constant(rng.standard_normal(y_shape[:-2] + (5, 4)))
        cfg = self.cfg(entropic_eps=eps, sinkhorn_iters=iters)
        results = []
        for embed in (self.fused, otk_embed_unrolled):
            y = Parameter(y_value.copy(), "y") if trained in ("y", "both") else y_value
            z = Parameter(z_value.copy(), "z") if trained in ("references", "both") else z_value
            out, violation, converged = embed(y, z, *cfg)
            dc.backward(dc.sum_all(dc.elementwise_mul(out, upstream)))
            grads = [p.grad for p in (y, z) if isinstance(p, Parameter)]
            results.append((out.value, violation, converged, grads))
        (fused, fused_violation, fused_converged, fused_grads), \
            (graph, graph_violation, graph_converged, graph_grads) = results
        npt.assert_allclose(fused, graph, rtol=0, atol=1e-12)
        assert abs(fused_violation - graph_violation) <= 1e-12
        assert fused_converged == graph_converged
        assert len(fused_grads) == (2 if trained == "both" else 1)
        for g_fused, g_graph in zip(fused_grads, graph_grads):
            npt.assert_allclose(g_fused, g_graph, rtol=0, atol=1e-12)

    def test_gradients_of_a_stack(self):
        rng = np.random.default_rng(25)
        y = Parameter(rng.uniform(-1, 1, (3, 5, 4)), "y")
        z = Parameter(rng.uniform(-1, 1, (4, 4)), "z")
        cfg = self.cfg(entropic_eps=0.2, sinkhorn_iters=10)

        def loss():
            out = tr.otk_embed(y, z, *cfg).values
            return dc.sum_all(dc.elementwise_mul(out, out))

        reports = grad_check(loss, [y, z])
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("batch", [1, 4, 60])
    @pytest.mark.parametrize("t", [12, 96])
    def test_values_and_violation_do_not_depend_on_gradients(self, batch, t):
        rng = np.random.default_rng(27)
        y, z = rng.standard_normal((batch, t, 32)), rng.standard_normal((12, 32))
        plain = tr.otk_embed(y, z, *self.cfg())
        for trained in (Parameter(y, "y"), z), (y, Parameter(z, "z")):
            emb = tr.otk_embed(*trained, *self.cfg())
            assert emb.values.requires_grad
            assert emb.values.value.tobytes() == plain.values.value.tobytes()
            assert emb.marginal_violation == plain.marginal_violation
            assert emb.converged == plain.converged

    def test_backward_raises_no_numpy_warning(self):
        """The reverse steps overflow, as the forward's may, under the
        forward's errstate: a non-finite gradient, no RuntimeWarning."""
        rng = np.random.default_rng(28)
        y = Parameter(rng.uniform(-2, 2, (6, 8)), "y")
        z = Parameter(rng.uniform(-2, 2, (6, 8)), "z")
        out = tr.otk_embed(y, z, 0.005, 10).values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dc.backward(dc.sum_all(dc.elementwise_mul(out, dc.constant(np.full(out.shape, 1e300)))))
        assert not np.isfinite(y.grad).all()

    def test_one_node_per_call(self, monkeypatch):
        built = []
        init = dc.Node.__init__

        def counting_init(node, *args, **kwargs):
            built.append(node)
            init(node, *args, **kwargs)

        monkeypatch.setattr(dc.Node, "__init__", counting_init)
        rng = np.random.default_rng(26)
        tr.otk_embed(rng.standard_normal((4, 12, 8)), rng.standard_normal((12, 8)), *self.cfg())
        assert len(built) <= 3

    @staticmethod
    def spread_costs():
        """A sequence with widely spread costs to 12 references."""
        rng = np.random.default_rng(0)
        return rng.normal(0.0, 3.0, (40, 32)), rng.standard_normal((12, 32))

    @pytest.mark.parametrize("eps", [1e-3, 1e-4])
    def test_underflowing_kernel_raises(self, eps):
        with pytest.raises(NumericalError, match="entropic_eps"):
            tr.otk_embed(*self.spread_costs(), *self.cfg(entropic_eps=eps))

    def test_small_eps_that_fits_reports_unconverged(self):
        emb = tr.otk_embed(*self.spread_costs(), *self.cfg(entropic_eps=1e-2))
        assert np.isfinite(emb.values.value).all()
        assert 9.0e-3 < emb.marginal_violation < 9.2e-3
        assert not emb.converged

    def test_config_validation(self):
        y, z = np.zeros((3, 2)), np.zeros((3, 2))
        for iters in (0, 2.5, np.nan):
            with pytest.raises(ParameterError, match="sinkhorn_iters must be >= 1 and an integer"):
                tr.otk_embed(y, z, *self.cfg(sinkhorn_iters=iters))
        with pytest.raises(ParameterError):
            tr.otk_embed(y, z, *self.cfg(entropic_eps=-1.0))

    @pytest.mark.parametrize("y_rows,z_rows", [(3, 0), (0, 3)])
    def test_empty_inputs_rejected(self, y_rows, z_rows):
        with pytest.raises(InputError, match="nonempty"):
            tr.otk_embed(np.zeros((y_rows, 2)), np.zeros((z_rows, 2)), *self.cfg())

    @pytest.mark.parametrize("eps", [0.0, np.nan])
    def test_non_positive_entropic_eps_rejected(self, eps):
        with pytest.raises(ParameterError, match="entropic_eps"):
            tr.otk_embed(np.zeros((3, 2)), np.zeros((3, 2)), *self.cfg(entropic_eps=eps))
