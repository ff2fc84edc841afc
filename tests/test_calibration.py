import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ace_bruteforce, ece_bruteforce

from otfusion import calibration as cal
from otfusion import diffcore as dc
from otfusion.diffcore import Parameter
from otfusion.errors import InputError, ParameterError


def preds_from(confidences, correctness):
    """Two-class prediction set with given max-prob confidences, predicted
    class fixed to 1, and labels set by correctness."""
    probs = np.array([[1 - c, c] for c in confidences])
    labels = np.array([1 if ok else 0 for ok in correctness])
    return cal.PredictionSet(probs, labels)


def random_prediction_set(rng, n, k=2):
    logits = rng.uniform(-3, 3, (n, k))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    labels = rng.integers(0, k, n)
    return cal.PredictionSet(probs, labels)


def tied_prediction_set(rng, n):
    """Two-class set whose probabilities are multiples of 0.1, so many
    samples share one value and many sit on equal-width bin edges."""
    p1 = np.round(rng.uniform(0, 1, n), 1)
    return cal.PredictionSet(np.column_stack([1.0 - p1, p1]), rng.integers(0, 2, n))


def smooth_target_row(label, alpha, k):
    """One smoothed row built entry by entry, as the per-label loop built it."""
    t = np.full(k, alpha / k)
    t[label] = 1.0 - alpha * (k - 1) / k
    return t


class TestSmoothTargets:
    def test_reference_alpha_exact(self):
        out = cal.smooth_targets(0, 0.001, 2)
        assert out.shape == (1, 2)
        assert out[0, 0] == 0.9995
        assert out[0, 1] == 0.0005

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 0.001, 0.3, 1.0])
    def test_rows_equal_per_label_rows(self, k, alpha):
        labels = np.random.default_rng(k).integers(0, k, 9)
        expected = np.stack([smooth_target_row(l, alpha, k) for l in labels])
        npt.assert_array_equal(cal.smooth_targets(labels, alpha, k), expected)

    def test_alpha_zero_one_hot(self):
        for k in (2, 3, 5):
            out = cal.smooth_targets(1, 0.0, k)
            expected = np.zeros((1, k))
            expected[0, 1] = 1.0
            npt.assert_array_equal(out, expected)

    def test_alpha_one_uniform(self):
        npt.assert_array_equal(cal.smooth_targets([0, 1], 1.0, 2), [[0.5, 0.5], [0.5, 0.5]])

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0, allow_subnormal=False), st.integers(2, 6))
    def test_sums_to_one_and_positive(self, alpha, k):
        out = cal.smooth_targets(np.arange(k), alpha, k)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-15
        if alpha > 0:
            assert np.all(out > 0)

    def test_bad_alpha(self):
        with pytest.raises(ParameterError):
            cal.smooth_targets(0, -0.1, 2)
        with pytest.raises(ParameterError):
            cal.smooth_targets(0, 1.5, 2)

    def test_bad_label(self):
        with pytest.raises(ParameterError):
            cal.smooth_targets(2, 0.1, 2)
        with pytest.raises(ParameterError):
            cal.smooth_targets([0, -1], 0.1, 2)

    @pytest.mark.parametrize("labels", [1.0, [0, 1.0], [0.5], "1"])
    def test_non_integer_label_is_an_input_error(self, labels):
        with pytest.raises(InputError):
            cal.smooth_targets(labels, 0.1, 2)


def cross_entropy(probs, targets):
    """The 1x1 loss node of ``ls_cross_entropy`` on the constant logits
    log(probs), whose softmax is ``probs``."""
    with np.errstate(divide="ignore"):  # log(0) = -inf is a valid logit
        loss = cal.ls_cross_entropy(np.log(probs), targets)
    assert loss.shape == (1, 1)
    return loss.value[0, 0]


class TestSmoothedCrossEntropy:
    def test_minimum_is_target_entropy(self):
        targets = cal.smooth_targets(0, 0.2, 3)[0]
        loss = cross_entropy(targets, targets)
        entropy = float(-(targets * np.log(targets)).sum())
        assert loss == pytest.approx(entropy, abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        targets = cal.smooth_targets(0, 0.0, 2)[0]
        loss = cross_entropy(np.array([1.0, 0.0]), targets)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_random_against_direct_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(0.01, 1, 4)
            p /= p.sum()
            t = rng.uniform(0.01, 1, 4)
            t /= t.sum()
            expected = -(t * np.log(p)).sum()
            assert cross_entropy(p, t) == pytest.approx(expected, abs=1e-12)

    def test_gibbs_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = rng.uniform(0.01, 1, 3)
            t /= t.sum()
            q = rng.uniform(0.01, 1, 3)
            q /= q.sum()
            entropy = -(t * np.log(t)).sum()
            assert cross_entropy(q, t) >= entropy - 1e-9

    def test_differentiable_through_probs(self):
        rng = np.random.default_rng(3)
        logits = Parameter(rng.uniform(-1, 1, (1, 3)), "logits")
        t = cal.smooth_targets(1, 0.05, 3)
        reports = dc.grad_check(
            lambda: cal.ls_cross_entropy(logits, t), [logits], tol=1e-6
        )
        assert all(r.passed for r in reports)


class TestECE:
    def test_perfectly_calibrated_is_zero(self):
        preds = preds_from([1.0, 1.0, 1.0], [True, True, True])
        value, bins = cal.ece(preds, 10)
        assert value == 0.0
        assert bins.counts.sum() == 3

    def test_four_sample_case_matches_oracle(self):
        preds = preds_from([0.9, 0.8, 0.7, 0.6], [True, True, False, True])
        value, _ = cal.ece(preds, 10)
        assert value == ece_bruteforce(preds.probs, preds.labels, 10)
        assert value == pytest.approx(0.35, abs=1e-12)

    def test_max_confidence_half_correct(self):
        preds = preds_from([1.0, 1.0, 1.0, 1.0], [True, False, True, False])
        value, _ = cal.ece(preds, 10)
        assert value == 0.5

    @pytest.mark.parametrize("seed", range(30))
    def test_random_matches_bruteforce_exactly(self, seed):
        rng = np.random.default_rng(seed)
        preds = random_prediction_set(rng, int(rng.integers(1, 200)), k=int(rng.integers(2, 4)))
        bins = int(rng.integers(1, 20))
        value, info = cal.ece(preds, bins)
        assert value == ece_bruteforce(preds.probs, preds.labels, bins)
        assert 0.0 <= value <= 1.0
        assert info.counts.sum() == preds.n

    def test_boundary_confidences(self):
        # confidences exactly on bin edges belong to the lower bin
        preds = preds_from([0.9, 0.8], [True, True])
        _, bins = cal.ece(preds, 10)
        assert bins.counts[8] == 1  # (0.8, 0.9]
        assert bins.counts[7] == 1  # (0.7, 0.8]

    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            cal.PredictionSet(np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("bad", [2.5, np.nan, 0])
    def test_bad_bin_count_rejected(self, bad):
        preds = preds_from([0.9, 0.8], [True, False])
        with pytest.raises(ParameterError, match="num_bins must be >= 1"):
            cal.ece(preds, bad)

    @pytest.mark.parametrize("seed", range(10))
    def test_bins_equal_masked_means(self, seed):
        """Each bin's statistics are the plain means over a boolean mask
        of its members, bit for bit; rounded probabilities put many
        samples on one value and on the bin edges."""
        rng = np.random.default_rng(200 + seed)
        preds = random_prediction_set(rng, int(rng.integers(1, 300)), k=int(rng.integers(2, 4)))
        if seed % 2:
            preds = tied_prediction_set(rng, preds.n)
        num_bins = int(rng.integers(1, 25))
        _, bins = cal.ece(preds, num_bins)
        conf = preds.probs.max(axis=1)
        correct = preds.probs.argmax(axis=1) == preds.labels
        for m in range(num_bins):
            members = (conf > m / num_bins) & (conf <= (m + 1) / num_bins)
            if m == 0:
                members |= conf <= 0.0
            assert bins.counts[m] == members.sum()
            if members.any():
                assert bins.accuracy[m] == correct[members].mean()
                assert bins.confidence[m] == conf[members].mean()
            else:
                assert np.isnan(bins.accuracy[m]) and np.isnan(bins.confidence[m])


def searched_bins(conf, num_bins):
    """The bins of a search of the edges: bin m covers (m/M, (m+1)/M]."""
    edges = np.arange(num_bins + 1) / num_bins
    return np.clip(np.searchsorted(edges, conf, "left") - 1, 0, num_bins - 1)


# the smallest subnormal, a mid one, the largest one and the smallest normal
SUBNORMALS = [5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308]


class TestEqualWidthBins:
    def test_every_edge_and_its_neighbours_at_every_bin_count(self):
        for num_bins in range(1, 1001):
            edges = np.arange(num_bins + 1) / num_bins
            conf = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
                                   [1.0 + 5e-10], SUBNORMALS])
            npt.assert_array_equal(cal.equal_width_bins(conf, edges), searched_bins(conf, num_bins))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), num_bins=st.integers(1, 1000))
    def test_matches_the_edge_search(self, data, num_bins):
        """Edges, their float neighbours, 0, 1, 1 + 5e-10 (a row may sum
        to 1 within 1e-9), subnormals and plain values, in one set."""
        edges = np.arange(num_bins + 1) / num_bins
        edge = st.integers(0, num_bins).map(lambda m: edges[m])
        conf = st.one_of(edge, edge.map(lambda e: np.nextafter(e, -1.0)),
                         edge.map(lambda e: np.nextafter(e, 2.0)),
                         st.sampled_from([0.0, 1.0, 1.0 + 5e-10, *SUBNORMALS]),
                         st.floats(0.0, 1.0))
        values = np.array(data.draw(st.lists(conf, min_size=1, max_size=60)))
        npt.assert_array_equal(cal.equal_width_bins(values, edges), searched_bins(values, num_bins))


class TestACE:
    def test_degenerate_one_class_perfect(self):
        probs = np.tile([1.0, 0.0], (5, 1))
        preds = cal.PredictionSet(probs, np.zeros(5, dtype=int))
        value, _ = cal.ace(preds, 1)
        assert value == 0.0

    def test_single_range_reduction(self):
        rng = np.random.default_rng(4)
        preds = random_prediction_set(rng, 40)
        value, _ = cal.ace(preds, 1)
        expected = np.mean([
            abs((preds.labels == k).mean() - preds.probs[:, k].mean())
            for k in range(preds.k)
        ])
        assert value == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_matches_bruteforce_exactly(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 200))
        preds = random_prediction_set(rng, n, k=int(rng.integers(2, 4)))
        ranges = int(rng.integers(1, min(n, 15) + 1))
        value, _ = cal.ace(preds, ranges)
        assert value == ace_bruteforce(preds.probs, preds.labels, ranges)
        assert 0.0 <= value <= 1.0

    def test_equal_mass_counts_differ_by_at_most_one(self):
        rng = np.random.default_rng(5)
        preds = random_prediction_set(rng, 47)
        _, bins = cal.ace(preds, 10)
        for cls_counts in bins.counts:
            assert cls_counts.max() - cls_counts.min() <= 1
            assert cls_counts.sum() == preds.n

    @pytest.mark.parametrize("bad", [2.5, np.nan, 0])
    def test_bad_range_count_rejected(self, bad):
        preds = random_prediction_set(np.random.default_rng(7), 10)
        with pytest.raises(ParameterError, match="num_ranges must be >= 1"):
            cal.ace(preds, bad)

    @pytest.mark.parametrize("seed", range(10))
    def test_ranges_equal_array_split_chunks(self, seed):
        """Each (class, range) cell holds the plain means over one
        ``np.array_split`` chunk of the stable order, bit for bit, with
        and without tied probabilities."""
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(1, 300))
        preds = random_prediction_set(rng, n, k=int(rng.integers(2, 4)))
        if seed % 2:
            preds = tied_prediction_set(rng, preds.n)
        ranges = int(rng.integers(1, min(n, 30) + 1))
        _, bins = cal.ace(preds, ranges)
        for cls in range(preds.k):
            conf = preds.probs[:, cls]
            for r, chunk in enumerate(np.array_split(np.argsort(conf, kind="stable"), ranges)):
                assert bins.counts[cls, r] == chunk.size
                assert bins.accuracy[cls, r] == (preds.labels[chunk] == cls).mean()
                assert bins.confidence[cls, r] == conf[chunk].mean()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), k=st.integers(2, 4), denominator=st.sampled_from([10, 100]))
    def test_tie_runs_across_range_cuts_keep_the_stable_order(self, data, k, denominator):
        """Probabilities on a 0.1 or 0.01 grid, so tie runs straddle range
        cuts; column 0 holds many zeros of either sign, which tie too."""
        n = data.draw(st.integers(1, 60))
        points = data.draw(st.lists(st.lists(st.integers(0, denominator), min_size=k - 1,
                                             max_size=k - 1), min_size=n, max_size=n))
        # k - 1 sorted cut points of [0, denominator] give k counts summing to it
        counts = np.diff(np.column_stack([np.zeros(n, int), np.sort(points, axis=1),
                                          np.full(n, denominator)]), axis=1)
        # sign 1 or -1 moves a row's class-0 mass to class 1, leaving 0.0 or -0.0
        signs = np.array(data.draw(st.lists(st.sampled_from([0, 1, -1]), min_size=n, max_size=n)))
        counts[signs != 0, 1] += counts[signs != 0, 0]
        counts[signs != 0, 0] = 0
        probs = counts / denominator
        probs[signs < 0, 0] = -0.0
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        ranges = data.draw(st.integers(1, n))
        preds = cal.PredictionSet(probs, labels)
        value, bins = cal.ace(preds, ranges)
        assert value == ace_bruteforce(probs, labels, ranges)
        for cls in range(k):
            chunks = np.array_split(np.argsort(probs[:, cls], kind="stable"), ranges)
            npt.assert_array_equal(bins.counts[cls], [c.size for c in chunks])
            npt.assert_array_equal(bins.accuracy[cls], [(labels[c] == cls).mean() for c in chunks])
            # bit for bit, the sign of a zero mean included
            expected = np.array([probs[c, cls].mean() for c in chunks])
            assert bins.confidence[cls].tobytes() == expected.tobytes()

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(3, 5), denominator=st.integers(1, 4))
    def test_runs_over_several_cuts_match_bruteforce(self, data, k, denominator):
        """A grid of 1/4 or coarser and up to one range per sample, so a
        tie run straddles several range cuts; zeros of either sign."""
        n = data.draw(st.integers(k, 200))
        points = np.array(data.draw(st.lists(st.integers(0, denominator), min_size=n * (k - 1),
                                             max_size=n * (k - 1)))).reshape(n, k - 1)
        counts = np.diff(np.column_stack([np.zeros(n, int), np.sort(points, axis=1),
                                          np.full(n, denominator)]), axis=1)
        probs = counts / denominator
        negative = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        probs[(probs == 0.0) & negative[:, None]] = -0.0
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        ranges = data.draw(st.integers(max(1, n // 4), n))
        value, bins = cal.ace(cal.PredictionSet(probs, labels), ranges)
        assert value == ace_bruteforce(probs, labels, ranges)
        for cls in range(k):
            chunks = np.array_split(np.argsort(probs[:, cls], kind="stable"), ranges)
            expected = np.array([probs[c, cls].mean() for c in chunks])
            assert bins.confidence[cls].tobytes() == expected.tobytes()
            npt.assert_array_equal(bins.accuracy[cls], [(labels[c] == cls).mean() for c in chunks])

    def test_too_many_ranges(self):
        rng = np.random.default_rng(6)
        preds = random_prediction_set(rng, 4)
        with pytest.raises(ParameterError):
            cal.ace(preds, 5)


class TestPredictionSetValidation:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_confidences_and_predicted_match_row_reductions(self, k):
        preds = random_prediction_set(np.random.default_rng(k), 500, k)
        npt.assert_array_equal(preds.confidences(), preds.probs.max(axis=1))
        npt.assert_array_equal(preds.predicted(), preds.probs.argmax(axis=1))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.integers(1, 6))
    def test_top_class_is_max_and_argmax_byte_for_byte(self, data, k):
        """Rows of small integer weights, so maxima tie, with zeros of
        either sign."""
        n = data.draw(st.integers(1, 40))
        weights = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * k,
                                              max_size=n * k))).reshape(n, k)
        weights[weights.sum(axis=1) == 0, 0] = 1
        probs = weights / weights.sum(axis=1, keepdims=True)
        negative = np.array(data.draw(st.lists(st.booleans(), min_size=n * k,
                                               max_size=n * k))).reshape(n, k)
        probs[(probs == 0.0) & negative] = -0.0
        preds = cal.PredictionSet(probs, np.zeros(n, dtype=int))
        conf, predicted = preds.top_class()
        assert conf.tobytes() == probs.max(axis=1).tobytes()
        assert predicted.tobytes() == probs.argmax(axis=1).tobytes()

    def test_rows_must_sum_to_one(self):
        with pytest.raises(InputError):
            cal.PredictionSet(np.array([[0.6, 0.6]]), np.array([0]))

    def test_labels_in_range(self):
        with pytest.raises(InputError):
            cal.PredictionSet(np.array([[0.5, 0.5]]), np.array([2]))

    @pytest.mark.parametrize("labels", [[0.7, 1.2], [0.0, np.nan], [1.0, np.inf]])
    def test_non_integer_labels_rejected(self, labels):
        with pytest.raises(InputError):
            cal.PredictionSet(np.array([[0.5, 0.5], [0.2, 0.8]]), labels)

    def test_integral_float_labels_become_integers(self):
        preds = cal.PredictionSet(np.array([[0.5, 0.5], [0.2, 0.8]]), [1.0, 0.0])
        assert preds.labels.dtype.kind == "i"
        npt.assert_array_equal(preds.labels, [1, 0])

    @pytest.mark.parametrize("row", [[np.nan, np.nan], [-0.5, 1.5]])
    def test_nan_or_negative_probabilities_rejected(self, row):
        with pytest.raises(InputError):
            cal.PredictionSet(np.array([row, [0.2, 0.8]]), np.array([0, 1]))
