import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otfusion import diffcore as dc
from otfusion.diffcore import Node, Parameter, backward, grad_check
from otfusion.errors import ContractViolationError, DimensionError, ParameterError


def rand(rng, rows, cols):
    return rng.uniform(-2, 2, (rows, cols))


def fd_check(build_loss, params, tol=1e-4):
    reports = grad_check(build_loss, params, tol=tol)
    for r in reports:
        assert r.passed, f"{r.name}: max rel error {r.max_rel_error:.3e}"


class TestMatmul:
    def test_identity(self):
        a = np.arange(9.0).reshape(3, 3)
        out = dc.matmul(dc.constant(np.eye(3)), dc.constant(a))
        npt.assert_array_equal(out.value, a)

    def test_hand_case(self):
        out = dc.matmul(dc.constant([[1, 2], [3, 4]]), dc.constant([[0], [1]]))
        npt.assert_array_equal(out.value, [[2], [4]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Parameter(rand(rng, 5, 7), "a")
        b = Parameter(rand(rng, 7, 3), "b")
        fd_check(lambda: dc.sum_all(dc.elementwise_mul(dc.matmul(a, b), dc.matmul(a, b))), [a, b])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            dc.matmul(dc.constant(np.zeros((2, 3))), dc.constant(np.zeros((2, 3))))


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = dc.softmax_rows(dc.constant([[0.0, 0.0, 0.0]]))
        npt.assert_allclose(out.value, [[1 / 3] * 3])

    def test_large_values_do_not_overflow(self):
        out = dc.softmax_rows(dc.constant([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.value))
        npt.assert_allclose(out.value, [[1.0, 0.0]], atol=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = dc.softmax_rows(dc.constant(rand(rng, 4, 6)))
        npt.assert_allclose(out.value.sum(axis=1), np.ones(4), rtol=0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=5), min_size=1, max_size=4))
    def test_rows_sum_to_one_property(self, rows):
        width = len(rows[0])
        mat = np.array([r[:width] + [0.0] * (width - len(r)) for r in rows])
        out = dc.softmax_rows(dc.constant(mat))
        npt.assert_allclose(out.value.sum(axis=1), np.ones(mat.shape[0]), rtol=0, atol=1e-12)


class TestElementwiseOps:
    def test_sigmoid_at_zero(self):
        assert dc.sigmoid(dc.constant([[0.0]])).value[0, 0] == 0.5

    def test_mean_rows_single_row(self):
        row = np.array([[1.5, -2.0, 3.0]])
        npt.assert_array_equal(dc.mean_rows(dc.constant(row)).value, row)

    def test_concat_cols_shape(self):
        rng = np.random.default_rng(2)
        a, b = rand(rng, 4, 3), rand(rng, 4, 5)
        out = dc.concat_cols(dc.constant(a), dc.constant(b))
        assert out.shape == (4, 8)
        npt.assert_array_equal(out.value[:, :3], a)
        npt.assert_array_equal(out.value[:, 3:], b)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dc.add(dc.constant(np.zeros((2, 2))), dc.constant(np.zeros((3, 2))))

    @pytest.mark.parametrize("op,arity", [
        (dc.sigmoid, 1), (dc.tanh_ew, 1), (dc.relu, 1), (dc.exp_ew, 1),
        (dc.softmax_rows, 1), (dc.mean_rows, 1),
        (dc.sum_cols, 1), (dc.transpose, 1),
        (dc.add, 2), (dc.sub, 2), (dc.elementwise_mul, 2),
        (dc.concat_cols, 2),
    ])
    def test_gradients_match_finite_differences(self, op, arity):
        rng = np.random.default_rng(3)
        params = [Parameter(rand(rng, 4, 5), f"p{i}") for i in range(arity)]

        def loss():
            out = op(*params)
            return dc.sum_all(dc.elementwise_mul(out, out))

        fd_check(loss, params)

    def test_div_log_clamp_gradients(self):
        rng = np.random.default_rng(4)
        a = Parameter(rng.uniform(0.5, 2.0, (3, 4)), "a")
        b = Parameter(rng.uniform(0.5, 2.0, (3, 4)), "b")

        def loss():
            out = dc.log_ew(dc.clamp_min(dc.elementwise_div(a, b), 1e-12))
            return dc.sum_all(dc.elementwise_mul(out, out))

        fd_check(loss, [a, b])

    def test_tile_slice_gradients(self):
        rng = np.random.default_rng(5)
        col = Parameter(rand(rng, 4, 1), "col")
        row = Parameter(rand(rng, 1, 3), "row")

        def loss():
            wide = dc.elementwise_mul(dc.tile_cols(col, 3), dc.tile_rows(row, 4))
            return dc.sum_all(dc.elementwise_mul(dc.slice_cols(wide, 1, 3), dc.slice_cols(wide, 0, 2)))

        fd_check(loss, [col, row])


class TestLayerNorm:
    def test_constant_row_is_zero_before_affine(self):
        gain = dc.constant(np.ones((1, 4)))
        bias = dc.constant(np.zeros((1, 4)))
        out = dc.layer_norm(dc.constant(np.full((2, 4), 7.0)), gain, bias)
        npt.assert_array_equal(out.value, np.zeros((2, 4)))

    def test_two_point_row_exact_value(self):
        # direct formula: mean 2, population var 1, eps 1e-5
        gain = dc.constant(np.ones((1, 2)))
        bias = dc.constant(np.zeros((1, 2)))
        out = dc.layer_norm(dc.constant([[1.0, 3.0]]), gain, bias)
        expected = np.array([[-1.0, 1.0]]) / np.sqrt(1.0 + 1e-5)
        npt.assert_allclose(out.value, expected, rtol=0, atol=1e-15)

    def test_normalization_statistics(self):
        rng = np.random.default_rng(6)
        mat = rand(rng, 5, 8)
        out = dc.layer_norm(dc.constant(mat), dc.constant(np.ones((1, 8))),
                            dc.constant(np.zeros((1, 8)))).value
        npt.assert_allclose(out.mean(axis=1), 0, atol=1e-10)
        npt.assert_allclose(out.var(axis=1), 1, atol=1e-4)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        mat = Parameter(rand(rng, 3, 6), "x")
        gain = Parameter(rng.uniform(0.5, 1.5, (1, 6)), "gain")
        bias = Parameter(rand(rng, 1, 6), "bias")

        def loss():
            out = dc.layer_norm(mat, gain, bias)
            return dc.sum_all(dc.elementwise_mul(out, out))

        fd_check(loss, [mat, gain, bias])


class TestDropout:
    def test_eval_mode_is_identity(self):
        rng = np.random.default_rng(8)
        a = rand(rng, 5, 5)
        out = dc.dropout(dc.constant(a), 0.5, training=False)
        npt.assert_array_equal(out.value, a)

    def test_rate_zero_is_identity(self):
        rng = np.random.default_rng(9)
        a = rand(rng, 5, 5)
        out = dc.dropout(dc.constant(a), 0.0, training=True, rng=rng)
        npt.assert_array_equal(out.value, a)

    def test_survivor_fraction(self):
        rng = np.random.default_rng(10)
        a = np.ones((100, 100))
        out = dc.dropout(dc.constant(a), 0.5, training=True, rng=rng)
        survivors = (out.value != 0).mean()
        assert abs(survivors - 0.5) < 0.02

    def test_training_expectation_matches_input(self):
        # inverted dropout keeps E[out] == input; 3 sigma band over 10^4 draws
        rng = np.random.default_rng(11)
        rate, draws, value = 0.3, 10_000, 2.0
        total = sum(dc.dropout(dc.constant([[value]]), rate, True, rng).value[0, 0]
                    for _ in range(draws))
        sigma = value / (1 - rate) * np.sqrt(rate * (1 - rate) / draws)
        assert abs(total / draws - value) < 3 * sigma

    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            dc.dropout(dc.constant([[1.0]]), 1.0, training=True, rng=np.random.default_rng(0))


class TestGradCheck:
    def test_quadratic_loss_is_exact(self):
        rng = np.random.default_rng(12)
        w = Parameter(rand(rng, 3, 3), "w")
        reports = grad_check(lambda: dc.sum_all(dc.elementwise_mul(w, w)), [w], tol=1e-8)
        assert reports[0].passed
        assert reports[0].max_rel_error < 1e-8

    def test_corrupted_gradient_fails(self):
        rng = np.random.default_rng(13)
        w = Parameter(rand(rng, 2, 2), "w")

        def bad_square(a):
            # wrong vjp: claims d(a^2)/da = 3a
            return Node(a.value * a.value, (a,), lambda g: (g * 3.0 * a.value,))

        reports = grad_check(lambda: dc.sum_all(bad_square(w)), [w])
        assert not reports[0].passed

    def test_nondeterministic_loss_raises(self):
        rng = np.random.default_rng(14)
        w = Parameter(rand(rng, 2, 2), "w")
        noise = np.random.default_rng(15)

        def loss():
            return dc.sum_all(dc.add(w, dc.constant(noise.random((2, 2)))))

        with pytest.raises(ContractViolationError):
            grad_check(loss, [w])

    def test_backward_requires_scalar(self):
        with pytest.raises(DimensionError):
            backward(dc.constant(np.zeros((2, 2))))


def test_parameter_zero_grad():
    p = Parameter(np.ones((2, 2)), "p")
    loss = dc.sum_all(dc.elementwise_mul(p, p))
    backward(loss)
    assert np.any(p.grad != 0)
    p.zero_grad()
    npt.assert_array_equal(p.grad, np.zeros((2, 2)))


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(16)
    a = dc.constant(rand(rng, 3, 3))
    chain = dc.softmax_rows(dc.tanh_ew(dc.matmul(a, dc.sigmoid(a))))
    assert np.all(np.isfinite(chain.value))
