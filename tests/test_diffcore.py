import inspect
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (clamp_min, dropout, elementwise_div, exp_ew, log_ew, relu, scale, sigmoid,
                     slice_cols, softmax_rows, sub, sum_cols, tanh_ew, transpose)
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
        out = softmax_rows(dc.constant([[0.0, 0.0, 0.0]]))
        npt.assert_allclose(out.value, [[1 / 3] * 3])

    def test_large_values_do_not_overflow(self):
        out = softmax_rows(dc.constant([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out.value))
        npt.assert_allclose(out.value, [[1.0, 0.0]], atol=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = softmax_rows(dc.constant(rand(rng, 4, 6)))
        npt.assert_allclose(out.value.sum(axis=1), np.ones(4), rtol=0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=5), min_size=1, max_size=4))
    def test_rows_sum_to_one_property(self, rows):
        width = len(rows[0])
        mat = np.array([r[:width] + [0.0] * (width - len(r)) for r in rows])
        out = softmax_rows(dc.constant(mat))
        npt.assert_allclose(out.value.sum(axis=1), np.ones(mat.shape[0]), rtol=0, atol=1e-12)


class TestElementwiseOps:
    def test_sigmoid_at_zero(self):
        assert dc._sigmoid(np.array([[0.0]]))[0, 0] == 0.5

    def test_sigmoid_exact_and_finite_at_extremes(self):
        v = np.array([[-800.0, -30.0, -1e-3, 0.0, 1e-3, 30.0, 800.0]])
        with np.errstate(over="raise"):
            out = dc._sigmoid(v)
        pos = v >= 0
        expected = np.empty_like(v)
        expected[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        expected[~pos] = np.exp(v[~pos]) / (1.0 + np.exp(v[~pos]))
        npt.assert_array_equal(out, expected)

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
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 4\)"):
            dc.add(dc.constant(np.zeros((2, 3))), dc.constant(np.zeros((2, 4))))

    @pytest.mark.parametrize("op,arity", [
        (sigmoid, 1), (tanh_ew, 1), (relu, 1), (exp_ew, 1),
        (softmax_rows, 1), (dc.mean_rows, 1),
        (sum_cols, 1), (transpose, 1),
        (dc.add, 2), (sub, 2), (dc.elementwise_mul, 2),
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
            out = log_ew(clamp_min(elementwise_div(a, b), 1e-12))
            return dc.sum_all(dc.elementwise_mul(out, out))

        fd_check(loss, [a, b])

    def test_broadcast_slice_gradients(self):
        # (4, 1) * (1, 3): both operands stretch to 4 x 3
        rng = np.random.default_rng(5)
        col = Parameter(rand(rng, 4, 1), "col")
        row = Parameter(rand(rng, 1, 3), "row")

        def loss():
            wide = dc.elementwise_mul(col, row)
            assert wide.shape == (4, 3)
            return dc.sum_all(dc.elementwise_mul(slice_cols(wide, 1, 3), slice_cols(wide, 0, 2)))

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
        node = dc.constant(a)
        out = dropout(node, 0.5, training=False)
        npt.assert_array_equal(out.value, a)
        assert out is node

    def test_rate_zero_is_identity(self):
        rng = np.random.default_rng(9)
        a = rand(rng, 5, 5)
        node = dc.constant(a)
        out = dropout(node, 0.0, training=True, rng=rng)
        npt.assert_array_equal(out.value, a)
        assert out is node

    def test_survivor_fraction(self):
        rng = np.random.default_rng(10)
        a = np.ones((100, 100))
        out = dropout(dc.constant(a), 0.5, training=True, rng=rng)
        survivors = (out.value != 0).mean()
        assert abs(survivors - 0.5) < 0.02

    def test_training_expectation_matches_input(self):
        # inverted dropout keeps E[out] == input; 3 sigma band over 10^4 draws
        rng = np.random.default_rng(11)
        rate, draws, value = 0.3, 10_000, 2.0
        total = sum(dropout(dc.constant([[value]]), rate, True, rng).value[0, 0]
                    for _ in range(draws))
        sigma = value / (1 - rate) * np.sqrt(rate * (1 - rate) / draws)
        assert abs(total / draws - value) < 3 * sigma

    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            dropout(dc.constant([[1.0]]), 1.0, training=True, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_dropout_masks_follow_per_sample_order(self, batch):
        sites = [(batch + (4, 5), 0.5), (batch + (2, 3), 0.2)]
        masks = dc.dropout_masks(np.random.default_rng(18), True, sites)
        sequential = np.random.default_rng(18)
        for b in range(batch[0] if batch else 1):
            for mask, (shape, rate) in zip(masks, sites):
                expected = (sequential.random(shape[-2:]) >= rate) / (1.0 - rate)
                npt.assert_array_equal(mask[b] if batch else mask, expected)

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_dropout_masks_draw_once_per_forward(self, batch):
        sites = [(batch + (4, 5), 0.5), (batch + (2, 3), 0.2)]
        rng, reference = np.random.default_rng(19), np.random.default_rng(19)
        dc.dropout_masks(rng, True, sites)
        reference.random(batch + (4 * 5 + 2 * 3,))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_dropout_masks_draw_nothing_in_eval_mode(self):
        rng = np.random.default_rng(20)
        state = rng.bit_generator.state
        assert dc.dropout_masks(rng, False, [((3, 4, 5), 0.5), ((3, 2, 3), 0.2)]) == [None, None]
        assert rng.bit_generator.state == state

    def test_dropout_masks_check_sites(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionError):
            dc.dropout_masks(rng, True, [((3, 4, 5), 0.5), ((2, 2, 3), 0.5)])
        with pytest.raises(ParameterError):
            dc.dropout_masks(rng, False, [((4, 5), 1.0)])
        with pytest.raises(ParameterError):
            dc.dropout_masks(None, True, [((4, 5), 0.5)])


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

    @pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan")])
    def test_non_positive_eps_is_rejected(self, eps):
        w = Parameter(np.ones((2, 2)), "w")
        with pytest.raises(ParameterError):
            grad_check(lambda: dc.sum_all(w), [w], eps=eps)


def test_parameter_zero_grad():
    p = Parameter(np.ones((2, 2)), "p")
    loss = dc.sum_all(dc.elementwise_mul(p, p))
    backward(loss)
    assert np.any(p.grad != 0)
    dc.zero_grads([p])
    npt.assert_array_equal(p.grad, np.zeros((2, 2)))


def test_backward_adds_into_the_parameter_gradient_buffer():
    rng = np.random.default_rng(19)
    p = Parameter(rand(rng, 3, 4), "p")
    buffer = p.grad
    backward(dc.sum_all(dc.elementwise_mul(p, p)))
    assert p.grad is buffer
    once = p.grad.copy()
    npt.assert_array_equal(once, 2.0 * p.value)
    backward(dc.sum_all(dc.elementwise_mul(p, p)))  # no zero_grads in between
    assert p.grad is buffer
    npt.assert_array_equal(p.grad, 2.0 * once)


def test_backward_sums_a_batched_gradient_to_a_two_dimensional_parent():
    # the root's vjp hands a (B, r, c) gradient to a 2-D node, as a fused
    # layer's vjp does for a Parameter shared by the batch
    rng = np.random.default_rng(20)
    p = Parameter(rand(rng, 3, 4), "p")
    shared = Node(p.value, (p,), lambda g: (g,))
    batched = rng.uniform(-2, 2, (5, 3, 4))
    backward(Node(np.zeros((1, 1)), (shared,), lambda g: (batched,)))
    npt.assert_array_equal(shared.grad, batched.sum(axis=0))
    npt.assert_array_equal(p.grad, batched.sum(axis=0))


def test_every_public_function_has_a_library_caller():
    """Ops that only tests use belong in ``tests/oracles.py``, not here."""
    package = Path(dc.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        if path.name == "diffcore.py":
            continue
        text = path.read_text(encoding="utf-8")
        used.update(re.findall(r"\bdc\.(\w+)", text))
        for names in re.findall(r"from \.diffcore import (\([^)]*\)|.*)", text):
            used.update(re.findall(r"\w+", names))
    public = {name for name, f in inspect.getmembers(dc, inspect.isfunction)
              if f.__module__ == dc.__name__ and not name.startswith("_")}
    assert public - used == set()


@pytest.mark.parametrize("op", [dc.add, sub, dc.elementwise_mul, elementwise_div])
def test_binary_vjp_skips_constant_operand(op):
    rng = np.random.default_rng(18)
    p = Parameter(rng.uniform(0.5, 2.0, (3, 4)), "p")
    c = dc.constant(rng.uniform(0.5, 2.0, (3, 1)))
    g = np.ones((3, 4))
    grad_p, grad_c = op(p, c)._vjp(g)
    assert grad_p.shape == (3, 4) and grad_c is None
    grad_c, grad_p = op(c, p)._vjp(g)
    assert grad_c is None and grad_p.shape == (3, 4)


def test_inference_records_no_graph_and_restores_parameters():
    rng = np.random.default_rng(17)
    w = Parameter(rand(rng, 3, 3), "w")
    with dc.inference([w]):
        out = dc.matmul(dc.constant(rng.uniform(-2, 2, (2, 3, 3))), w)
        assert not out.requires_grad
        assert out._parents == ()
    assert w.requires_grad
    backward(dc.sum_all(dc.matmul(out.value, w)))
    assert np.any(w.grad != 0)


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(16)
    a = dc.constant(rand(rng, 3, 3))
    chain = softmax_rows(tanh_ew(dc.matmul(a, sigmoid(a))))
    assert np.all(np.isfinite(chain.value))


# Batch axis: every op on a (B, r, c) stack must equal the stack of its
# per-sample results, and a 2-D Parameter operand shared by the batch must
# get the sum of its per-sample gradients. Each case builds the op from the
# activation ``a`` (r x c per sample) and a 2-D operand ``p``; the shapes
# are functions of (r, c), and ``positive`` keeps log/div inputs away from 0.
# The ``_row``/``_col``/``_scalar`` cases broadcast a size-1 axis of ``p``.
BATCH_CASES = {
    "sigmoid": (lambda a, p: sigmoid(a), None),
    "tanh_ew": (lambda a, p: tanh_ew(a), None),
    "relu": (lambda a, p: relu(a), None),
    "exp_ew": (lambda a, p: exp_ew(a), None),
    "log_ew": (lambda a, p: log_ew(a), None),
    "softmax_rows": (lambda a, p: softmax_rows(a), None),
    "transpose": (lambda a, p: transpose(a), None),
    "mean_rows": (lambda a, p: dc.mean_rows(a), None),
    "sum_cols": (lambda a, p: sum_cols(a), None),
    "sum_all": (lambda a, p: dc.sum_all(a), None),
    "scale": (lambda a, p: scale(a, -1.7), None),
    "clamp_min": (lambda a, p: clamp_min(a, 1.0), None),
    "slice_cols": (lambda a, p: slice_cols(a, 1, a.cols), None),
    "dropout_eval": (lambda a, p: dropout(a, 0.5, False), None),
    "concat_cols": (lambda a, p: dc.concat_cols(a, scale(a, 2.0)), None),
    "matmul_batch_batch": (lambda a, p: dc.matmul(a, transpose(a)), None),
    "matmul_param_right": (lambda a, p: dc.matmul(a, p), lambda r, c: (c, 3)),
    "matmul_param_left": (lambda a, p: dc.matmul(p, a), lambda r, c: (2, r)),
    "add": (lambda a, p: dc.add(a, p), lambda r, c: (r, c)),
    "sub": (lambda a, p: sub(p, a), lambda r, c: (r, c)),
    "elementwise_mul": (lambda a, p: dc.elementwise_mul(a, p), lambda r, c: (r, c)),
    "elementwise_div": (lambda a, p: elementwise_div(p, a), lambda r, c: (r, c)),
    "add_row": (lambda a, p: dc.add(a, p), lambda r, c: (1, c)),
    "sub_row": (lambda a, p: sub(p, a), lambda r, c: (1, c)),
    "elementwise_mul_col": (lambda a, p: dc.elementwise_mul(a, p), lambda r, c: (r, 1)),
    "elementwise_div_scalar": (lambda a, p: elementwise_div(p, a), lambda r, c: (1, 1)),
    "layer_norm": (lambda a, p: dc.layer_norm(a, p, p), lambda r, c: (1, c)),
}


def _grads_of(build, a_value, p_value):
    """Output value, activation gradient and parameter gradient of
    sum(out * out) for one forward of ``build``."""
    a = Parameter(a_value, "a")
    p = Parameter(p_value, "p") if p_value is not None else None
    out = build(a, p)
    backward(dc.sum_all(dc.elementwise_mul(out, out)))
    return out.value, a.grad, None if p is None else p.grad


class TestBatchAxis:
    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    @settings(max_examples=15, deadline=None)
    @given(batch=st.integers(1, 4), rows=st.integers(1, 4), cols=st.integers(2, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_batched_op_equals_stacked_per_sample_op(self, name, batch, rows, cols, seed):
        build, param_shape = BATCH_CASES[name]
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.5, 2.0, (batch, rows, cols))
        p = rng.uniform(0.5, 2.0, param_shape(rows, cols)) if param_shape else None

        value, a_grad, p_grad = _grads_of(build, a, p)
        per_sample = [_grads_of(build, a[i], p) for i in range(batch)]

        if name == "sum_all":
            # reduces the whole batch to the 1x1 root, so the loss is the
            # square of the batch total, not a sum of per-sample squares
            npt.assert_allclose(value, sum(v for v, _, _ in per_sample), rtol=1e-12)
            npt.assert_allclose(a_grad, np.full(a.shape, 2.0 * value[0, 0]), rtol=1e-12)
            return
        npt.assert_allclose(value, np.stack([v for v, _, _ in per_sample]),
                            rtol=1e-12, atol=1e-12)
        npt.assert_allclose(a_grad, np.stack([g for _, g, _ in per_sample]),
                            rtol=1e-12, atol=1e-12)
        if p is not None:
            assert p_grad.shape == p.shape
            npt.assert_allclose(p_grad, sum(g for _, _, g in per_sample),
                                rtol=1e-12, atol=1e-12)

    def test_batch_sizes_must_agree(self):
        with pytest.raises(DimensionError):
            dc.add(dc.constant(np.zeros((2, 3, 3))), dc.constant(np.zeros((3, 3, 3))))
        with pytest.raises(DimensionError):
            dc.matmul(dc.constant(np.zeros((2, 3, 3))), dc.constant(np.zeros((3, 3, 3))))
        with pytest.raises(DimensionError):
            dc.concat_cols(dc.constant(np.zeros((2, 3, 3))), dc.constant(np.zeros((3, 3))))
