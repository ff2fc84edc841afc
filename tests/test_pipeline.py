import numpy as np
import numpy.testing as npt
import pytest

from oracles import expected_parameter_count

from otfusion import diffcore as dc
from otfusion import transport as tr
from otfusion.calibration import PredictionSet
from otfusion.errors import InputError, ParameterError
from otfusion.model import ModelConfig, ablation_variant, assemble_model
from otfusion.significance import aso
from otfusion.synthetic import SyntheticTaskConfig, generate_task
from otfusion.training import (EarlyStopping, TrainConfig, classification_metrics,
                               evaluate, lr_at_epoch, run_experiment, train)


def tiny_task(**kw):
    base = dict(n=6, t=6, d=8, class_separation=3.0, cross_modal_correlation=0.5,
                train_size=40, val_size=16, test_size=16, seed=0)
    base.update(kw)
    return SyntheticTaskConfig(**base)


def tiny_model(**kw):
    base = dict(d=8, seq_len=6, strategy="deep", layers=2, d_q=6, d_k=6, d_g=4,
                k=4, d_z=8, otk_iters=10)
    base.update(kw)
    return ModelConfig(**base)


def tiny_train(**kw):
    base = dict(max_epochs=6, runs=1, lr=0.05)
    base.update(kw)
    return TrainConfig(**base)


class TestGenerateTask:
    def test_deterministic_given_seed(self):
        a = generate_task(tiny_task())
        b = generate_task(tiny_task())
        npt.assert_array_equal(a.train[0].x, b.train[0].x)
        npt.assert_array_equal(a.test[-1].y, b.test[-1].y)
        assert [s.label for s in a.train] == [s.label for s in b.train]

    def test_different_seed_differs(self):
        a = generate_task(tiny_task())
        b = generate_task(tiny_task(seed=1))
        assert not np.array_equal(a.train[0].x, b.train[0].x)

    def test_balanced_splits(self):
        data = generate_task(tiny_task())
        for split in (data.train, data.val, data.test):
            labels = [s.label for s in split]
            assert abs(labels.count(0) - labels.count(1)) <= 1

    def test_shapes(self):
        data = generate_task(tiny_task(n=5, t=9, d=4))
        assert data.train[0].x.shape == (5, 4)
        assert data.train[0].y.shape == (9, 4)

    def test_separable_task_passes_linear_probe(self):
        # oracle: least-squares probe on mean-pooled concatenated features
        data = generate_task(tiny_task(train_size=120, test_size=60))

        def pool(samples):
            return np.array([np.concatenate([s.x.mean(0), s.y.mean(0)]) for s in samples])

        x_train, y_train = pool(data.train), np.array([s.label for s in data.train])
        x_test, y_test = pool(data.test), np.array([s.label for s in data.test])
        design = np.hstack([x_train, np.ones((len(x_train), 1))])
        w, *_ = np.linalg.lstsq(design, 2.0 * y_train - 1.0, rcond=None)
        pred = (np.hstack([x_test, np.ones((len(x_test), 1))]) @ w) > 0
        assert (pred == y_test).mean() >= 0.95

    def test_validation(self):
        with pytest.raises(ParameterError):
            tiny_task(cross_modal_correlation=1.5)
        with pytest.raises(ParameterError):
            tiny_task(train_size=0)

    @pytest.mark.parametrize("noise_std", [0.0, -1.0, np.nan])
    def test_non_positive_noise_std_rejected(self, noise_std):
        with pytest.raises(ParameterError, match="noise_std"):
            tiny_task(noise_std=noise_std)

    @pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf])
    def test_non_finite_class_separation_rejected(self, separation):
        with pytest.raises(ParameterError, match="class_separation"):
            tiny_task(class_separation=separation)

    def test_zero_class_separation_accepted(self):
        data = generate_task(tiny_task(class_separation=0.0))
        assert np.isfinite(data.train[0].x).all()


class TestAssembleModel:
    @pytest.mark.parametrize("fusion", ["co_attention", "attn_fusion", "concat"])
    @pytest.mark.parametrize("strategy", ["global", "deep", "deep_global"])
    def test_parameter_count_matches_shape_sum(self, fusion, strategy):
        cfg = tiny_model(fusion=fusion, strategy=strategy, layers=None)
        model = assemble_model(cfg, seed=0)
        assert model.parameter_count() == expected_parameter_count(cfg)

    @pytest.mark.parametrize("overrides", [
        dict(seq_len=0, otk_mode="repeat"), dict(d=0), dict(d_q=0), dict(d_k=0),
        dict(d_g=0), dict(fusion="co_attention", k=0), dict(d_z=0), dict(seq_len=-1),
    ])
    def test_sizes_below_one_rejected(self, overrides):
        with pytest.raises(ParameterError):
            tiny_model(**overrides)

    @pytest.mark.parametrize("overrides", [
        dict(otk_eps=0.0), dict(otk_eps=-0.1), dict(otk_eps=np.nan), dict(otk_iters=0),
    ])
    def test_bad_otk_settings_rejected_at_construction(self, overrides):
        with pytest.raises(ParameterError):
            tiny_model(**overrides)

    @pytest.mark.parametrize("overrides", [
        dict(context_gate_override=1.5), dict(context_gate_override=-0.1),
        dict(context_gate_override=np.nan), dict(layers=0), dict(layers=2.5),
    ])
    def test_bad_gate_and_layers_rejected_at_construction(self, overrides):
        with pytest.raises(ParameterError):
            tiny_model(**overrides)

    @pytest.mark.parametrize("name", ["d", "seq_len", "d_q", "d_k", "d_g", "k", "d_z",
                                      "otk_iters", "layers"])
    @pytest.mark.parametrize("bad", [2.5, np.nan])
    def test_fractional_sizes_rejected_at_construction(self, name, bad):
        with pytest.raises(ParameterError, match=f"{name} must be >= 1 and an integer"):
            tiny_model(**{name: bad})

    @pytest.mark.parametrize("overrides", [
        dict(context_gate_override=0.0), dict(context_gate_override=1.0),
        dict(layers=None), dict(layers=1),
    ])
    def test_gate_and_layers_at_the_edges_accepted(self, overrides):
        model = assemble_model(tiny_model(**overrides), seed=0)
        assert model.parameter_count() == expected_parameter_count(model.cfg)

    def test_sizes_of_one_accepted(self):
        cfg = tiny_model(d=1, seq_len=1, d_q=1, d_k=1, d_g=1, k=1, d_z=1)
        rng = np.random.default_rng(4)
        logits = assemble_model(cfg, seed=0).forward(rng.standard_normal((2, 1, 1)),
                                                     rng.standard_normal((2, 3, 1)), False)
        assert logits.shape == (2, 1, 2) and np.isfinite(logits.value).all()

    def test_forward_emits_two_logits(self):
        rng = np.random.default_rng(0)
        model = assemble_model(tiny_model(), seed=1)
        logits = model.forward(rng.standard_normal((6, 8)), rng.standard_normal((6, 8)), False)
        assert logits.shape == (1, 2)
        assert np.all(np.isfinite(logits.value))

    def test_eval_mode_deterministic(self):
        rng = np.random.default_rng(1)
        model = assemble_model(tiny_model(), seed=2)
        x, y = rng.standard_normal((6, 8)), rng.standard_normal((6, 8))
        npt.assert_array_equal(model.forward(x, y, False).value, model.forward(x, y, False).value)

    def test_same_seed_same_model(self):
        a = assemble_model(tiny_model(), seed=3)
        b = assemble_model(tiny_model(), seed=3)
        for pa, pb in zip(a.parameters(), b.parameters()):
            npt.assert_array_equal(pa.value, pb.value)

    def test_image_branch_modes(self):
        rng = np.random.default_rng(2)
        y_enc = rng.standard_normal((9, 8))
        repeat = assemble_model(tiny_model(otk_mode="repeat"), 0)._image_sequence(y_enc)
        assert repeat.shape == (6, 8)
        npt.assert_allclose(repeat.value, np.tile(y_enc.mean(0), (6, 1)), atol=1e-15)
        identity_model = assemble_model(tiny_model(otk_mode="identity"), 0)
        with pytest.raises(ParameterError):
            identity_model._image_sequence(y_enc)
        npt.assert_array_equal(
            identity_model._image_sequence(y_enc[:6]).value, y_enc[:6]
        )

    def test_forward_rejects_wrong_shapes(self):
        from otfusion.errors import DimensionError

        model = assemble_model(tiny_model(), seed=0)
        rng = np.random.default_rng(6)
        with pytest.raises(DimensionError):
            model.forward(rng.standard_normal((5, 8)), rng.standard_normal((6, 8)), False)
        with pytest.raises(DimensionError):
            model.forward(rng.standard_normal((6, 8)), rng.standard_normal((6, 7)), False)

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_one_plan_serves_both_directions(self, frozen, batch):
        model = assemble_model(tiny_model(), seed=5)
        model.freeze_ot_plans(frozen)
        rng = np.random.default_rng(7)
        shape = (6, 8) if batch is None else (batch, 6, 8)
        s, x = rng.standard_normal(shape), rng.standard_normal(shape)
        pairs = [(s, x)] if batch is None else list(zip(s, x))
        forward = np.stack([tr.transport_weights(si, xi) for si, xi in pairs])
        reverse = np.stack([tr.transport_weights(xi, si) for si, xi in pairs])
        w = model._transport_weights(s, x).reshape(forward.shape)
        npt.assert_array_equal(w, forward)
        npt.assert_array_equal(w.swapaxes(-1, -2), reverse)
        other = model._transport_weights(x, s).reshape(forward.shape)
        if frozen:  # the first forward's array stays pinned until unfrozen
            npt.assert_array_equal(other, forward)
            model.freeze_ot_plans(False)
            other = model._transport_weights(x, s).reshape(forward.shape)
        npt.assert_array_equal(other, reverse)

    @pytest.mark.parametrize("ot_enabled,calls", [(True, 3), (False, 0)])
    def test_one_solve_per_sample(self, monkeypatch, ot_enabled, calls):
        model = assemble_model(tiny_model(ot_enabled=ot_enabled), seed=5)
        solve = tr.linear_sum_assignment
        seen = []

        def counting(cost):
            seen.append(cost.shape)
            return solve(cost)

        monkeypatch.setattr(tr, "linear_sum_assignment", counting)
        rng = np.random.default_rng(8)
        model.forward(rng.standard_normal((3, 6, 8)), rng.standard_normal((3, 9, 8)), False)
        assert seen == [(6, 6)] * calls

    @pytest.mark.parametrize("otk_mode", ["otk", "repeat"])
    def test_model_path_never_reaches_the_general_solver(self, monkeypatch, otk_mode):
        def refuse(*args, **kwargs):
            raise AssertionError("the model's transport weights reached the general EMD path")

        monkeypatch.setattr(tr, "emd_exact", refuse)
        monkeypatch.setattr(tr, "linprog", refuse)
        model = assemble_model(tiny_model(otk_mode=otk_mode), seed=5)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((3, 6, 8)), rng.standard_normal((3, 9, 8))
        loss = model.loss(model.forward(x, y, True, np.random.default_rng(0)), [0, 1, 1])
        dc.backward(loss)
        assert np.isfinite(loss.value).all()
        _, result = evaluate(model, generate_task(tiny_task(test_size=8)).test)
        assert 0.0 <= result["metrics"]["accuracy"] <= 1.0

    @pytest.mark.parametrize("labels", [[0, 1.7], [0.5, 1], [np.nan, 1]])
    def test_loss_rejects_non_integer_labels(self, labels):
        model = assemble_model(tiny_model(), seed=0)
        rng = np.random.default_rng(10)
        logits = model.forward(rng.standard_normal((2, 6, 8)), rng.standard_normal((2, 6, 8)), False)
        with pytest.raises(InputError):
            model.loss(logits, labels)
        npt.assert_array_equal(model.loss(logits, [0.0, 1.0]).value, model.loss(logits, [0, 1]).value)

    @pytest.mark.parametrize("otk_mode", ["otk", "repeat"])
    def test_transposed_plan_is_optimal_under_ties(self, otk_mode):
        model = assemble_model(tiny_model(otk_mode=otk_mode), seed=6)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 8))[[0, 1, 0, 2, 1, 0]]  # duplicated text rows
        s = model._image_sequence(model.encode_image(rng.standard_normal((9, 8)))).value
        if otk_mode == "repeat":
            assert (s == s[0]).all()  # every image row equal: every plan ties
        plan = model._transport_weights(s, x).T / 6
        cost = tr.cost_matrix(x, s)
        exact = tr.emd_exact(np.full(6, 1 / 6), np.full(6, 1 / 6), cost).cost
        assert abs((plan * cost).sum() - exact) <= 1e-12

    def test_otk_reference_init_from_data(self):
        model = assemble_model(tiny_model(), seed=4)
        rows = np.random.default_rng(3).standard_normal((20, 8))
        before = model.references.value.copy()
        model.init_references(rows, np.random.default_rng(4))
        assert not np.array_equal(before, model.references.value)
        assert all(any(np.array_equal(ref, row) for row in rows)
                   for ref in model.references.value)


class TestBatchedModel:
    """A stacked minibatch through Model must give the per-sample results."""

    @staticmethod
    def batch(cfg, size=3, seed=11):
        rng = np.random.default_rng(seed)
        t = cfg.seq_len if cfg.otk_mode == "identity" else cfg.seq_len + 3
        xs = [rng.standard_normal((cfg.seq_len, cfg.d)) for _ in range(size)]
        ys = [rng.standard_normal((t, cfg.d)) for _ in range(size)]
        return xs, ys, [int(label) for label in rng.integers(0, 2, size)]

    @pytest.mark.parametrize("fusion", ["attn_fusion", "co_attention", "concat"])
    @pytest.mark.parametrize("otk_mode", ["otk", "repeat", "identity"])
    @pytest.mark.parametrize("ot_enabled", [True, False])
    @pytest.mark.parametrize("image_mask_ones", [False, True])
    def test_eval_logits_equal_per_sample(self, fusion, otk_mode, ot_enabled, image_mask_ones):
        cfg = tiny_model(fusion=fusion, otk_mode=otk_mode, ot_enabled=ot_enabled,
                         image_mask_ones=image_mask_ones)
        model = assemble_model(cfg, seed=3)
        xs, ys, _ = self.batch(cfg)
        batched = model.forward(np.stack(xs), np.stack(ys), False)
        assert batched.shape == (3, 1, 2)
        per_sample = np.stack([model.forward(x, y, False).value for x, y in zip(xs, ys)])
        npt.assert_allclose(batched.value, per_sample, rtol=0, atol=1e-12)
        probs = np.stack([model.predict_proba(x, y) for x, y in zip(xs, ys)])
        npt.assert_allclose(model.predict_proba(xs, ys), probs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fusion", ["attn_fusion", "co_attention", "concat"])
    def test_mean_loss_gradient_equals_mean_of_per_sample_gradients(self, fusion):
        cfg = tiny_model(fusion=fusion)
        model = assemble_model(cfg, seed=4)
        params = model.parameters()
        xs, ys, labels = self.batch(cfg, size=4, seed=12)
        expected = [np.zeros_like(p.value) for p in params]
        for x, y, label in zip(xs, ys, labels):
            dc.zero_grads(params)
            dc.backward(model.loss(model.forward(x, y, False), label))
            for total, p in zip(expected, params):
                total += p.grad / len(xs)
        dc.zero_grads(params)
        dc.backward(model.loss(model.forward(xs, ys, False), labels))
        for p, grad in zip(params, expected):
            npt.assert_allclose(p.grad, grad, rtol=0, atol=1e-12, err_msg=p.name)

    @pytest.mark.parametrize("fusion", ["attn_fusion", "co_attention"])
    def test_training_batch_equals_per_sample_forwards_on_the_same_stream(self, fusion):
        # A batched forward lays its dropout draws out sample by sample, so
        # it takes the masks that one-sample forwards run in sequence take
        # from an identically seeded generator: the same mean loss, the same
        # gradients, and the generator left in the same state.
        cfg = tiny_model(fusion=fusion)
        model = assemble_model(cfg, seed=4)
        params = model.parameters()
        xs, ys, labels = self.batch(cfg, size=4, seed=14)
        batch_rng = np.random.default_rng(13)
        dc.zero_grads(params)
        batched = model.loss(model.forward(xs, ys, True, batch_rng), labels)
        dc.backward(batched)
        batched_grads = [p.grad.copy() for p in params]

        sample_rng = np.random.default_rng(13)
        dc.zero_grads(params)
        losses = [model.loss(model.forward(x, y, True, sample_rng), label)
                  for x, y, label in zip(xs, ys, labels)]
        mean = losses[0]
        for loss in losses[1:]:
            mean = dc.add(mean, loss)
        mean = dc.scale(mean, 1.0 / len(losses))
        dc.backward(mean)
        assert batched.value[0, 0] == pytest.approx(mean.value[0, 0], rel=0, abs=1e-12)
        for p, grad in zip(params, batched_grads):
            npt.assert_allclose(grad, p.grad, rtol=0, atol=1e-12, err_msg=p.name)
        assert batch_rng.random() == sample_rng.random()

    def test_unequal_image_lengths_rejected(self):
        from otfusion.errors import DimensionError

        cfg = tiny_model()
        model = assemble_model(cfg, seed=0)
        xs, ys, _ = self.batch(cfg, size=2)
        with pytest.raises(DimensionError):
            model.forward(xs, [ys[0], ys[1][:-1]], False)
        with pytest.raises(DimensionError):
            model.forward(xs, ys[:1], False)


class TestTrainMechanics:
    @pytest.mark.parametrize("step_size", [0, -1])
    def test_step_size_below_one_rejected(self, step_size):
        with pytest.raises(ParameterError):
            TrainConfig(step_size=step_size)

    @pytest.mark.parametrize("field,value", [
        ("lr", 0.0), ("lr", -0.05), ("lr", np.inf), ("lr", np.nan),
        ("momentum", -0.1), ("momentum", 1.0), ("momentum", 1.5), ("momentum", np.nan),
        ("gamma", 0.0), ("gamma", -1.0), ("gamma", np.inf), ("gamma", np.nan),
    ])
    def test_out_of_range_optimizer_settings_rejected(self, field, value):
        with pytest.raises(ParameterError):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [("lr", 1e-6), ("momentum", 0.0),
                                             ("gamma", 1.0)])
    def test_optimizer_settings_at_the_edges_accepted(self, field, value):
        assert getattr(TrainConfig(**{field: value}), field) == value

    def test_lr_schedule(self):
        tc = TrainConfig(lr=0.1, step_size=4, gamma=0.1)
        assert [lr_at_epoch(tc, e) for e in range(9)] == pytest.approx(
            [0.1] * 4 + [0.01] * 4 + [0.001]
        )

    def test_early_stopping_counts_from_last_strict_minimum(self):
        stopper = EarlyStopping(patience=8)
        assert stopper.update(1.0)
        stopped_at = None
        for i, loss in enumerate(1.0 + 0.1 * np.arange(1, 20)):
            stopper.update(loss)
            if stopper.should_stop:
                stopped_at = i
                break
        assert stopped_at == 7  # the 8th consecutive non-improving epoch

    def test_early_stopping_resets_on_improvement(self):
        stopper = EarlyStopping(patience=3)
        for loss in (5.0, 6.0, 4.0, 4.5, 4.4, 4.41):
            stopper.update(loss)
        assert stopper.should_stop

    def test_training_improves_loss_and_restores_best(self):
        data = generate_task(tiny_task())
        model = assemble_model(tiny_model(), seed=0)
        record = train(model, data, tiny_train(), seed=0)
        assert record.epochs >= 1
        assert np.isfinite(record.best_val_loss)
        _, result = evaluate(model, data.test)
        assert result["metrics"]["accuracy"] >= 0.8


class TestClassificationMetrics:
    def test_all_correct_gives_ones(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.8, 0.2], [0.1, 0.9]])
        labels = np.array([0, 1, 0, 1])
        result = classification_metrics(PredictionSet(probs, labels))
        for name in ("precision", "recall", "f1", "accuracy", "specificity"):
            assert result["metrics"][name] == 1.0

    def test_all_predicted_positive_on_balanced_split(self):
        probs = np.array([[0.2, 0.8]] * 4)
        labels = np.array([0, 1, 0, 1])
        result = classification_metrics(PredictionSet(probs, labels))
        m = result["metrics"]
        assert m["recall"] == 1.0
        assert m["specificity"] == 0.0
        assert m["precision"] == 0.5
        assert "specificity" not in result["zero_division_flags"]

    def test_zero_denominators_flagged(self):
        probs = np.array([[0.9, 0.1]] * 3)
        labels = np.array([0, 0, 0])
        result = classification_metrics(PredictionSet(probs, labels))
        assert result["metrics"]["recall"] == 0.0
        assert "recall" in result["zero_division_flags"]
        assert "precision" in result["zero_division_flags"]

    def test_random_confusion_against_hand_oracle(self):
        rng = np.random.default_rng(5)
        n = 40
        labels = rng.integers(0, 2, n)
        conf = rng.uniform(0.5, 1.0, n)
        predicted = rng.integers(0, 2, n)
        probs = np.array([[1 - c, c] if p == 1 else [c, 1 - c]
                          for c, p in zip(conf, predicted)])
        result = classification_metrics(PredictionSet(probs, labels))
        tp = np.sum((predicted == 1) & (labels == 1))
        fp = np.sum((predicted == 1) & (labels == 0))
        fn = np.sum((predicted == 0) & (labels == 1))
        tn = np.sum((predicted == 0) & (labels == 0))
        m = result["metrics"]
        assert m["precision"] == pytest.approx(tp / (tp + fp))
        assert m["recall"] == pytest.approx(tp / (tp + fn))
        assert m["accuracy"] == pytest.approx((tp + tn) / n)
        if m["precision"] + m["recall"] > 0:
            expected_f1 = 2 * m["precision"] * m["recall"] / (m["precision"] + m["recall"])
            assert m["f1"] == pytest.approx(expected_f1)


class TestRunExperiment:
    def test_single_run_has_zero_std(self):
        report = run_experiment(tiny_model(), tiny_train(), tiny_task(), "single")
        for agg in report.aggregate.values():
            assert agg["std"] == 0.0

    def test_aggregate_mean_is_arithmetic_mean(self):
        tc = tiny_train(runs=2, max_epochs=3)
        report = run_experiment(tiny_model(), tc, tiny_task(), "pair")
        accs = report.metric_values("accuracy")
        assert report.aggregate["accuracy"]["mean"] == pytest.approx(np.mean(accs))

    def test_bit_identical_reports_for_same_seeds(self):
        tc = tiny_train(runs=2, max_epochs=3)
        first = run_experiment(tiny_model(), tc, tiny_task(), "repro")
        second = run_experiment(tiny_model(), tc, tiny_task(), "repro")
        assert first.to_json() == second.to_json()

    def test_aso_comparison_between_configs(self):
        tc = tiny_train(runs=3, max_epochs=3)
        strong = run_experiment(tiny_model(), tc, tiny_task(), "strong")
        weak_task = tiny_task(class_separation=0.0, cross_modal_correlation=0.0)
        weak = run_experiment(tiny_model(), tc, weak_task, "weak")
        with pytest.warns(UserWarning):  # 3 runs is below the 5-sample guidance
            result = aso(strong.metric_values("f1"), weak.metric_values("f1"),
                         bootstrap_iters=200, seed=0)
        assert 0.0 <= result.eps_min <= 1.0


class TestAblation:
    def test_variant_configs(self):
        base = tiny_model()
        assert ablation_variant(base, "no_context")[0][1].context_gate_override == 0.0
        assert ablation_variant(base, "no_gate")[0][1].image_mask_ones
        no_ot = ablation_variant(base, "no_ot")[0][1]
        assert not no_ot.ot_enabled and no_ot.otk_mode == "identity"
        assert ablation_variant(base, "repeat_instead_of_otk")[0][1].otk_mode == "repeat"
        assert ablation_variant(base, "no_fusion")[0][1].fusion == "concat"
        sweep = ablation_variant(base, "layer_sweep")
        assert [cfg.layers for _, cfg in sweep] == [1, 2, 3, 4, 5]

    def test_unknown_axis(self):
        with pytest.raises(ParameterError):
            ablation_variant(tiny_model(), "bogus")

    def test_no_fusion_variant_trains(self):
        report = run_experiment(tiny_model(fusion="concat"), tiny_train(max_epochs=3),
                                tiny_task(), "concat")
        assert not report.runs[0].aborted
        assert set(report.aggregate) == {"precision", "recall", "f1", "accuracy",
                                         "specificity", "ece", "ace"}
