"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. The training criteria are the slow ones (a few minutes each on
one CPU); everything else finishes in seconds.
"""

import time

import numpy as np
import pytest

from oracles import (ace_bruteforce, ece_bruteforce, emd_cost_bruteforce,
                     emd_cost_permutations)

from otfusion import audio_features as af
from otfusion import calibration as cal
from otfusion import diffcore as dc
from otfusion import gated_attention as ga
from otfusion import transport as tr
from otfusion.cli import main as cli_main
from otfusion.gradsuite import run_suite
from otfusion.model import ModelConfig, ablation_variant, assemble_model
from otfusion.significance import aso, violation_ratio
from otfusion.synthetic import SyntheticTaskConfig
from otfusion.training import TrainConfig, ablation_harness, run_experiment

SEPARABLE_TASK = SyntheticTaskConfig(
    n=12, t=12, d=32, class_separation=3.0, cross_modal_correlation=0.5,
    train_size=200, val_size=60, test_size=60, seed=0,
)
CHANCE_TASK = SyntheticTaskConfig(
    n=12, t=12, d=32, class_separation=0.0, cross_modal_correlation=0.0,
    train_size=200, val_size=60, test_size=60, seed=0,
)
# Criterion 6 pins alpha (0.001 vs none), separation 1.5 sigma, and 5 runs;
# the rest is frozen here. The larger test split keeps the per-run ECE
# estimate from drowning the (small) smoothing effect in estimator noise.
NOISY_TASK = SyntheticTaskConfig(
    n=12, t=12, d=32, class_separation=1.5, cross_modal_correlation=0.5,
    train_size=200, val_size=60, test_size=200, seed=2,
)
FIVE_RUNS = TrainConfig(runs=5, max_epochs=100)


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {criterion}: {description}{suffix}")
    assert ok, f"criterion {criterion} failed: {description}{suffix}"


def test_criterion_1_gradient_suite():
    start = time.time()
    results = run_suite(seed=0)
    elapsed = time.time() - start
    layer_ok = all(r.passed for r in results if r.tol == 1e-4)
    e2e_ok = all(r.passed for r in results if r.tol == 1e-3)
    worst = max(r.max_rel_error for r in results)
    report(1, "every layer and the assembled model pass gradient checks",
           layer_ok and e2e_ok and elapsed < 120,
           f"worst rel error {worst:.2e}, {elapsed:.0f}s")


def test_criterion_2_ot_suite():
    start = time.time()
    rng = np.random.default_rng(0)

    # identity transport exact
    pts = rng.uniform(-2, 2, (6, 4))
    identity_ok = np.allclose(tr.ot_adapt(pts, pts), pts, atol=1e-12)

    # >= 200 brute-force comparisons at sizes <= 4, marginal violation < 1e-9
    cost_ok = True
    violation_ok = True
    for i in range(200):
        n, m = rng.integers(2, 5, size=2)
        if i % 2:
            a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        else:
            a = rng.uniform(0.1, 1, n)
            a /= a.sum()
            b = rng.uniform(0.1, 1, m)
            b /= b.sum()
        cost = rng.uniform(0, 3, (n, m))
        coupling = tr.emd_exact(a, b, cost)
        oracle = emd_cost_bruteforce(a, b, cost)
        cost_ok &= abs(coupling.cost - oracle) < 1e-9
        violation_ok &= coupling.marginal_violation < 1e-9

    # uniform square instances against the permutation oracle
    for _ in range(20):
        n = int(rng.integers(2, 5))
        cost = rng.uniform(0, 3, (n, n))
        coupling = tr.emd_exact(np.full(n, 1 / n), np.full(n, 1 / n), cost)
        cost_ok &= abs(coupling.cost - emd_cost_permutations(cost)) < 1e-9

    # sinkhorn cost dominance and barycentric convex hull on every instance
    dominance_ok = True
    hull_ok = True
    for _ in range(50):
        n, m = rng.integers(2, 9, size=2)
        a = rng.uniform(0.1, 1, n)
        a /= a.sum()
        b = rng.uniform(0.1, 1, m)
        b /= b.sum()
        cost = rng.uniform(0, 2, (n, m))
        exact = tr.emd_exact(a, b, cost)
        entropic = tr.sinkhorn(a, b, cost, eps=rng.uniform(0.02, 0.5))
        dominance_ok &= entropic.cost >= exact.cost - 1e-9
        target = rng.uniform(-2, 2, (m, 3))
        mapped = tr.barycentric_map(exact, target)
        hull_ok &= bool(
            np.all(mapped >= target.min(axis=0) - 1e-9)
            and np.all(mapped <= target.max(axis=0) + 1e-9)
        )
    elapsed = time.time() - start
    report(2, "exact EMD, Sinkhorn dominance, and barycentric bounds",
           identity_ok and cost_ok and violation_ok and dominance_ok and hull_ok
           and elapsed < 60,
           f"{elapsed:.0f}s for 270 instances")


def test_criterion_3_calibration_suite():
    targets = cal.smooth_targets(0, 0.001, 2)[0]
    smoothing_ok = targets[0] == 0.9995 and targets[1] == 0.0005

    perfect = cal.PredictionSet(np.tile([0.0, 1.0], (8, 1)), np.ones(8, dtype=int))
    perfect_ok = cal.ece(perfect, 10)[0] == 0.0

    half = cal.PredictionSet(np.tile([0.0, 1.0], (8, 1)),
                             np.array([1, 0, 1, 0, 1, 0, 1, 0]))
    half_ok = cal.ece(half, 10)[0] == 0.5

    rng = np.random.default_rng(1)
    oracle_ok = True
    for _ in range(500):
        n = int(rng.integers(1, 201))
        k = int(rng.integers(2, 4))
        logits = rng.uniform(-3, 3, (n, k))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        labels = rng.integers(0, k, n)
        preds = cal.PredictionSet(probs, labels)
        bins = int(rng.integers(1, 16))
        ranges = int(rng.integers(1, min(n, 12) + 1))
        oracle_ok &= cal.ece(preds, bins)[0] == ece_bruteforce(probs, labels, bins)
        oracle_ok &= cal.ace(preds, ranges)[0] == ace_bruteforce(probs, labels, ranges)
    report(3, "label smoothing exact; ECE/ACE match brute-force oracles on 500 sets",
           smoothing_ok and perfect_ok and half_ok and oracle_ok)


def test_criterion_4_aso_suite():
    rng = np.random.default_rng(2)
    b = rng.normal(0, 1, 5)
    shifted_ok = aso(b + 10.0, b, seed=0).eps_min < 0.05

    constant = aso([3.0] * 6, [3.0] * 6, seed=0)
    constant_ok = constant.eps_min == 0.5 and constant.degenerate

    x, y = rng.normal(0, 1, 6), rng.normal(0.3, 1, 6)
    determinism_ok = aso(x, y, seed=5).eps_min == aso(x, y, seed=5).eps_min

    affine_ok = True
    for _ in range(25):
        p, q = rng.normal(0, 1, 7), rng.normal(0.2, 1.3, 5)
        scale, shift = rng.uniform(0.1, 4), rng.uniform(-5, 5)
        affine_ok &= abs(
            violation_ratio(p, q) - violation_ratio(scale * p + shift, scale * q + shift)
        ) < 1e-6
    report(4, "ASO dominance, degenerate convention, determinism, affine invariance",
           shifted_ok and constant_ok and determinism_ok and affine_ok)


@pytest.mark.slow
def test_criterion_5_end_to_end_learning():
    details = []
    ok = True
    for fusion in ("attn_fusion", "co_attention"):
        start = time.time()
        mc = ModelConfig(d=32, seq_len=12, strategy="deep", fusion=fusion)
        result = run_experiment(mc, FIVE_RUNS, SEPARABLE_TASK, fusion)
        elapsed = time.time() - start
        mean_acc = result.aggregate["accuracy"]["mean"]
        epochs_ok = all(r.epochs <= 100 for r in result.runs)
        details.append(f"{fusion}: acc {mean_acc:.3f} in {elapsed:.0f}s")
        ok &= mean_acc >= 0.90 and epochs_ok and elapsed < 300

    chance = run_experiment(ModelConfig(d=32, seq_len=12, strategy="deep"),
                            FIVE_RUNS, CHANCE_TASK, "chance")
    chance_acc = chance.aggregate["accuracy"]["mean"]
    details.append(f"chance: acc {chance_acc:.3f}")
    ok &= 0.35 <= chance_acc <= 0.65
    report(5, "both fusion heads learn the separable task; chance task stays at chance",
           ok, "; ".join(details))


@pytest.mark.slow
def test_criterion_6_label_smoothing_direction():
    tc = TrainConfig(runs=5, max_epochs=20)
    mc = ModelConfig(d=32, seq_len=12, strategy="deep", fusion="attn_fusion")
    smooth = run_experiment(mc, tc, NOISY_TASK, "smooth")
    plain = run_experiment(
        ModelConfig(d=32, seq_len=12, strategy="deep", fusion="attn_fusion",
                    label_smoothing_alpha=0.0),
        tc, NOISY_TASK, "plain",
    )
    ece_smooth = smooth.metric_values("ece")
    ece_plain = plain.metric_values("ece")
    mean_ok = np.mean(ece_smooth) <= np.mean(ece_plain)
    # higher-is-better scores: negated ECE, smoothing as sample A
    eps = aso([-v for v in ece_smooth], [-v for v in ece_plain], seed=0).eps_min
    report(6, "label smoothing does not hurt calibration on the noisy task",
           mean_ok or eps <= 0.5,
           f"mean ECE {np.mean(ece_smooth):.4f} (smooth) vs {np.mean(ece_plain):.4f}"
           f" (plain), eps_min {eps:.3f}")


@pytest.mark.slow
def test_criterion_7_ablation_harness():
    task = SyntheticTaskConfig(n=8, t=8, d=16, class_separation=3.0,
                               cross_modal_correlation=0.5, train_size=60,
                               val_size=20, test_size=20, seed=0)
    tc = TrainConfig(runs=2, max_epochs=4)
    base = ModelConfig(d=16, seq_len=8, strategy="deep", otk_iters=15)

    harness_ok = True
    labels = []
    for axis in ("no_context", "no_gate", "no_ot", "repeat_instead_of_otk",
                 "no_fusion", "layer_sweep"):
        for rep in ablation_harness(base, axis, tc, task):
            labels.append(rep.label)
            harness_ok &= not any(r.aborted for r in rep.runs)
            harness_ok &= set(rep.aggregate) == {"precision", "recall", "f1",
                                                 "accuracy", "specificity", "ece", "ace"}
    count_ok = len(labels) == 10  # five toggles + five layer counts

    # the mask-override variant must equal vanilla self-attention exactly
    variant_cfg = ablation_variant(base, "no_gate")[0][1]
    model = assemble_model(variant_cfg, seed=0)
    rng = np.random.default_rng(3)
    s = rng.uniform(-2, 2, (8, 16))
    gated_out = ga.gated_attention(dc.constant(s), model.gated_layer,
                                   mask_override=np.ones((8, 2))).value
    e = np.exp
    scores = (s * 1.0) @ (s * 1.0).T * (1.0 / np.sqrt(16))
    shifted = scores - scores.max(axis=1, keepdims=True)
    vanilla = (e(shifted) / e(shifted).sum(axis=1, keepdims=True)) @ s
    bitwise_ok = np.array_equal(gated_out, vanilla)

    report(7, "all six ablation variants train; ones-mask equals vanilla attention",
           harness_ok and count_ok and bitwise_ok, f"{len(labels)} variants")


def test_criterion_8_audio_features():
    sr, n_fft, hop = 16000, 1024, 256
    k = 60
    t = np.arange(sr) / sr
    w = af.Waveform(np.sin(2 * np.pi * (k * sr / n_fft) * t), sr)
    spec = np.abs(af.stft(w, n_fft, hop))
    interior = spec[:, 3:-3]
    peak_ok = np.all(interior.argmax(axis=0) == k)

    delta_ok = np.array_equal(af.delta(np.full((5, 40), 1.7), 9), np.zeros((5, 40)))

    params = af.FeatureParams(n_fft=512, hop=128, n_mels=40)
    wave = af.Waveform(np.random.default_rng(4).standard_normal(8000), 8000)
    image_a = af.to_image(wave, params)
    image_b = af.to_image(af.Waveform(wave.samples.copy(), 8000), params)
    shape_ok = image_a.channels.shape == (3, 224, 224)
    deterministic_ok = np.array_equal(image_a.channels, image_b.channels)
    report(8, "sine peak exact, delta of constants zero, 3x224x224, deterministic",
           peak_ok and delta_ok and shape_ok and deterministic_ok)


@pytest.mark.slow
def test_criterion_9_cli_reproducibility(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        "label = repro\n"
        "task.n = 8\ntask.t = 8\ntask.d = 16\n"
        "task.train_size = 40\ntask.val_size = 16\ntask.test_size = 16\n"
        "model.d = 16\nmodel.seq_len = 8\nmodel.layers = 2\nmodel.otk_iters = 15\n"
        "train.runs = 3\ntrain.max_epochs = 5\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = cli_main(["train", "--config", str(config), "--out", str(out_a)])
    rc_b = cli_main(["train", "--config", str(config), "--out", str(out_b)])
    same_json = (out_a / "repro.json").read_bytes() == (out_b / "repro.json").read_bytes()
    same_csv = (out_a / "repro.csv").read_bytes() == (out_b / "repro.csv").read_bytes()
    report(9, "rerunning a CLI experiment yields byte-identical report files",
           rc_a == 0 and rc_b == 0 and same_json and same_csv)
