import argparse
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from otfusion import calibration, gradsuite, significance, transport
from otfusion.audio_features import FeatureParams
from otfusion.cli import build_parser, main
from otfusion.diffcore import GradCheckReport
from otfusion.model import ModelConfig, ablation_variant

TINY_CONFIG = """
label = tiny
task.n = 6
task.t = 6
task.d = 8
task.train_size = 20
task.val_size = 8
task.test_size = 8
model.d = 8
model.seq_len = 6
model.layers = 2
model.otk_iters = 10
train.runs = 2
train.max_epochs = 3
"""


def _reject_constant(name):
    raise ValueError(f"non-finite JSON value {name}")


def loads_strict(text):
    """json.loads that rejects NaN and +-Infinity: CLI output must be strict JSON."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


class TestTrainCommand:
    def test_writes_reports_and_reruns_byte_identical(self, tiny_config, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["train", "--config", tiny_config, "--out", str(out_a)]) == 0
        assert main(["train", "--config", tiny_config, "--out", str(out_b)]) == 0
        json_a = (out_a / "tiny.json").read_bytes()
        json_b = (out_b / "tiny.json").read_bytes()
        assert json_a == json_b
        assert (out_a / "tiny.csv").read_bytes() == (out_b / "tiny.csv").read_bytes()
        payload = loads_strict(json_a)
        assert payload["label"] == "tiny"
        assert len(payload["runs"]) == 2

    def test_nan_otk_eps_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(TINY_CONFIG + "model.otk_eps = nan\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting", ["task.seed = -1", "train.base_seed = -1",
                                         "train.seeds = 3,-4"])
    def test_negative_seed_in_config_is_usage_error(self, tmp_path, capsys, setting):
        path = tmp_path / "exp.cfg"
        path.write_text(TINY_CONFIG + setting + "\n")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "out")]) == 3


class TestEvalCommand:
    def test_prints_split_metrics(self, tiny_config, capsys):
        assert main(["eval", "--config", tiny_config, "--seed", "1"]) == 0
        out = loads_strict(capsys.readouterr().out)
        assert set(out) == {"train", "val", "test"}
        assert "accuracy" in out["test"]

    def test_negative_seed_is_usage_error(self, tiny_config, capsys):
        assert main(["eval", "--config", tiny_config, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err

    def test_step_size_below_one_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(TINY_CONFIG + "train.step_size = 0\n")
        assert main(["eval", "--config", str(path), "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err

    @pytest.mark.parametrize("setting", ["train.lr = -0.05", "train.momentum = 1.5",
                                         "train.gamma = -1"])
    def test_out_of_range_optimizer_setting_is_usage_error(self, tmp_path, capsys, setting):
        path = tmp_path / "exp.cfg"
        path.write_text(TINY_CONFIG + setting + "\n")
        assert main(["eval", "--config", str(path), "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err

    @pytest.mark.parametrize("setting", ["model.context_gate_override = nan",
                                         "task.class_separation = nan",
                                         "task.noise_std = inf"])
    def test_nan_model_or_task_setting_is_usage_error(self, tmp_path, capsys, setting):
        path = tmp_path / "exp.cfg"
        path.write_text(TINY_CONFIG + setting + "\n")
        assert main(["eval", "--config", str(path), "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err


class TestGradcheckCommand:
    def test_suite_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out
        assert "FAIL" not in out

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err

    def test_failing_check_is_numerical_failure(self, monkeypatch, capsys):
        seeds = []

        def failing_suite(seed):
            seeds.append(seed)
            return [GradCheckReport("broken_layer", 0.5, 1e-4, False)]

        monkeypatch.setattr(gradsuite, "run_suite", failing_suite)
        assert main(["gradcheck", "--seed", "5"]) == 2
        captured = capsys.readouterr()
        assert "[FAIL] broken_layer" in captured.out
        assert "1 gradient check(s) failed" in captured.err
        assert seeds == [5]


class TestOtCommand:
    def test_emd_between_point_clouds(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        np.savetxt(src, rng.uniform(0, 1, (4, 2)), delimiter=",")
        np.savetxt(tgt, rng.uniform(0, 1, (4, 2)), delimiter=",")
        plan_path = tmp_path / "plan.csv"
        assert main(["ot", "--src", str(src), "--tgt", str(tgt),
                     "--plan-out", str(plan_path)]) == 0
        payload = loads_strict(capsys.readouterr().out)
        assert payload["method"] == "emd"
        assert payload["marginal_violation"] < 1e-9
        plan = np.loadtxt(plan_path, delimiter=",")
        assert plan.shape == (4, 4)

    def test_sinkhorn_method(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        np.savetxt(src, rng.uniform(0, 1, (3, 2)), delimiter=",")
        np.savetxt(tgt, rng.uniform(0, 1, (5, 2)), delimiter=",")
        assert main(["ot", "--src", str(src), "--tgt", str(tgt),
                     "--method", "sinkhorn", "--eps", "0.1"]) == 0
        payload = loads_strict(capsys.readouterr().out)
        assert payload["converged"]

    def test_sinkhorn_eps_overflowing_cost_is_numerical_failure(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        np.savetxt(src, rng.uniform(0, 1, (3, 2)), delimiter=",")
        np.savetxt(tgt, rng.uniform(0, 1, (4, 2)), delimiter=",")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ot", "--src", str(src), "--tgt", str(tgt), "--method", "sinkhorn",
                         "--eps", "1e-310"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure: " in captured.err and "eps=1e-310" in captured.err

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_sinkhorn_iters_below_one_is_usage_error(self, tmp_path, capsys, iters):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        src.write_text("0.1,0.2\n0.5,0.6\n")
        tgt.write_text("0.3,0.1\n0.7,0.9\n")
        assert main(["ot", "--src", str(src), "--tgt", str(tgt), "--method", "sinkhorn",
                     "--iters", iters]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err

    @pytest.mark.parametrize("method", ["emd", "sinkhorn"])
    def test_non_finite_point_is_usage_error(self, tmp_path, capsys, method):
        src = tmp_path / "src.csv"
        tgt = tmp_path / "tgt.csv"
        src.write_text("0.1,0.2\nnan,0.4\n0.5,0.6\n")
        tgt.write_text("0.3,0.1\n0.7,0.9\n")
        assert main(["ot", "--src", str(src), "--tgt", str(tgt), "--method", method]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err

    @pytest.mark.parametrize("empty", [("src",), ("tgt",), ("src", "tgt")])
    def test_empty_point_file_is_usage_error(self, tmp_path, capsys, empty):
        paths = {}
        for side in ("src", "tgt"):
            paths[side] = tmp_path / f"{side}.csv"
            paths[side].write_text("" if side in empty else "0.1,0.2\n0.5,0.6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["ot", "--src", str(paths["src"]), "--tgt", str(paths["tgt"])])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: point cloud {paths[empty[0]]} has no rows\n"


class TestCalibCommand:
    def test_metrics_from_csv(self, tmp_path, capsys):
        rows = ["0.9,0.1,0", "0.2,0.8,1", "0.3,0.7,0", "0.6,0.4,0"]
        path = tmp_path / "preds.csv"
        path.write_text("\n".join(rows) + "\n")
        bins_out = tmp_path / "bins.csv"
        assert main(["calib", "--input", str(path), "--ranges", "2",
                     "--bins-out", str(bins_out)]) == 0
        payload = loads_strict(capsys.readouterr().out)
        assert 0.0 <= payload["ece"] <= 1.0
        assert 0.0 <= payload["ace"] <= 1.0
        assert bins_out.exists()

    def test_non_integer_label_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "preds.csv"
        path.write_text("0.6,0.4,1.7\n0.2,0.8,1\n")
        assert main(["calib", "--input", str(path), "--ranges", "1"]) == 1
        assert "error: " in capsys.readouterr().err


class TestAsoCommand:
    def test_dominant_scores(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("\n".join(str(x) for x in [10.1, 10.2, 10.3, 10.4, 10.5]))
        b.write_text("\n".join(str(x) for x in [0.1, 0.2, 0.3, 0.4, 0.5]))
        assert main(["aso", str(a), str(b), "--seed", "0"]) == 0
        payload = loads_strict(capsys.readouterr().out)
        assert payload["eps_min"] < 0.05
        assert payload["verdict"] == "stochastically dominant"

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("0.9\n0.8\n0.7\n")
        assert main(["aso", str(a), str(a), "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_score_is_usage_error(self, tmp_path, capsys, bad):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("\n".join(["0.9", bad, "0.8", "0.7", "0.6"]))
        b.write_text("\n".join(["0.5", "0.4", "0.3", "0.2", "0.1"]))
        assert main(["aso", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err


@pytest.mark.parametrize("command, full_text, message", [
    ("aso", "0.1\n0.5\n", "error: score samples must be nonempty\n"),
    ("ot", "0.1,0.2\n0.5,0.6\n", "error: point cloud {empty} has no rows\n"),
], ids=["aso", "ot"])
def test_empty_input_prints_only_the_error(tmp_path, command, full_text, message):
    # a fresh interpreter, so stderr holds whatever a user would see
    empty, full = tmp_path / "empty.txt", tmp_path / "full.txt"
    empty.write_text("")
    full.write_text(full_text)
    args = ([str(empty), str(full)] if command == "aso"
            else ["--src", str(empty), "--tgt", str(full)])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-m", "otfusion.cli", command, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == message.format(empty=empty)


class TestFeaturesCommand:
    def test_wav_to_tensor(self, tmp_path, capsys):
        sr = 8000
        t = np.arange(sr) / sr
        samples = (0.4 * np.sin(2 * np.pi * 440 * t) * 32767).astype(np.int16)
        wav = tmp_path / "tone.wav"
        wavfile.write(wav, sr, samples)
        out = tmp_path / "feat.bin"
        assert main(["features", "--wav", str(wav), "--out", str(out),
                     "--n-fft", "512", "--mels", "40"]) == 0
        from otfusion.audio_features import load_tensor
        tensor = load_tensor(str(out))
        assert tensor.shape == (3, 224, 224)

    def test_pcm8_pcm16_and_float_wavs_load_to_one_scale(self, tmp_path):
        from otfusion.audio_features import load_wav

        sr = 8000
        tone = 100 / 128 * np.sin(2 * np.pi * 440 * np.arange(sr) / sr)
        formats = {"uint8": np.round(128 + 128 * tone).astype(np.uint8),
                   "int16": np.round(32768 * tone).astype(np.int16),
                   "float32": tone.astype(np.float32)}
        loaded = {}
        for name, samples in formats.items():
            wavfile.write(tmp_path / f"{name}.wav", sr, samples)
            loaded[name] = load_wav(str(tmp_path / f"{name}.wav")).samples
        for name in ("uint8", "int16"):
            np.testing.assert_allclose(loaded[name], loaded["float32"], rtol=0, atol=1 / 128)

    def test_missing_wav_is_io_error(self, tmp_path):
        assert main(["features", "--wav", str(tmp_path / "nope.wav"),
                     "--out", str(tmp_path / "f.bin")]) == 3

    def test_non_finite_float_wav_is_usage_error(self, tmp_path, capsys):
        samples = np.zeros(8000, dtype=np.float32)
        samples[10] = np.nan
        wav = tmp_path / "nan.wav"
        wavfile.write(wav, 8000, samples)
        out = tmp_path / "f.bin"
        assert main(["features", "--wav", str(wav), "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


class TestReportCommand:
    def test_merges_reports(self, tiny_config, tmp_path, capsys):
        out_dir = tmp_path / "r"
        assert main(["train", "--config", tiny_config, "--out", str(out_dir)]) == 0
        capsys.readouterr()
        table = tmp_path / "table.csv"
        assert main(["report", str(out_dir / "tiny.json"), "--out", str(table)]) == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0].startswith("architecture,precision_mean,precision_std,recall_mean")
        assert lines[1].startswith("tiny,")

    def test_report_reproduces_train_csv_bytes(self, tiny_config, tmp_path):
        out_dir = tmp_path / "r"
        assert main(["train", "--config", tiny_config, "--out", str(out_dir)]) == 0
        table = tmp_path / "t.csv"
        assert main(["report", str(out_dir / "tiny.json"), "--out", str(table)]) == 0
        assert table.read_bytes() == (out_dir / "tiny.csv").read_bytes()

    @pytest.mark.parametrize("content", ["not json", '{"label": "x"}', '["x"]',
                                         '{"aggregate": {}}'])
    def test_malformed_report_is_usage_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}")


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_bad_axis(self, tiny_config, tmp_path):
        assert main(["ablate", "--config", tiny_config, "--axis", "bogus",
                     "--out", str(tmp_path)]) == 1

    def test_missing_required_argument(self):
        assert main(["train"]) == 1


def test_every_offered_axis_builds_its_variants():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    axis = next(a for a in commands.choices["ablate"]._actions if a.dest == "axis")
    assert len(axis.choices) == 6
    for name in axis.choices:
        assert ablation_variant(ModelConfig(), name), name


def test_parser_defaults_match_the_library():
    def defaults(fn):
        return {name: p.default for name, p in inspect.signature(fn).parameters.items()}

    parse = build_parser().parse_args
    ot = parse(["ot", "--src", "a.csv", "--tgt", "b.csv"])
    assert ot.iters == defaults(transport.sinkhorn)["max_iters"]
    aso = parse(["aso", "a.txt", "b.txt"])
    library = defaults(significance.aso)
    assert (aso.confidence, aso.iterations, aso.comparisons, aso.seed) == (
        library["confidence"], library["bootstrap_iters"], library["num_comparisons"],
        library["seed"])
    features = parse(["features", "--wav", "a.wav", "--out", "a.bin"])
    params = FeatureParams()
    assert (features.n_fft, features.hop, features.mels) == (params.n_fft, params.hop,
                                                            params.n_mels)
    calib = parse(["calib", "--input", "p.csv"])
    assert calib.bins == defaults(calibration.ece)["num_bins"]
    assert calib.ranges == defaults(calibration.ace)["num_ranges"]
    assert parse(["gradcheck"]).seed == defaults(gradsuite.run_suite)["seed"]
