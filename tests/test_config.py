import pytest

from otfusion.config import (build_configs, load_configs, parse_flat_config,
                             render_default_config)
from otfusion.errors import ParameterError

SAMPLE = """
# comment line
label = demo
task.n = 6
task.t = 6
task.d = 8
task.train_size = 20   # inline comment
task.val_size = 8
task.test_size = 8
model.d = 8
model.seq_len = 6
model.strategy = deep_global
model.layers = none
model.fusion = co_attention
train.runs = 2
train.seeds = 3,4
train.max_epochs = 5
train.lr = 0.02
"""


def test_parse_flat_config():
    flat = parse_flat_config(SAMPLE)
    assert flat["task.n"] == "6"
    assert flat["train.seeds"] == "3,4"
    assert "comment" not in str(flat)


def test_build_configs_types():
    cfg = build_configs(parse_flat_config(SAMPLE))
    assert cfg.label == "demo"
    assert cfg.task.n == 6
    assert cfg.model.strategy == "deep_global"
    assert cfg.model.layers is None
    assert cfg.model.context_gate_override is None
    assert cfg.train.seeds == (3, 4)
    assert cfg.train.lr == pytest.approx(0.02)
    assert cfg.train.effective_seeds() == (3, 4)


def test_optional_override_field():
    flat = parse_flat_config(SAMPLE + "\nmodel.context_gate_override = 0.0\n")
    cfg = build_configs(flat)
    assert cfg.model.context_gate_override == 0.0


def test_boolean_coercion():
    flat = parse_flat_config(SAMPLE + "\nmodel.ot_enabled = false\nmodel.image_mask_ones = true\n")
    cfg = build_configs(flat)
    assert cfg.model.ot_enabled is False
    assert cfg.model.image_mask_ones is True


def test_unknown_section_and_field():
    with pytest.raises(ParameterError):
        build_configs({"bogus.thing": "1"})
    with pytest.raises(ParameterError):
        build_configs({"model.not_a_field": "1"})
    with pytest.raises(ParameterError):
        build_configs({"notdotted": "1"})


@pytest.mark.parametrize("key,value", [("train.val_split", "0.35"), ("model.d_k", "64")])
def test_removed_val_split_is_unknown_field(key, value):
    # the splits come from the task sizes, so val_split was never read;
    # keys are compared with queries, so d_k was always d_q
    with pytest.raises(ParameterError, match="unknown field"):
        build_configs({key: value})


def test_malformed_line():
    with pytest.raises(ParameterError):
        parse_flat_config("task.n 6")


def test_default_config_round_trips():
    text = render_default_config()
    cfg = build_configs(parse_flat_config(text))
    assert cfg.task.n == 12
    assert cfg.model.d_q == 64
    assert cfg.train.batch_size == 4
    assert cfg.train.patience == 8
    assert cfg.train.step_size == 4
    assert cfg.train.gamma == pytest.approx(0.1)
    assert cfg.train.runs == 5
    assert cfg.model.label_smoothing_alpha == pytest.approx(0.001)


def test_load_configs_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SAMPLE)
    cfg = load_configs(str(path))
    assert cfg.task.train_size == 20
