"""Flat key-value experiment configuration files.

The format is one dotted key per line (``section.field = value``) with
``#`` comments; sections are ``task``, ``model`` and ``train`` and the
fields are exactly the dataclass fields of SyntheticTaskConfig,
ModelConfig and TrainConfig. ``none`` clears optional fields; seed lists
are comma-separated.
"""

from __future__ import annotations

import os
import types
import typing
from dataclasses import dataclass, fields

from .errors import ParameterError
from .model import ModelConfig
from .synthetic import SyntheticTaskConfig
from .training import TrainConfig

_SECTIONS = {"task": SyntheticTaskConfig, "model": ModelConfig, "train": TrainConfig}


@dataclass(frozen=True)
class ExperimentConfig:
    task: SyntheticTaskConfig
    model: ModelConfig
    train: TrainConfig
    label: str = "model"


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a flat string map; a key given
    twice raises ParameterError."""
    out, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParameterError(f"line {lineno}: empty key")
        if key in lines:
            raise ParameterError(f"line {lineno}: key {key!r} repeats line {lines[key]}")
        out[key], lines[key] = value, lineno
    return out


def _coerce(value: str, typ):
    origin = typing.get_origin(typ)
    if isinstance(typ, types.UnionType):
        args = [t for t in typing.get_args(typ) if t is not type(None)]
        if value.lower() in ("none", "null", ""):
            return None
        return _coerce(value, args[0])
    if origin is tuple:
        item_type = typing.get_args(typ)[0]
        return tuple(_coerce(v.strip(), item_type) for v in value.split(",") if v.strip())
    if typ is bool:
        lowered = value.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ParameterError(f"cannot read {value!r} as a boolean")
    if typ is int:
        return int(value)
    if typ is float:
        return float(value)
    return value


def build_configs(flat: dict[str, str]) -> ExperimentConfig:
    """Instantiate the three config dataclasses from a flat key map."""
    kwargs = {name: {} for name in _SECTIONS}
    label = flat.get("label", "model")
    # the label names the report files written into --out
    if label in ("", ".", "..") or "/" in label or os.sep in label:
        raise ParameterError(f"label {label!r} must be a file name, not empty, '.', '..' or a path")
    hints = {name: typing.get_type_hints(cls) for name, cls in _SECTIONS.items()}
    known = {name: {f.name for f in fields(cls)} for name, cls in _SECTIONS.items()}
    for key, value in flat.items():
        if key == "label":
            continue
        if "." not in key:
            raise ParameterError(f"key {key!r} is not of the form section.field")
        section, name = key.split(".", 1)
        if section not in _SECTIONS:
            raise ParameterError(f"unknown section {section!r} in key {key!r}")
        if name not in known[section]:
            raise ParameterError(f"unknown field {name!r} in section {section!r}")
        try:
            kwargs[section][name] = _coerce(value, hints[section][name])
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"bad value for {key}: {value!r} ({exc})") from exc
    return ExperimentConfig(
        task=SyntheticTaskConfig(**kwargs["task"]),
        model=ModelConfig(**kwargs["model"]),
        train=TrainConfig(**kwargs["train"]),
        label=label,
    )


def load_configs(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return build_configs(parse_flat_config(fh.read()))


def render_default_config() -> str:
    """A commented config file with every key at its default."""
    lines = ["# otfusion experiment configuration", "label = model", ""]
    for section, cls in _SECTIONS.items():
        instance = cls()
        for f in fields(cls):
            value = getattr(instance, f.name)
            if value is None:
                rendered = "none"
            elif isinstance(value, tuple):
                rendered = ",".join(str(v) for v in value)
            else:
                rendered = str(value)
            lines.append(f"{section}.{f.name} = {rendered}")
        lines.append("")
    return "\n".join(lines)
