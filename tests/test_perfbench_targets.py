"""The benchmark tracer wraps otfusion functions by module and attribute
name; a rename in otfusion must fail here rather than crash a traced run."""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """Import perfbench/tracing.py by path (perfbench is not a package),
    writing no bytecode cache next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module,attr,span", tracing.TARGETS,
                         ids=[f"{module}:{attr}" for module, attr, _ in tracing.TARGETS])
def test_trace_target_resolves(module, attr, span):
    owner, name = tracing._resolve(module, attr)
    assert callable(getattr(owner, name, None)), f"{module}.{attr} ({span}) is not callable"
