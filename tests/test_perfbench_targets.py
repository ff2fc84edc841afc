"""The benchmark tracer wraps otfusion functions by module and attribute
name; a rename in otfusion must fail here rather than crash a traced run."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """Import perfbench/<name>.py by path (perfbench is not a package), with
    perfbench's directory on ``sys.path`` for the modules it imports (such
    as ``speedprobe``), writing no bytecode cache next to any of them."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write_bytecode
    return module


tracing = load_perfbench("tracing")


@pytest.mark.parametrize("module,attr,span", tracing.TARGETS,
                         ids=[f"{module}:{attr}" for module, attr, _ in tracing.TARGETS])
def test_trace_target_resolves(module, attr, span):
    owner, name = tracing._resolve(module, attr)
    assert callable(getattr(owner, name, None)), f"{module}.{attr} ({span}) is not callable"
