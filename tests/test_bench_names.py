"""The benchmark's tracer wraps treepatch functions by name: every
(module, attribute path) in perfbench/layers.py's SPANS must resolve, or a
rename or deletion in the library silently breaks the traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.SPANS


@pytest.mark.parametrize("span, module, attr_path", [
    span[:3] for span in _spans()])
def test_span_target_resolves(span, module, attr_path):
    owner = importlib.import_module(module)
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"{span}: {module}.{attr_path} is gone"
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {module}.{attr_path} is not callable"
