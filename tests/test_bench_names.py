"""The benchmark wraps and calls treepatch functions by name: every
(module, attribute path) in perfbench/layers.py's SPANS, and every library
name perfbench/workloads.py imports or uses, must resolve, or a rename or
deletion in the library silently breaks the benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.SPANS


def _workload_names():
    """(module, attribute path) of each treepatch name workloads.py imports,
    and of each attribute it reads from an imported treepatch module; the
    file is parsed, not run."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules, names = {}, set()  # local name -> treepatch module
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "treepatch"):
            for alias in node.names:
                if node.module == "treepatch":  # a module of the package
                    modules[alias.asname or alias.name] = f"treepatch.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.insert(0, node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id in modules:
            names.add((modules[node.id], ".".join(path)))
    return sorted(names)


@pytest.mark.parametrize("span, module, attr_path", [
    span[:3] for span in _spans()])
def test_span_target_resolves(span, module, attr_path):
    owner = importlib.import_module(module)
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"{span}: {module}.{attr_path} is gone"
        owner = getattr(owner, part)
    assert callable(owner), f"{span}: {module}.{attr_path} is not callable"


@pytest.mark.parametrize("module, attr_path", _workload_names())
def test_workload_name_resolves(module, attr_path):
    owner = importlib.import_module(module)
    for part in attr_path.split("."):
        assert hasattr(owner, part), f"workloads.py: {module}.{attr_path} is gone"
        owner = getattr(owner, part)
