"""No module of the library uses another one's private names, and no demo
uses any: a name with a leading underscore belongs to the module that
defines it, which may change it freely. Each module under src/treepatch and
each script under demos must neither import such a name from another
treepatch module nor read one off an imported treepatch module. The files
are parsed, not run."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "treepatch"
DEMOS = ROOT / "demos"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def private_uses(source):
    """'module.name' of each private name of another treepatch module that
    `source`, a module of the package, imports or reads off a treepatch
    module it imports."""
    tree = ast.parse(source)
    modules = {}  # local name -> the treepatch module it binds
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not node.level and node.module.split(".")[0] != "treepatch":
            continue
        for alias in node.names:
            if node.module in (None, "treepatch"):  # imports a module
                modules[alias.asname or alias.name] = alias.name
            elif _private(alias.name):
                found.append(f"{node.module.split('.')[-1]}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_detector_finds_each_kind_of_use():
    source = ("from __future__ import annotations\n"
              "from .treebank import Node, _serialize_node\n"
              "from treepatch.model import _softmax as soft\n"
              "from . import dataset as ds, harness\n"
              "ds._helper(harness.ConfigError, harness._deep_merge)\n"
              "model._views()\n")  # a local, not a module
    assert private_uses(source) == ["treebank._serialize_node",
                                    "model._softmax", "dataset._helper",
                                    "harness._deep_merge"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_uses_another_modules_private_names(module):
    assert private_uses((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_no_demo_uses_private_names(demo):
    assert private_uses((DEMOS / demo).read_text(encoding="utf-8")) == []
