"""README's CLI examples, minimal config and dotted names stay valid for
the code."""

import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
import shlex
from pathlib import Path

import treepatch
from treepatch.cli import build_parser
from treepatch.harness import DEFAULT_CONFIG, ExperimentConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
CLI_SECTION = README[README.index("## CLI"):]

MODULES = {info.name: importlib.import_module(f"treepatch.{info.name}")
           for info in pkgutil.iter_modules(treepatch.__path__)}
# what a dotted name's head may be read as: the package, a module, or a
# class one of its modules defines
ROOTS = {"treepatch": treepatch, **MODULES, **{
    name: obj for module in MODULES.values()
    for name, obj in vars(module).items()
    if inspect.isclass(obj) and obj.__module__ == module.__name__}}


def _block(text, lang):
    return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)


def test_cli_block_commands_parse():
    lines = _block(CLI_SECTION, "sh").replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    commands = [argv for argv in commands if argv]
    assert len(commands) >= 8
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "treepatch"
        args = parser.parse_args(argv[1:])
        assert args.command == argv[1]


def test_minimal_config_loads():
    raw = json.loads(_block(CLI_SECTION, "json"))
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg["reg"] == {**raw["reg"], "epsilon": 1e-12}


def _is_attribute(name):
    """Whether `name` resolves from its ROOTS head, attribute by attribute;
    a dataclass field, which need not be a class attribute, ends it."""
    head, *parts = name.split(".")
    if head not in ROOTS:
        return False
    obj = ROOTS[head]
    for i, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {
                f.name for f in dataclasses.fields(obj)}:
            return i == len(parts) - 1
        else:
            return False
    return True


def _is_config_key(name):
    node = DEFAULT_CONFIG
    for part in name.split("."):
        if not isinstance(node, dict) or part not in node:
            return False
        node = node[part]
    return True


# heads of README's dotted names that are not the project's: files
# (BENCHMARK.json, pyproject.toml), numpy (np.unique, Generator.choice) and
# a local of the text (rng.choice)
EXTERNAL_HEADS = {"BENCHMARK", "Generator", "np", "pyproject", "rng"}


def test_dotted_names_resolve():
    """Each backticked dotted name whose head is not one of EXTERNAL_HEADS
    names something that exists: an attribute of a treepatch module, of one
    of their classes or of the package, or a DEFAULT_CONFIG key. A name of
    a class or module that is gone fails, rather than passing unchecked."""
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README))
    checked = [n for n in names if n.split(".")[0] not in EXTERNAL_HEADS]
    assert checked
    assert sorted(n for n in checked
                  if not (_is_attribute(n) or _is_config_key(n))) == []
