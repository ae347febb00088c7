"""README's CLI examples and minimal config stay valid for the code."""

import json
import re
import shlex
from pathlib import Path

from treepatch.cli import build_parser
from treepatch.harness import ExperimentConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
CLI_SECTION = README[README.index("## CLI"):]


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
