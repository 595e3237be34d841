import re
import shlex
from pathlib import Path

import pytest

from basinlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _command_lines() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("basinlab ")]


def test_command_block_found():
    assert len(_command_lines()) >= 10


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    try:
        cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README command does not parse ({exc.code}): {line}")
