import re
import shlex
from pathlib import Path

import pytest

from basinlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}", 1)[1].split("\n## ", 1)[0]


def _command_lines() -> list:
    block = re.search(r"```sh\n(.*?)```", _section("Command line"), re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("basinlab ")]


def _cli_output_names() -> list:
    source = Path(cli.__file__).read_text(encoding="utf-8")
    return sorted(set(re.findall(r'"([\w.-]+\.(?:json|csv|ppm))"', source)))


def test_output_names_found():
    assert len(_cli_output_names()) >= 10


@pytest.mark.parametrize("name", _cli_output_names())
def test_output_file_documented(name):
    assert f"`{name}`" in _section("Output formats"), f"README Output formats omits {name}"


def test_command_block_found():
    assert len(_command_lines()) >= 10


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    try:
        cli._build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README command does not parse ({exc.code}): {line}")
