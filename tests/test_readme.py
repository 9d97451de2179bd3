"""README examples: the python block runs, and every documented `orbitgcd`
command that reads no input file ends in exit code 0 or 2."""

import re
import shlex
from pathlib import Path

import pytest

from orbitgcd.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.M | re.S)


def blocks(lang):
    text = README.read_text(encoding="utf-8")
    return [body for tag, body in FENCE.findall(text) if tag == lang]


COMMANDS = [line for body in blocks("sh") for line in body.splitlines()
            if line.startswith("orbitgcd ") and "--config" not in line]


def test_readme_python_block_runs(capsys):
    (code,) = blocks("python")
    exec(compile(code, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 13  # n = 0..12


def test_readme_commands_are_found():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_exits_zero_or_two(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # in case an example writes a file
    assert main(shlex.split(line)[1:]) in (0, 2), capsys.readouterr().err
