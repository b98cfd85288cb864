"""Byte-exact CLI output on the bundled examples in ``data/``.

Each case pins stdout, stderr and the exit code of one command. The
expected bytes live in ``golden/cli_data.json``; to re-record them after a
deliberate output change, run ``PYTHONPATH=src python tests/test_cli_golden.py``
from the repository root and review the diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from greyassess.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_data.json"

COMMANDS = [
    "assess --counts data/table1.csv",
    "assess --counts data/table1.csv --format json",
    "assess --counts data/table1.csv --t 0 --format json",
    "assess --counts data/table1.csv --t 0.5",
    "assess --counts data/table1.csv --t 1",
    "assess --counts data/table1.csv --t 1 --format json",
    "assess --counts data/table1.csv --check-tfn",
    "assess --counts data/table1.csv --check-tfn --format json",
    "assess --counts data/table1.csv --scale data/strict_scale.txt",
    "assess --counts data/table1.csv --scale data/strict_scale.txt --format json",
    "assess --scores data/players.csv",
    "assess --scores data/players.csv --format json",
    "assess --scores data/players.csv --t 0 --format json",
    "assess --scores data/players.csv --t 1",
    "assess --scores data/players.csv --check-tfn --format json",
    "assess --scores data/players.csv --scale data/strict_scale.txt --format json",
    "compare --counts data/table1.csv",
    "compare --counts data/table1.csv --format json",
    "compare --counts data/table1.csv --t 1 --format json",
    "compare --scores data/players.csv",
    "compare --scores data/players.csv --format json",
    "compare --scores data/players.csv --t 0 --format json",
    "compare --scores data/players.csv --scale data/strict_scale.txt --format json",
    "validate-scale --scale data/strict_scale.txt",
    "validate-scale --scale data/strict_scale.txt --format json",
    "validate-scale --format json",
    "assess --counts data/players.csv",
    "assess --counts data/table1.csv --scale data/table1.csv",
]


def run_command(command: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command.split())
    finally:
        os.chdir(cwd)
    return {"command": command, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> dict:
    return {case["command"]: case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_covers_every_command():
    assert list(_golden()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_is_byte_identical(command):
    assert run_command(command) == _golden()[command]


if __name__ == "__main__":
    cases = [run_command(command) for command in COMMANDS]
    GOLDEN.write_text(json.dumps(cases, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
