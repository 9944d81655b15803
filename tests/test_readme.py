"""The README's CLI examples run as written.

Every ``liptriv ...`` command of the README's CLI block (backslash
continuations joined) goes through ``cli.run_command`` in a temporary
directory, so the files its ``--json`` flags write land there.  Each
must exit 0 (completed) or 2 (not shown); a usage error, such as a
curve with the wrong number of arcs or a removed flag, exits 1.
"""

import re
import shlex
from pathlib import Path

import pytest

from liptriv.cli import run_command

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[list[str]]:
    """argv of each ``liptriv`` line of the first ``sh`` block after ``## CLI``."""
    text = README.read_text()
    section = text[text.index("\n## CLI\n") :]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [
        shlex.split(line)[1:]
        for line in joined.splitlines()
        if line.startswith("liptriv ")
    ]


EXAMPLES = cli_examples()


def test_examples_found():
    assert len(EXAMPLES) >= 7
    assert {argv[0] for argv in EXAMPLES} == {
        "analyze",
        "normal-space",
        "pullback",
        "double",
        "check-inclusion",
        "reproduce-table",
    }


@pytest.mark.parametrize("argv", EXAMPLES, ids=lambda argv: " ".join(argv[:3]))
def test_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run_command(argv)
    captured = capsys.readouterr()
    assert code in (0, 2), captured.err
    assert captured.out
