"""The README's command examples, run through the CLI in-process.

Each `$ palcensus ...` line of a `sh` block must exit 0, and each output
line the README shows under it must equal the real line, compared field by
field (the README shows tabs as spaces).  A `...` line elides the rest; a
command shown without output is only run.
"""

import shlex
from pathlib import Path

import pytest

from palcensus.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples():
    """(command, shown output lines, whether the rest is elided) per example."""
    examples = []
    in_sh, current = False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_sh, current = line == "```sh", None
        elif in_sh and line.startswith("$ "):
            current = [line[2:], [], False]
            examples.append(current)
        elif current is not None and not current[2]:
            if line == "...":
                current[2] = True
            else:
                current[1].append(line)
    return [tuple(example) for example in examples]


EXAMPLES = _examples()


def test_the_readme_has_examples():
    assert len(EXAMPLES) >= 10
    assert all(command.startswith("palcensus ") for command, _, _ in EXAMPLES)


@pytest.mark.parametrize(
    "command,shown,elided", EXAMPLES, ids=[command for command, _, _ in EXAMPLES]
)
def test_readme_example(capsys, monkeypatch, tmp_path, command, shown, elided):
    monkeypatch.setenv("PALCENSUS_CACHE", str(tmp_path))
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    if not shown:
        return
    if elided:
        out = out[:len(shown)]
    assert [line.split() for line in out] == [line.split() for line in shown]
