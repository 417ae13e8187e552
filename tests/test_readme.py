"""The README's examples: its command lines, run through the CLI
in-process, and its Python block.

Each `$ palcensus ...` line of a `sh` block must exit 0, and each output
line the README shows under it must equal the real line, compared field by
field (the README shows tabs as spaces).  A `...` line elides the rest; a
command shown without output is only run.

Each commented line of the `python` block must show the repr of its value,
of the expression or of the name it assigns: the whole repr, the repr
followed by a note after ", ", or, where `...` elides the rest, its start.
"""

import ast
import io
import shlex
import tokenize
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


def test_readme_python_example(monkeypatch, tmp_path):
    monkeypatch.setenv("PALCENSUS_CACHE", str(tmp_path))
    source = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    comments = {
        token.start[0]: token.string[1:].strip()
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    }
    namespace, checked = {}, []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            value = namespace[statement.targets[0].id] if isinstance(statement, ast.Assign) else None
        shown = comments.get(statement.lineno)
        if shown is not None:
            head, elided, _ = shown.partition("...")
            text = repr(value)
            assert (
                text.startswith(head) if elided
                else shown == text or shown.startswith(text + ", ")
            ), (shown, text)
            checked.append(statement.lineno)
    assert sorted(checked) == sorted(comments)
    assert len(checked) >= 8
