"""The README's examples run and print what they say they print."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from revccs.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(blocks[0], {})
    assert out.getvalue().splitlines() == [
        "False ('B', 2)", "'b.0 + c_2.0 | ('a.0 + c_1.0 | [·])"]


def cli_examples() -> list:
    """(argv, exit code, shown output lines) for each ``revccs`` line of the
    README's shell blocks.  A trailing ``# exit N`` gives the exit code (0
    when absent); the ``# `` lines right under the command are its output,
    ``...`` standing for any run of lines."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        shown = None
        for line in block.splitlines():
            if line.startswith("revccs "):
                command, _, comment = line.partition("   #")
                code = re.fullmatch(r" exit (\d)", comment)
                assert code or not comment, line
                shown = []
                examples.append((shlex.split(command)[1:],
                                 int(code.group(1)) if code else 0, shown))
            elif shown is not None and line.startswith("#"):
                shown.append(line[2:])
            else:
                shown = None
    return examples


EXAMPLES = cli_examples()


def test_cli_examples_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("argv, code, shown", EXAMPLES,
                         ids=[" ".join(argv) for argv, _, _ in EXAMPLES])
def test_cli_example(capsys, argv, code, shown):
    assert main(argv) == code
    pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + r"\n"
                      for line in shown)
    assert re.fullmatch(pattern, capsys.readouterr().out), shown
