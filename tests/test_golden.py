"""CLI output against a recorded reference.

``golden_cli.jsonl`` holds one JSON line per invocation: ``encode --format
json`` on each corpus term, then ``check`` in each of the three games and
``discriminate`` on each corpus pair, all with ``--format json``.  Each line
records the argv, the exit code, stdout and stderr.  The test replays every
invocation and names the first one whose output differs, so a refactoring
that changes no output leaves it passing.  Running this file as a script
rewrites the reference from the code on the path: do so only at a commit
whose output is the intended one.
"""

import contextlib
import io
import json
import shlex
from pathlib import Path

from revccs.cli import main
from revccs.syntax import unparse

GOLDEN = Path(__file__).with_name("golden_cli.jsonl")


def invocations() -> list:
    from corpus import corpus_pairs, enumerated_terms

    runs = [["encode", unparse(t), "--format", "json"] for t in enumerated_terms()]
    pairs = [(unparse(p1), unparse(p2)) for p1, p2 in corpus_pairs()]
    for equiv in ("hhpb", "barbed", "forward"):
        runs.extend(["check", l, r, "--equiv", equiv, "--format", "json"]
                    for l, r in pairs)
    runs.extend(["discriminate", l, r, "--format", "json"] for l, r in pairs)
    return runs


def run(argv: list) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_output_matches_golden():
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) == 1325
    for number, line in enumerate(lines, 1):
        want = json.loads(line)
        got = run(want["argv"])
        assert got == want, f"line {number}: revccs {shlex.join(want['argv'])}"


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(run(argv)) + "\n" for argv in invocations()))
