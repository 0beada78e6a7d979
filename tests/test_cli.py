"""Command line interface: exit codes, formats, stepping, discrimination."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import revccs
from revccs.cli import build_parser, main
from revccs.encoding import encode_ccs
from revccs.syntax import collapse, instantiate, parse, parse_context


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParse:
    def test_ok(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "a.0|b.0")
        assert code == 0 and out.strip() == "a.0 | b.0"

    def test_error(self, capsys):
        code, _, err = run_cli(capsys, "parse", "a.0 +")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv", [
        ("parse", "'tau.0"),
        ("discriminate", "'tau.0 | b.0", "'tau.b.0 + b.'tau.0"),
    ])
    def test_tau_channel(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: tau is not a channel name (at position 0)\n"

    @pytest.mark.parametrize("argv", [
        ("check", "a." * 1200 + "0", "a.0"),
        ("parse", "{" * 600 + "a.0" + "}" * 600),
    ])
    def test_deep_nesting(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: input nested too deeply\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "a.b.0+a.b.0", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["collapsed"] == "a.b.0" and data["is_collapsed"] is False


class TestEncode:
    def test_nil_json(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "0", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"events": [], "configurations": [[]]}

    def test_diamond_dot(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "a.0|b.0", "--format", "dot")
        assert code == 0 and out.startswith("digraph")

    def test_text_counts(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "a.0|b.0")
        assert code == 0 and "2 events, 4 configurations" in out

    def test_autoconcurrency_rejected(self, capsys):
        code, _, err = run_cli(capsys, "encode", "a.b.0 | a.c.0")
        assert code == 2 and "auto" in err

    def test_no_par_collapse(self, capsys):
        code, _, err = run_cli(capsys, "encode", "a.0|a.0", "--no-par-collapse")
        assert code == 2 and "auto" in err
        code, _, _ = run_cli(capsys, "encode", "a.0|a.0")
        assert code == 0

    def test_max_events(self, capsys):
        code, _, err = run_cli(capsys, "encode", "a.0|b.0", "--max-events", "1")
        assert code == 2 and "max-events" in err

    def test_dead_event(self, capsys):
        # restriction kills 'a, leaving the b below it in no configuration
        code, out, _ = run_cli(capsys, "encode", "(a)'a.b.0", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"events": [{"id": "e0", "label": "b"}],
                                   "configurations": [[]]}


class TestStep:
    def test_initial(self, capsys):
        code, out, _ = run_cli(capsys, "step", "a.0|b.0", "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert {m["label"].split(":")[1] for m in data["forward"]} == {"a", "b"}
        assert data["backward"] == []

    def test_do_and_undo(self, capsys):
        code, out, _ = run_cli(capsys, "step", "a.0|b.0", "--do", "a,b,b*",
                               "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["process"] == "0 | b.0"
        assert data["origin"] == "a.0 | b.0"

    def test_illegal_backward(self, capsys):
        code, _, err = run_cli(capsys, "step", "a.0", "--do", "a*")
        assert code == 2 and "no transition" in err

    def test_barbs_listed(self, capsys):
        code, out, _ = run_cli(capsys, "step", "a.b.0", "--do", "a",
                               "--format", "json")
        assert code == 0 and json.loads(out)["barbs"] == ["b"]


class TestCheck:
    def test_hhpb_headline(self, capsys):
        code, out, _ = run_cli(capsys, "check", "a.0|b.0", "a.b.0+b.a.0")
        assert code == 1
        assert "stratum B2" in out

    def test_strong_headline(self, capsys):
        code, out, _ = run_cli(capsys, "check", "a.0|b.0", "a.b.0+b.a.0",
                               "--equiv", "forward")
        assert code == 0 and "related" in out

    def test_hhpb_reflexive(self, capsys):
        code, _, _ = run_cli(capsys, "check", "a.0", "a.0")
        assert code == 0

    def test_barbed(self, capsys):
        code, _, _ = run_cli(capsys, "check", "a.0", "b.0", "--equiv", "barbed")
        assert code == 1

    def test_barbed_witness(self, capsys):
        code, out, _ = run_cli(capsys, "check", "tau.a.0", "tau.0",
                               "--equiv", "barbed")
        assert code == 1
        assert "witness: left silent move unanswered at {} |> tau.a.0\n" in out

    def test_barbed_witness_names_normalized_start(self, capsys):
        # the lifted right side prints as {} |> 'b.(a)0 | b.0; its normal form
        # splits the memory over the parallel components
        argv = ("check", "'b.'b.0 + b.0", "'b.(a)0 | b.0", "--equiv", "barbed")
        witness = "right silent move unanswered at (<> |> 'b.(a)0) | (<> |> b.0)"
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1 and out == f"not related\nwitness: {witness}\n"
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 1 and json.loads(out)["witness"] == witness

    def test_json_verdict(self, capsys):
        code, out, _ = run_cli(capsys, "check", "a.0|b.0", "a.b.0+b.a.0",
                               "--format", "json")
        data = json.loads(out)
        assert code == 1
        assert data["related"] is False and data["failing_stratum"] == 2

    def test_json_direction(self, capsys):
        code, out, _ = run_cli(capsys, "check", "a.0 | b.0", "a.b.0 + b.a.0",
                               "--format", "json")
        assert code == 1 and json.loads(out)["direction"] == "B"

    @pytest.mark.parametrize("argv, code, verdict", [
        # sync-2 against sync-2', its last pair expanded
        (("a.0 | 'a.0 | b.0 | 'b.0", "a.0 | 'a.0 | {b.'b.0 + 'b.b.0 + tau.0}"),
         1, {"related": False, "failing_stratum": 2, "direction": "B",
             "witness": "configuration {'b,b} unmatched in backward stratum 2",
             "context": None}),
        (("tau.0 | tau.0 | tau.0 | tau.0", "tau.0 | tau.0 | tau.0 | tau.0",
          "--no-par-collapse"),
         0, {"related": True, "failing_stratum": None, "direction": None,
             "witness": None, "context": None}),
    ])
    def test_json_pinned(self, capsys, argv, code, verdict):
        got, out, err = run_cli(capsys, "check", *argv, "--format", "json")
        assert (got, out, err) == (code, json.dumps(verdict) + "\n", "")

    @pytest.mark.parametrize("equiv", ["hhpb", "barbed", "forward"])
    def test_max_events(self, capsys, equiv):
        code, out, err = run_cli(capsys, "check", "a.0|b.0", "a.0|b.0",
                                 "--equiv", equiv, "--max-events", "1")
        assert code == 2 and out == "" and "max-events" in err


class TestDiscriminate:
    def test_headline(self, capsys):
        code, out, _ = run_cli(capsys, "discriminate", "a.0|b.0",
                               "a.b.0+b.a.0")
        assert code == 1
        assert "context:" in out and "[·]" in out

    def test_related_pair(self, capsys):
        code, _, err = run_cli(capsys, "discriminate", "a.0", "a.0")
        assert code == 2 and "nothing to discriminate" in err

    def test_barb_gap(self, capsys):
        code, out, _ = run_cli(capsys, "discriminate", "a.0", "b.0")
        assert code == 1 and "context: [·]" in out

    def test_contexts_file(self, capsys, tmp_path):
        f = tmp_path / "contexts.txt"
        f.write_text("{'a.0 + c.0} | [·]\n"
                     "{'b.0 + d.0} | {{'a.0 + c.0} | [·]}\n")
        # the second context denotes the right side with 12 events
        code, out, _ = run_cli(capsys, "discriminate", "a.0|b.0",
                               "a.b.0+b.a.0", "--max-events", "12",
                               "--contexts", str(f))
        assert code == 1 and "context:" in out and "d.0" in out

    def test_contexts_file_pair_left_out_of_the_cache(self, capsys, tmp_path):
        # no later call reads an instantiated candidate, so the shared
        # cache does not keep it
        f = tmp_path / "contexts.txt"
        f.write_text("{'b.0 + d.0} | {{'a.0 + c.0} | [·]}\n")
        encode_ccs.cache_clear()
        code, out, _ = run_cli(capsys, "discriminate", "a.0|b.0",
                               "a.b.0+b.a.0", "--max-events", "12",
                               "--contexts", str(f))
        assert code == 1
        assert out.splitlines()[-1] == "context: 'b.0 + d.0 | ('a.0 + c.0 | [·])"
        ctx = parse_context(f.read_text())
        for text in ("a.0|b.0", "a.b.0+b.a.0"):
            misses = encode_ccs.cache_info().misses
            encode_ccs(instantiate(ctx, collapse(parse(text))))
            assert encode_ccs.cache_info().misses > misses

    def test_context_not_left_in_the_cached_verdict(self, capsys):
        # hhpb caches its verdicts: discriminate reports a new one
        argv = ("a.0|b.0", "a.b.0+b.a.0", "--format", "json")
        code, out, _ = run_cli(capsys, "discriminate", *argv)
        assert code == 1 and json.loads(out)["context"] is not None
        code, out, _ = run_cli(capsys, "check", *argv)
        assert code == 1 and json.loads(out)["context"] is None

    def test_contexts_file_parse_error(self, capsys, tmp_path):
        f = tmp_path / "contexts.txt"
        f.write_text("[·] |\n")
        code, out, err = run_cli(capsys, "discriminate", "a.0|b.0",
                                 "a.b.0+b.a.0", "--contexts", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error: --contexts line 1: unexpected token")

    def test_contexts_file_max_events(self, capsys, tmp_path):
        f = tmp_path / "contexts.txt"
        f.write_text("{'a.0 + c.0} | {'b.0 + d.0} | {e.0 | f.0 | g.0} | [·]\n")
        code, out, err = run_cli(capsys, "discriminate", "a.0|b.0",
                                 "a.b.0+b.a.0", "--max-events", "4",
                                 "--contexts", str(f))
        assert code == 2 and out == "" and "--max-events" in err

    # the expansion-law pairs of width 3: each context is the first
    # separating one of the candidate order (size, then labels)
    @pytest.mark.parametrize("right, context", [
        ("a.0 | {b.c.0 + c.b.0}", "'c.0 + c_2.0 | ('b.0 + c_1.0 | [·])"),
        ("{a.b.0 + b.a.0} | c.0", "'b.0 + c_2.0 | ('a.0 + c_1.0 | [·])"),
        ("b.0 | {a.c.0 + c.a.0}", "'c.0 + c_2.0 | ('a.0 + c_1.0 | [·])"),
        ("a.{b.0 | c.0} + b.{a.0 | c.0} + c.{a.0 | b.0}",
         "'b.0 + c_2.0 | ('a.0 + c_1.0 | [·])"),
        ("a.{b.c.0 + c.b.0} + b.{a.c.0 + c.a.0} + c.{a.b.0 + b.a.0}",
         "'b.0 + c_2.0 | ('a.0 + c_1.0 | [·])"),
    ])
    def test_expansion_context_pinned(self, capsys, right, context):
        code, out, _ = run_cli(capsys, "discriminate", "a.0 | b.0 | c.0",
                               right, "--max-events", "40")
        assert code == 1 and out.splitlines()[-1] == f"context: {context}"


# each subcommand takes only the options it reads
@pytest.mark.parametrize("argv", [
    ("parse", "a.0", "--max-events", "3"),
    ("parse", "a.0", "--contexts", "f"),
    ("parse", "a.0", "--format", "dot"),
    ("encode", "a.0", "--contexts", "f"),
    ("step", "a.0", "--max-events", "3"),
    ("step", "a.0", "--contexts", "f"),
    ("check", "a.0", "a.0", "--contexts", "f"),
    ("check", "a.0", "a.0", "--format", "dot"),
    ("discriminate", "a.0", "b.0", "--format", "dot"),
] + [(cmd, *args, "--max-context", "3") for cmd, args in (
    ("parse", ["a.0"]), ("encode", ["a.0"]), ("step", ["a.0"]),
    ("check", ["a.0", "a.0"]), ("discriminate", ["a.0", "b.0"]))])
def test_option_not_taken(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith("usage: revccs ")
    last = out.err.splitlines()[-1]
    assert last.startswith("revccs") and ": error: " in last
    assert "Traceback" not in out.err


@pytest.mark.parametrize("head", [
    ["check", "a.0", "b.0"],
    *(["check", "a.0", "b.0", "--equiv", equiv]
      for equiv in ("hhpb", "barbed", "forward")),
    ["discriminate", "a.0", "b.0"],
])
@pytest.mark.parametrize("collapse", [[], ["--no-par-collapse"]])
def test_benchmark_flags_parse(head, collapse):
    args = build_parser().parse_args(
        head + ["--format", "json", "--max-events", "40"] + collapse)
    assert (args.fmt, args.max_events, args.no_par_collapse) == (
        "json", 40, bool(collapse))


@pytest.mark.parametrize("argv", [
    ("check", "(a)a.'a.0", "'a.b.0 | a.c.0"),
    ("encode", "'a.0 | 'b.0 | b.0", "--format", "dot"),
])
def test_output_same_in_every_process(argv):
    # set order changes per process: events hold None, whose hash is its
    # address, and strings, whose hash is seeded
    src = str(Path(revccs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "random"}
    outputs = {subprocess.run([sys.executable, "-m", "revccs.cli", *argv],
                              env=env, capture_output=True, text=True).stdout
               for _ in range(4)}
    assert len(outputs) == 1 and outputs != {""}


def test_import_leaves_out_dataclasses_and_inspect():
    # together they cost more to import than the rest of the package
    src = str(Path(revccs.__file__).resolve().parent.parent)
    code = ("import sys, revccs.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.stdout == "[]\n", result.stderr
