"""One benchmark round, in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--trace] [--quick]
       [--setup-only | --verified]

Imports ``revccs`` from the ``src`` directory beside this one, builds the
workload from the seed, then runs every operation in a fixed order through
``revccs.cli.main([...])`` with ``--format json``, timing each call.  Module
caches of the program carry over from one operation to the next, as in a
library batch.  After the timed part, every answer is checked against
references independent of the decider that gave it.  With ``--verified``,
standard input holds, per operation, an answer already checked and found
correct (or null); an operation giving exactly that answer again is not
checked twice.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OP_LIMIT_S = 60.0                          # an operation slower than this fails
EQUIVS = ("hhpb", "barbed", "forward")


def argv_for(kind: str, pair) -> list[str]:
    if kind == "discriminate":
        head = ["discriminate", pair.left, pair.right]
    elif kind == "hhpb":                   # HHPB is the default --equiv
        head = ["check", pair.left, pair.right]
    else:
        head = ["check", pair.left, pair.right, "--equiv", kind]
    return head + ["--format", "json", *pair.flags]


def timed_call(main, argv, tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            rc = main(argv)
        except (Exception, SystemExit) as exc:   # a crash is a failed operation
            error = repr(exc)
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
    return {"rc": rc, "error": error, "s": seconds,
            "out": out.getvalue(), "err": err.getvalue()}


def machine_speed() -> float:
    """Seconds for a fixed pure-Python loop, independent of the program.

    On a shared host the CPU's speed changes within seconds and from minute
    to minute; this figure, reported beside the metrics, tells such a change
    apart from a change in the program."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(200_000):
        table[i % 1000] = table.get((i * 7) % 1000, 0) + i
    return time.perf_counter() - start


def run_operations(pairs, cli, tracer) -> list[dict]:
    """Check the pairs in the three games; discriminate the HHPB-unrelated."""
    ops = []
    for index, pair in enumerate(pairs):
        unrelated = True
        if pair.checks:
            for kind in EQUIVS:
                ops.append({"kind": kind, "pair": index,
                            **timed_call(cli.main, argv_for(kind, pair), tracer)})
            unrelated = ops[-3]["rc"] == 1
        if pair.discriminate and unrelated:
            ops.append({"kind": "discriminate", "pair": index,
                        **timed_call(cli.main, argv_for("discriminate", pair),
                                     tracer)})
    return ops


class References:
    """Expected answers per pair, from outside the decider under test.

    HHPB against the game-graph oracle ``hhpb_oracle``, the term-level
    barbed game against the structure-level one; family pairs carry their
    verdicts by construction.
    """

    def __init__(self, pairs):
        self.pairs = pairs
        self._cache: dict = {}

    def terms(self, pair):
        from revccs.syntax import collapse, parse
        return (collapse(parse(pair.left), par_rule=pair.par_collapse),
                collapse(parse(pair.right), par_rule=pair.par_collapse))

    def verdict(self, index: int, kind: str) -> bool | None:
        pair = self.pairs[index]
        if pair.expect is not None:
            return dict(zip(EQUIVS, pair.expect)).get(kind)
        if kind == "forward":
            return None                      # only the HHPB implication applies
        key = (index, kind)
        if key not in self._cache:
            from revccs.encoding import encode_ccs
            from revccs.equivalences import barbed_bf_bisim_structs, hhpb_oracle
            s1, s2 = (encode_ccs(p) for p in self.terms(pair))
            if kind == "hhpb":
                self._cache[key] = hhpb_oracle(s1, s2, bound=10 ** 6)
            else:
                self._cache[key] = barbed_bf_bisim_structs(s1, s2).related
        return self._cache[key]

    def separates(self, index: int, context: str) -> bool:
        from revccs.equivalences import barbed_bf_bisim_terms
        from revccs.rccs import lift
        from revccs.syntax import instantiate, parse_context
        ctx = parse_context(context)
        p1, p2 = self.terms(self.pairs[index])
        return not barbed_bf_bisim_terms(lift(instantiate(ctx, p1)),
                                         lift(instantiate(ctx, p2))).related


def failure(op: dict, refs: References, hhpb_rc: dict) -> str | None:
    """Why an operation's answer is wrong, or None when it is right."""
    if op["error"] is not None:
        return f"raised {op['error']}"
    if op["s"] > OP_LIMIT_S:
        return f"took {op['s']:.1f} s, over the {OP_LIMIT_S:.0f} s limit"
    kind, index, rc = op["kind"], op["pair"], op["rc"]
    expected = refs.verdict(index, "hhpb")
    if kind == "discriminate":
        if rc == 2:
            return None if expected else "exit 2 on an HHPB-unrelated pair"
        if rc != 1 or expected:
            return f"exit {rc} where the oracle says related={expected}"
        context = json.loads(op["out"])["context"]
        if context is None:
            return "no context found"
        if not refs.separates(index, context):
            return f"context {context} does not separate the pair"
        return None
    if rc not in (0, 1):
        return f"exit {rc}"
    related = json.loads(op["out"])["related"]
    if related != (rc == 0):
        return f"exit {rc} disagrees with related={related}"
    if kind == "forward" and hhpb_rc.get(index) == 0 and not related:
        return "HHPB-related but not forward-related"
    reference = refs.verdict(index, kind)
    if reference is not None and related != reference:
        return f"related={related}, reference says {reference}"
    return None


def answer(op) -> list:
    return [op["kind"], op["rc"], op["out"], op["error"]]


def check(ops, pairs, verified) -> list[dict]:
    refs = References(pairs)
    hhpb_rc = {op["pair"]: op["rc"] for op in ops if op["kind"] == "hhpb"}
    failures = []
    for index, op in enumerate(ops):
        if verified is not None and verified[index] == answer(op):
            continue
        try:
            reason = failure(op, refs, hhpb_rc)
        except Exception as exc:           # unreadable output is a wrong answer
            reason = f"unreadable answer: {exc!r}"
        if reason is not None:
            pair = pairs[op["pair"]]
            failures.append({"op": index, "kind": op["kind"], "left": pair.left,
                             "right": pair.right, "reason": reason})
    return failures


def main(argv=None) -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--verified", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import revccs
    import revccs.cli as cli
    if Path(revccs.__file__).resolve().parent != ROOT / "src" / "revccs":
        raise SystemExit(f"revccs imported from {revccs.__file__}, not {ROOT / 'src'}")
    import workloads
    pairs = workloads.build(args.workload, args.seed, args.quick)
    setup_s = time.perf_counter() - start
    # building the corpus encodes its random terms; start the batch from the
    # empty caches a fresh process would have
    clear = getattr(revccs.encoding.encode_ccs, "cache_clear", None)
    if clear is not None:
        clear()
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    result = {"setup_s": setup_s, "inputs_sha256": digest}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    result["machine_speed_s"] = machine_speed()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer().install()
    ops = run_operations(pairs, cli, tracer)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write_spans(ROOT / ".perfbench_out"
                           / f"spans-{args.workload}-{args.seed}.json")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["ops"] = [[op["kind"], op["s"]] for op in ops]
    result["answers"] = [answer(op) for op in ops]
    verified = json.load(sys.stdin) if args.verified else None
    if verified is not None and len(verified) != len(ops):
        verified = None
    result["failures"] = check(ops, pairs, verified)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
