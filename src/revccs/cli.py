"""Command line front end.

Subcommands: ``parse`` (check and normalize concrete syntax), ``encode``
(denote a process as a configuration structure), ``step`` (run a process and
inspect its transitions), ``check`` (decide an equivalence) and
``discriminate`` (explain inequivalence with a context).

Exit codes: 0 for success or "related", 1 for "not related", 2 for errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import confstruct as cs
from . import syntax
from .syntax import collapse, parse, parse_context, unparse
from .rccs import (backward_steps, barbs, erase, forward_steps, lift,
                   normalize, origin, reachable_states)
from .encoding import encode_ccs
from .equivalences import (EquivalenceVerdict, barbed_bf_bisim_structs,
                           forward_bisim_structs, hhpb, synthesize_context)


def _options(sub, formats=("text", "json"), max_events=False):
    """The options a subcommand reads: its output formats, the parallel
    collapse switch and, where it builds denotations, their size guard."""
    sub.add_argument("--format", dest="fmt", choices=formats, default="text")
    if max_events:
        sub.add_argument("--max-events", type=int, default=10,
                         help="size guard for denotations (event count)")
    sub.add_argument("--no-par-collapse", action="store_true",
                     help="do not merge identical parallel prefixes")


def _prepare(text: str, args):
    return collapse(parse(text), par_rule=not args.no_par_collapse)


def _encode_guarded(p, args, encode=encode_ccs):
    """The denotation of ``p``, refused when it is over ``--max-events``."""
    struct = encode(p)
    if len(struct.tags) > args.max_events:
        raise ValueError(
            f"denotation has {len(struct.tags)} events, over the "
            f"--max-events bound of {args.max_events}")
    return struct


def cmd_parse(args) -> int:
    term = parse(args.process)
    collapsed = collapse(term, par_rule=not args.no_par_collapse)
    if args.fmt == "json":
        print(json.dumps({"input": unparse(term), "collapsed": unparse(collapsed),
                          "is_collapsed": term == collapsed}))
    else:
        print(unparse(collapsed))
    return 0


def cmd_encode(args) -> int:
    term = _prepare(args.process, args)
    clashes = syntax.detect_auto_conflict_or_concurrency(term)
    if clashes:
        raise ValueError(
            "term is outside the encodable fragment (auto-concurrency or "
            "auto-conflict): " + "; ".join(str(c) for c in clashes))
    struct = _encode_guarded(term, args)
    if args.fmt == "json":
        print(json.dumps(cs.to_json(struct)))
    elif args.fmt == "dot":
        print(cs.to_dot(struct))
    else:
        data = cs.to_json(struct)
        print(f"{len(data['events'])} events, {len(data['configurations'])} configurations")
        for ev in data["events"]:
            print(f"  {ev['id']}: {ev['label']}")
        for x in data["configurations"]:
            print("  {" + ",".join(x) + "}")
    return 0


def cmd_step(args) -> int:
    term = normalize(lift(_prepare(args.process, args)))
    if args.do:
        for wanted in args.do.split(","):
            wanted = wanted.strip()
            moves = ([(l, t) for l, t in forward_steps(term)
                      if str(l.action) == wanted]
                     + [(l, t) for l, t in backward_steps(term)
                        if wanted.endswith("*") and str(l.action) == wanted[:-1]])
            if not moves:
                print(f"no transition on {wanted!r} from {erase(term)}",
                      file=sys.stderr)
                return 2
            term = moves[0][1]
    if args.fmt == "dot":
        print(reachable_states(term).to_dot())
        return 0
    info = {
        "state": str(term),
        "process": unparse(erase(term)),
        "origin": unparse(origin(term)),
        "barbs": sorted(str(a) for a in barbs(term)),
        "forward": [{"label": str(l), "to": unparse(erase(t))}
                    for l, t in forward_steps(term)],
        "backward": [{"label": str(l), "to": unparse(erase(t))}
                     for l, t in backward_steps(term)],
    }
    if args.fmt == "json":
        print(json.dumps(info))
    else:
        print(f"state:   {info['state']}")
        print(f"process: {info['process']}")
        print(f"origin:  {info['origin']}")
        print(f"barbs:   {' '.join(info['barbs']) or '(none)'}")
        for move in info["forward"]:
            print(f"  {move['label']} -> {move['to']}")
        for move in info["backward"]:
            print(f"  {move['label']} -> {move['to']}")
    return 0


def _emit_verdict(verdict: EquivalenceVerdict, args) -> int:
    if args.fmt == "json":
        print(json.dumps(verdict.to_json()))
    else:
        print("related" if verdict.related else "not related")
        if verdict.failing_stratum:
            kind, depth = verdict.failing_stratum
            print(f"fails at stratum {kind}{depth}")
        if verdict.witness:
            print(f"witness: {verdict.witness}")
        if verdict.context:
            print(f"context: {verdict.context}")
    return 0 if verdict.related else 1


def cmd_check(args) -> int:
    p1 = _prepare(args.left, args)
    p2 = _prepare(args.right, args)
    s1, s2 = _encode_guarded(p1, args), _encode_guarded(p2, args)
    if args.equiv == "hhpb":
        verdict = hhpb(s1, s2)
    elif args.equiv == "barbed":  # witnesses name the lifted, normalized starts
        verdict = barbed_bf_bisim_structs(
            s1, s2, starts=(normalize(lift(p1)), normalize(lift(p2))))
    else:
        verdict = EquivalenceVerdict(forward_bisim_structs(s1, s2))
    return _emit_verdict(verdict, args)


def cmd_discriminate(args) -> int:
    p1 = _prepare(args.left, args)
    p2 = _prepare(args.right, args)
    verdict = hhpb(_encode_guarded(p1, args), _encode_guarded(p2, args))
    if verdict.related:
        print("processes are HHPB-related; nothing to discriminate",
              file=sys.stderr)
        return 2
    ctx = None
    if args.contexts:
        with open(args.contexts) as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    cand = parse_context(line)
                except syntax.ParseError as exc:
                    raise ValueError(f"--contexts line {number}: {exc}") from exc
                # encoded past the shared cache, which no later call reads it from
                related = barbed_bf_bisim_structs(*(_encode_guarded(
                    syntax.instantiate(cand, p), args, encode_ccs.__wrapped__)
                    for p in (p1, p2))).related
                if not related:
                    ctx = cand
                    break
    else:
        ctx = synthesize_context(p1, p2)
    if ctx is not None:
        # verdicts are frozen: a new one carries the context
        verdict = EquivalenceVerdict(verdict.related, verdict.failing_stratum,
                                     verdict.witness, unparse(ctx))
    return _emit_verdict(verdict, args)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="revccs",
        description="workbench for reversible process calculus equivalences")
    subs = ap.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="parse and normalize a process")
    p.add_argument("process")
    _options(p)
    p.set_defaults(func=cmd_parse)

    p = subs.add_parser("encode", help="denote a process as a structure")
    p.add_argument("process")
    _options(p, ("text", "json", "dot"), max_events=True)
    p.set_defaults(func=cmd_encode)

    p = subs.add_parser("step", help="run a process and list transitions")
    p.add_argument("process")
    p.add_argument("--do", default=None,
                   help="comma separated actions to perform first; a "
                        "trailing * undoes the action")
    _options(p, ("text", "json", "dot"))
    p.set_defaults(func=cmd_step)

    p = subs.add_parser("check", help="decide an equivalence")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--equiv",
                   choices=("hhpb", "barbed", "forward"),
                   default="hhpb")
    _options(p, max_events=True)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("discriminate",
                        help="decide and, on failure, produce a context")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--contexts", default=None,
                   help="file of candidate contexts, one per line")
    _options(p, max_events=True)
    p.set_defaults(func=cmd_discriminate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (syntax.ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
