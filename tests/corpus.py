"""Shared term corpora for the test suite.

Three sources: a deterministic enumeration of small collapsed, clash-free
processes (used for pairwise equivalence checks), a seeded random
generator of precondition-satisfying terms (used for per-term property
checks), seeded rewrites of a term by laws that preserve HHPB and seeded
instances of the expansion law, which does not (pairs with a known answer).
All stay small so every denotation is: the first two within four prefixes,
a rewritten term within six, and the processes an expansion composes within
two events each.  ``ccs_steps``, the plain forward-only steps of a term, is
the reference the tests hold denotations and reversible steps against,
``violations`` checks that an event map is a morphism of structures, and
``recursive_causes`` is the reference for ``ConfStruct.causes``.  The
structure helpers only the tests use live here too: ``restrict_events``,
``parallel_full`` and ``transitions``.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

from revccs.syntax import (TAU, Action, CcsTerm, Nil, NIL, Par, Prefix,
                           Process, Restrict, Sum, all_names, collapse,
                           detect_auto_conflict_or_concurrency, free_names,
                           fresh_name, inp, is_collapsed, out, parse,
                           push_restrictions, rename_free, sum_of, unparse)
from revccs.confstruct import (ConfStruct, Morphism, PairLabel, ProductResult,
                               SyncEvent, _sync_pair, product)
from revccs.encoding import encode_ccs
from revccs.rccs import _branches, ccs_state_key


ACTIONS = [inp("a"), out("a"), inp("b"), out("b")]


def _guarded(budget: int) -> list[CcsTerm]:
    """Prefix-guarded terms (legal sum branches) of at most ``budget`` prefixes."""
    if budget == 0:
        return []
    smaller = _terms(budget - 1)
    return [Prefix(a, t) for a in ACTIONS for t in smaller]


def _terms(budget: int) -> list[CcsTerm]:
    if budget == 0:
        return [NIL]
    out_terms: list[CcsTerm] = list(_terms(budget - 1))
    out_terms.extend(_guarded(budget))
    for i in range(1, budget):
        for l in _guarded(i):
            for r in _guarded(budget - i):
                out_terms.append(Sum(l, r))
        for l in _terms(i):
            for r in _terms(budget - i):
                if not isinstance(l, Nil) and not isinstance(r, Nil):
                    out_terms.append(Par(l, r))
    for name in ("a", "b"):
        out_terms.extend(Restrict(name, t) for t in _terms(budget - 1))
    return out_terms


def enumerated_terms(budget: int = 3, limit: int = 25) -> list[CcsTerm]:
    """Deterministic, deduplicated corpus of collapsed clash-free terms."""
    seen: set = set()
    keep: list[CcsTerm] = []
    for t in sorted(set(_terms(budget)), key=unparse):
        if not is_collapsed(t):
            continue
        key = ccs_state_key(t)
        if key in seen:
            continue
        if detect_auto_conflict_or_concurrency(t):
            continue
        seen.add(key)
        keep.append(t)
    # spread the selection over the whole enumeration, not just its head
    if len(keep) > limit:
        stride = len(keep) // limit
        keep = keep[::stride][:limit]
    return keep


def corpus_pairs(budget: int = 3, limit: int = 25) -> list[tuple[CcsTerm, CcsTerm]]:
    """All unordered pairs of the enumerated corpus, identity pairs included."""
    terms = enumerated_terms(budget, limit)
    pairs = [(t, t) for t in terms]
    pairs.extend(itertools.combinations(terms, 2))
    return pairs


def _random_term(rng: random.Random, budget: int) -> CcsTerm:
    if budget == 0 or rng.random() < 0.15:
        return NIL
    names = ["a", "b", "c"]
    kind = rng.choice(["prefix", "prefix", "sum", "par", "restrict"])
    if kind == "prefix":
        ch = rng.choice(names)
        act = out(ch) if rng.random() < 0.4 else inp(ch)
        return Prefix(act, _random_term(rng, budget - 1))
    if kind == "sum" and budget >= 2:
        split = rng.randint(1, budget - 1)
        branches = []
        for b in (split, budget - split):
            ch = rng.choice(names)
            act = out(ch) if rng.random() < 0.4 else inp(ch)
            branches.append(Prefix(act, _random_term(rng, b - 1)))
        return sum_of(branches)
    if kind == "par" and budget >= 2:
        split = rng.randint(1, budget - 1)
        return Par(_random_term(rng, split),
                   _random_term(rng, budget - split))
    if kind == "restrict":
        return Restrict(rng.choice(names), _random_term(rng, budget))
    return Prefix(inp(rng.choice(names)), _random_term(rng, budget - 1))


def random_terms(count: int = 500, seed: int = 20260826,
                 budget: int = 4) -> list[CcsTerm]:
    """Seeded stream of distinct collapsed, clash-free terms."""
    rng = random.Random(seed)
    seen: set = set()
    keep: list[CcsTerm] = []
    while len(keep) < count:
        # filter on the restriction-pushed form: dropping vacuous binders can
        # merge sum branches and expose clashes the raw term hides
        t = collapse(push_restrictions(collapse(_random_term(rng, budget))))
        key = ccs_state_key(t)
        if key in seen:
            continue
        if not is_collapsed(t) or detect_auto_conflict_or_concurrency(t):
            continue
        seen.add(key)
        keep.append(t)
    return keep


def _law_rewrites(t: CcsTerm) -> list[tuple[str, CcsTerm]]:
    """The terms one HHPB-preserving law turns ``t`` into at its root, with
    the law's name: commutativity and associativity of ``|`` and ``+``,
    ``P | 0 = P``, alpha-renaming of a restricted name and scope extension
    ``(a)(P | Q) = (a)P | Q`` for ``a`` not free in ``Q``, both ways."""
    found = [("par-unit", Par(t, NIL))]
    if isinstance(t, (Par, Sum)):
        op = type(t)
        found.append((f"{op.__name__.lower()}-comm", op(t.right, t.left)))
        if isinstance(t.left, op):
            found.append((f"{op.__name__.lower()}-assoc",
                          op(t.left.left, op(t.left.right, t.right))))
        if isinstance(t.right, op):
            found.append((f"{op.__name__.lower()}-assoc",
                          op(op(t.left, t.right.left), t.right.right)))
    if isinstance(t, Par):
        if isinstance(t.right, Nil):
            found.append(("par-unit", t.left))
        if isinstance(t.left, Restrict) and t.left.name not in free_names(t.right):
            found.append(("scope", Restrict(t.left.name, Par(t.left.body, t.right))))
    if isinstance(t, Restrict):
        new = fresh_name(t.name, all_names(t))
        found.append(("alpha", Restrict(new, rename_free(t.body, t.name, new))))
        if isinstance(t.body, Par) and t.name not in free_names(t.body.right):
            found.append(("scope", Par(Restrict(t.name, t.body.left), t.body.right)))
    return found


def _sites(t: CcsTerm, rebuild=lambda s: s):
    """Each subterm of ``t`` with the function putting a term in its place."""
    yield t, rebuild
    if isinstance(t, Prefix):
        yield from _sites(t.body, lambda s: rebuild(Prefix(t.action, s)))
    elif isinstance(t, Restrict):
        yield from _sites(t.body, lambda s: rebuild(Restrict(t.name, s)))
    elif isinstance(t, (Par, Sum)):
        op = type(t)
        yield from _sites(t.left, lambda s: rebuild(op(s, t.right)))
        yield from _sites(t.right, lambda s: rebuild(op(t.left, s)))


def rewrite_by_laws(t: CcsTerm, rng: random.Random,
                    steps: int) -> tuple[CcsTerm, list[str]]:
    """``t`` rewritten ``steps`` times by HHPB-preserving laws, with the
    laws applied in order.  Each step draws a law among those that apply
    somewhere in the term, then one place where it applies; a draw that
    would leave a sum branch unguarded is drawn again."""
    laws = []
    while len(laws) < steps:
        options = [(law, new, rebuild) for site, rebuild in _sites(t)
                   for law, new in _law_rewrites(site)]
        law = rng.choice(sorted({law for law, _, _ in options}))
        _, new, rebuild = rng.choice([o for o in options if o[0] == law])
        try:
            t = rebuild(new)
        except ValueError:
            continue
        laws.append(law)
    return t, laws


def law_pair(seed: int, steps: int = 3) -> tuple[CcsTerm, CcsTerm, list[str]]:
    """A seeded random term, its rewrite by ``steps`` HHPB-preserving laws,
    and the laws applied.  One term in four is a sum of three guarded
    branches, so that the associativity of ``+`` has somewhere to apply."""
    rng = random.Random(seed)
    if rng.random() < 0.25:
        t = sum_of([Prefix(rng.choice(ACTIONS), _random_term(rng, 1))
                    for _ in range(3)])
    else:
        t = _random_term(rng, 4)
    return (t, *rewrite_by_laws(t, rng, steps))


def _small_term(rng: random.Random) -> CcsTerm:
    """A seeded random term whose denotation has at most two events."""
    while True:
        t = _random_term(rng, 2)
        if len(encode_ccs(t).events) <= 2:
            return t


def expansion_pair(seed: int) -> tuple[CcsTerm, CcsTerm]:
    """``a.P | b.Q`` against its expansion ``a.(P | b.Q) + b.(a.P | Q)``,
    plus the branch ``tau.(P | Q)`` when ``b`` is the co-name of ``a``, for
    seeded actions and seeded P and Q of at most two events each.  The two
    sides are forward-bisimilar but not HHPB-related: a and b are
    concurrent on the left and ordered on the right."""
    rng = random.Random(seed)
    a, b = rng.choice(ACTIONS), rng.choice(ACTIONS)
    p, q = _small_term(rng), _small_term(rng)
    branches = [Prefix(a, Par(p, Prefix(b, q))), Prefix(b, Par(Prefix(a, p), q))]
    if b == a.dual():
        branches.append(Prefix(TAU, Par(p, q)))
    return Par(Prefix(a, p), Prefix(b, q)), sum_of(branches)


FIG_TERMS = {
    "C1": parse("a.0 | b.0"),
    "C2": parse("a.b.0 + b.a.0"),
    "C3": parse("a.0 + a.b.0"),
    "C4": parse("a.b.0 + a.b.0"),
}


# ---------------------------------------------------------------------------
# Structure helpers and references

def restrict_events(c: ConfStruct, keep: Iterable) -> ConfStruct:
    keep = frozenset(keep)
    return c.restricted(sum(1 << i for i, e in enumerate(c.tags) if e in keep))


def parallel_full(c1: ConfStruct, c2: ConfStruct) -> ProductResult:
    return product(c1, c2, _sync_pair)


def transitions(c: ConfStruct, x: frozenset) -> set[tuple]:
    """Forward extensions and backward retractions of ``x``, as (event, dir);
    ``extensions`` raises ``NotAConfiguration`` when x is no configuration."""
    x = frozenset(x)
    return ({(e, "fwd") for e in c.extensions(x)}
            | {(e, "bwd") for e in c.retractions(x)})


def recursive_causes(c: ConfStruct, y: int, e: int) -> int:
    """The strict causes of event ``e`` in configuration ``y``, as a mask.

    By definition d lies below e in y when every sub-configuration of y
    holding e holds d.  On a stable structure that order restricts to
    sub-configurations: if w ⊆ y holds e, and a sub-configuration z of y
    holds e but not d, then so does z ∩ w, a configuration by stability
    (y bounds both).  So for any j ≠ e with w = y \\ {j} a configuration,
    e has the same causes in w as in y, and j is not among them.  With no
    such j, y is the only sub-configuration holding e (a covering chain
    from a smaller one would end by adding some j ≠ e), and every other
    event of y is a cause.  This recurrence assumes stability.
    """
    for j in c.rets[y]:
        if j != e:
            return recursive_causes(c, y ^ 1 << j, e)
    return y & ~(1 << e)


# ---------------------------------------------------------------------------
# Morphisms between structures

def violations(m: Morphism) -> list[str]:
    """How ``m`` fails to preserve configurations and labels or to be
    locally injective on every configuration; empty for a morphism."""
    out = []
    for x in m.source.configs:
        image = m.apply(x)
        if image not in m.target.configs:
            out.append(f"image of a configuration is not a configuration: {sorted(map(repr, x))}")
        defined = [e for e in x if e in m.mapping]
        if len({m.mapping[e] for e in defined}) != len(defined):
            out.append(f"not locally injective on {sorted(map(repr, x))}")
        for e in defined:
            src = m.source.label(e)
            tgt = m.target.label(m.mapping[e])
            # a projection resolves a synchronization pair (or the tau it
            # was relabelled to) to one of its two halves
            sync = ((isinstance(src, PairLabel)
                     and tgt in (src.left, src.right))
                    or (getattr(src, "is_tau", False)
                        and isinstance(e, SyncEvent)))
            if src != tgt and not sync:
                out.append(f"label not preserved on {e!r}")
    return out


def is_morphism(m: Morphism) -> bool:
    return not violations(m)


# ---------------------------------------------------------------------------
# Plain forward-only semantics of the erased calculus

def ccs_steps(p: Process) -> list[tuple[Action, Process]]:
    if isinstance(p, (Prefix, Sum)):
        return [(a, body) for a, body, _rest in _branches(p)]
    if isinstance(p, Par):
        lmoves = ccs_steps(p.left)
        rmoves = ccs_steps(p.right)
        out = [(a, Par(l2, p.right)) for a, l2 in lmoves]
        out += [(a, Par(p.left, r2)) for a, r2 in rmoves]
        for a, l2 in lmoves:
            if a.is_tau:
                continue
            for b, r2 in rmoves:
                if b == a.dual():
                    out.append((TAU, Par(l2, r2)))
        return out
    if isinstance(p, Restrict):
        return [(a, Restrict(p.name, q)) for a, q in ccs_steps(p.body)
                if a.is_tau or a.channel != p.name]
    return []
