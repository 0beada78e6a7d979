"""Seeded inputs of the benchmark workloads.

A workload is a list of process pairs given as concrete syntax, the only
thing the program under test receives, in a fixed order.  The seed changes
the inputs but not their shape: action names are drawn in an
order-preserving way, so every seed asks the deciders for the same amount of
work and the run-to-run spread measures the machine, not the draw.  The one
exception is the corpus's small seeded draw of random terms.

Import this module only once ``revccs`` is importable: the random corpus
terms are filtered with the program's own normalisation.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

# The 25-term enumerated corpus (all collapsed, clash-free processes of at
# most three prefixes over a and b, deduplicated up to structural congruence
# and thinned evenly), frozen as text so that the workload does not move
# when the test corpus does.
CORPUS = (
    "'a.'a.'a.0", "'a.'b.'a.0", "'a.('a.0 + a.0)", "'a.((a)0 | b.0)",
    "'a.0 + 'b.'a.0", "'a.0 + a.b.0", "'a.0 | 'b.0 | b.0", "'a.0 | b.a.0",
    "'a.b.'a.0", "'b.'a.(a)0", "'b.'b.0 + b.0", "'b.('b.0 + a.0)",
    "'b.(a)0 | b.0", "'b.0 + b.0 | a.0", "'b.0 | b.a.0", "'b.b.0 + a.0",
    "(a)'a.b.0", "(a)(a.0 | b.0)", "(a)a.'a.0", "(b)('b.0 + a.0)",
    "a.'a.b.0", "a.('a.0 | a.0)", "a.0 + b.b.0", "a.b.'b.0", "b.'b.b.0",
)
RANDOM_TERMS = 8          # seeded random corpus terms, paired among themselves
# sync-4 has 12 events and a fully interleaved width-3 expansion 15, over
# the default --max-events of 10
EVENTS_LIMIT = ("--max-events", "40")


@dataclass(frozen=True)
class Pair:
    """Two processes and the CLI flags every operation on them passes.

    ``expect`` holds the verdicts known by construction, as
    ``(hhpb, barbed, forward)``; pairs without it are checked against the
    reference deciders.  ``checks`` runs the three ``check`` games;
    ``discriminate`` then runs if ``check`` finds the pair HHPB-unrelated, or
    at once on a pair without checks.
    """

    left: str
    right: str
    flags: tuple = ()
    expect: tuple | None = None
    checks: bool = True
    discriminate: bool = True

    @property
    def par_collapse(self) -> bool:
        return "--no-par-collapse" not in self.flags


def names(rng: random.Random, k: int) -> list[str]:
    """k distinct one-letter channel names in alphabetical order."""
    return sorted(rng.sample(string.ascii_lowercase, k))


# ---------------------------------------------------------------------------
# corpus

def _random_term(rng: random.Random, budget: int):
    """Random process of at most ``budget`` prefixes over a, b and c."""
    from revccs.syntax import NIL, Par, Prefix, Restrict, inp, out, sum_of

    def action():
        ch = rng.choice("abc")
        return out(ch) if rng.random() < 0.4 else inp(ch)

    if budget == 0 or rng.random() < 0.15:
        return NIL
    kind = rng.choice(["prefix", "prefix", "sum", "par", "restrict"])
    if kind == "sum" and budget >= 2:
        split = rng.randint(1, budget - 1)
        return sum_of([Prefix(action(), _random_term(rng, b - 1))
                       for b in (split, budget - split)])
    if kind == "par" and budget >= 2:
        split = rng.randint(1, budget - 1)
        return Par(_random_term(rng, split), _random_term(rng, budget - split))
    if kind == "restrict":
        return Restrict(rng.choice("abc"), _random_term(rng, budget))
    return Prefix(action(), _random_term(rng, budget - 1))


def random_corpus_terms(rng: random.Random, count: int, exclude) -> list[str]:
    """Distinct collapsed, clash-free random terms, as text."""
    from revccs.rccs import ccs_state_key
    from revccs.syntax import (collapse, detect_auto_conflict_or_concurrency,
                               is_collapsed, parse, push_restrictions, unparse)

    seen = {ccs_state_key(collapse(parse(t))) for t in exclude}
    keep: list[str] = []
    while len(keep) < count:
        t = collapse(push_restrictions(collapse(_random_term(rng, 4))))
        key = ccs_state_key(t)
        if key in seen or not is_collapsed(t):
            continue
        seen.add(key)
        if not detect_auto_conflict_or_concurrency(t):
            keep.append(unparse(t))
    return keep


def _all_pairs(terms) -> list[Pair]:
    return [Pair(terms[i], terms[j])
            for i in range(len(terms)) for j in range(i, len(terms))]


def corpus(rng: random.Random, quick: bool) -> list[Pair]:
    fixed = CORPUS[::5] if quick else CORPUS
    drawn = random_corpus_terms(rng, 2 if quick else RANDOM_TERMS, CORPUS)
    return _all_pairs(fixed) + _all_pairs(drawn)


# ---------------------------------------------------------------------------
# families

def sync(chans, expand_last: bool = False) -> str:
    """``a.0 | 'a.0 | ...``; with ``expand_last`` the last pair becomes its
    expansion ``{x.'x.0 + 'x.x.0 + tau.0}``."""
    parts = [f"{x}.0 | '{x}.0" for x in chans]
    if expand_last:
        x = chans[-1]
        parts[-1] = f"{{{x}.'{x}.0 + '{x}.{x}.0 + tau.0}}"
    return " | ".join(parts)


def taus(n: int) -> str:
    return " | ".join(["tau.0"] * n)


def families(rng: random.Random, quick: bool) -> list[Pair]:
    width, silent = (2, 3) if quick else (4, 6)
    chans = names(rng, width)
    flags = EVENTS_LIMIT
    large = [
        Pair(sync(chans), sync(chans), flags, (True, True, True)),
        # fails HHPB at stratum B2, yet the barbed and forward games hold;
        # too large to discriminate (sync-2' takes 19 s, sync-3' over 300 s)
        Pair(sync(chans), sync(chans, True), flags, (False, True, True),
             discriminate=False),
        Pair(taus(silent), taus(silent), flags + ("--no-par-collapse",),
             (True, True, True)),
    ]
    # sync-1 is the one family small enough to discriminate.  Renamings of
    # it go through discriminate alone, one before each large pair and one
    # after the last, so that discriminate_s samples the whole round rather
    # than one stretch of it: the machine's speed changes within a second.
    small = [Pair(sync([x]), sync([x], True), flags, (False, True, True),
                  checks=False) for x in names(rng, len(large) + 1)]
    return [p for pair in zip(small, large + [None]) for p in pair if p]


# ---------------------------------------------------------------------------
# discriminate

# Expansion-law pairs: the full parallel composition against a process that
# sequentialises some of it.  Each is forward-bisimilar to its left side but
# fails HHPB, so discriminate always has a context to find.  Placeholders are
# channel names in alphabetical order; which of them a shape expands decides
# how many candidate contexts synthesis tries first.
SHAPES_3 = (
    "{0}.0 | {{{1}.{2}.0 + {2}.{1}.0}}",
    "{{{0}.{1}.0 + {1}.{0}.0}} | {2}.0",
    "{1}.0 | {{{0}.{2}.0 + {2}.{0}.0}}",
    "{0}.{{{1}.0 | {2}.0}} + {1}.{{{0}.0 | {2}.0}} + {2}.{{{0}.0 | {1}.0}}",
    "{0}.{{{1}.{2}.0 + {2}.{1}.0}} + {1}.{{{0}.{2}.0 + {2}.{0}.0}}"
    " + {2}.{{{0}.{1}.0 + {1}.{0}.0}}",
)
SHAPES_4 = (
    "{{{0}.{1}.0 + {1}.{0}.0}} | {2}.0 | {3}.0",
    "{{{0}.{1}.0 + {1}.{0}.0}} | {{{2}.{3}.0 + {3}.{2}.0}}",
)


def discriminate(rng: random.Random, quick: bool) -> list[Pair]:
    pairs = []
    for width, shapes in ((3, SHAPES_3[:2] if quick else SHAPES_3),
                          (4, () if quick else SHAPES_4)):
        for shape in shapes:
            chans = names(rng, width)
            left = " | ".join(f"{x}.0" for x in chans)
            pairs.append(Pair(left, shape.format(*chans), EVENTS_LIMIT))
    return pairs


def build(workload: str, seed: int, quick: bool = False) -> list[Pair]:
    """The pairs of one workload, a function of ``seed`` alone."""
    makers = {"corpus": corpus, "families": families,
              "discriminate": discriminate}
    return makers[workload](random.Random(f"{workload}:{seed}"), quick)
