"""Equivalence deciders, stratification, synthesis, congruence closure."""

import ast
import collections
import functools
import inspect
import itertools
import sys
import textwrap

import pytest

from corpus import (ccs_steps, corpus_pairs, enumerated_terms, expansion_pair,
                    law_pair, random_terms)
from revccs.cli import main
from revccs.confstruct import ConfStruct, bits, causal_order, parallel
from revccs.syntax import (HOLE, NIL, all_names, collapse, instantiate,
                           parse, parse_context, unparse)
from revccs.encoding import encode_ccs
from revccs.rccs import (ccs_state_key, forward_steps, lift,
                         normalize, reachable_states)
from revccs import confstruct, equivalences
from revccs.equivalences import (BoundExceeded, EquivalenceVerdict, hhpb,
                                 barbed_bf_bisim_structs,
                                 barbed_bf_bisim_terms, build_stratification,
                                 check_congruence_closure,
                                 default_context_family, forward_bisim_structs,
                                 forward_strong_bisim, hhpb_oracle,
                                 hhpb_relation, synthesize_context,
                                 MAX_FACTORS, _Game, _all_triples,
                                 _back, _barbed_game, _candidate,
                                 _coarsest_blocks, _forth,
                                 _forth_ok, _hhpb_gfp)

C1 = encode_ccs(parse("a.0 | b.0"))
C2 = encode_ccs(parse("a.b.0 + b.a.0"))
C3 = encode_ccs(parse("a.0 + a.b.0"))
C4 = encode_ccs(parse("a.b.0 + a.b.0"))

# sync-2 against sync-2' (its last pair expanded) and three parallel silent
# steps kept apart: causes to map, and many bijections between equal labels
SYNC_2 = parse("a.0 | 'a.0 | b.0 | 'b.0")
SYNC_2_EXPANDED = parse("a.0 | 'a.0 | {b.'b.0 + 'b.b.0 + tau.0}")
TAUS_3 = collapse(parse("tau.0 | tau.0 | tau.0"), par_rule=False)
SYNC_4 = "a.0 | 'a.0 | b.0 | 'b.0 | c.0 | 'c.0 | d.0 | 'd.0"
SYNC_4_EXPANDED = "a.0 | 'a.0 | b.0 | 'b.0 | c.0 | 'c.0 | {d.'d.0 + 'd.d.0 + tau.0}"
SYNC_4_REVERSED = "d.0 | 'd.0 | c.0 | 'c.0 | b.0 | 'b.0 | a.0 | 'a.0"


class TestStratification:
    def test_c1_c2_tables(self):
        s = build_stratification(C1, C2)
        assert s.k == 2
        assert len(s.forth[2]) == 2
        assert len(s.forth[1]) == 2
        assert s.forth[0] == {(frozenset(), frozenset(), frozenset())}
        assert s.back[2] == set()
        assert len(s.back[1]) == 2
        assert s.back[0] == s.forth[0]

    def test_c3_c4_tables(self):
        s = build_stratification(C3, C4)
        assert s.k == 2
        assert len(s.forth[2]) == 2
        assert len(s.forth[1]) == 2
        assert s.forth[0] == set()

    def test_identical_pair(self):
        s = build_stratification(C1, C1)
        assert all(s.forth[i] for i in range(s.k + 1))
        assert all(s.back[i] for i in range(s.k + 1))


class TestHhpb:
    def test_reflexive(self):
        for c in (C1, C2, C3, C4):
            assert hhpb(c, c).related

    def test_c1_c2_fails_at_b2(self):
        v = hhpb(C1, C2)
        assert not v.related
        assert v.failing_stratum == ("B", 2)

    def test_c3_c4_fails_at_f0(self):
        v = hhpb(C3, C4)
        assert not v.related
        assert v.failing_stratum[0] == "F"

    def test_relation_contents(self):
        rel = hhpb_relation(C1, C1)
        assert (frozenset(), frozenset(), frozenset()) in rel

    def test_unanswered_extension_at_the_top(self):
        # a.b.0 extends the largest configuration of a.0 by b
        short, long = encode_ccs(parse("a.0")), encode_ccs(parse("a.b.0"))
        assert not hhpb(short, long).related
        assert (frozenset(), frozenset(), frozenset()) not in hhpb_relation(
            short, long)

    def test_json(self):
        data = hhpb(C1, C2).to_json()
        assert data["related"] is False
        assert isinstance(data["failing_stratum"], int)


class TestOracle:
    def test_agreement_on_headliners(self):
        for a, b in ((C1, C1), (C1, C2), (C3, C4), (C2, C2), (C2, C3)):
            assert hhpb_oracle(a, b, bound=16) == hhpb(a, b).related

    def test_bound(self):
        with pytest.raises(BoundExceeded):
            hhpb_oracle(C1, C2, bound=3)


class TestBarbed:
    def test_structs_related(self):
        assert barbed_bf_bisim_structs(C1, C1).related

    def test_structs_barb_mismatch(self):
        a = encode_ccs(parse("a.0"))
        b = encode_ccs(parse("b.0"))
        assert not barbed_bf_bisim_structs(a, b).related

    def test_terms_related_after_collapse(self):
        from revccs.syntax import collapse
        t1 = lift(parse("a.0"))
        t2 = lift(collapse(parse("a.0 + a.0")))
        assert barbed_bf_bisim_terms(t1, t2).related

    def test_terms_unrelated(self):
        assert not barbed_bf_bisim_terms(lift(parse("a.0")),
                                         lift(parse("b.0"))).related

    def test_tau_sensitivity(self):
        # a.0|'a.0 has a silent move which a.0+'a.0 lacks
        v = barbed_bf_bisim_terms(lift(parse("a.0 | 'a.0")),
                                  lift(parse("a.0 + 'a.0")))
        assert not v.related


class TestSynthesis:
    def test_hole_suffices_for_barb_gap(self):
        ctx = synthesize_context(parse("a.0"), parse("b.0"))
        assert unparse(ctx) == "[·]"

    def test_headline_pair(self):
        p1, p2 = parse("a.0 | b.0"), parse("a.b.0 + b.a.0")
        ctx = synthesize_context(p1, p2)
        assert ctx is not None
        v = barbed_bf_bisim_structs(encode_ccs(instantiate(ctx, p1)),
                                    encode_ccs(instantiate(ctx, p2)))
        assert not v.related

    def test_c3_c4_pair(self):
        p1, p2 = parse("a.0 + a.b.0"), parse("a.b.0 + a.b.0")
        found = synthesize_context(p1, p2)
        assert found is not None

    def test_related_pair_yields_nothing(self):
        assert synthesize_context(parse("a.0"), parse("a.0")) is None

    def test_instantiated_pair_left_out_of_the_cache(self):
        p1 = parse("a.0 | 'a.0 | b.0 | 'b.0")
        p2 = parse("a.0 | 'a.0 | {b.'b.0 + 'b.b.0 + tau.0}")
        encode_ccs.cache_clear()
        ctx = synthesize_context(p1, p2)
        assert unparse(ctx) == "'b.0 + c_2.0 | (b.0 + c_1.0 | [·])"
        for p in (p1, p2):
            misses = encode_ccs.cache_info().misses
            encode_ccs(instantiate(ctx, p))
            assert encode_ccs.cache_info().misses > misses


def _reference_synthesis(p1, p2):
    """The tester search with one-label refinements added, played on the
    instantiated pair's own denotations: each tester also grows by one label
    per visible extension of its configuration, and a tester whose label
    multiset was tried already is skipped."""
    taken = all_names(p1) | all_names(p2)

    def discriminates(ctx):
        return not barbed_bf_bisim_structs(
            encode_ccs(instantiate(ctx, p1)),
            encode_ccs(instantiate(ctx, p2))).related

    if discriminates(HOLE):
        return HOLE
    candidates = set()
    for struct in (encode_ccs(p1), encode_ccs(p2)):
        visible = {i: label for i, label in enumerate(struct.tag_labels)
                   if not label.is_tau}
        for m, ext in struct.exts.items():
            labels = tuple(sorted((visible[i] for i in bits(m) if i in visible),
                                  key=str))
            if labels and len(labels) <= MAX_FACTORS:
                candidates.add(labels)
            if len(labels) < MAX_FACTORS:
                candidates.update(labels + (visible[i],)
                                  for i in ext if i in visible)
    seen = set()
    for labels in sorted(candidates, key=lambda c: (len(c), tuple(map(str, c)))):
        sig = tuple(sorted(map(str, labels)))
        if sig not in seen:
            seen.add(sig)
            ctx = _candidate(labels, taken)
            if discriminates(ctx):
                return ctx
    return None


def test_synthesis_matches_refining_reference():
    # a refinement is a permutation of the sorted labels of a larger
    # configuration, which sorts no later, and a tester beside a process
    # denotes what the tester around it does; so the pairs the bare hole
    # does not separate get the reference's context
    terms = enumerated_terms() + random_terms(60, seed=7)
    pairs = [(p1, p2) for p1, p2 in itertools.combinations(terms, 2)
             if not hhpb(encode_ccs(p1), encode_ccs(p2)).related
             and barbed_bf_bisim_structs(encode_ccs(p1),
                                         encode_ccs(p2)).related]
    assert len(pairs) == 213
    pairs += [(parse("a.0 | b.0 | c.0 | d.0"), parse(shape)) for shape in (
        "{a.b.0 + b.a.0} | c.0 | d.0", "{a.b.0 + b.a.0} | {c.d.0 + d.c.0}")]
    for p1, p2 in pairs:
        assert unparse(synthesize_context(p1, p2)) == unparse(
            _reference_synthesis(p1, p2)), (unparse(p1), unparse(p2))


def _full_product_synthesis(p1, p2):
    """``synthesize_context`` with each candidate played, in the same order,
    on the two whole products ``parallel(t, s1)`` and ``parallel(t, s2)``:
    the reference for growing them only where silent moves reach."""
    s1, s2 = encode_ccs(p1), encode_ccs(p2)
    if not barbed_bf_bisim_structs(s1, s2).related:
        return HOLE
    taken = all_names(p1) | all_names(p2)
    testers = set()
    for struct in (s1, s2):
        labels = struct.tag_labels
        for m in struct.exts:
            tester = tuple(sorted((labels[i] for i in bits(m)
                                   if not labels[i].is_tau), key=str))
            if 0 < len(tester) <= MAX_FACTORS:
                testers.add(tester)
    for tester in sorted(testers, key=lambda c: (len(c), tuple(map(str, c)))):
        ctx = _candidate(tester, taken)
        t = encode_ccs(instantiate(ctx, NIL))
        if not barbed_bf_bisim_structs(parallel(t, s1), parallel(t, s2)).related:
            return ctx
    return None


def _synthesis_pairs():
    """The corpus, every unordered pair of 40 random terms, law and
    expansion-law pairs, and sync-2 against sync-2'."""
    return (corpus_pairs()
            + list(itertools.combinations(random_terms(40, seed=7), 2))
            + [law_pair(seed)[:2] for seed in range(80)]
            + [expansion_pair(seed) for seed in range(30)]
            + [(SYNC_2, SYNC_2_EXPANDED)])


def test_synthesis_matches_full_product_games():
    for p1, p2 in _synthesis_pairs():
        assert synthesize_context(p1, p2) == _full_product_synthesis(p1, p2), (
            unparse(p1), unparse(p2))


def test_synthesis_finds_a_context_exactly_for_unrelated_pairs():
    # both halves of the theorem, for the tester family: a context for every
    # HHPB-unrelated pair, none for a related one
    related = 0
    for p1, p2 in _synthesis_pairs():
        hh = hhpb(encode_ccs(p1), encode_ccs(p2)).related
        related += hh
        assert (synthesize_context(p1, p2) is None) == hh, (unparse(p1),
                                                             unparse(p2))
    assert related == 26 + 80           # corpus pairs, 25 of them t against t, and laws
    sync_3 = parse("a.0 | 'a.0 | b.0 | 'b.0 | c.0 | 'c.0")
    assert synthesize_context(sync_3, sync_3) is None
    ctx = synthesize_context(parse(SYNC_4), parse(SYNC_4_EXPANDED))
    assert unparse(ctx) == "'d.0 + c_2.0 | (d.0 + c_1.0 | [·])"


def test_candidate_games_step_only_what_they_reach(monkeypatch):
    # discriminate on sync-4 against sync-4': the candidate games step each
    # product configuration they reach once (2,136 of the 2,168 nodes the 31
    # games play; the bare hole's game plays the denotations themselves), and
    # whole products are grown only to encode (the processes and testers);
    # growing every candidate product stepped about 397,000 configurations
    grown, stepped, reached, played = [], [], [], []
    encoding = encode_ccs.__wrapped__.__code__

    def encoding_now():
        frame = sys._getframe()
        while frame is not None and frame.f_code is not encoding:
            frame = frame.f_back
        return frame is not None

    def product(c1, c2, pair_label):
        grown.append(encoding_now())
        return full(c1, c2, pair_label)

    def step(self, m1, m2):
        if not encoding_now():
            stepped.append((m1, m2))
        return step_of(self, m1, m2)

    def ext(self, m):
        reached.append((self, m))       # kept alive, so ids stay apart
        return ext_of(self, m)

    def game(barbs, *rest):
        played.append(len(barbs))
        return _barbed_game(barbs, *rest)

    full, step_of, ext_of = (confstruct._product, confstruct.ProductSteps.step,
                             confstruct.ProductSteps.ext)
    encode_ccs.cache_clear()
    hhpb.cache_clear()
    monkeypatch.setattr(confstruct, "_product", product)
    monkeypatch.setattr(confstruct.ProductSteps, "step", step)
    monkeypatch.setattr(confstruct.ProductSteps, "ext", ext)
    monkeypatch.setattr(equivalences, "_barbed_game", game)
    assert main(["discriminate", SYNC_4, SYNC_4_EXPANDED,
                 "--max-events", "40"]) == 1
    assert len(played) == 31 and sum(played) == 2168
    assert len({(id(g), m) for g, m in reached}) == len(reached) == 2136
    assert len(stepped) == len(reached) == sum(played[1:])
    assert grown and all(grown)


class TestCongruence:
    def test_family_shape(self):
        fam = default_context_family(parse("a.0"), parse("b.0"))
        assert any(unparse(c) == "[·]" for c in fam)
        assert len(fam) >= 4

    def test_related_pair_consistent(self):
        report = check_congruence_closure(parse("a.0"), parse("a.0"))
        assert report.base_related and report.consistent
        assert report.discriminating == []

    def test_unrelated_pair(self):
        report = check_congruence_closure(parse("a.0 | b.0"),
                                          parse("a.b.0 + b.a.0"))
        assert not report.base_related
        assert report.consistent  # vacuously: nothing to preserve


class TestForwardBisim:
    def test_headline_collapse(self):
        assert forward_strong_bisim(parse("a.0 | b.0"),
                                    parse("a.b.0 + b.a.0"))

    def test_distinguishes_labels(self):
        assert not forward_strong_bisim(parse("a.0"), parse("b.0"))

    def test_sync(self):
        assert forward_strong_bisim(parse("(a){a.0 | 'a.0}"), parse("tau.0"))


# ---------------------------------------------------------------------------
# Pairwise greatest-fixpoint reference for the barbed and forward games

def _gfp_related(side1, side2) -> bool:
    """Drop pairs with unequal classes or an unanswered challenge until none
    is dropped; a side is (node -> class, node -> {(label, target)}, start)."""
    cls1, succ1, start1 = side1
    cls2, succ2, start2 = side2
    pairs = {(a, b) for a in cls1 for b in cls2 if cls1[a] == cls2[b]}

    def answered(moves, replies, flip):
        return all(any(l == m and ((y, x) if flip else (x, y)) in pairs
                       for m, y in replies) for l, x in moves)

    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            if not (answered(succ1[a], succ2[b], False)
                    and answered(succ2[b], succ1[a], True)):
                pairs.discard((a, b))
                changed = True
    return (start1, start2) in pairs


def _barbed_side(p):
    g = reachable_states(lift(p))
    barbs = {k: frozenset(l.action for l, _ in forward_steps(t)
                          if not l.action.is_tau)
             for k, t in g.nodes.items()}
    succ = {k: set() for k in g.nodes}
    for src, lbl, dst in g.edges:
        if lbl.action.is_tau:
            succ[src].add(("f", dst))
            succ[dst].add(("b", src))
    return barbs, succ, g.initial


def _forward_side(p):
    succ, frontier = {}, [p]
    while frontier:
        cur = frontier.pop()
        if ccs_state_key(cur) not in succ:
            moves = ccs_steps(cur)
            succ[ccs_state_key(cur)] = {(a, ccs_state_key(q)) for a, q in moves}
            frontier.extend(q for _, q in moves)
    return dict.fromkeys(succ, None), succ, ccs_state_key(p)


def test_games_agree_on_corpus():
    # the structure games, as ``check`` plays them, against the term game
    # and the pairwise references on the reachable term graphs
    pairs = corpus_pairs() + list(itertools.combinations(
        random_terms(40, seed=7), 2))
    barbed_side = functools.cache(_barbed_side)
    forward_side = functools.cache(_forward_side)
    for p1, p2 in pairs:
        pair = (unparse(p1), unparse(p2))
        s1, s2 = encode_ccs(p1), encode_ccs(p2)
        barbed = barbed_bf_bisim_terms(lift(p1), lift(p2))
        starts = (normalize(lift(p1)), normalize(lift(p2)))
        assert barbed_bf_bisim_structs(s1, s2, starts=starts) == barbed, pair
        forward = forward_bisim_structs(s1, s2)
        assert not hhpb(s1, s2).related or (barbed.related and forward), pair
        assert barbed.related == _gfp_related(barbed_side(p1),
                                              barbed_side(p2)), pair
        assert forward == _gfp_related(forward_side(p1),
                                       forward_side(p2)), pair


def test_barbed_witness_silent_undo():
    # one step into tau.0 against 0: the undo is the only challenge, and
    # no pair played from its origins reaches that branch of the game
    ((_, after),) = forward_steps(normalize(lift(parse("tau.0"))))
    nil = lift(parse("0"))
    assert barbed_bf_bisim_terms(after, nil) == EquivalenceVerdict(
        False, witness="left silent undo unanswered at <1,tau,0> |> 0")
    assert barbed_bf_bisim_terms(nil, after) == EquivalenceVerdict(
        False, witness="right silent undo unanswered at <1,tau,0> |> 0")


def _full_graph_barbed(c1, c2, starts=None):
    """The barbed game on the whole configuration graphs of both
    structures, each numbered in the order of its ``exts``: the reference
    for the game on their silent parts."""
    size = len(c1.exts) + len(c2.exts)
    barbs, succ = [], [[] for _ in range(size)]
    base, begin, ids = 0, [], {}
    for c in (c1, c2):
        number = {m: k for k, m in enumerate(c.exts, base)}
        base += len(number)
        barb = [0 if action.is_tau else 1 << ids.setdefault(action, len(ids))
                for action in c.tag_labels]
        for m, ext in c.exts.items():
            k, seen = number[m], 0
            for e in ext:
                if barb[e]:
                    seen |= barb[e]
                else:
                    n = number[m | 1 << e]
                    succ[k].append(n)
                    succ[n].append(size + k)
            barbs.append(seen)
        begin.append(number[0])
    return _barbed_game(barbs, succ, *begin, starts)


def test_silent_part_answers_as_full_graph():
    # verdicts and witnesses, starts named, on the corpus, every ordered
    # pair of random terms, law and expansion-law pairs, the pairs with
    # causes to map and parallel silent steps, and the expansion law on
    # silent prefixes, which only undoing tells apart
    terms = random_terms(60, seed=7)
    silent = (parse("tau.a.0 | tau.b.0"),
              parse("tau.(a.0 | tau.b.0) + tau.(tau.a.0 | b.0)"))
    pairs = (corpus_pairs() + list(itertools.product(terms, repeat=2))
             + [law_pair(seed)[:2] for seed in range(80)]
             + [expansion_pair(seed) for seed in range(30)]
             + [(SYNC_2, SYNC_2_EXPANDED), (TAUS_3, TAUS_3), silent,
                silent[::-1]])
    for p1, p2 in pairs:
        s1, s2, starts = encode_ccs(p1), encode_ccs(p2), (unparse(p1), unparse(p2))
        assert barbed_bf_bisim_structs(s1, s2, starts) == _full_graph_barbed(
            s1, s2, starts), starts


def _kernel_forward(c1, c2):
    """The forward game refined by the partition kernel on both structures'
    numbered configuration graphs: the reference for the one pass over
    their acyclic graphs."""
    size = len(c1.exts) + len(c2.exts)
    succ: list = []
    begin, ids = [], {}
    for c in (c1, c2):
        number = {m: k for k, m in enumerate(c.exts, len(succ))}
        label = [ids.setdefault(action, len(ids)) * size for action in c.tag_labels]
        succ.extend([label[e] + number[m | 1 << e] for e in ext]
                    for m, ext in c.exts.items())
        begin.append(number[0])
    block = _coarsest_blocks([0] * size, succ)
    return block[begin[0]] == block[begin[1]]


def test_forward_pass_answers_as_kernel():
    # the corpus, every ordered pair of random terms, law and expansion-law
    # pairs, causes to map, parallel silent steps and products; one term's
    # ``exts`` lists an extension before the configuration it extends
    out_of_order = encode_ccs(parse("'b.0 | 'a.b.0"))
    order = list(out_of_order.exts)
    assert any(order.index(m | 1 << e) < order.index(m)
               for m, ext in out_of_order.exts.items() for e in ext)
    t = encode_ccs(instantiate(synthesize_context(SYNC_2, SYNC_2_EXPANDED), NIL))
    s1, s2 = encode_ccs(SYNC_2), encode_ccs(SYNC_2_EXPANDED)
    terms = random_terms(60, seed=7)
    pairs = [(encode_ccs(p1), encode_ccs(p2)) for p1, p2 in
             corpus_pairs() + list(itertools.product(terms, repeat=2))
             + [law_pair(seed)[:2] for seed in range(80)]
             + [expansion_pair(seed) for seed in range(30)]]
    pairs += [(s1, s2), (encode_ccs(TAUS_3), encode_ccs(TAUS_3)),
              (parallel(t, s1), parallel(t, s2)),
              (out_of_order, encode_ccs(parse("'a.b.0 | 'b.0")))]
    for c1, c2 in pairs:
        assert forward_bisim_structs(c1, c2) == _kernel_forward(c1, c2), (
            c1.tag_labels, c2.tag_labels)


def test_forward_game_refines_no_partition(monkeypatch):
    # sync-4 against sync-4': the forward game is one pass, not the kernel
    calls = []

    def counted(*args):
        calls.append(len(args[0]))
        return _coarsest_blocks(*args)

    monkeypatch.setattr(equivalences, "_coarsest_blocks", counted)
    assert main(["check", SYNC_4, SYNC_4_EXPANDED, "--equiv", "forward",
                 "--max-events", "40"]) == 0
    assert calls == []


def test_barbed_game_numbers_the_silent_part(monkeypatch):
    # sync-4 against its channel-reversed spelling, a structure numbered
    # apart (equal ones are related unplayed): 2^4 silent configurations a
    # side, of 5^4
    played = []

    def counted(barbs, *rest):
        played.append(len(barbs))
        return _barbed_game(barbs, *rest)

    monkeypatch.setattr(equivalences, "_barbed_game", counted)
    assert main(["check", SYNC_4, SYNC_4_REVERSED, "--equiv", "barbed",
                 "--max-events", "16"]) == 0
    assert played == [32]
    assert len(encode_ccs(parse(SYNC_4)).exts) == 625


def test_equal_denotations_are_related_unplayed(monkeypatch):
    # sync-4 against itself, and a law pair whose terms differ but encode to
    # equal structures: the three games relate them through the identity,
    # with no strategy, silent game or candidate context built and, in the
    # forward game, no extension read; sync-4 against its channel-reversed
    # spelling, numbered apart, still reaches the strategy, which closes
    # with one triple per configuration
    class Counted(dict):
        reads = 0

        def __getitem__(self, m):
            Counted.reads += 1
            return dict.__getitem__(self, m)

        def __iter__(self):
            Counted.reads += 1
            return dict.__iter__(self)

    def refused(*args):
        raise AssertionError("a game was played")

    left, right, _ = law_pair(25)
    assert unparse(left) != unparse(right)
    strategy = equivalences._strategy
    for name in ("_strategy", "_silent_game", "_candidate"):
        monkeypatch.setattr(equivalences, name, refused)
    for p1, p2 in [(parse(SYNC_4), parse(SYNC_4)), (left, right)]:
        s1, s2 = encode_ccs(p1), encode_ccs(p2)
        assert s1 == s2
        hhpb.cache_clear()
        assert hhpb(s1, s2) == barbed_bf_bisim_structs(s1, s2) == EquivalenceVerdict(True)
        assert forward_bisim_structs(*(ConfStruct._built(
            c.tags, c.tag_labels, Counted(c.exts)) for c in (s1, s2)))
        assert synthesize_context(p1, p2) is None
    assert Counted.reads == 0

    chosen = []

    def recorded(g):
        found = strategy(g)
        chosen.append(len(found))
        return found

    monkeypatch.setattr(equivalences, "_strategy", recorded)
    hhpb.cache_clear()
    s1, s2 = encode_ccs(parse(SYNC_4)), encode_ccs(parse(SYNC_4_REVERSED))
    assert s1 != s2
    assert hhpb(s1, s2) == EquivalenceVerdict(True)
    assert chosen == [625]


# ---------------------------------------------------------------------------
# Brute-force reference for the HHPB triples

def _reference_triples(c1, c2):
    """Label bijections between configurations that preserve the causal
    order, and those that also reflect it, by trying every permutation."""
    preserving, reflecting = set(), set()
    for x1, x2 in itertools.product(c1.configs, c2.configs):
        if len(x1) != len(x2):
            continue
        o1, o2 = causal_order(c1, x1), causal_order(c2, x2)
        events1 = sorted(x1, key=repr)
        for image in itertools.permutations(x2):
            f = dict(zip(events1, image))
            if any(c1.label(e) != c2.label(f[e]) for e in x1):
                continue
            mapped = {(f[a], f[b]) for a, b in o1}
            if mapped <= o2:
                triple = (x1, x2, frozenset(f.items()))
                preserving.add(triple)
                if mapped == o2:
                    reflecting.add(triple)
    return preserving, reflecting


def test_triples_match_reference_on_corpus():
    # growth against the brute-force triples: every preserving triple, in
    # the layer of its left size, its key the bijection and its value both
    # configurations, and the isomorphism bit set during growth against the
    # definitional reflecting set, on the synthesis pairs and three parallel
    # silent steps
    for p1, p2 in _synthesis_pairs() + [(TAUS_3, TAUS_3)]:
        s1, s2 = encode_ccs(p1), encode_ccs(p2)
        preserving, reflecting = _reference_triples(s1, s2)
        game = _Game(s1, s2)
        layers = _all_triples(game)
        pair = (unparse(p1), unparse(p2))
        assert len(layers) == s1.max_card + 1, pair
        triples = {f: ms for layer in layers for f, ms in layer.items()}
        assert sum(map(len, layers)) == len(triples), pair
        assert set(map(game.decode, triples)) == preserving, pair
        for size, layer in enumerate(layers):
            for f, ms in layer.items():
                x1, x2, _ = game.decode(f)
                assert len(x1) == size, pair
                assert ms & ~game.iso == (
                    s1.mask_of(x1) | s2.mask_of(x2) << game.high), pair
        assert {game.decode(f) for f, ms in triples.items()
                if ms & game.iso} == reflecting, pair


def test_growth_matches_reference_whatever_the_parent():
    # each triple grows from one parent, the one without its right
    # configuration's highest retraction, and its isomorphism bit is set
    # there: against the brute-force triples where ``exts`` lists an
    # extension before the configuration it extends, and where right
    # configurations have several retractions, so that triples have several
    # retraction parents
    out_of_order = encode_ccs(parse("'b.0 | 'a.b.0"))
    order = list(out_of_order.exts)
    assert any(order.index(m | 1 << e) < order.index(m)
               for m, ext in out_of_order.exts.items() for e in ext)
    s1, s2 = encode_ccs(SYNC_2), encode_ccs(SYNC_2_EXPANDED)
    assert max(map(len, s2.rets.values())) > 1
    for c1, c2 in [(out_of_order, encode_ccs(parse("'a.b.0 | 'b.0"))), (s1, s2)]:
        preserving, reflecting = _reference_triples(c1, c2)
        game = _Game(c1, c2)
        grown = [(game.decode(f), bool(ms & game.iso))
                 for layer in _all_triples(game) for f, ms in layer.items()]
        assert len(set(grown)) == len(grown)
        assert set(grown) == {(t, t in reflecting) for t in preserving}


def test_growth_grows_each_triple_once():
    # on sync-4 against sync-4' no left event has a cause, so every
    # label-matched candidate child is order-preserving, and the body of
    # growth's innermost loop, one run per candidate, runs once per triple
    # it grows; growing each child from every retraction parent would run it
    # 5,186 times for the 1,469 non-empty triples
    def loops(node, depth=0):
        # each loop below ``node`` with the number of loops it lies in
        for child in ast.iter_child_nodes(node):
            inner = depth + isinstance(child, (ast.For, ast.While))
            if inner > depth:
                yield inner, child
            yield from loops(child, inner)

    tree = ast.parse(textwrap.dedent(inspect.getsource(_all_triples)))
    _, innermost = max(loops(tree), key=lambda found: found[0])
    line = _all_triples.__code__.co_firstlineno + innermost.body[0].lineno - 1
    runs = collections.Counter()

    def trace(frame, event, arg):
        if frame.f_code is _all_triples.__code__:
            return local

    def local(frame, event, arg):
        if event == "line":
            runs[frame.f_lineno] += 1
        return local

    g = _Game(encode_ccs(_sync(4)), encode_ccs(_sync(4, True)))
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        layers = _all_triples(g)
    finally:
        sys.settrace(previous)
    assert sum(map(len, layers)) - 1 == runs[line] == 1469


def _sync(n: int, expand_last: bool = False):
    """``a.0 | 'a.0 | ...`` over n channels; with ``expand_last`` the last
    pair becomes its expansion ``{x.'x.0 + 'x.x.0 + tau.0}``."""
    parts = [f"{x}.0 | '{x}.0" for x in "abcd"[:n]]
    if expand_last:
        x = "abcd"[n - 1]
        parts[-1] = f"{{{x}.'{x}.0 + '{x}.{x}.0 + tau.0}}"
    return collapse(parse(" | ".join(parts)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hhpb_on_sync_family(n):
    # sync-n is related to itself; against sync-n' it fails at backward
    # stratum 2, on the left configuration of the last pair's two concurrent
    # events, which the expansion only offers one after the other
    sync = encode_ccs(_sync(n))
    assert hhpb(sync, sync) == EquivalenceVerdict(True)
    x = "abcd"[n - 1]
    assert hhpb(sync, encode_ccs(_sync(n, True))) == EquivalenceVerdict(
        False, ("B", 2),
        f"configuration {{'{x},{x}}} unmatched in backward stratum 2")


def test_cached_verdicts_are_frozen():
    # ``hhpb``'s cache hands every caller the same verdict, so no caller
    # may change it for the next
    verdict = hhpb(C1, C2)
    with pytest.raises(AttributeError, match="^cannot assign to field 'context'$"):
        verdict.context = "[·]"
    assert hhpb(C1, C2) == verdict == EquivalenceVerdict(
        False, ("B", 2), "configuration {a,b} unmatched in backward stratum 2")


def test_histories_built_once_and_causes_asked_once_per_child(monkeypatch):
    # each structure builds its histories table once, on the first
    # ``causes`` an ``hhpb`` call asks of it, and a second call builds none;
    # growth asks ``ConfStruct.causes`` of either side at most once per
    # candidate child: a parent triple, a left extension and a label-matched
    # right extension that is the highest retraction of the configuration
    # it makes (sync-4 against sync-4')
    built, calls = collections.Counter(), collections.Counter()
    histories, causes = ConfStruct.histories, ConfStruct.causes

    def counted_histories(self):
        if self._histories is None:
            built[id(self)] += 1
        return histories.fget(self)

    def counted_causes(self, y, e):
        calls[id(self)] += 1
        return causes(self, y, e)

    monkeypatch.setattr(ConfStruct, "histories", property(counted_histories))
    encode_ccs.cache_clear()
    hhpb.cache_clear()
    s1, s2 = encode_ccs(_sync(4)), encode_ccs(_sync(4, True))
    assert not hhpb(s1, s2).related
    assert built == {id(s1): 1, id(s2): 1}
    hhpb.cache_clear()
    assert not hhpb(s1, s2).related
    assert built == {id(s1): 1, id(s2): 1}

    monkeypatch.setattr(ConfStruct, "causes", counted_causes)
    g = _Game(s1, s2)
    layers = _all_triples(g)
    children = sum(
        g.match[e1] >> e2 & 1 and s2.rets[m2 | 1 << e2][-1] == e2
        for layer in layers for ms in layer.values()
        for m1, m2 in [(ms & g.left, ms >> g.high)]
        for e1 in s1.exts[m1] for e2 in s2.exts[m2])
    assert 0 < calls[id(s1)] <= children
    assert 0 < calls[id(s2)] <= children


def _least_failing_stratum(s1, s2):
    """The least stratum whose complete layers, ``build_stratification``'s,
    miss a left configuration (forward before backward, configurations in
    ``ordered()`` order), with its witness; (None, None) if none does."""
    strata = build_stratification(s1, s2)
    for i, layer in itertools.groupby(s1.ordered(), int.bit_count):
        configs = [s1.config(m) for m in layer]
        for side, word, layers in (("F", "forward", strata.forth),
                                   ("B", "backward", strata.back)):
            covered = {x1 for x1, _, _ in layers[i]}
            for x1 in configs:
                if x1 not in covered:
                    names = ",".join(sorted(str(s1.label(e)) for e in x1))
                    return ((side, i), f"configuration {{{names}}} "
                            f"unmatched in {word} stratum {i}")
    return None, None


def test_lazy_diagnosis_matches_full_stratification():
    # hhpb diagnoses on the grown layers and builds backward layers only up
    # to the failing stratum; its stratum and witness are those of the
    # complete stratification, or, where no stratum misses a configuration,
    # the empty triple's unanswered challenge in the maximal relation
    pairs = (_synthesis_pairs() + [(_sync(n), _sync(n, True)) for n in (2, 3, 4)]
             + [(TAUS_3, TAUS_3)])
    seen = collections.Counter()
    for p1, p2 in pairs:
        s1, s2 = encode_ccs(p1), encode_ccs(p2)
        verdict = hhpb(s1, s2)
        expected = _least_failing_stratum(s1, s2)
        if expected == (None, None) and not verdict.related:
            g = _Game(s1, s2)
            expected = (None, _forth_ok(0, 0, g, _hhpb_gfp(g, _all_triples(g))[1]))
        seen[verdict.related, expected[0] is None] += 1
        assert (verdict.failing_stratum, verdict.witness) == expected, (
            unparse(p1), unparse(p2))
    assert seen[False, False] and seen[False, True] and seen[True, True]


def test_diagnosis_names_the_least_configuration_in_canonical_order():
    # backward stratum 2 misses {a,d} (bits 0 and 3, mask 9) and {b,c}
    # (bits 1 and 2, mask 6): the witness is the first of them in
    # ``ordered()`` order, not the smaller mask
    s1 = encode_ccs(parse("a.0 | b.0 | c.0 | d.0"))
    s2 = encode_ccs(parse("(a.d.0 + d.a.0) | (b.c.0 + c.b.0)"))
    hhpb.cache_clear()
    assert hhpb(s1, s2) == EquivalenceVerdict(
        False, ("B", 2), "configuration {a,d} unmatched in backward stratum 2")
    assert _least_failing_stratum(s1, s2) == (
        ("B", 2), "configuration {a,d} unmatched in backward stratum 2")


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_hhpb_on_taus_family(n):
    # n parallel silent steps kept apart: every bijection between two
    # configurations of one size is an isomorphism, so every triple is one
    taus = encode_ccs(collapse(parse(" | ".join(["tau.0"] * n)), par_rule=False))
    assert hhpb(taus, taus) == EquivalenceVerdict(True)


def _fixpoint_pairs(top: int = 4):
    """The synthesis pairs, sync-n against itself and against sync-n' for
    n = 2 to ``top``, and three parallel silent steps."""
    return (_synthesis_pairs()
            + [(_sync(n), other) for n in range(2, top + 1)
               for other in (_sync(n), _sync(n, True))]
            + [(TAUS_3, TAUS_3)])


def test_retraction_preimages_are_retractions():
    # the lemma in ``_back_ok``: for every grown triple, each right
    # retraction's preimage is a left retraction, so one backward half over
    # the grown isomorphism triples removes nothing
    for p1, p2 in _fixpoint_pairs():
        s1, s2 = encode_ccs(p1), encode_ccs(p2)
        g = _Game(s1, s2)
        layers = _all_triples(g)
        pair = (unparse(p1), unparse(p2))
        for layer in layers:
            for f, ms in layer.items():
                m1, m2 = ms & g.left, ms >> g.high
                preimage = {(f >> e1 * g.width & g.slot) - 1: e1
                            for e1 in bits(m1)}
                rets2 = {preimage[e2] for e2 in s2.rets[m2]}
                assert rets2 <= set(s1.rets[m1]), pair
        isos = [{f: ms for f, ms in layer.items() if ms & g.iso}
                for layer in layers]
        assert list(map(len, _back(g, isos))) == list(map(len, isos)), pair


def test_relation_matches_sweep_on_fixpoint_pairs():
    # the layered passes against the brute-force sweep over the reflecting
    # triples, on the fixpoint pairs up to sync-3 and four parallel silent
    # steps (sync-4 takes the sweep half a minute)
    for p1, p2 in _fixpoint_pairs(3) + [(_taus(4), _taus(4))]:
        s1, s2 = encode_ccs(p1), encode_ccs(p2)
        swept = _swept_relation(s1, s2, _reference_triples(s1, s2)[1])
        assert hhpb_relation(s1, s2) == swept, (unparse(p1), unparse(p2))


def test_diagnosis_decides_as_the_fixpoint():
    # hhpb answers from a failing stratum without the fixpoint; its verdict
    # is the maximal relation's on every unordered pair of 40 random terms,
    # law and expansion-law pairs, among which some related pairs, some
    # unrelated ones that fail a stratum and some that fail none occur
    pairs = (list(itertools.combinations(random_terms(40, seed=7), 2))
             + [law_pair(seed)[:2] for seed in range(80)]
             + [expansion_pair(seed) for seed in range(30)])
    seen = collections.Counter()
    for p1, p2 in pairs:
        s1, s2 = encode_ccs(p1), encode_ccs(p2)
        g = _Game(s1, s2)
        maximal = _forth_ok(0, 0, g, _hhpb_gfp(g, _all_triples(g))[1]) is None
        verdict = hhpb(s1, s2)
        seen[verdict.related, verdict.failing_stratum is None] += 1
        assert verdict.related == maximal, (unparse(p1), unparse(p2))
    assert seen[False, True] and seen[False, False] and seen[True, True]


def test_fixpoint_runs_only_where_no_stratum_fails(monkeypatch):
    # sync-4 against sync-4' fails backward stratum 2 and never reaches the
    # fixpoint; it runs once on a pair unrelated in no stratum, and once on
    # a related pair where the strategy gets stuck
    calls = []
    monkeypatch.setattr(equivalences, "_hhpb_gfp",
                        lambda g, layers: calls.append(g) or _hhpb_gfp(g, layers))
    for p1, p2, runs, verdict in [
            (_sync(4), _sync(4, True), 0, EquivalenceVerdict(
                False, ("B", 2), "configuration {'d,d} unmatched in backward stratum 2")),
            (parse("(a)'a.b.0"), parse("(a)(a.0 | b.0)"), 1,
             EquivalenceVerdict(False, None, "right extension b unanswered")),
            (parse("a.a.b.0 + a.a.c.0"), parse("a.a.c.0 + a.a.b.0"), 1,
             EquivalenceVerdict(True))]:
        calls.clear()
        hhpb.cache_clear()
        assert hhpb(encode_ccs(p1), encode_ccs(p2)) == verdict, unparse(p1)
        assert len(calls) == runs, unparse(p1)


# ---------------------------------------------------------------------------
# Defender strategies: the certificate of a related pair

def _certificate_fault(c1, c2, triples):
    """Why ``triples``, each (x1, x2, frozen bijection), is not an HHP
    bisimulation holding the empty triple, or None if it is one; read off
    extensions, retractions, causal orders and labels alone."""
    if (frozenset(), frozenset(), frozenset()) not in triples:
        return "no empty triple"
    for x1, x2, fs in triples:
        f, inverse = dict(fs), {e2: e1 for e1, e2 in fs}
        if (set(f), set(inverse)) != (x1, x2) or len(f) != len(inverse) or (
                x1 not in c1.configs or x2 not in c2.configs):
            return f"{fs} is no bijection between configurations"
        if any(c1.label(e1) != c2.label(e2) for e1, e2 in fs) or {
                (f[a], f[b]) for a, b in causal_order(c1, x1)} != causal_order(c2, x2):
            return f"{fs} is no label- and order-isomorphism"
        ext1, ext2 = c1.extensions(x1), c2.extensions(x2)
        answered = {(e1, e2) for e1 in ext1 for e2 in ext2
                    if (x1 | {e1}, x2 | {e2}, fs | {(e1, e2)}) in triples}
        if {e1 for e1, _ in answered} != set(ext1):
            return f"{fs}: a left extension unanswered"
        if {e2 for _, e2 in answered} != set(ext2):
            return f"{fs}: a right extension unanswered"
        for e1, e2 in [(e1, f[e1]) for e1 in c1.retractions(x1)] + [
                (inverse[e2], e2) for e2 in c2.retractions(x2)]:
            if (x1 - {e1}, x2 - {e2}, fs - {(e1, e2)}) not in triples:
                return f"{fs}: retraction parent missing"
    return None


def _strategy_triples(s1, s2):
    """The decoded defender strategy on two structures, or None if stuck."""
    g = _Game(s1, s2)
    strategy = equivalences._strategy(g)
    return None if strategy is None else set(map(g.decode, strategy))


def _taus(n):
    return collapse(parse(" | ".join(["tau.0"] * n)), par_rule=False)


def _mirror(n):
    """sync-n with each pair's two sides swapped and the pairs reversed."""
    return collapse(parse(" | ".join(f"'{x}.0 | {x}.0" for x in "dcba"[4 - n:])))


def test_strategy_closes_exactly_on_related_pairs():
    # the greedy strategy closes on every related pair of the fixpoint
    # pairs (the synthesis pairs among them), 40 random self-pairs, taus-4..6
    # and sync-4 against its mirror, and on no unrelated one; the
    # independent checker accepts every strategy it closes
    pairs = (_fixpoint_pairs() + [(t, t) for t in random_terms(40, seed=7)]
             + [(_taus(n), _taus(n)) for n in (4, 5, 6)]
             + [(_sync(4), _mirror(4)), (_mirror(4), _sync(4))])
    related = 0
    for p1, p2 in pairs:
        s1, s2 = encode_ccs(p1), encode_ccs(p2)
        g = _Game(s1, s2)
        maximal = _forth_ok(0, 0, g, _hhpb_gfp(g, _all_triples(g))[1]) is None
        triples = _strategy_triples(s1, s2)
        related += maximal
        assert (triples is not None) == maximal, (unparse(p1), unparse(p2))
        if triples is not None:
            assert _certificate_fault(s1, s2, triples) is None, (unparse(p1),
                                                                 unparse(p2))
    assert related == 106 + 4 + 40 + 3 + 2


def _first_unanswered(f, ms, g, reference):
    """The triple's first left extension with no answer in ``reference``, as
    (True, its bit), or else its first such right one, as (False, its bit),
    each found by trying every extension on the other side."""
    ext1, ext2 = g.c1.exts[ms & g.left], g.c2.exts[ms >> g.high]
    for e1 in ext1:
        if not any(g.match[e1] >> e2 & 1 and f | (e2 + 1) << e1 * g.width in reference
                   for e2 in ext2):
            return True, e1
    for e2 in ext2:
        if not any(g.match[e1] >> e2 & 1 and f | (e2 + 1) << e1 * g.width in reference
                   for e1 in ext1):
            return False, e2
    return None


def _rescanning_strategy(g):
    """The greedy defender strategy that restarts the challenge scan after
    each answer: the reference for ``_strategy``'s one scan per triple."""
    c1, c2, exts1, exts2, match = g.c1, g.c2, g.c1.exts, g.c2.exts, g.match
    width, slot, left, high = g.width, g.slot, g.left, g.high
    chosen, stack, cap = {0: 0}, [0], len(exts1) + len(exts2)
    while stack:
        f = stack.pop()
        ms = chosen[f]
        m1, m2 = ms & left, ms >> high
        for e1 in g.rets1[m1]:
            shift = e1 * width
            parent = f & ~(slot << shift)
            if parent not in chosen:
                chosen[parent] = ms ^ (1 << e1 | 1 << (f >> shift & slot) - 1 + high)
                stack.append(parent)
        while challenge := _first_unanswered(f, ms, g, chosen):
            side, e = challenge
            best, top = None, 4
            for e1, e2 in ([(e, e2) for e2 in exts2[m2] if match[e] >> e2 & 1] if side
                           else [(e1, e) for e1 in exts1[m1] if match[e1] >> e & 1]):
                same = c1.tags[e1] == c2.tags[e2]
                if top <= (not same):
                    continue
                y1, y2 = m1 | 1 << e1, m2 | 1 << e2
                if g.image(f, y1, e1) != c2.causes(y2, e2):
                    continue
                rows = [match[d] for d in exts1[y1]]
                every = sum(1 << d for d in exts2[y2])
                rank = (not same) + 2 * (len(rows) != every.bit_count() or not all(
                    row and rows.count(row) == (row & every).bit_count() for row in rows))
                if rank < top:
                    best, top = (f | (e2 + 1) << e1 * width, y1 | y2 << high), rank
                    if not rank:
                        break
            if best is None:
                return None
            chosen[best[0]] = best[1]
            stack.append(best[0])
        if len(chosen) > cap:
            return None
    return chosen


def test_one_scan_strategy_chooses_as_rescanning():
    # the strategy scans each triple's challenges once and answers each as it
    # meets it; the one that rescans after each answer chooses the same
    # triples in the same order, and gets stuck on the same pairs
    pairs = (corpus_pairs() + [law_pair(seed)[:2] for seed in range(80)]
             + [expansion_pair(seed) for seed in range(30)]
             + [(_taus(4), _taus(4)), (_sync(4), _mirror(4))])
    seen = collections.Counter()
    for p1, p2 in pairs:
        g = _Game(encode_ccs(p1), encode_ccs(p2))
        chosen, reference = equivalences._strategy(g), _rescanning_strategy(g)
        seen[chosen is None] += 1
        assert (None if chosen is None else list(chosen.items())) == (
            None if reference is None else list(reference.items())), (
                unparse(p1), unparse(p2))
    assert seen[True] and seen[False]


def test_certificate_checker_rejects_broken_strategies():
    # dropping any non-empty triple of the identity strategies on taus-3,
    # taus-4 and sync-2, or swapping two entries of a bijection, leaves a
    # challenge unanswered, a retraction parent missing or no isomorphism
    for p in (_taus(3), _taus(4), _sync(2)):
        s = encode_ccs(p)
        triples = _strategy_triples(s, s)
        assert _certificate_fault(s, s, triples) is None
        for t in triples:
            x1, x2, fs = t
            if not fs:
                continue
            assert _certificate_fault(s, s, triples - {t}) is not None, t
            if len(fs) > 1:
                (a, b), (c, d) = sorted(fs, key=repr)[:2]
                swapped = (x1, x2, fs - {(a, b), (c, d)} | {(a, d), (c, b)})
                assert _certificate_fault(s, s, triples - {t} | {swapped}) is not None, t


def test_strategy_needs_backtracking_and_falls_back():
    # the first a on the left may only be answered by the branch on the
    # right that ends alike, which the greedy choice cannot see two steps
    # ahead: the strategy gets stuck, and growth decides the pair related
    s1, s2 = (encode_ccs(parse(t)) for t in ("a.a.b.0 + a.a.c.0",
                                             "a.a.c.0 + a.a.b.0"))
    assert _strategy_triples(s1, s2) is None
    hhpb.cache_clear()
    assert hhpb(s1, s2) == EquivalenceVerdict(True)


def test_related_families_grow_no_triple(monkeypatch):
    # taus-n and sync-4 against itself close on the identity strategy, one
    # triple per configuration, and hhpb grows no triple for them
    calls = []
    monkeypatch.setattr(equivalences, "_all_triples",
                        lambda g: calls.append(g) or _all_triples(g))
    for p, size in [(_taus(n), 2 ** n) for n in (3, 4, 5, 6)] + [(_sync(4), 625)]:
        s = encode_ccs(p)
        assert len(_strategy_triples(s, s)) == size
        hhpb.cache_clear()
        assert hhpb(s, s) == EquivalenceVerdict(True)
    assert calls == []


def _swept_relation(c1, c2, reflecting):
    """Drop the triples with an unanswered extension or retraction on either
    side until none is dropped."""
    relation = set(reflecting)

    def moves(c, x):
        return ([e for e in c.events - x if x | {e} in c.configs],
                [e for e in x if x - {e} in c.configs])

    def answered(triple):
        x1, x2, fs = triple
        (ext1, ret1), (ext2, ret2) = moves(c1, x1), moves(c2, x2)
        pairs = {(e1, e2): (x1 | {e1}, x2 | {e2}, fs | {(e1, e2)}) in relation
                 for e1 in ext1 for e2 in ext2}
        return (all(any(pairs[e1, e2] for e2 in ext2) for e1 in ext1)
                and all(any(pairs[e1, e2] for e1 in ext1) for e2 in ext2)
                and all((x1 - {a}, x2 - {b}, fs - {(a, b)}) in relation
                        for a, b in fs if a in ret1 or b in ret2))

    changed = True
    while changed:
        changed = False
        for triple in list(relation):
            if not answered(triple):
                relation.discard(triple)
                changed = True
    return relation


def test_relation_matches_sweep_on_corpus():
    empty = (frozenset(), frozenset(), frozenset())
    for p1, p2 in corpus_pairs():
        s1, s2 = encode_ccs(p1), encode_ccs(p2)
        swept = _swept_relation(s1, s2, _reference_triples(s1, s2)[1])
        assert hhpb_relation(s1, s2) == swept, (unparse(p1), unparse(p2))
        assert hhpb(s1, s2).related == (empty in swept), (unparse(p1),
                                                          unparse(p2))


def test_discriminate_decodes_no_configuration(monkeypatch, capsys):
    # the constructions derive every structure from their operands' and the
    # games read its masks: discriminate on sync-2 against sync-2' decodes
    # no configuration and numbers no explicit family (``EMPTY``, the one
    # such structure on this path, is built on import)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    encode_ccs.cache_clear()
    hhpb.cache_clear()
    for name in ("config", "__init__"):
        monkeypatch.setattr(ConfStruct, name, counted(name, getattr(ConfStruct, name)))
    assert main(["discriminate", "a.0 | 'a.0 | b.0 | 'b.0",
                 "a.0 | 'a.0 | {b.'b.0 + 'b.b.0 + tau.0}",
                 "--max-events", "40"]) == 1
    assert "context: 'b.0 + c_2.0 | (b.0 + c_1.0 | [·])" in capsys.readouterr().out
    assert calls == {}


def test_struct_games_derive_nothing_on_products():
    # the barbed and forward games on structures read extensions alone, so
    # the products that context synthesis plays them on never derive their
    # retractions, depths or largest size
    s1, s2 = encode_ccs(SYNC_2), encode_ccs(SYNC_2_EXPANDED)
    t = encode_ccs(instantiate(synthesize_context(SYNC_2, SYNC_2_EXPANDED), NIL))
    products = parallel(t, s1), parallel(t, s2)
    assert not barbed_bf_bisim_structs(*products).related
    forward_bisim_structs(*products)
    for c in products:
        assert (c._rets, c._depths, c._max_card) == (None, None, None)
