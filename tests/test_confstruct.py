"""Configuration structures: axioms, constructions, causality, morphisms."""

import pytest

from corpus import (enumerated_terms, is_morphism, parallel_full, random_terms,
                    recursive_causes, restrict_events, transitions, violations)
from revccs.syntax import TAU, Par, collapse, inp, out, parse, unparse
from revccs import confstruct as cs
from revccs.confstruct import (ConfStruct, EMPTY, Morphism, NotAConfiguration,
                               canonical_event_ids, causal_order, coproduct,
                               depth, embeds, from_json, isomorphic, parallel,
                               prefix, product, prune, relabel, residual,
                               restrict_name, to_dot, to_json, validate)
from revccs.encoding import encode_ccs

A, B = inp("a"), inp("b")
COA = out("a")


def struct(configs, labels):
    events = set(labels)
    return ConfStruct(events, [frozenset(x) for x in configs], labels)


def single(label, name="e"):
    return struct([(), (name,)], {name: label})


class TestValidate:
    def test_singleton_ok(self):
        assert validate(single(A)) == []

    def test_coincidence_freeness_violation(self):
        c = struct([(), ("e", "f")], {"e": A, "f": B})
        names = [axiom for axiom, _ in validate(c)]
        assert "coincidence-freeness" in names

    def test_missing_empty_config(self):
        c = ConfStruct({"e"}, [frozenset({"e"})], {"e": A})
        names = [axiom for axiom, _ in validate(c)]
        assert names

    def test_stability_violation(self):
        # {e,f} and {e,g} are bounded by {e,f,g} but their meet {e} is absent
        c = struct([(), ("e", "f"), ("e", "g"), ("e", "f", "g")],
                   {"e": A, "f": B, "g": inp("c")})
        assert validate(c)

    def test_fig_c1_valid(self):
        assert validate(encode_ccs(parse("a.0 | b.0"))) == []

    def test_all_encodings_valid(self):
        for text in ("0", "a.0", "a.b.0 + b.a.0", "a.0 + a.b.0",
                     "(a){a.0 | 'a.0}", "tau.a.0"):
            assert validate(encode_ccs(parse(text))) == []


class TestProduct:
    def test_unit_like(self):
        c = encode_ccs(parse("a.b.0"))
        assert isomorphic(product(c, EMPTY).struct, c)

    def test_pairs_present(self):
        r = product(single(A), single(B, "f"))
        labels = {str(r.struct.label(e)) for e in r.struct.events}
        assert labels == {"a", "b", "(a,b)"}

    def test_sync_pair_event(self):
        r = product(single(A), single(COA, "f"))
        assert any(str(r.struct.label(e)) == "(a,'a)" for e in r.struct.events)

    def test_projections_are_morphisms(self):
        r = product(encode_ccs(parse("a.0")), encode_ccs(parse("b.c.0")))
        assert is_morphism(r.proj1)
        assert is_morphism(r.proj2)

    def test_valid(self):
        r = product(encode_ccs(parse("a.0 + b.0")), encode_ccs(parse("a.0")))
        assert validate(r.struct) == []


class TestCoproduct:
    def test_empty_plus_empty(self):
        assert isomorphic(coproduct(EMPTY, EMPTY), EMPTY)

    def test_three_configs(self):
        c = coproduct(single(A), single(B, "f"))
        assert len(c.configs) == 3
        assert frozenset() in c.configs

    def test_sides_disjoint(self):
        c = coproduct(single(A), single(A, "f"))
        nonempty = [x for x in c.configs if x]
        assert len(nonempty) == 2 and not (nonempty[0] & nonempty[1])


class TestRestrict:
    def test_restrict_name_kills_sole_event(self):
        c = restrict_name(encode_ccs(parse("a.0")), "a")
        assert c.configs == frozenset({frozenset()})

    def test_restrict_name_keeps_tau(self):
        c = restrict_name(encode_ccs(parse("a.0 | 'a.0")), "a")
        assert {len(x) for x in c.configs} == {0, 1}
        tau_cfg = [x for x in c.configs if x]
        assert all(c.label(e).is_tau for x in tau_cfg for e in x)

    def test_restrict_events_identity(self):
        c = encode_ccs(parse("a.0 | b.0"))
        assert restrict_events(c, c.events) == c

    def test_prune_drops_dead(self):
        c = restrict_name(encode_ccs(parse("a.b.0")), "a")
        assert c.events and not prune(c).events


class TestPrefix:
    def test_on_empty(self):
        c = prefix(A, EMPTY)
        assert len(c.events) == 1 and len(c.configs) == 2

    def test_chain(self):
        c = prefix(A, encode_ccs(parse("b.0")))
        assert sorted(len(x) for x in c.configs) == [0, 1, 2]
        assert len(c.extensions(frozenset())) == 1

    def test_keeps_empty_config(self):
        c = prefix(A, encode_ccs(parse("b.0")))
        assert frozenset() in c.configs


class TestRelabelParallel:
    def test_identity_relabel(self):
        c = encode_ccs(parse("a.0 | b.0"))
        assert relabel(c, lambda label: label) == c

    def test_diamond(self):
        c = parallel(encode_ccs(parse("a.0")), encode_ccs(parse("b.0")))
        assert len(c.configs) == 4
        assert len(c.events) == 2

    def test_sync_tau(self):
        c = parallel(encode_ccs(parse("a.0")), encode_ccs(parse("'a.0")))
        taus = [e for e in c.events if c.label(e).is_tau]
        assert len(taus) == 1
        assert frozenset(taus) in c.configs

    def test_unit(self):
        c = encode_ccs(parse("a.b.0 + b.0"))
        assert isomorphic(parallel(c, EMPTY), c)

    def test_projections(self):
        # silent synchronizations change the label, so only configuration
        # preservation and local injectivity survive the relabelling
        r = parallel_full(encode_ccs(parse("a.0")), encode_ccs(parse("'a.0")))
        for proj, factor in ((r.proj1, r.proj1.target), (r.proj2, r.proj2.target)):
            for x in r.struct.configs:
                assert proj.apply(x) in factor.configs
                defined = [e for e in x if e in proj.mapping]
                assert len({proj.mapping[e] for e in defined}) == len(defined)


def _definitional_product(c1, c2):
    """The product grown as frozensets from the empty configuration: each
    step adds e1 alone, e2 alone or the pair (e1, e2), for extensions e1 and
    e2 of the configuration's two projections."""
    configs, frontier = {frozenset()}, [frozenset()]
    while frontier:
        x = frontier.pop()
        ext1 = c1.extensions(frozenset(e[1] for e in x if e[1] is not None))
        ext2 = c2.extensions(frozenset(e[2] for e in x if e[2] is not None))
        for e in ([("x", e1, None) for e1 in ext1]
                  + [("x", None, e2) for e2 in ext2]
                  + [("x", e1, e2) for e1 in ext1 for e2 in ext2]):
            if x | {e} not in configs:
                configs.add(x | {e})
                frontier.append(x | {e})
    events = set().union(*configs)
    return ConfStruct(events, configs, {
        e: c2.label(e[2]) if e[1] is None else c1.label(e[1])
        if e[2] is None else cs.PairLabel(c1.label(e[1]), c2.label(e[2]))
        for e in events})


def _with_projections(c, c1, c2):
    return cs.ProductResult(c, *(
        Morphism(c, factor, {e: e[i] for e in c.events if e[i] is not None})
        for i, factor in ((1, c1), (2, c2))))


def _composed_pairs(p):
    """The (left, right) components of every parallel composition in p."""
    if isinstance(p, Par):
        yield p.left, p.right
    for child in (getattr(p, "left", None), getattr(p, "right", None),
                  getattr(p, "body", None)):
        if child is not None:
            yield from _composed_pairs(child)


def test_composition_matches_definition():
    # product and parallel against the definitional construction: frozenset
    # growth, the synchronization relabelling, then restriction to the
    # events not killed; on every pair encode_ccs composes, sync-2 against
    # sync-2', and the small factor pairs of criterion 10
    sync_2 = parse("a.0 | 'a.0 | b.0 | 'b.0")
    sync_2x = parse("a.0 | 'a.0 | {b.'b.0 + 'b.b.0 + tau.0}")
    terms = (enumerated_terms() + random_terms(60, seed=7) + [
        sync_2, sync_2x,
        collapse(parse("tau.0 | tau.0 | tau.0"), par_rule=False)])
    pairs = {(encode_ccs(l), encode_ccs(r))
             for t in terms for l, r in _composed_pairs(t)}
    pairs.add((encode_ccs(sync_2), encode_ccs(sync_2x)))
    small = [c for c in dict.fromkeys(
        map(encode_ccs, sorted(enumerated_terms(), key=unparse)))
        if len(c.events) <= 6]
    pairs.update((c, d) for i, c in enumerate(small) for d in small[i:])
    # e and f coincide, so growth reaches neither
    pairs.add((struct([(), ("e", "f")], {"e": A, "f": B}), small[-1]))
    for c1, c2 in pairs:
        prod = _definitional_product(c1, c2)
        assert product(c1, c2) == _with_projections(prod, c1, c2)
        synced = relabel(prod, cs._sync_label)
        composed = restrict_events(synced, {
            e for e in synced.events
            if not isinstance(synced.label(e), cs.Killed)})
        assert parallel_full(c1, c2) == _with_projections(composed, c1, c2)
        assert parallel(c1, c2) == composed


class TestResidual:
    def test_empty_residual(self):
        c = encode_ccs(parse("a.b.0"))
        assert residual(c, frozenset()) == c

    def test_diamond_residual(self):
        c = encode_ccs(parse("a.0 | b.0"))
        (e1,) = [e for e in c.events if c.label(e) == A]
        assert isomorphic(residual(c, frozenset({e1})), encode_ccs(parse("b.0")))

    def test_chain_residual(self):
        c = encode_ccs(parse("a.b.0 + b.a.0"))
        (e,) = [e for e in c.events if c.label(e) == A and depth(c, e) == 1]
        assert isomorphic(residual(c, frozenset({e})), encode_ccs(parse("b.0")))

    def test_not_a_configuration(self):
        c = encode_ccs(parse("a.b.0"))
        (top,) = [e for e in c.events if c.label(e) == B]
        with pytest.raises(NotAConfiguration):
            residual(c, frozenset({top}))

    def test_composition(self):
        c = encode_ccs(parse("a.0 | b.c.0"))
        for x in c.configs:
            r = residual(c, x)
            for y in r.configs:
                assert residual(r, y) == residual(c, x | y)


class TestCausality:
    def test_diamond_incomparable(self):
        c = encode_ccs(parse("a.0 | b.0"))
        x = max(c.configs, key=len)
        order = causal_order(c, x)
        e1, e2 = sorted(x, key=repr)
        assert (e1, e1) in order and (e2, e2) in order
        assert (e1, e2) not in order and (e2, e1) not in order

    def test_chain_ordered(self):
        c = encode_ccs(parse("a.b.0"))
        x = max(c.configs, key=len)
        order = causal_order(c, x)
        (ea,) = [e for e in x if c.label(e) == A]
        (eb,) = [e for e in x if c.label(e) == B]
        assert (ea, eb) in order and (eb, ea) not in order

    def test_singleton_trivial(self):
        c = encode_ccs(parse("a.0"))
        (e,) = c.events
        assert causal_order(c, frozenset({e})) == frozenset({(e, e)})


def _definitional_causes(c, x):
    """Event -> strict causes in x: d lies below e iff every
    sub-configuration of x holding e also holds d."""
    subs = [z for z in c.configs if z <= x]
    return {e: {d for d in x - {e} if all(d in z for z in subs if e in z)}
            for e in x}


def test_index_matches_definitions():
    # the structure's masks against extensions and causal orders computed
    # from the definitions: corpus structures, sync-2 and sync-2' (causes to
    # map), three parallel silent steps kept apart, and random terms
    terms = (enumerated_terms()
             + [parse("a.0 | 'a.0 | b.0 | 'b.0"),
                parse("a.0 | 'a.0 | {b.'b.0 + 'b.b.0 + tau.0}"),
                collapse(parse("tau.0 | tau.0 | tau.0"), par_rule=False)]
             + random_terms(60, seed=7))
    for t in terms:
        c = encode_ccs(t)
        assert len(c.exts) == len(c.configs)
        assert list(map(c.config, c.ordered())) == sorted(
            c.configs, key=lambda x: (len(x), sorted(map(repr, x))))
        for x in c.configs:
            m = c.mask_of(x)
            assert c.config(m) == x
            with pytest.raises(NotAConfiguration):
                c.mask_of(x | {"no event"})
            assert c.decode(c.exts[m]) == tuple(sorted(
                (e for e in c.events - x if x | {e} in c.configs), key=repr))
            causes = _definitional_causes(c, x)
            for e, below in causes.items():
                assert c.causes(m, c.bit[e]) == sum(
                    1 << c.bit[d] for d in below), (unparse(t), x, e)


def test_causes_match_the_recursive_reference():
    # ``causes`` reads e's one history inside y; the recurrence it replaced
    # agrees on every configuration and event of it: corpus structures,
    # random terms, sync-4' and three terms whose events have up to 73, 20
    # and 9 histories (parallel outputs kept apart)
    terms = (enumerated_terms() + random_terms(60, seed=7)
             + [parse("a.0 | 'a.0 | b.0 | 'b.0 | c.0 | 'c.0 | {d.'d.0 + 'd.d.0 + tau.0}")])
    many = [encode_ccs(collapse(parse(t), par_rule=False)) for t in (
        "a.a.a.a.0 | 'a.0 | 'a.0 | 'a.0 | 'a.0", "a.a.a.0 | 'a.'a.0 | 'a.0 | 'a.0",
        "a.b.c.0 | 'a.0 | 'a.0 | 'b.0 | 'b.0 | 'c.0 | 'c.0")]
    assert [max(map(len, c.histories)) for c in many] == [73, 20, 9]
    for c in [encode_ccs(t) for t in terms] + many:
        for y in c.exts:
            for e in cs.bits(y):
                assert c.causes(y, e) == recursive_causes(c, y, e), (c, y, e)


def test_causes_answer_on_unstable_structures():
    # c has two histories inside {a,b,c}, and {d,e} holds no history of d or
    # e; ``validate`` rejects both, and ``causes`` still answers with a mask
    # within y, the first history found or else y without the event
    c = struct([(), ("a",), ("b",), ("a", "c"), ("b", "c"), ("a", "b", "c"),
                ("d", "e")], dict.fromkeys("abcde", A))
    assert {kind for kind, _ in validate(c)} >= {"stability", "coincidence-freeness"}
    bit = c.bit
    assert c.histories[bit["c"]] == (1 << bit["a"] | 1 << bit["c"],
                                     1 << bit["b"] | 1 << bit["c"])
    for y in c.exts:
        for e in cs.bits(y):
            assert not c.causes(y, e) & ~(y ^ 1 << e)
    assert c.causes(c.mask_of(frozenset("abc")), bit["c"]) == 1 << bit["a"]
    assert c.causes(c.mask_of(frozenset("de")), bit["d"]) == 1 << bit["e"]


def _subterms(t):
    yield t
    for child in (getattr(t, "left", None), getattr(t, "right", None),
                  getattr(t, "body", None)):
        if child is not None:
            yield from _subterms(child)


def _assert_index_is_definitional(c):
    """The numbering a construction derived for ``c`` against the one
    rebuilt from its decoded family; its retractions, least sizes and
    largest size against those read off that family; and equality and
    hashing against the rebuilt structure."""
    family = c.configs
    rebuilt = ConfStruct(c.events, family, c.labels)
    assert c.tags == rebuilt.tags and c.tag_labels == rebuilt.tag_labels
    assert c.exts == rebuilt.exts
    assert c.rets == {c.mask_of(x): tuple(sorted(
        c.bit[e] for e in x if x - {e} in family)) for x in family}
    assert c.depths == tuple(min((len(x) for x in family if e in x), default=None)
                             for e in c.tags)
    assert c.max_card == max(map(len, family))
    assert c == rebuilt and rebuilt == c and hash(c) == hash(rebuilt)


def test_constructed_index_matches_family():
    # every structure encode_ccs builds on the way to the corpus, the random
    # terms, sync-2 and sync-2', three parallel silent steps kept apart and
    # restrictions, prefixes and sums over products; then the products,
    # their parallel forms and relabellings on the criterion-10 factor pairs
    terms = (enumerated_terms() + random_terms(60, seed=7) + [
        parse("a.0 | 'a.0 | b.0 | 'b.0"),
        parse("a.0 | 'a.0 | {b.'b.0 + 'b.b.0 + tau.0}"),
        collapse(parse("tau.0 | tau.0 | tau.0"), par_rule=False),
        parse("(a)(a.0 | 'a.0 | b.0)"), parse("(b)(a.b.0 | 'b.0 | 'a.0)"),
        parse("(a)(a.c.0 | b.'a.0)"),    # restriction deepens c: 2 to 3
        parse("c.(a.0 | 'a.0) + b.(a.0 | b.'b.0)"),
        parse("a.(b.0 | 'b.0 | c.0) + 'c.(a)(a.0 | 'a.0)"),
        parse("(a)(c.(a.0 | b.0) + 'a.0) | 'b.a.0")])
    structs = {encode_ccs(s) for t in terms for s in _subterms(t)}
    small = [c for c in dict.fromkeys(
        map(encode_ccs, sorted(enumerated_terms(), key=unparse)))
        if len(c.events) <= 6]
    for i, c in enumerate(small):
        for d in small[i:]:
            structs.update((product(c, d).struct, parallel_full(c, d).struct,
                            relabel(product(c, d).struct, cs._sync_label),
                            coproduct(parallel(c, d), prefix(A, d))))
    for c in structs:
        _assert_index_is_definitional(c)


def test_product_depth_is_not_the_sum_of_its_parts():
    # the pair of the two b's lies in {(a,'a), (b,'b)}: depth 2, where the
    # components' depths would give 2 + 2 - 1
    c = encode_ccs(parse("a.b.0 | 'a.'b.0"))
    (pair,) = [e for e in c.events if None not in e[1:] and depth(c, e) > 1]
    assert depth(c, pair) == 2
    _assert_index_is_definitional(c)


class TestTransitions:
    def test_initial_diamond(self):
        c = encode_ccs(parse("a.0 | b.0"))
        moves = transitions(c, frozenset())
        assert {d for _, d in moves} == {"fwd"}
        assert len(moves) == 2

    def test_top_backward_only(self):
        c = encode_ccs(parse("a.0 | b.0"))
        moves = transitions(c, max(c.configs, key=len))
        assert {d for _, d in moves} == {"bwd"}

    def test_empty_struct(self):
        assert transitions(EMPTY, frozenset()) == set()

    def test_inverse(self):
        c = encode_ccs(parse("a.0 + a.b.0"))
        for x in c.configs:
            for e, d in transitions(c, x):
                if d == "fwd":
                    assert (e, "bwd") in transitions(c, x | {e})
                else:
                    assert (e, "fwd") in transitions(c, x - {e})


class TestComparison:
    def test_empty_embeds_everywhere(self):
        for text in ("a.0", "a.0 | b.0"):
            assert embeds(EMPTY, encode_ccs(parse(text))) is not None

    def test_embed_respects_labels(self):
        assert embeds(encode_ccs(parse("a.0")), encode_ccs(parse("b.0"))) is None

    def test_chain_embeds_in_diamond(self):
        chain = encode_ccs(parse("a.b.0"))
        diamond = encode_ccs(parse("a.0 | b.0"))
        assert embeds(chain, diamond) is not None
        assert not isomorphic(chain, diamond)

    def test_isomorphic_ignores_event_names(self):
        c1 = single(A, "x")
        c2 = single(A, "y")
        assert isomorphic(c1, c2)


class TestSerialization:
    def test_json_roundtrip(self):
        for text in ("0", "a.0 | b.0", "a.b.0 + b.a.0", "(a){a.0 | 'a.0}"):
            c = encode_ccs(parse(text))
            assert isomorphic(from_json(to_json(c)), c)

    def test_json_stray_event(self):
        data = {"events": [{"id": "e0", "label": "a"}],
                "configurations": [[], ["e0"], ["e1"]]}
        with pytest.raises(ValueError, match="unknown events: frozenset\\({'e1'}\\)"):
            from_json(data)

    def test_json_shape(self):
        data = to_json(encode_ccs(parse("0")))
        assert data == {"events": [], "configurations": [[]]}

    def test_canonical_ids_total(self):
        c = encode_ccs(parse("a.0 | b.0"))
        ids = canonical_event_ids(c)
        assert set(ids) == set(c.events)
        assert len(set(ids.values())) == len(c.events)

    def test_dot_mentions_labels(self):
        dot = to_dot(encode_ccs(parse("a.0 | b.0")))
        assert dot.startswith("digraph")
        assert 'label="a"' in dot and 'label="b"' in dot


class TestMorphism:
    def test_bad_map_detected(self):
        c = encode_ccs(parse("a.0 | b.0"))
        (ea,) = [e for e in c.events if c.label(e) == A]
        (eb,) = [e for e in c.events if c.label(e) == B]
        bad = Morphism(c, c, {ea: eb, eb: ea})
        assert not is_morphism(bad)

    def test_identity(self):
        c = encode_ccs(parse("a.b.0"))
        assert is_morphism(Morphism(c, c, {e: e for e in c.events}))

    def test_synchronisations_by_type(self):
        # a silent synchronisation projects to either half; an event only
        # shaped like one keeps its label
        r = parallel_full(single(A), single(COA, "f"))
        (sync,) = [e for e in r.struct.events if isinstance(e, cs.SyncEvent)]
        assert sync == ("x", "e", "f") and repr(sync) == "('x', 'e', 'f')"
        assert r.struct.label(sync) == TAU
        assert is_morphism(r.proj1) and is_morphism(r.proj2)
        shaped = single(TAU, ("x", "e", "f"))
        bad = Morphism(shaped, single(A), {("x", "e", "f"): "e"})
        assert violations(bad) == ["label not preserved on ('x', 'e', 'f')"]

    def test_morphisms_reflect_causality(self):
        r = parallel_full(encode_ccs(parse("a.b.0")), encode_ccs(parse("'a.0")))
        c = r.struct
        for x in c.configs:
            image = r.proj1.apply(x)
            order_src = causal_order(c, x)
            order_img = causal_order(r.proj1.target, image)
            for e1 in x:
                for e2 in x:
                    if (e1 in r.proj1.mapping and e2 in r.proj1.mapping
                            and (r.proj1.mapping[e1], r.proj1.mapping[e2]) in order_img):
                        assert (e1, e2) in order_src
