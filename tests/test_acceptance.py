"""Acceptance criteria.

Each test prints one PASS/FAIL line.  Run with ``pytest -s`` (or read the
captured-output section) to see the per-criterion report.
"""

import time
from functools import lru_cache

from corpus import FIG_TERMS, corpus_pairs, random_terms
from revccs.syntax import collapse, instantiate, parse, unparse
from revccs.confstruct import (causal_order, isomorphic, product,
                               residual, strictly_below, validate)
from revccs.encoding import check_operational_correspondence, encode_ccs, encode_rccs
from revccs.rccs import (backward_steps, erase, forward_steps, is_coherent,
                         lift, normalize, origin, reachable_states, state_key,
                         trace_to_origin)
from revccs.equivalences import (barbed_bf_bisim_structs, build_stratification,
                                 check_congruence_closure,
                                 forward_strong_bisim, hhpb, hhpb_oracle,
                                 hhpb_relation, synthesize_context)


def report(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


@lru_cache(maxsize=None)
def fig(name):
    return encode_ccs(FIG_TERMS[name])


@lru_cache(maxsize=None)
def pairs():
    return corpus_pairs()


@lru_cache(maxsize=None)
def rand500():
    return random_terms(500)


def test_criterion_1_example_tables():
    t0 = time.time()
    s34 = build_stratification(fig("C3"), fig("C4"))
    ok = (len(s34.forth[2]) == 2 and len(s34.forth[1]) == 2
          and s34.forth[0] == set())
    s12 = build_stratification(fig("C1"), fig("C2"))
    empty = (frozenset(), frozenset(), frozenset())
    ok = ok and (len(s12.forth[2]) == 2 and len(s12.forth[1]) == 2
                 and s12.forth[0] == {empty}
                 and s12.back[2] == set() and len(s12.back[1]) == 2
                 and s12.back[0] == s12.forth[0])
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"stratification tables reproduced in {elapsed:.3f}s")


def test_criterion_2_figure_shapes():
    t0 = time.time()
    c1, c2, c3, c4 = (fig(n) for n in ("C1", "C2", "C3", "C4"))
    ok = len(c1.configs) == 4 and len(c1.events) == 2
    # diamond: two incomparable minimal events, one top configuration
    top = max(c1.configs, key=len)
    order = causal_order(c1, top)
    e1, e2 = sorted(top, key=repr)
    ok = ok and not strictly_below(order, e1, e2) and not strictly_below(order, e2, e1)
    # two disjoint chains of length 2
    ok = ok and len(c2.configs) == 5 and len(c2.events) == 4
    tops = [x for x in c2.configs if len(x) == 2]
    ok = ok and len(tops) == 2 and not (tops[0] & tops[1])
    for x in tops:
        o = causal_order(c2, x)
        f1, f2 = sorted(x, key=repr)
        ok = ok and (strictly_below(o, f1, f2) or strictly_below(o, f2, f1))
    ok = ok and len(c3.configs) == 4
    ok = ok and len(c4.configs) == 5
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    report(2, ok, f"figure shapes 4/5/4/5 configurations in {elapsed:.3f}s")


def test_criterion_3_headline_separations():
    p1, p2 = FIG_TERMS["C1"], FIG_TERMS["C2"]
    ok = forward_strong_bisim(p1, p2)
    ok = ok and not hhpb(fig("C1"), fig("C2")).related
    v = hhpb(fig("C3"), fig("C4"))
    ok = ok and not v.related and v.failing_stratum[0] == "F"
    report(3, ok, "forward bisimulation holds where the history game fails")


def test_criterion_4_oracle_agreement():
    t0 = time.time()
    checked = disagreements = 0
    for p, q in pairs():
        c, d = encode_ccs(p), encode_ccs(q)
        if hhpb_oracle(c, d, bound=24) != hhpb(c, d).related:
            disagreements += 1
        checked += 1
    elapsed = time.time() - t0
    ok = disagreements == 0 and elapsed < 300
    report(4, ok, f"decider and game oracle agree on {checked} pairs "
                  f"({disagreements} disagreements, {elapsed:.1f}s)")


def test_criterion_5_stratification_lemma():
    t0 = time.time()
    checked_pairs = mismatches = 0
    for p, q in pairs():
        c, d = encode_ccs(p), encode_ccs(q)
        if not hhpb_oracle(c, d, bound=24):
            continue
        checked_pairs += 1
        strata = build_stratification(c, d)
        maximal = hhpb_relation(c, d)
        for x1 in c.configs:
            i = len(x1)
            in_strata = strata.covered(i, x1, backward=True)
            in_maximal = any(t[0] == x1 for t in maximal)
            if in_strata != in_maximal:
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and checked_pairs > 0 and elapsed < 300
    report(5, ok, f"stratified and maximal memberships coincide on "
                  f"{checked_pairs} related pairs ({mismatches} mismatches, "
                  f"{elapsed:.1f}s)")


def test_criterion_6_operational_correspondence():
    t0 = time.time()
    states = failures = 0
    for p in rand500():
        rep = check_operational_correspondence(lift(p))
        states += rep.states_checked
        if not rep.ok:
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 300
    report(6, ok, f"correspondence verified on {len(rand500())} terms / "
                  f"{states} states ({failures} failures, {elapsed:.1f}s)")


def test_criterion_7_address_soundness():
    t0 = time.time()
    steps_checked = problems = 0
    for p in rand500():
        graph = reachable_states(lift(p))
        for term in graph.nodes.values():
            states, labels = trace_to_origin(term)
            addr = encode_rccs(term)
            struct = addr.struct
            # replay the trace with an independent candidate filter
            x = frozenset()
            for lbl, after in zip(labels, states[1:]):
                remainder = encode_ccs(erase(after))
                matches = [e for e in struct.extensions(x)
                           if struct.label(e) == lbl.action
                           and _embeds(remainder, residual(struct, x | {e}))]
                if len(matches) != 1:
                    problems += 1
                    break
                x = x | {matches[0]}
                steps_checked += 1
            else:
                if x != addr.config:
                    problems += 1
            if not isomorphic(residual(struct, addr.config),
                              encode_ccs(erase(term))):
                problems += 1
    elapsed = time.time() - t0
    ok = problems == 0 and elapsed < 300
    report(7, ok, f"unique address at {steps_checked} trace steps with "
                  f"matching residuals ({problems} problems, {elapsed:.1f}s)")


def _embeds(c1, c2):
    from revccs.confstruct import embeds
    return embeds(c1, c2) is not None


def test_criterion_8_reversibility():
    t0 = time.time()
    states = problems = 0
    for p in rand500()[:150]:
        start = normalize(lift(p))
        graph = reachable_states(start)
        origin_key = state_key(lift(origin(start)))
        for term in graph.nodes.values():
            states += 1
            if not is_coherent(term):
                problems += 1
                continue
            # all maximal backward paths end in the lifted origin
            frontier, seen = [term], {state_key(term)}
            while frontier:
                cur = frontier.pop()
                moves = backward_steps(cur)
                if not moves and state_key(cur) != origin_key:
                    problems += 1
                for _, nxt in moves:
                    k = state_key(nxt)
                    if k not in seen:
                        seen.add(k)
                        frontier.append(nxt)
            # each forward step can be undone back to the same state
            for l, nxt in forward_steps(term):
                undo = [t for bl, t in backward_steps(nxt)
                        if bl.ident == l.ident and bl.action == l.action]
                if not any(state_key(t) == state_key(term) for t in undo):
                    problems += 1
    elapsed = time.time() - t0
    ok = problems == 0 and elapsed < 300
    report(8, ok, f"backtracking confluent to the origin over {states} "
                  f"states ({problems} problems, {elapsed:.1f}s)")


def test_criterion_9_context_closure():
    t0 = time.time()
    separated = undiscriminated = preserved = broken = 0
    for p, q in pairs():
        if hhpb(encode_ccs(p), encode_ccs(q)).related:
            rep = check_congruence_closure(p, q)
            if rep.consistent:
                preserved += 1
            else:
                broken += 1
        else:
            ctx = synthesize_context(p, q)
            if ctx is None:
                undiscriminated += 1
                continue
            v = barbed_bf_bisim_structs(encode_ccs(instantiate(ctx, p)),
                                        encode_ccs(instantiate(ctx, q)))
            if not v.related:
                separated += 1
            else:
                undiscriminated += 1
    elapsed = time.time() - t0
    ok = undiscriminated == 0 and broken == 0 and elapsed < 600
    report(9, ok,
           f"bounded-family substitute for the universal-context theorem "
           f"(quantification over all contexts is not reproducible): "
           f"{separated} unrelated pairs separated by a verified context, "
           f"{preserved} related pairs preserved across the generated "
           f"family ({undiscriminated} undiscriminated, {broken} broken, "
           f"{elapsed:.1f}s)")


def test_criterion_10_axioms_and_causality():
    t0 = time.time()
    structures = violations = 0

    def check(c):
        nonlocal structures, violations
        structures += 1
        if validate(c):
            violations += 1

    terms = sorted({t for pair in pairs() for t in pair}, key=unparse)
    structs = []
    for t in terms:
        c = encode_ccs(t)
        structs.append(c)
        check(c)
        for x in c.configs:
            check(residual(c, x))
    products_checked = 0
    small = [c for c in structs if len(c.events) <= 6]
    for i, c in enumerate(small):
        for d in small[i:]:
            r = product(c, d)
            check(r.struct)
            # Causality in a product is the entanglement of the factors'
            # causalities: strict causal order within each configuration
            # equals the transitive closure of the pairs ordered by at
            # least one projection.
            for x in r.struct.configs:
                o = causal_order(r.struct, x)
                img1 = r.proj1.apply(x)
                img2 = r.proj2.apply(x)
                o1 = causal_order(r.proj1.target, img1) if img1 in r.proj1.target.configs else frozenset()
                o2 = causal_order(r.proj2.target, img2) if img2 in r.proj2.target.configs else frozenset()
                generated = set()
                events = sorted(x, key=repr)
                for e1 in events:
                    for e2 in events:
                        if e1 == e2:
                            continue
                        p1 = (e1 in r.proj1.mapping and e2 in r.proj1.mapping
                              and strictly_below(o1, r.proj1.mapping[e1],
                                                 r.proj1.mapping[e2]))
                        p2 = (e1 in r.proj2.mapping and e2 in r.proj2.mapping
                              and strictly_below(o2, r.proj2.mapping[e1],
                                                 r.proj2.mapping[e2]))
                        if p1 or p2:
                            generated.add((e1, e2))
                closure = set(generated)
                changed = True
                while changed:
                    changed = False
                    for (a, b) in list(closure):
                        for (b2, c2) in list(closure):
                            if b == b2 and (a, c2) not in closure:
                                closure.add((a, c2))
                                changed = True
                for e1 in events:
                    for e2 in events:
                        if e1 == e2:
                            continue
                        if strictly_below(o, e1, e2) != ((e1, e2) in closure):
                            violations += 1
            products_checked += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 600
    report(10, ok, f"{structures} structures validated, causality "
                   f"decomposition on {products_checked} products "
                   f"({violations} violations, {elapsed:.1f}s)")
