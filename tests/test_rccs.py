"""Reversible semantics: memories, the two-way LTS, coherence, origins."""

import pytest

from corpus import barb, broken_memory, ccs_steps, enumerated_terms
from revccs.syntax import NIL, inp, parse, unparse
from revccs.rccs import (FORK, IncoherentTerm, Monitored, Past, RPar,
                         RRestrict, backward_steps, barbs,
                         ccs_state_key, erase, forward_steps,
                         is_coherent, lift, normalize, origin,
                         reachable_states, state_key, trace_to_origin)


def steps_by_action(term, wanted):
    return [(l, t) for l, t in forward_steps(term) if str(l.action) == wanted]


def run(term, *actions):
    for a in actions:
        moves = steps_by_action(term, a)
        assert moves, f"no step on {a} from {term}"
        term = moves[0][1]
    return term


class TestLiftErase:
    def test_lift(self):
        p = parse("a.0 | b.0")
        t = lift(p)
        assert t == Monitored((), p)
        assert erase(t) == p

    def test_erase_strips_memories(self):
        t = run(lift(parse("a.b.0")), "a")
        assert erase(t) == parse("b.0")

    def test_erase_through_restriction(self):
        t = normalize(lift(parse("(a){b.0 | a.0}")))
        assert erase(t) == parse("(a){b.0 | a.0}")


class TestForward:
    def test_sum_shares_fresh_id(self):
        p = parse("a.P_a.0 + b.Q_b.0")
        moves = forward_steps(lift(p))
        assert len(moves) == 2
        assert {l.ident for l, _ in moves} == {1}
        by_action = {str(l.action): t for l, t in moves}
        a_state = by_action["a"]
        assert isinstance(a_state, Monitored)
        assert a_state.memory[0] == Past(1, inp("a"), parse("b.Q_b.0"))
        assert a_state.process == parse("P_a.0")

    def test_prefix_records_nil_alternative(self):
        ((l, t),) = forward_steps(lift(parse("a.0")))
        assert t.memory[0] == Past(1, inp("a"), NIL)

    def test_sync_produces_tau(self):
        moves = forward_steps(lift(parse("a.0 | 'a.0")))
        labels = sorted(str(l.action) for l, _ in moves)
        assert labels == ["'a", "a", "tau"]
        (tau_l,) = [l for l, _ in moves if l.action.is_tau]
        assert tau_l.ident == 1 and not tau_l.reverse

    def test_restriction_blocks(self):
        assert forward_steps(lift(parse("(a)a.0"))) == []

    def test_restriction_lets_others_through(self):
        moves = forward_steps(lift(parse("(a){a.0 | b.0}")))
        assert [str(l.action) for l, _ in moves] == ["b"]

    def test_fresh_ids_consecutive(self):
        t = run(lift(parse("a.b.c.0")), "a", "b")
        assert [p.ident for p in t.memory if isinstance(p, Past)] == [2, 1]


class TestBackward:
    def test_undo_restores_sum(self):
        t = Monitored((Past(1, inp("a"), parse("b.0")),), parse("c.0"))
        ((l, back),) = backward_steps(t)
        assert l.reverse and l.ident == 1 and str(l.action) == "a"
        assert back == lift(parse("a.c.0 + b.0"))

    def test_empty_memory_stuck(self):
        assert backward_steps(lift(parse("a.0 | b.0"))) == []

    def test_tau_pair_only_joint(self):
        t = run(lift(parse("a.0 | 'a.0")), "tau")
        moves = backward_steps(t)
        assert len(moves) == 1
        (l, back) = moves[0]
        assert l.action.is_tau and l.reverse
        assert state_key(back) == state_key(lift(parse("a.0 | 'a.0")))

    def test_interleaved_halves_undo_alone(self):
        t = run(lift(parse("a.0 | b.0")), "a", "b")
        assert len(backward_steps(t)) == 2

    def test_undo_inverts_every_forward(self):
        for text in ("a.b.0 + b.a.0", "a.0 | 'a.0", "(a){a.'b.0 | 'a.0}"):
            start = normalize(lift(parse(text)))
            for l, nxt in forward_steps(start):
                undo = [b for bl, b in backward_steps(nxt) if bl.ident == l.ident]
                assert any(state_key(b) == state_key(start) for b in undo)


class TestCongruence:
    def test_fork_distribution(self):
        t = normalize(lift(parse("a.0 | b.0")))
        assert isinstance(t, RPar)
        assert t.left.memory == (FORK,)
        assert t.right.memory == (FORK,)

    def test_restriction_hoisted(self):
        t = normalize(lift(parse("a.(b)c.0")))
        assert isinstance(t, Monitored)  # nothing to hoist under a prefix
        t2 = normalize(Monitored((), parse("(b)c.0")))
        assert isinstance(t2, RRestrict)

    def test_hoist_avoids_memory_capture(self):
        # undoing a leaves memory mentioning b; the binder must be renamed
        t = run(lift(parse("b.(b)b.c.0")), "b")
        n = normalize(t)
        assert isinstance(n, RRestrict) and n.name != "b"
        assert is_coherent(n)

    def test_normal_form_canonical_ids(self):
        t1 = run(lift(parse("a.0 | b.0")), "a", "b")
        t2 = run(lift(parse("a.0 | b.0")), "b", "a")
        assert state_key(t1) == state_key(t2)

    def test_distinct_states_distinct_keys(self):
        t = lift(parse("a.b.0"))
        after = run(t, "a")
        assert state_key(t) != state_key(after)


class TestCoherence:
    def test_lift_coherent(self):
        assert is_coherent(lift(parse("a.0")))

    def test_forward_steps_stay_coherent(self):
        t = run(lift(parse("a.0 | 'a.0")), "tau")
        assert is_coherent(t)

    def test_broken_memory(self):
        assert not is_coherent(broken_memory())

    def test_incoherent_raises(self):
        for step in (forward_steps, backward_steps, trace_to_origin):
            with pytest.raises(IncoherentTerm):
                step(broken_memory())


class TestOrigin:
    def test_identity_on_lift(self):
        p = parse("a.0 + b.0")
        assert origin(lift(p)) == p

    def test_single_undo(self):
        t = Monitored((Past(1, inp("a"), NIL),), parse("b.0"))
        assert origin(t) == parse("a.b.0")

    def test_after_fork(self):
        t = run(lift(parse("a.0 | b.0")), "a", "b")
        assert ccs_state_key(origin(t)) == ccs_state_key(parse("a.0 | b.0"))

    def test_trace_to_origin(self):
        t = run(lift(parse("a.b.0")), "a", "b")
        states, trace = trace_to_origin(t)
        assert [str(l.action) for l in trace] == ["a", "b"]
        assert state_key(states[0]) == state_key(lift(parse("a.b.0")))
        assert state_key(states[-1]) == state_key(t)


class TestBarbs:
    def test_simple(self):
        assert barb(lift(parse("a.0")), inp("a"))

    def test_restricted(self):
        assert not barb(lift(parse("(a)a.0")), inp("a"))

    def test_after_step(self):
        t = run(lift(parse("a.b.0")), "a")
        assert barb(t, inp("b")) and not barb(t, inp("a"))

    def test_tau_rejected(self):
        from revccs.syntax import TAU
        with pytest.raises(ValueError):
            barb(lift(parse("a.0")), TAU)

    def test_barbs_set(self):
        assert {str(a) for a in barbs(lift(parse("a.0 | 'b.0")))} == {"a", "'b"}


class TestStateGraph:
    def test_nil(self):
        g = reachable_states(lift(parse("0")))
        assert len(g.nodes) == 1 and g.edges == []

    def test_single_prefix(self):
        g = reachable_states(lift(parse("a.0")))
        assert len(g.nodes) == 2 and len(g.edges) == 1

    def test_diamond(self):
        g = reachable_states(lift(parse("a.0 | b.0")))
        assert len(g.nodes) == 4

    def test_bound(self):
        with pytest.raises(ValueError):
            reachable_states(lift(parse("a.0 | b.0 | c.0")), max_states=3)

    def test_dot(self):
        dot = reachable_states(lift(parse("a.0"))).to_dot()
        assert dot.startswith("digraph") and "1:a" in dot

    def test_branch_with_restriction_is_one_state(self):
        g = reachable_states(lift(parse("'c.(b)b.0 + a.(a)a.0")))
        assert len(g.nodes) == 3

    @pytest.mark.parametrize("p", enumerated_terms(), ids=unparse)
    def test_same_graph_from_inside(self, p):
        # loop lemma: every state of the graph reaches the same states
        def shape(g):
            return set(g.nodes), {(s, l.action, d) for s, l, d in g.edges}

        whole = reachable_states(lift(p))
        for _, t in forward_steps(lift(p)):
            g = reachable_states(t)
            assert g.initial == state_key(t) and g.nodes[g.initial] == t
            assert shape(g) == shape(whole)


class TestKeys:
    SWAPPED = ("'c.(b)b.0 + a.(a)a.0", "a.(a)a.0 + 'c.(b)b.0")

    def test_state_key_ignores_branch_order(self):
        left, right = (lift(parse(text)) for text in self.SWAPPED)
        assert state_key(left) == state_key(right)

    def test_ccs_state_key_ignores_branch_order(self):
        left, right = (parse(text) for text in self.SWAPPED)
        assert ccs_state_key(left) == ccs_state_key(right)


class TestCcsSteps:
    def test_erasure_commutes(self):
        for text in ("a.b.0 + b.a.0", "a.0 | 'a.0", "(a){a.0 | 'a.b.0}"):
            t = normalize(lift(parse(text)))
            ccs_moves = {(str(a), ccs_state_key(q)) for a, q in ccs_steps(erase(t))}
            rccs_moves = {(str(l.action), ccs_state_key(erase(s)))
                          for l, s in forward_steps(t)}
            assert ccs_moves == rccs_moves

    def test_sync(self):
        moves = ccs_steps(parse("(a){a.0 | 'a.0}"))
        assert [str(a) for a, _ in moves] == ["tau"]
