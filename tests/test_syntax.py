"""Concrete syntax, normalization and precondition checks."""

import copy
import pickle

import pytest

from revccs.syntax import (TAU, Action, Hole, HOLE, Nil, NIL, Par, ParseError,
                           Prefix, Restrict, Sum, all_names, collapse, count_holes,
                           detect_auto_conflict_or_concurrency, free_names,
                           fresh_name, inp, instantiate, is_collapsed, out,
                           parse, parse_context, push_restrictions,
                           rename_free, summands, sum_of, unparse)
from revccs.encoding import encode_ccs
from revccs.confstruct import isomorphic


class TestParse:
    def test_parallel(self):
        assert parse("a.0 | b.0") == Par(Prefix(inp("a"), NIL),
                                         Prefix(inp("b"), NIL))

    def test_sum_of_prefixes(self):
        t = parse("a.b.0 + b.a.0")
        assert t == Sum(Prefix(inp("a"), Prefix(inp("b"), NIL)),
                        Prefix(inp("b"), Prefix(inp("a"), NIL)))

    def test_output_prefix(self):
        assert parse("'a.0") == Prefix(out("a"), NIL)

    def test_tau_prefix(self):
        t = parse("tau.0")
        assert t.action.is_tau

    def test_restriction(self):
        assert parse("(a)a.0") == Restrict("a", Prefix(inp("a"), NIL))

    def test_restriction_binds_tight(self):
        # restriction scopes over the immediately following factor only
        t = parse("(a)a.0 | b.0")
        assert isinstance(t, Par) and isinstance(t.left, Restrict)

    def test_grouping(self):
        t = parse("(a){a.0 | b.0}")
        assert isinstance(t, Restrict) and isinstance(t.body, Par)

    def test_precedence_sum_over_par(self):
        # + binds tighter than |
        t = parse("a.0 + b.0 | c.0")
        assert isinstance(t, Par) and isinstance(t.left, Sum)

    def test_roundtrip(self):
        for text in ("0", "a.0", "'a.0", "tau.0", "a.0 | b.0",
                     "a.b.0 + b.a.0", "(a){a.0 | 'a.0}", "a.0 + a.b.0",
                     "(a)(b){'a.0 | b.(a.0 + c.0)}"):
            t = parse(text)
            assert parse(unparse(t)) == t

    def test_errors(self):
        for bad in ("a.0 +", "a.", "|", "a.0 | ", "((a)", "a.0 + 0",
                    "0 + a.0", "a b", "'", "{a.0", ""):
            with pytest.raises(ParseError):
                parse(bad)

    def test_tau_is_no_channel(self):
        # the co-name of a channel tau would print as the silent prefix
        for text, position in (("'tau.0", 0), ("a.'tau.0 | b.0", 2)):
            with pytest.raises(ParseError, match="^tau is not a channel name") as exc:
                parse(text)
            assert exc.value.position == position
        for kind in ("in", "out"):
            with pytest.raises(ValueError, match="^tau is not a channel name$"):
                Action(kind, "tau")

    def test_hole_rejected_in_process(self):
        with pytest.raises(ParseError):
            parse("a.[·] | b.0")


class TestContexts:
    def test_bare_hole(self):
        assert parse_context("[·]") == HOLE
        assert parse_context("[]") == HOLE
        assert parse_context("[_]") == HOLE

    def test_one_hole_required(self):
        with pytest.raises(ParseError):
            parse_context("a.0")
        with pytest.raises(ParseError):
            parse_context("[·] | [·]")

    def test_count_holes(self):
        assert count_holes(parse_context("a.[·] | b.0")) == 1
        assert count_holes(parse("a.0")) == 0

    def test_instantiate(self):
        ctx = parse_context("(a){[·] | 'a.0}")
        assert instantiate(ctx, parse("a.0")) == parse("(a){a.0 | 'a.0}")

    def test_instantiate_nested(self):
        ctx = parse_context("b.[·] + a.0")
        t = instantiate(ctx, parse("c.0"))
        assert t == parse("b.c.0 + a.0")
        assert count_holes(t) == 0


class TestNames:
    def test_free_names(self):
        assert free_names(parse("(a){a.0 | b.0}")) == frozenset({"b"})
        assert free_names(parse("'a.b.0")) == frozenset({"a", "b"})
        assert free_names(parse("tau.0")) == frozenset()

    def test_all_names_include_bound(self):
        assert all_names(parse("(a)b.0")) == frozenset({"a", "b"})

    def test_rename_free(self):
        t = rename_free(parse("a.0 | (a)a.0"), "a", "c")
        assert t == parse("c.0 | (a)a.0")

    def test_fresh_name(self):
        assert fresh_name("c", frozenset()) == "c_1"
        assert fresh_name("c", frozenset({"c_1", "c_2"})) == "c_3"


class TestCollapse:
    def test_sum_merge(self):
        assert collapse(parse("a.b.0 + a.b.0")) == parse("a.b.0")

    def test_nested_merge(self):
        assert collapse(parse("c.{a.b.0 + a.b.0}")) == parse("c.a.b.0")

    def test_par_rule(self):
        assert collapse(parse("a.0 | a.0")) == parse("a.0")
        assert collapse(parse("a.0 | a.0"), par_rule=False) == parse("a.0 | a.0")

    def test_idempotent(self):
        for text in ("a.b.0 + a.b.0", "a.0 | a.0", "(a){a.0 + a.0}"):
            once = collapse(parse(text))
            assert collapse(once) == once
            assert is_collapsed(once)

    def test_is_collapsed(self):
        assert is_collapsed(parse("a.0 + b.0"))
        assert not is_collapsed(parse("a.0 + a.0"))


class TestPushRestrictions:
    def test_drops_unused(self):
        assert push_restrictions(parse("(a)b.0")) == parse("b.0")

    def test_sinks_past_prefix(self):
        assert push_restrictions(parse("(a)b.a.0")) == parse("b.(a)a.0")

    def test_sinks_into_par(self):
        assert push_restrictions(parse("(a){b.0 | a.0}")) == parse("b.0 | (a)a.0")

    def test_stuck_on_binding_prefix(self):
        t = parse("(a)a.b.0")
        assert push_restrictions(t) == t

    def test_preserves_denotation(self):
        for text in ("(a)b.a.0", "(a){b.0 | a.'a.0}", "(b){a.{b.0 + c.0}}",
                     "(a)(b){'a.0 | b.a.0}"):
            t = parse(text)
            assert isomorphic(encode_ccs(t), encode_ccs(push_restrictions(t)))


class TestClashes:
    def test_auto_concurrency(self):
        assert detect_auto_conflict_or_concurrency(parse("a.b.0 | a.c.0"))

    def test_auto_conflict(self):
        assert detect_auto_conflict_or_concurrency(parse("a.b.0 + a.c.0"))

    def test_clean_terms(self):
        assert detect_auto_conflict_or_concurrency(parse("a.0 | b.0")) == []
        assert detect_auto_conflict_or_concurrency(parse("a.0 | 'a.0")) == []

    def test_restriction_masks(self):
        # both a-events die under (a), so no clash survives in the denotation
        assert detect_auto_conflict_or_concurrency(parse("(a){a.0 | a.0}")) == []


class TestHelpers:
    def test_summands(self):
        t = parse("a.0 + b.0 + c.0")
        assert [s.action.channel for s in summands(t)] == ["a", "b", "c"]

    def test_sum_of(self):
        branches = summands(parse("a.0 + b.0"))
        assert sum_of(branches) == parse("a.0 + b.0")
        assert sum_of([parse("a.0")]) == parse("a.0")
        assert sum_of([]) == NIL


class TestValueClasses:
    """The value classes keep the behaviour of frozen, field-ordered
    records: reprs are embedded in error messages and hashes decide set
    orders, so both stay exactly as they are."""

    def test_reprs(self):
        from revccs.confstruct import KILLED, PairLabel
        from revccs.equivalences import EquivalenceVerdict
        from revccs.rccs import TransitionLabel, lift, normalize
        a = "Action(kind='in', channel='a')"
        branches = (f"Sum(left=Prefix(action={a}, body=Prefix(action="
                    "Action(kind='out', channel='b'), body=Nil())), right="
                    "Prefix(action=Action(kind='tau', channel=None), body=Nil()))")
        right = "Prefix(action=Action(kind='out', channel='a'), body=Nil())"
        t = parse("(a)(a.'b.0 + tau.0) | 'a.0")
        assert repr(inp("a")) == a
        assert repr(TAU) == "Action(kind='tau', channel=None)"
        assert repr(t) == f"Par(left=Restrict(name='a', body={branches}), right={right})"
        assert repr(normalize(lift(t))) == (
            "RPar(left=RRestrict(name='a', body=Monitored(memory=(Fork(),), "
            f"process={branches})), right=Monitored(memory=(Fork(),), "
            f"process={right}))")
        assert repr(TransitionLabel(1, inp("a"))) == (
            f"TransitionLabel(ident=1, action={a}, reverse=False)")
        assert repr(PairLabel(inp("a"), out("b"))) == (
            f"PairLabel(left={a}, right=Action(kind='out', channel='b'))")
        assert repr(KILLED) == "Killed()"
        assert repr(EquivalenceVerdict(False, ("B", 2), "w")) == (
            "EquivalenceVerdict(related=False, failing_stratum=('B', 2), "
            "witness='w', context=None)")

    def test_equality_within_one_class(self):
        assert Nil() == NIL and hash(Nil()) == hash(NIL)
        assert Nil() != Hole() and hash(Nil()) == hash(Hole())
        assert Prefix(inp("a"), NIL) == parse("a.0")
        assert hash(Prefix(inp("a"), NIL)) == hash((inp("a"), NIL))
        assert Par(NIL, NIL) != Sum(parse("a.0"), parse("a.0")) != Par(NIL, NIL)

    def test_keywords_and_defaults(self):
        from revccs.confstruct import EMPTY, Morphism
        from revccs.encoding import CorrespondenceReport
        from revccs.equivalences import EquivalenceVerdict
        from revccs.rccs import TransitionLabel
        assert TransitionLabel(action=TAU, ident=3) == TransitionLabel(3, TAU, False)
        assert Action("tau") == TAU and Action(kind="in", channel="a") == inp("a")
        verdict = EquivalenceVerdict(False, witness="w")
        assert (verdict.related, verdict.failing_stratum, verdict.witness,
                verdict.context) == (False, None, "w", None)
        reports = CorrespondenceReport(), CorrespondenceReport()
        assert (reports[0].ok, reports[0].states_checked, reports[0].mismatches) == (True, 0, [])
        reports[0].fail("x")
        assert reports[1].mismatches == [] and not reports[0].ok
        assert Morphism(EMPTY, EMPTY).mapping is not Morphism(EMPTY, EMPTY).mapping
        with pytest.raises(TypeError):
            Prefix(inp("a"))

    def test_validation(self):
        with pytest.raises(ValueError, match="^bad action kind 'x'$"):
            Action("x")
        with pytest.raises(ValueError, match="^visible actions need a channel, tau forbids one$"):
            Action("in")
        with pytest.raises(ValueError, match=r"^unguarded sum branch: Nil\(\)$"):
            Sum(NIL, parse("a.0"))

    def test_frozen_and_mutable(self):
        from revccs.encoding import CorrespondenceReport
        with pytest.raises(AttributeError, match="^cannot assign to field 'kind'$"):
            TAU.kind = "in"
        with pytest.raises(AttributeError):
            parse("a.0").body = NIL
        assert TAU.kind == "tau"
        report = CorrespondenceReport()
        report.states_checked = 3
        assert report.states_checked == 3
        with pytest.raises(TypeError):
            hash(CorrespondenceReport())

    def test_copies_and_pickles(self):
        from revccs.equivalences import EquivalenceVerdict
        for x in (parse("(a)(a.'b.0 + tau.0) | 'a.0"), TAU,
                  EquivalenceVerdict(False, witness="w")):
            for clone in (copy.copy(x), copy.deepcopy(x),
                          pickle.loads(pickle.dumps(x))):
                assert type(clone) is type(x) and clone == x
