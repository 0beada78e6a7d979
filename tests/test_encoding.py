"""Denotations, addresses, context projections, operational correspondence."""

import pytest

from corpus import is_morphism
from revccs.syntax import (Hole, Par, Prefix, Process, Record, Restrict, Sum,
                           count_holes, inp, instantiate, out, parse,
                           parse_context)
from revccs.confstruct import (Morphism, depth, embeds, isomorphic, residual,
                               validate)
from revccs.rccs import erase, forward_steps, lift, normalize, trace_to_origin
from revccs.encoding import (Address, AmbiguousEvent, CorrespondenceFailure,
                             address, check_operational_correspondence,
                             encode_ccs, encode_rccs)


def run(term, *actions):
    term = lift(term) if not hasattr(term, "memory") else term
    for a in actions:
        moves = [(l, t) for l, t in forward_steps(term) if str(l.action) == a]
        assert moves
        term = moves[0][1]
    return term


class TestEncodeCcs:
    def test_nil(self):
        c = encode_ccs(parse("0"))
        assert not c.events and c.configs == frozenset({frozenset()})

    def test_diamond(self):
        c = encode_ccs(parse("a.0 | b.0"))
        assert len(c.events) == 2 and len(c.configs) == 4

    def test_two_chains(self):
        c = encode_ccs(parse("a.b.0 + b.a.0"))
        assert len(c.events) == 4 and len(c.configs) == 5

    def test_restriction(self):
        c = encode_ccs(parse("(a){a.0 | 'a.0}"))
        live = {e for x in c.configs for e in x}
        assert all(c.label(e).is_tau for e in live)

    def test_memoized_value_equal(self):
        assert encode_ccs(parse("a.b.0")) == encode_ccs(parse("a.b.0"))

    def test_all_valid(self):
        for text in ("a.0 | 'a.0", "(b){a.b.0 + b.a.0}", "tau.a.0"):
            assert validate(encode_ccs(parse(text))) == []

    def test_strong_bisim_with_lts(self):
        # P steps on α exactly when a minimal event is labelled α, and the
        # residual denotes the continuation
        from corpus import ccs_steps
        for text in ("a.b.0 + b.a.0", "a.0 | 'a.0", "(a){a.b.0 | 'a.0}"):
            p = parse(text)
            c = encode_ccs(p)
            lts = ccs_steps(p)
            minimal = c.extensions(frozenset())
            assert {str(a) for a, _ in lts} == {str(c.label(e)) for e in minimal}
            for a, q in lts:
                assert any(str(c.label(e)) == str(a)
                           and isomorphic(residual(c, frozenset({e})),
                                          encode_ccs(q))
                           for e in minimal)


class TestAddress:
    def test_empty_trace(self):
        t = lift(parse("a.0 | b.0"))
        addr = encode_rccs(t)
        assert addr.config == frozenset()

    def test_one_step(self):
        t = run(parse("a.0 | b.0"), "a")
        addr = encode_rccs(t)
        assert len(addr.config) == 1
        (e,) = addr.config
        assert str(addr.struct.label(e)) == "a"

    def test_two_steps(self):
        t = run(parse("a.0 | b.0"), "a", "b")
        addr = encode_rccs(t)
        assert addr.config in addr.struct.configs and len(addr.config) == 2

    def test_future_disambiguates(self):
        # firing the a of a.b.0 inside a.b.0 + a.0 must select the event
        # whose residual still offers b
        t = run(parse("a.b.0 + a.0"), "a")
        addr = encode_rccs(t, strict=False)
        (e,) = addr.config
        assert embeds(encode_ccs(parse("b.0")),
                      residual(addr.struct, addr.config)) is not None
        assert depth(addr.struct, e) == 1

    def test_residual_invariant(self):
        for text, steps in (("a.b.0", ("a",)), ("a.0 | 'a.0", ("tau",)),
                            ("a.b.0 + b.a.0", ("b", "a"))):
            t = run(parse(text), *steps)
            addr = encode_rccs(t)
            assert isomorphic(residual(addr.struct, addr.config),
                              encode_ccs(erase(t)))

    def test_precondition_uncollapsed(self):
        with pytest.raises(ValueError):
            encode_rccs(lift(parse("a.b.0 + a.b.0")))

    def test_precondition_autoconflict(self):
        with pytest.raises(ValueError):
            encode_rccs(lift(parse("a.0 + a.b.0")), strict=True)

    def test_standalone_address(self):
        t = run(parse("a.b.0"), "a")
        states, trace = trace_to_origin(t)
        origin_struct = encode_ccs(parse("a.b.0"))
        x = address(origin_struct, list(zip(trace, states[1:])))
        assert len(x) == 1

    def test_json(self):
        data = encode_rccs(run(parse("a.0 | b.0"), "a")).to_json()
        assert set(data) == {"origin", "current"}
        assert len(data["current"]) == 1


# ---------------------------------------------------------------------------
# Context projection: the partial event map from the structure of a filled
# context onto the structure of the plugged process.

class ContextProjection(Record):
    # the denotation of the filled context, that of the plugged process,
    # and the map from the first onto the second
    __slots__ = ("whole", "part", "map")


def project(context: Process, p: Process) -> ContextProjection:
    whole = encode_ccs(instantiate(context, p))
    inner = encode_ccs(p)
    mapping = {}
    for e in whole.events:
        target = _project_event(context, p, e)
        if target is not None and target in inner.events:
            mapping[e] = target
    return ContextProjection(whole, inner, Morphism(whole, inner, mapping))


def _project_event(c: Process, p: Process, e):
    if isinstance(c, Hole):
        return e
    if isinstance(c, Prefix):
        inner = encode_ccs(instantiate(c.body, p))
        outer = encode_ccs(instantiate(c, p))
        guard = next(iter(outer.events - inner.events))
        if e == guard:
            return None
        return _project_event(c.body, p, e)
    if isinstance(c, Sum):
        side, sub = e
        branch = c.left if side == 1 else c.right
        if count_holes(branch) == 0:
            return None
        return _project_event(branch, p, sub)
    if isinstance(c, Par):
        _tag, e1, e2 = e
        if count_holes(c.left) > 0:
            return None if e1 is None else _project_event(c.left, p, e1)
        return None if e2 is None else _project_event(c.right, p, e2)
    if isinstance(c, Restrict):
        return _project_event(c.body, p, e)
    return None


class TestProjection:
    def test_identity_context(self):
        p = parse("a.b.0")
        proj = project(parse_context("[·]"), p)
        assert is_morphism(proj.map)
        assert proj.map.mapping == {e: e for e in proj.whole.events}

    def test_parallel_context(self):
        proj = project(parse_context("[·] | b.0"), parse("a.0"))
        assert is_morphism(proj.map)
        mapped = [e for e in proj.whole.events if e in proj.map.mapping]
        unmapped = [e for e in proj.whole.events if e not in proj.map.mapping]
        assert {str(proj.whole.label(e)) for e in mapped} >= {"a"}
        assert any(str(proj.whole.label(e)) == "b" for e in unmapped)

    def test_theorem_context(self):
        proj = project(parse_context("{'a.0 + c_1.0} | [·]"), parse("a.b.0"))
        assert is_morphism(proj.map)
        for x in proj.whole.configs:
            assert proj.map.apply(x) in proj.part.configs

    def test_prefix_and_sum_context(self):
        for text in ("g.[·]", "b.[·] + c.0", "(a){[·] | 'a.0}"):
            proj = project(parse_context(text), parse("a.0"))
            assert is_morphism(proj.map)


class TestCorrespondence:
    def test_nil(self):
        report = check_operational_correspondence(lift(parse("0")))
        assert report.ok and report.states_checked == 1

    def test_diamond(self):
        report = check_operational_correspondence(lift(parse("a.0 | b.0")))
        assert report.ok and report.states_checked == 4

    def test_after_step(self):
        report = check_operational_correspondence(run(parse("a.b.0"), "a"))
        assert report.ok

    def test_sync_and_restriction(self):
        for text in ("a.0 | 'a.0", "(a){a.b.0 | 'a.0}", "(a){b.a.0} | c.0",
                     "tau.a.0"):
            report = check_operational_correspondence(lift(parse(text)))
            assert report.ok, report.mismatches

    def test_raise_on_failure_noop_when_ok(self):
        report = check_operational_correspondence(lift(parse("a.0")))
        report.raise_on_failure()
