"""Denotation of processes as configuration structures.

A plain process denotes a structure by structural induction.  A coherent
reversible term denotes an address: the structure of its origin together
with the configuration reached by replaying its past.
"""

from __future__ import annotations

import functools
from typing import Optional

from . import confstruct as cs
from .confstruct import ConfStruct
from .syntax import (Nil, Par, Prefix, Process, Record, Restrict, Sum,
                     is_collapsed, push_restrictions, unparse,
                     detect_auto_conflict_or_concurrency)
from .rccs import (RTerm, _sorted_process, backward_steps, erase,
                   forward_steps, normalize, state_key, trace_to_origin)


class NoMatchingEvent(ValueError):
    """No event of the origin's structure matches a replayed transition."""


class AmbiguousEvent(ValueError):
    """Several events match a replayed transition; the origin has an
    autoconflict or autoconcurrency, so addresses are not unique."""


@functools.lru_cache(maxsize=1024)
def encode_ccs(p: Process) -> ConfStruct:
    if isinstance(p, Nil):
        return cs.EMPTY
    if isinstance(p, Prefix):
        return cs.prefix(p.action, encode_ccs(p.body))
    if isinstance(p, Sum):
        return cs.coproduct(encode_ccs(p.left), encode_ccs(p.right))
    if isinstance(p, Par):
        return cs.parallel(encode_ccs(p.left), encode_ccs(p.right))
    if isinstance(p, Restrict):
        return cs.restrict_name(encode_ccs(p.body), p.name)
    raise TypeError(f"cannot encode {p!r}")


class Address(Record):
    """Where a reversible term sits inside its origin's structure."""

    __slots__ = ("struct", "origin", "config")

    def to_json(self) -> dict:
        ids = cs.canonical_event_ids(self.struct)
        return {"origin": cs.to_json(self.struct),
                "current": sorted(ids[e] for e in self.config)}


def address(origin_struct: ConfStruct, trace) -> frozenset:
    """Replay a forward trace inside the origin's structure.

    ``trace`` is a list of (label, term-after-the-step) pairs.  At each step
    exactly one extension event must carry the step's action and leave a
    residual the remaining term's denotation embeds into; fewer or more
    matches violate the collapse / no-autoconflict preconditions.
    """
    x = frozenset()
    for step, (lbl, after) in enumerate(trace):
        remainder = encode_ccs(erase(after))
        matches = []
        for e in origin_struct.extensions(x):
            if origin_struct.label(e) != lbl.action:
                continue
            if cs.embeds(remainder,
                         cs.residual(origin_struct, x | {e})) is not None:
                matches.append(e)
        if not matches:
            raise NoMatchingEvent(f"step {step} ({lbl}) matches no event")
        if len(matches) > 1:
            raise AmbiguousEvent(
                f"step {step} ({lbl}) matches {len(matches)} events")
        x = x | {matches[0]}
    return x


def encode_rccs(t: RTerm, strict: bool = True) -> Address:
    """Address of a coherent reversible term.

    With ``strict`` the origin must be collapsed and free of autoconflict
    and autoconcurrency, the conditions under which addresses are unique.
    """
    states, labels = trace_to_origin(t)
    # normalize the origin: undoing a step restores the fired branch
    # leftmost and re-seats hoisted restrictions, so congruent states would
    # otherwise disagree on event identities
    origin_p = _sorted_process(push_restrictions(erase(states[0])))
    if strict:
        if not is_collapsed(origin_p):
            raise ValueError(f"origin is not collapsed: {unparse(origin_p)}")
        clashes = detect_auto_conflict_or_concurrency(origin_p)
        if clashes:
            raise ValueError(
                f"origin has an autoconflict or autoconcurrency on "
                f"{clashes[0].label}: {unparse(origin_p)}")
    struct = encode_ccs(origin_p)
    x = address(struct, list(zip(labels, states[1:])))
    return Address(struct, origin_p, x)


# ---------------------------------------------------------------------------
# Operational correspondence between term transitions and structure moves

class CorrespondenceFailure(AssertionError):
    """A term transition and the structure moves at its address disagree."""


class CorrespondenceReport(Record, frozen=False, factories={"mismatches": list},
                           defaults={"ok": True, "states_checked": 0}):
    __slots__ = ("ok", "states_checked", "mismatches")

    def fail(self, msg: str):
        self.ok = False
        self.mismatches.append(msg)

    def raise_on_failure(self):
        if not self.ok:
            raise CorrespondenceFailure("; ".join(self.mismatches))


def check_operational_correspondence(t: RTerm,
                                     max_states: Optional[int] = 500
                                     ) -> CorrespondenceReport:
    """Check, over every reachable state, that forward steps match extension
    events and backward steps match retraction events, with equal labels."""
    report = CorrespondenceReport()
    t = normalize(t)
    addresses: dict = {}    # state key -> address, one replay per state

    def address_of(key, term) -> Address:
        if key not in addresses:
            addresses[key] = encode_rccs(term)
        return addresses[key]

    frontier = [(state_key(t), t)]
    seen = {frontier[0][0]}
    while frontier:
        key, cur = frontier.pop()
        report.states_checked += 1
        if max_states is not None and report.states_checked > max_states:
            report.fail("state bound exceeded")
            return report
        addr = address_of(key, cur)
        struct, x = addr.struct, addr.config
        for word, steps, noun, events in (
                ("forward", forward_steps(cur, check=False), "extension",
                 struct.extensions(x)),
                ("backward", backward_steps(cur, check=False), "retraction",
                 struct.retractions(x))):
            used = set()
            for lbl, nxt in steps:
                k = state_key(nxt)
                # extensions lie outside x and retractions inside, so one
                # event of the right kind in the symmetric difference is a
                # step of the right direction
                delta = address_of(k, nxt).config ^ x
                e = next(iter(delta), None)
                if len(delta) != 1 or e not in events:
                    report.fail(f"{word} step {lbl} from {cur} has no "
                                f"matching event")
                    continue
                used.add(e)
                if struct.label(e) != lbl.action:
                    report.fail(f"{word} step {lbl} from {cur} hit label "
                                f"{struct.label(e)}")
                if k not in seen:
                    seen.add(k)
                    frontier.append((k, nxt))
            if set(events) - used:
                report.fail(f"unmatched {noun} events at {cur}: "
                            f"{sorted(map(repr, set(events) - used))}")
    return report
