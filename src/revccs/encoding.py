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
from .rccs import (IncoherentTerm, RTerm, _sorted_process, backward_steps,
                   erase, forward_steps, reachable_states, state_key,
                   trace_to_origin)


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


def _fired(origin_struct: ConfStruct, x: frozenset, lbl, after) -> object:
    """The one extension event of ``x`` carrying the step's action whose
    residual the denotation of ``after``, the step's target, embeds into;
    none or several violate the preconditions.  The step's index is |x|."""
    remainder = encode_ccs(erase(after))
    matches = [e for e in origin_struct.extensions(x)
               if origin_struct.label(e) == lbl.action
               and cs.embeds(remainder, cs.residual(origin_struct, x | {e})) is not None]
    if not matches:
        raise NoMatchingEvent(f"step {len(x)} ({lbl}) matches no event")
    if len(matches) > 1:
        raise AmbiguousEvent(f"step {len(x)} ({lbl}) matches {len(matches)} events")
    return matches[0]


def address(origin_struct: ConfStruct, trace) -> frozenset:
    """Replay a forward trace of (label, term-after-the-step) pairs in the structure."""
    x = frozenset()
    for lbl, after in trace:
        x = x | {_fired(origin_struct, x, lbl, after)}
    return x


def encode_rccs(t: RTerm) -> Address:
    """Address of a coherent reversible term.

    The origin must be collapsed and free of autoconflict and
    autoconcurrency, the conditions under which addresses are unique.
    """
    states, labels = trace_to_origin(t)
    # normalize the origin: undoing a step restores the fired branch
    # leftmost and re-seats hoisted restrictions, so congruent states would
    # otherwise disagree on event identities
    origin_p = _sorted_process(push_restrictions(erase(states[0])))
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


def _addresses(graph) -> tuple[ConfStruct, dict]:
    """The origin's structure and each node's configuration in it.  The first
    node, the origin, is addressed by ``encode_rccs``; the first edge into any
    other adds one ``_fired`` event to its source's configuration."""
    first = next(iter(graph.nodes))
    origin = encode_rccs(graph.nodes[first])
    configs = {first: origin.config}
    for src, lbl, dst in graph.edges:
        if dst not in configs:
            x = configs[src]
            configs[dst] = x | {_fired(origin.struct, x, lbl, graph.nodes[dst])}
    return origin.struct, configs


def check_operational_correspondence(t: RTerm,
                                     max_states: Optional[int] = 500
                                     ) -> CorrespondenceReport:
    """Check, over every reachable state, that forward steps match extension
    events and backward steps match retraction events, with equal labels.

    The states are ``reachable_states``' nodes; by the loop lemma every
    step of a coherent term lands on one, and ``_addresses`` addresses each
    once.  Over ``max_states`` of them the check fails with "state bound
    exceeded"; an incoherent term raises ``IncoherentTerm``."""
    report = CorrespondenceReport()
    try:
        graph = reachable_states(t, max_states)
    except IncoherentTerm:
        raise
    except ValueError:                  # the state bound
        report.fail("state bound exceeded")
        return report
    struct, configs = _addresses(graph)
    report.states_checked = len(graph.nodes)
    for key, cur in graph.nodes.items():
        x = configs[key]
        for word, steps, noun, events in (
                ("forward", forward_steps(cur, check=False), "extension",
                 struct.extensions(x)),
                ("backward", backward_steps(cur, check=False), "retraction",
                 struct.retractions(x))):
            used = set()
            for lbl, nxt in steps:
                target = configs.get(state_key(nxt))
                if target is None:
                    report.fail(f"{word} step {lbl} from {cur} leaves the "
                                f"reachable states")
                    continue
                # extensions lie outside x and retractions inside, so one
                # event of the right kind in the symmetric difference is a
                # step of the right direction
                delta = target ^ x
                e = next(iter(delta), None)
                if len(delta) != 1 or e not in events:
                    report.fail(f"{word} step {lbl} from {cur} has no "
                                f"matching event")
                    continue
                used.add(e)
                if struct.label(e) != lbl.action:
                    report.fail(f"{word} step {lbl} from {cur} hit label "
                                f"{struct.label(e)}")
            if set(events) - used:
                report.fail(f"unmatched {noun} events at {cur}: "
                            f"{sorted(map(repr, set(events) - used))}")
    return report
