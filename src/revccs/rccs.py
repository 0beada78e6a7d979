"""Reversible CCS terms and their forward and backward semantics.

A monitored process carries a memory stack recording, youngest entry first,
what it did: fork markers for splits over parallel composition and past
entries storing the transition id, the action taken and the sum branches
discarded.  Backward transitions consume memory; forward transitions grow it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .syntax import (Action, Nil, NIL, Par, Prefix, Process, Record, Restrict,
                     Sum, TAU, all_names, free_names, fresh_name,
                     push_restrictions, rename_free, summands, sum_of, unparse)


class IncoherentTerm(ValueError):
    """The memories of the term do not describe a consistent past."""


# ---------------------------------------------------------------------------
# Terms

class Fork(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "<>"


FORK = Fork()


class Past(Record):
    """Record of one executed prefix: id, action, discarded sum branches."""

    __slots__ = ("ident", "action", "rest")

    def __str__(self) -> str:
        return f"<{self.ident},{self.action},{unparse(self.rest)}>"


Memory = tuple


class Monitored(Record):
    __slots__ = ("memory", "process")

    def __str__(self) -> str:
        mem = ".".join(str(e) for e in self.memory) or "{}"
        return f"{mem} |> {unparse(self.process)}"


class RPar(Record):
    __slots__ = ("left", "right")

    def __str__(self) -> str:
        return f"({self.left}) | ({self.right})"


class RRestrict(Record):
    __slots__ = ("name", "body")

    def __str__(self) -> str:
        return f"({self.name})({self.body})"


RTerm = Monitored | RPar | RRestrict


class TransitionLabel(Record, defaults={"reverse": False}):
    __slots__ = ("ident", "action", "reverse")

    def __str__(self) -> str:
        return f"{self.ident}:{self.action}" + ("*" if self.reverse else "")


def lift(p: Process) -> Monitored:
    return Monitored((), p)


def erase(t: RTerm) -> Process:
    if isinstance(t, Monitored):
        return t.process
    if isinstance(t, RPar):
        return Par(erase(t.left), erase(t.right))
    return Restrict(t.name, erase(t.body))


def ids(t: RTerm) -> frozenset:
    if isinstance(t, Monitored):
        return frozenset(e.ident for e in t.memory if isinstance(e, Past))
    if isinstance(t, RPar):
        return ids(t.left) | ids(t.right)
    return ids(t.body)


def memory_names(m: Memory) -> set[str]:
    out: set[str] = set()
    for e in m:
        if isinstance(e, Past):
            if not e.action.is_tau:
                out.add(e.action.channel)
            out |= all_names(e.rest)
    return out


# ---------------------------------------------------------------------------
# Structural normal form: memories distributed over parallel composition,
# restrictions hoisted out of monitored processes.

def normalize(t: RTerm) -> RTerm:
    if isinstance(t, Monitored):
        p = t.process
        if isinstance(p, Par):
            mem = (FORK,) + t.memory
            return RPar(normalize(Monitored(mem, p.left)),
                        normalize(Monitored(mem, p.right)))
        if isinstance(p, Restrict):
            name, body = p.name, p.body
            taken = memory_names(t.memory)
            if name in taken:
                fresh = fresh_name(name, taken | all_names(body))
                body = rename_free(body, name, fresh)
                name = fresh
            return RRestrict(name, normalize(Monitored(t.memory, body)))
        return t
    if isinstance(t, RPar):
        return RPar(normalize(t.left), normalize(t.right))
    return RRestrict(t.name, normalize(t.body))


def refold(t: RTerm) -> RTerm:
    """Inverse of memory distribution, applied as far as possible."""
    if isinstance(t, RPar):
        left, right = refold(t.left), refold(t.right)
        if (isinstance(left, Monitored) and isinstance(right, Monitored)
                and left.memory and right.memory
                and isinstance(left.memory[0], Fork)
                and isinstance(right.memory[0], Fork)
                and left.memory[1:] == right.memory[1:]):
            return Monitored(left.memory[1:], Par(left.process, right.process))
        return RPar(left, right)
    if isinstance(t, RRestrict):
        body = refold(t.body)
        if isinstance(body, Monitored) and t.name not in memory_names(body.memory):
            return Monitored(body.memory, Restrict(t.name, body.process))
        return RRestrict(t.name, body)
    return t


# ---------------------------------------------------------------------------
# Canonical keys.  Sum branches are sorted, restriction binders are indexed
# by their nesting depth (de Bruijn levels, so a subterm's key does not
# depend on its siblings) and transition ids are renamed by first
# occurrence, so keys identify terms up to those inessential presentation
# choices.
# Restriction placement is normalized by sinking binders as deep as they go:
# undoing a step can re-seat a binder under the restored prefix, so keys
# must not depend on where congruent placements put it.


def _rfree(t: RTerm) -> set[str]:
    """Free names of a reversible term, memories included."""
    if isinstance(t, Monitored):
        return set(free_names(t.process)) | memory_names(t.memory)
    if isinstance(t, RPar):
        return _rfree(t.left) | _rfree(t.right)
    return _rfree(t.body) - {t.name}


def _sink_restrict(name: str, body: RTerm) -> RTerm:
    if name not in _rfree(body):
        return body
    if isinstance(body, RPar):
        if name not in _rfree(body.left):
            return RPar(body.left, _sink_restrict(name, body.right))
        if name not in _rfree(body.right):
            return RPar(_sink_restrict(name, body.left), body.right)
    if isinstance(body, Monitored) and name not in memory_names(body.memory):
        return Monitored(body.memory,
                         push_restrictions(Restrict(name, body.process)))
    return RRestrict(name, body)


def _placement(t: RTerm) -> RTerm:
    """Restriction-placement normal form of a reversible term."""
    if isinstance(t, Monitored):
        mem = tuple(Past(e.ident, e.action, push_restrictions(e.rest))
                    if isinstance(e, Past) else e for e in t.memory)
        return Monitored(mem, push_restrictions(t.process))
    if isinstance(t, RPar):
        return RPar(_placement(t.left), _placement(t.right))
    return _sink_restrict(t.name, _placement(t.body))

def _action_key(a: Action, env: dict):
    if a.is_tau:
        return ("tau",)
    chan = ("bound", env[a.channel]) if a.channel in env else ("free", a.channel)
    return (a.kind, chan)


def _process_key(p: Process, env: dict, depth: int, canon_par: bool):
    if isinstance(p, Nil):
        return ("nil",)
    if isinstance(p, Prefix):
        return ("pre", _action_key(p.action, env),
                _process_key(p.body, env, depth, canon_par))
    if isinstance(p, Sum):
        keys = [_process_key(b, env, depth, canon_par) for b in summands(p)]
        return ("sum", tuple(sorted(keys, key=repr)))
    if isinstance(p, Par):
        left = _process_key(p.left, env, depth, canon_par)
        right = _process_key(p.right, env, depth, canon_par)
        if canon_par:
            parts = []
            for k in (left, right):
                parts.extend(k[1] if k[0] == "par" else ((k,) if k != ("nil",) else ()))
            if not parts:
                return ("nil",)
            if len(parts) == 1:
                return parts[0]
            return ("par", tuple(sorted(parts, key=repr)))
        return ("par", (left, right))
    if isinstance(p, Restrict):
        return ("res", _process_key(p.body, {**env, p.name: depth}, depth + 1,
                                    canon_par))
    raise TypeError(f"not a process: {p!r}")


def _term_key(t: RTerm, env: dict, depth: int, id_map: dict):
    if isinstance(t, Monitored):
        mem = []
        for e in t.memory:
            if isinstance(e, Fork):
                mem.append(("fork",))
            else:
                if e.ident not in id_map:
                    id_map[e.ident] = len(id_map)
                mem.append(("past", id_map[e.ident], _action_key(e.action, env),
                            _process_key(e.rest, env, depth, False)))
        return ("mon", tuple(mem), _process_key(t.process, env, depth, False))
    if isinstance(t, RPar):
        return ("rpar", _term_key(t.left, env, depth, id_map),
                _term_key(t.right, env, depth, id_map))
    return ("rres", _term_key(t.body, {**env, t.name: depth}, depth + 1, id_map))


def state_key(t: RTerm):
    """Canonical key of a reversible term, stable under renaming of ids and
    restricted names, reordering of sum branches and restriction placement."""
    return _term_key(_placement(normalize(t)), {}, 0, {})


def _sorted_process(p: Process) -> Process:
    if isinstance(p, Nil):
        return p
    if isinstance(p, Prefix):
        return Prefix(p.action, _sorted_process(p.body))
    if isinstance(p, Sum):
        branches = [Prefix(b.action, _sorted_process(b.body)) for b in summands(p)]
        return sum_of(sorted(branches, key=lambda b: repr(_process_key(b, {}, 0, False))))
    if isinstance(p, Par):
        return Par(_sorted_process(p.left), _sorted_process(p.right))
    return Restrict(p.name, _sorted_process(p.body))


def ccs_state_key(p: Process):
    """Canonical key of a plain process, additionally flattening parallel
    composition into a sorted multiset and dropping inert components."""
    return _process_key(push_restrictions(p), {}, 0, True)


# ---------------------------------------------------------------------------
# Forward transitions

def _branches(p: Process):
    """Fireable prefixes of a sum or prefix, with the discarded remainder."""
    if isinstance(p, Prefix):
        return [(p.action, p.body, NIL)]
    if isinstance(p, Sum):
        out = []
        subs = summands(p)
        for k, b in enumerate(subs):
            assert isinstance(b, Prefix)
            rest = subs[:k] + subs[k + 1:]
            out.append((b.action, b.body, sum_of(rest) if rest else NIL))
        return out
    return []


def _forward_moves(t: RTerm, i: int):
    """Moves as (action, resulting term), the step taking the fresh id ``i``."""
    if isinstance(t, Monitored):
        return [(a, Monitored((Past(i, a, rest),) + t.memory, body))
                for a, body, rest in _branches(t.process)]
    if isinstance(t, RPar):
        lmoves = _forward_moves(t.left, i)
        rmoves = _forward_moves(t.right, i)
        out = [(a, RPar(l2, t.right)) for a, l2 in lmoves]
        out += [(a, RPar(t.left, r2)) for a, r2 in rmoves]
        for a, l2 in lmoves:
            if a.is_tau:
                continue
            for b, r2 in rmoves:
                if b == a.dual():
                    out.append((TAU, RPar(l2, r2)))
        return out
    return [(a, RRestrict(t.name, b2)) for a, b2 in _forward_moves(t.body, i)
            if a.is_tau or a.channel != t.name]


def forward_steps(t: RTerm, check: bool = True) -> list[tuple[TransitionLabel, RTerm]]:
    t = normalize(t)
    if check and not is_coherent(t):
        raise IncoherentTerm(str(t))
    used = ids(t)
    fresh = 1
    while fresh in used:
        fresh += 1
    return [(TransitionLabel(fresh, a, False), normalize(t2))
            for a, t2 in _forward_moves(t, fresh)]


# ---------------------------------------------------------------------------
# Backward transitions

def _backward_moves(t: RTerm):
    """Moves as (id, action, resulting term)."""
    t = refold(t)
    if isinstance(t, Monitored):
        if t.memory and isinstance(t.memory[0], Past):
            e = t.memory[0]
            restored = Prefix(e.action, t.process)
            if not isinstance(e.rest, Nil):
                restored = Sum(restored, e.rest)
            return [(e.ident, e.action, Monitored(t.memory[1:], restored))]
        return []
    if isinstance(t, RPar):
        lmoves = _backward_moves(t.left)
        rmoves = _backward_moves(t.right)
        lids, rids = ids(t.left), ids(t.right)
        out = [(i, a, RPar(l2, t.right)) for i, a, l2 in lmoves if i not in rids]
        out += [(i, a, RPar(t.left, r2)) for i, a, r2 in rmoves if i not in lids]
        for i, a, l2 in lmoves:
            for j, b, r2 in rmoves:
                if i == j and not a.is_tau and b == a.dual():
                    out.append((i, TAU, RPar(l2, r2)))
        return out
    return [(i, a, RRestrict(t.name, b2))
            for i, a, b2 in _backward_moves(t.body)
            if a.is_tau or a.channel != t.name]


def backward_steps(t: RTerm, check: bool = True) -> list[tuple[TransitionLabel, RTerm]]:
    t = normalize(t)
    if check and not is_coherent(t):
        raise IncoherentTerm(str(t))
    return [(TransitionLabel(i, a, True), normalize(t2))
            for i, a, t2 in _backward_moves(t)]


# ---------------------------------------------------------------------------
# Coherence, origin and traces

def _is_lift_form(t: RTerm) -> bool:
    return state_key(t) == state_key(lift(erase(t)))


def is_coherent(t: RTerm) -> bool:
    """A term is coherent when its whole past can be undone: every maximal
    backward path ends in the lift of a plain process."""
    t = normalize(t)
    seen = {state_key(t)}
    frontier = [t]
    while frontier:
        cur = frontier.pop()
        moves = _backward_moves(normalize(cur))
        if not moves and not _is_lift_form(cur):
            return False
        for _i, _a, nxt in moves:
            k = state_key(nxt)
            if k not in seen:
                seen.add(k)
                frontier.append(nxt)
    return True


def trace_to_origin(t: RTerm) -> tuple[list[RTerm], list[TransitionLabel]]:
    """States and forward labels of one execution from the origin to ``t``.

    Backtracking is confluent, so any maximal backward path works; the first
    available move is taken greedily and the path reversed.
    """
    t = normalize(t)
    if not is_coherent(t):
        raise IncoherentTerm(str(t))
    states = [t]
    labels: list[TransitionLabel] = []
    cur = t
    while True:
        moves = _backward_moves(cur)
        if not moves:
            break
        i, a, nxt = moves[0]
        nxt = normalize(nxt)
        labels.append(TransitionLabel(i, a, False))
        states.append(nxt)
        cur = nxt
    return list(reversed(states)), list(reversed(labels))


def origin(t: RTerm) -> Process:
    """The plain process the term started from."""
    states, _ = trace_to_origin(t)
    return erase(states[0])


def barbs(t: RTerm) -> frozenset:
    """Visible actions immediately available in the forward direction."""
    return frozenset(lbl.action for lbl, _ in forward_steps(t)
                     if not lbl.action.is_tau)


# ---------------------------------------------------------------------------
# Reachable state graph

class StateGraph(NamedTuple):
    nodes: dict           # state key -> representative term
    edges: list           # (source key, label, target key), forward only
    initial: object       # key of the starting term

    def to_dot(self) -> str:
        names = {k: f"s{n}" for n, k in enumerate(self.nodes)}
        lines = ["digraph states {", "  node [shape=box];"]
        for k, t in self.nodes.items():
            shape = ' penwidth=2' if k == self.initial else ""
            lines.append(f'  {names[k]} [label="{t}"{shape}];')
        for src, lbl, dst in self.edges:
            lines.append(f'  {names[src]} -> {names[dst]} [label="{lbl}"];')
        lines.append("}")
        return "\n".join(lines)


def reachable_states(t: RTerm, max_states: Optional[int] = None) -> StateGraph:
    """All states reachable by forward and backward moves, keyed canonically.

    By the loop lemma these are exactly the states the origin reaches by
    forward moves, so only those are explored, the origin first.  Edges are
    recorded forward only, a node's after the first edge into it; every
    edge can also be traversed backward.
    More than ``max_states`` states raise ``ValueError``.
    """
    t = normalize(t)
    start = trace_to_origin(t)[0][0]
    nodes = {state_key(start): start}
    edges = []
    edge_seen = set()
    frontier = list(nodes.items())
    while frontier:
        if max_states is not None and len(nodes) > max_states:
            raise ValueError("state bound exceeded")
        ck, cur = frontier.pop()
        for lbl, nxt in forward_steps(cur, check=False):
            nk = state_key(nxt)
            if nk not in nodes:
                nodes[nk] = nxt
                frontier.append((nk, nxt))
            ek = (ck, (lbl.action.kind, lbl.action.channel), nk)
            if ek not in edge_seen:
                edge_seen.add(ek)
                edges.append((ck, lbl, nk))
    init = state_key(t)
    nodes[init] = t
    return StateGraph(nodes, edges, init)

