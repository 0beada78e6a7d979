"""Labelled configuration structures and their constructions.

A structure is a finite event set, a family of configurations (subsets of
events reachable as states), and a labelling of events by actions.  Events
are opaque hashable tags carrying enough provenance to keep identities stable
across the constructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from .syntax import Action, TAU


class NotAConfiguration(ValueError):
    pass


@dataclass(frozen=True)
class PairLabel:
    """Transient product label before the synchronization relabelling."""

    left: Action
    right: Action

    def __str__(self) -> str:
        return f"({self.left},{self.right})"


@dataclass(frozen=True)
class Killed:
    """Label of product events removed by parallel composition."""

    def __str__(self) -> str:
        return "0"


KILLED = Killed()


class ConfStruct:
    """Immutable labelled configuration structure.

    Data derived from the structure (extensions and causal order per
    configuration) is computed on first use and kept in the structure.
    """

    __slots__ = ("events", "configs", "_labels", "_hash", "_exts", "_orders")

    def __init__(self, events: Iterable, configs: Iterable, labels: dict):
        object.__setattr__(self, "events", frozenset(events))
        object.__setattr__(self, "configs", frozenset(frozenset(x) for x in configs))
        object.__setattr__(self, "_labels", dict(labels))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_exts", {})
        object.__setattr__(self, "_orders", {})
        missing = self.events - set(self._labels)
        if missing:
            raise ValueError(f"unlabelled events: {missing!r}")

    def __setattr__(self, name, value):
        raise AttributeError("ConfStruct is immutable")

    def label(self, e) -> Action:
        return self._labels[e]

    @property
    def labels(self) -> dict:
        return dict(self._labels)

    def __eq__(self, other):
        if not isinstance(other, ConfStruct):
            return NotImplemented
        return (self.events == other.events and self.configs == other.configs
                and self._labels == other._labels)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.events, self.configs,
                      tuple(sorted(self._labels.items(), key=lambda kv: repr(kv[0])))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"ConfStruct({len(self.events)} events, {len(self.configs)} configs)"

    def max_card(self) -> int:
        return max((len(x) for x in self.configs), default=0)

    def extensions(self, x: frozenset) -> tuple:
        """Events e with x ∪ {e} a configuration, ordered by ``repr`` so
        that everything iterating them runs the same way in every process."""
        ext = self._exts.get(x)
        if ext is None:
            ext = self._exts[x] = tuple(sorted(
                (e for e in self.events if e not in x and (x | {e}) in self.configs),
                key=repr))
        return ext

    def retractions(self, x: frozenset):
        """Events e in x with x \\ {e} a configuration."""
        return [e for e in x if (x - {e}) in self.configs]


EMPTY = ConfStruct((), (frozenset(),), {})


@dataclass
class Morphism:
    """Partial event map between structures.

    Morphisms preserve configurations and labels and are locally injective
    on every configuration.
    """

    source: ConfStruct
    target: ConfStruct
    mapping: dict = field(default_factory=dict)

    def apply(self, x: frozenset) -> frozenset:
        return frozenset(self.mapping[e] for e in x if e in self.mapping)

    def violations(self) -> list[str]:
        out = []
        for x in self.source.configs:
            image = self.apply(x)
            if image not in self.target.configs:
                out.append(f"image of a configuration is not a configuration: {sorted(map(repr, x))}")
            defined = [e for e in x if e in self.mapping]
            if len({self.mapping[e] for e in defined}) != len(defined):
                out.append(f"not locally injective on {sorted(map(repr, x))}")
            for e in defined:
                src = self.source.label(e)
                tgt = self.target.label(self.mapping[e])
                # a projection resolves a synchronization pair (or the tau it
                # was relabelled to) to one of its two halves
                sync = ((isinstance(src, PairLabel)
                         and tgt in (src.left, src.right))
                        or (getattr(src, "is_tau", False)
                            and isinstance(e, tuple) and len(e) == 3
                            and e[0] == "x" and None not in e[1:]))
                if src != tgt and not sync:
                    out.append(f"label not preserved on {e!r}")
        return out

    def is_morphism(self) -> bool:
        return not self.violations()


class ProductResult(NamedTuple):
    struct: ConfStruct
    proj1: Morphism
    proj2: Morphism


# ---------------------------------------------------------------------------
# Axiom validation

def validate(c: ConfStruct) -> list[tuple[str, object]]:
    """Check the axioms; each violation names the axiom and a witness."""
    out: list[tuple[str, object]] = []
    configs = c.configs
    if configs and frozenset() not in configs:
        out.append(("empty-configuration", None))
    for x in configs:
        # finiteness: a finite z ∈ C with e ∈ z ⊆ x; x itself witnesses it
        # for finite families, so only coincidence-freeness can fail here:
        # e1 and e2 coincide iff each lies below the other
        order = causal_order(c, x)
        out.extend(("coincidence-freeness", (x, e1, e2)) for e1 in x for e2 in x
                   if (e1, e2) in order and (e2, e1) in order
                   and repr(e1) < repr(e2))
    # every upper bound lies below a configuration with no extension (a
    # maximal one in particular); bit i of above[x] marks the i-th of those
    # that contains x, so x and y are bounded iff above[x] & above[y]
    tops = [z for z in configs if not c.extensions(z)]
    above = {x: sum(1 << i for i, z in enumerate(tops) if x <= z) for x in configs}
    config_list = sorted(configs, key=len)
    for i, x in enumerate(config_list):
        for y in config_list[i:]:
            u = x | y
            if u in configs:
                if (x & y) not in configs:
                    out.append(("stability", (x, y)))
            elif above[x] & above[y]:
                out.append(("finite-completeness", (x, y)))
    return out


# ---------------------------------------------------------------------------
# Constructions

def product(c1: ConfStruct, c2: ConfStruct) -> ProductResult:
    """Synchronous product; events are pairs with an absent component allowed.

    Configurations are grown from the empty set by single-event extension,
    which materializes exactly the events occurring in some configuration.
    """
    def mk(e1, e2):
        return ("x", e1, e2)

    configs = {frozenset()}
    frontier = [frozenset()]
    labels: dict = {}
    while frontier:
        x = frontier.pop()
        x1 = frozenset(e[1] for e in x if e[1] is not None)
        x2 = frozenset(e[2] for e in x if e[2] is not None)
        ext1, ext2 = c1.extensions(x1), c2.extensions(x2)
        candidates = ([mk(e1, None) for e1 in ext1]
                      + [mk(None, e2) for e2 in ext2]
                      + [mk(e1, e2) for e1 in ext1 for e2 in ext2])
        for e in candidates:
            nxt = x | {e}
            if nxt not in configs:
                configs.add(nxt)
                frontier.append(nxt)
            if e not in labels:
                if e[1] is None:
                    labels[e] = c2.label(e[2])
                elif e[2] is None:
                    labels[e] = c1.label(e[1])
                else:
                    labels[e] = PairLabel(c1.label(e[1]), c2.label(e[2]))
    events = set().union(*configs) if configs else set()
    struct = ConfStruct(events, configs, {e: labels[e] for e in events})
    p1 = Morphism(struct, c1, {e: e[1] for e in events if e[1] is not None})
    p2 = Morphism(struct, c2, {e: e[2] for e in events if e[2] is not None})
    return ProductResult(struct, p1, p2)


def coproduct(c1: ConfStruct, c2: ConfStruct) -> ConfStruct:
    """Disjoint union: every non-empty configuration comes from one side."""
    events = {(1, e) for e in c1.events} | {(2, e) for e in c2.events}
    configs = ({frozenset((1, e) for e in x) for x in c1.configs}
               | {frozenset((2, e) for e in x) for x in c2.configs})
    labels = {(1, e): c1.label(e) for e in c1.events}
    labels.update({(2, e): c2.label(e) for e in c2.events})
    return ConfStruct(events, configs, labels)


def restrict_events(c: ConfStruct, keep: Iterable) -> ConfStruct:
    keep = frozenset(keep)
    events = c.events & keep
    configs = {x for x in c.configs if x <= keep}
    return ConfStruct(events, configs, {e: c.label(e) for e in events})


def _label_mentions(label, name: str) -> bool:
    if isinstance(label, PairLabel):
        return (_label_mentions(label.left, name) or _label_mentions(label.right, name))
    if isinstance(label, Killed):
        return False
    return label.channel == name


def restrict_name(c: ConfStruct, name: str) -> ConfStruct:
    """Drop every event whose visible label mentions ``name``."""
    keep = {e for e in c.events if not _label_mentions(c.label(e), name)}
    return restrict_events(c, keep)


def prefix(action: Action, c: ConfStruct) -> ConfStruct:
    """One fresh event below everything else."""
    n = 0
    while ("pre", n) in c.events:
        n += 1
    fresh = ("pre", n)
    configs = {frozenset()} | {x | {fresh} for x in c.configs}
    labels = c.labels
    labels[fresh] = action
    return ConfStruct(c.events | {fresh}, configs, labels)


def relabel(c: ConfStruct, f: Callable) -> ConfStruct:
    return ConfStruct(c.events, c.configs, {e: f(c.label(e)) for e in c.events})


def _sync_label(label):
    if isinstance(label, PairLabel):
        left, right = label.left, label.right
        if (not left.is_tau and not right.is_tau and right == left.dual()):
            return TAU
        return KILLED
    return label


def parallel_full(c1: ConfStruct, c2: ConfStruct) -> ProductResult:
    struct, p1, p2 = product(c1, c2)
    struct = relabel(struct, _sync_label)
    keep = {e for e in struct.events if not isinstance(struct.label(e), Killed)}
    struct = restrict_events(struct, keep)
    p1 = Morphism(struct, c1, {e: v for e, v in p1.mapping.items() if e in keep})
    p2 = Morphism(struct, c2, {e: v for e, v in p2.mapping.items() if e in keep})
    return ProductResult(struct, p1, p2)


def parallel(c1: ConfStruct, c2: ConfStruct) -> ConfStruct:
    """Product, synchronization relabelling, removal of killed events."""
    return parallel_full(c1, c2).struct


def residual(c: ConfStruct, x: frozenset) -> ConfStruct:
    """The structure of the futures of configuration ``x``."""
    x = frozenset(x)
    if x not in c.configs:
        raise NotAConfiguration(f"{sorted(map(repr, x))} is not a configuration")
    configs = {y - x for y in c.configs if x <= y}
    events = set().union(*configs) if configs else set()
    return ConfStruct(events, configs, {e: c.label(e) for e in events})


def causal_order(c: ConfStruct, x: frozenset) -> frozenset:
    """The happens-before relation on ``x`` as a set of (cause, effect) pairs."""
    x = frozenset(x)
    order = c._orders.get(x)
    if order is None:
        if x not in c.configs:
            raise NotAConfiguration(f"{sorted(map(repr, x))} is not a configuration")
        subs = [z for z in c.configs if z <= x]
        order = c._orders[x] = frozenset(
            (e1, e2) for e1 in x for e2 in x
            if all(e1 in z for z in subs if e2 in z))
    return order


def strictly_below(order: frozenset, e1, e2) -> bool:
    return e1 != e2 and (e1, e2) in order


def transitions(c: ConfStruct, x: frozenset) -> set[tuple]:
    """Forward extensions and backward retractions of ``x``, as (event, dir)."""
    x = frozenset(x)
    if x not in c.configs:
        raise NotAConfiguration(f"{sorted(map(repr, x))} is not a configuration")
    return ({(e, "fwd") for e in c.extensions(x)}
            | {(e, "bwd") for e in c.retractions(x)})


def minimal_events(c: ConfStruct) -> frozenset:
    return frozenset(e for e in c.events if frozenset((e,)) in c.configs)


def depth(c: ConfStruct, e) -> int:
    """Smallest cardinality of a configuration containing ``e``."""
    return min(len(x) for x in c.configs if e in x)


# ---------------------------------------------------------------------------
# Embeddings and isomorphism, up to event-identity alignment

def prune(c: ConfStruct) -> ConfStruct:
    """Drop events occurring in no configuration.

    Restriction can leave events whose every configuration died with a
    removed cause; they carry no behaviour, and comparisons ignore them.
    """
    live = frozenset(e for x in c.configs for e in x)
    if live == c.events:
        return c
    return restrict_events(c, live)


def embeds(c1: ConfStruct, c2: ConfStruct) -> dict | None:
    """An injective label-preserving event map sending C1 into C2, or None.

    Dead events are pruned on both sides first.
    """
    c1, c2 = prune(c1), prune(c2)
    if len(c1.events) > len(c2.events) or len(c1.configs) > len(c2.configs):
        return None
    return _embed_search(c1, c2, require_onto=False)


def isomorphic(c1: ConfStruct, c2: ConfStruct) -> bool:
    """Label-preserving bijection between events mapping C1 exactly onto C2.

    Dead events are pruned on both sides first.
    """
    c1, c2 = prune(c1), prune(c2)
    if (len(c1.events) != len(c2.events) or len(c1.configs) != len(c2.configs)):
        return False
    return _embed_search(c1, c2, require_onto=True) is not None


def _embed_search(c1: ConfStruct, c2: ConfStruct, require_onto: bool) -> dict | None:
    order = sorted(c1.events, key=lambda e: (depth(c1, e), repr(e)))
    by_event = {e: [x for x in c1.configs if e in x] for e in order}
    candidates = {
        e: [f for f in c2.events
            if c2.label(f) == c1.label(e)
            and (not require_onto or depth(c2, f) == depth(c1, e))]
        for e in order
    }
    if any(not cs for cs in candidates.values()):
        return None if order else (_check_empty(c1, c2, require_onto))
    mapping: dict = {}
    used: set = set()

    def consistent(e) -> bool:
        for x in by_event[e]:
            if all(ev in mapping for ev in x):
                if frozenset(mapping[ev] for ev in x) not in c2.configs:
                    return False
        return True

    def rec(i: int):
        if i == len(order):
            if require_onto:
                image = {frozenset(mapping[ev] for ev in x) for x in c1.configs}
                if image != c2.configs:
                    return None
            return dict(mapping)
        e = order[i]
        for f in candidates[e]:
            if f in used:
                continue
            mapping[e] = f
            used.add(f)
            if consistent(e):
                res = rec(i + 1)
                if res is not None:
                    return res
            del mapping[e]
            used.discard(f)
        return None

    return rec(0)


def _check_empty(c1, c2, require_onto):
    if require_onto:
        return {} if c1.configs == c2.configs else None
    return {} if c1.configs <= c2.configs else None


def is_substructure(c1: ConfStruct, c2: ConfStruct, align: dict | None = None) -> bool:
    """Substructure check, literally or through a supplied event alignment."""
    if align is not None:
        mapped_events = {align.get(e, e) for e in c1.events}
        if len(mapped_events) != len(c1.events) or not mapped_events <= c2.events:
            return False
        if any(c1.label(e) != c2.label(align.get(e, e)) for e in c1.events):
            return False
        mapped_configs = {frozenset(align.get(e, e) for e in x) for x in c1.configs}
        return mapped_configs <= c2.configs
    if c1.events <= c2.events:
        if (c1.configs <= c2.configs
                and all(c1.label(e) == c2.label(e) for e in c1.events)):
            return True
    return embeds(c1, c2) is not None


# ---------------------------------------------------------------------------
# Serialization

def canonical_event_ids(c: ConfStruct) -> dict:
    """Deterministic event naming by (causal depth, label, provenance).

    Dead events (in no configuration, as restriction can leave) come last.
    """
    depths: dict = {}
    for x in sorted(c.configs, key=len):
        for e in x:
            depths.setdefault(e, len(x))
    order = sorted(c.events, key=lambda e: (depths.get(e, len(c.events) + 1),
                                            str(c.label(e)), repr(e)))
    return {e: f"e{i}" for i, e in enumerate(order)}


def to_json(c: ConfStruct) -> dict:
    ids = canonical_event_ids(c)
    events = [{"id": ids[e], "label": str(c.label(e))}
              for e in sorted(c.events, key=lambda e: ids[e])]
    configs = sorted((sorted(ids[e] for e in x) for x in c.configs),
                     key=lambda xs: (len(xs), xs))
    return {"events": events, "configurations": configs}


def from_json(data: dict) -> ConfStruct:
    from .syntax import inp, out

    def parse_label(s: str) -> Action:
        if s == "tau":
            return TAU
        if s.startswith("'"):
            return out(s[1:])
        return inp(s)

    labels = {ev["id"]: parse_label(ev["label"]) for ev in data["events"]}
    configs = [frozenset(x) for x in data["configurations"]]
    return ConfStruct(labels.keys(), configs, labels)


def to_dot(c: ConfStruct) -> str:
    """Hasse diagram of the configuration family, covering edges labelled."""
    ids = canonical_event_ids(c)
    def node_name(x):
        return "c_" + "_".join(sorted(ids[e] for e in x)) if x else "c_empty"
    def node_label(x):
        return "{" + ",".join(sorted(ids[e] for e in x)) + "}" if x else "∅"
    lines = ["digraph confstruct {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for x in sorted(c.configs, key=lambda x: (len(x), sorted(ids[e] for e in x))):
        lines.append(f'  {node_name(x)} [label="{node_label(x)}"];')
    for x in sorted(c.configs, key=lambda x: (len(x), sorted(ids[e] for e in x))):
        for e in c.extensions(x):
            lines.append(
                f'  {node_name(x)} -> {node_name(x | {e})} [label="{c.label(e)}"];')
    lines.append("}")
    return "\n".join(lines)
