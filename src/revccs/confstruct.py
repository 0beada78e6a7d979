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
    """Label of a product event pairing an event of each side."""

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


def bits(m: int) -> list:
    """The positions of the set bits of ``m``, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


class ConfIndex:
    """A structure with its events numbered and its configurations as ints.

    Event ``events[i]`` is bit i (``bit`` maps back), in ``repr`` order, so
    reading a mask from its lowest bit up visits events in the order
    ``extensions`` lists them.  ``exts`` and ``rets`` map each
    configuration's mask, in the family's iteration order, to its
    extensions and retractions as ascending tuples of bits, and ``depths``
    each event's least configuration size (None for an event in no
    configuration).  Cause masks and order sizes are computed on first use.
    """

    __slots__ = ("events", "bit", "exts", "rets", "depths", "max_card",
                 "_causes", "_sizes")

    def __init__(self, c: "ConfStruct"):
        self.events = tuple(sorted(c.events, key=repr))
        self.bit = {e: i for i, e in enumerate(self.events)}
        self.exts = {sum(1 << self.bit[e] for e in x): [] for x in c.configs}
        self.rets = {m: [] for m in self.exts}
        depths = [None] * len(self.events)
        for m in self.exts:
            size = m.bit_count()
            for i in bits(m):
                if m ^ 1 << i in self.exts:
                    self.exts[m ^ 1 << i].append(i)
                    self.rets[m].append(i)
                if depths[i] is None or size < depths[i]:
                    depths[i] = size
        for table in (self.exts, self.rets):
            for m, found in table.items():
                table[m] = tuple(sorted(found))
        self.depths = tuple(depths)
        self.max_card = max((m.bit_count() for m in self.exts), default=0)
        self._causes: dict = {}
        self._sizes: dict = {}

    def mask_of(self, x: frozenset) -> int:
        """The mask of the configuration ``x``."""
        bit = self.bit
        m = sum(1 << bit[e] for e in x if e in bit)
        if m not in self.exts or m.bit_count() != len(x):
            raise NotAConfiguration(f"{sorted(map(repr, x))} is not a configuration")
        return m

    def config(self, m: int) -> frozenset:
        """The configuration with mask ``m``."""
        return frozenset(self.events[i] for i in bits(m))

    def decode(self, positions) -> tuple:
        """The events at the given bit positions."""
        return tuple(self.events[i] for i in positions)

    def ordered(self) -> list:
        """The configuration masks by size, then by their events' ``repr``
        lists: bits are numbered in ``repr`` order, so comparing the bit
        positions compares those lists."""
        return sorted(self.exts, key=lambda m: (m.bit_count(), bits(m)))

    def causes(self, y: int, e: int) -> int:
        """The strict causes of event ``e`` in configuration ``y``, as a mask.

        By definition d lies below e in y when every sub-configuration of y
        holding e holds d.  On a stable structure that order restricts to
        sub-configurations: if w ⊆ y holds e, and a sub-configuration z of y
        holds e but not d, then so does z ∩ w, a configuration by stability
        (y bounds both).  So for any j ≠ e with w = y \\ {j} a configuration,
        e has the same causes in w as in y, and j is not among them.  With no
        such j, y is the only sub-configuration holding e (a covering chain
        from a smaller one would end by adding some j ≠ e), and every other
        event of y is a cause.  This recurrence assumes stability;
        ``validate`` keeps the definition, which catches unstable structures.
        """
        key = (y, e)
        found = self._causes.get(key)
        if found is None:
            j = next((j for j in self.rets[y] if j != e), None)
            if j is None:
                found = y & ~(1 << e)
            else:
                found = self.causes(y ^ 1 << j, e)
            self._causes[key] = found
        return found

    def order_size(self, y: int) -> int:
        """The number of strict cause pairs in configuration ``y``."""
        size = self._sizes.get(y)
        if size is None:
            size = self._sizes[y] = sum(self.causes(y, e).bit_count()
                                        for e in bits(y))
        return size


class ConfStruct:
    """Immutable labelled configuration structure.

    Data derived from the structure (extensions, retractions, depths,
    maximal size and causal order per configuration) comes from one
    integer index, ``index``: a ``ConfIndex`` built on first use and kept
    in the structure.  Events become bits and configurations masks; the
    methods and functions taking frozensets decode at the edge.
    """

    __slots__ = ("events", "configs", "_labels", "_hash", "_index")

    def __init__(self, events: Iterable, configs: Iterable, labels: dict):
        object.__setattr__(self, "events", frozenset(events))
        object.__setattr__(self, "configs", frozenset(frozenset(x) for x in configs))
        object.__setattr__(self, "_labels", dict(labels))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_index", None)
        missing = self.events - set(self._labels)
        if missing:
            raise ValueError(f"unlabelled events: {missing!r}")

    def __setattr__(self, name, value):
        raise AttributeError("ConfStruct is immutable")

    @property
    def index(self) -> ConfIndex:
        index = self._index
        if index is None:
            index = ConfIndex(self)
            object.__setattr__(self, "_index", index)
        return index

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

    def extensions(self, x: frozenset) -> tuple:
        """Events e with x ∪ {e} a configuration, for a configuration x,
        ordered by ``repr`` so that everything iterating them runs the same
        way in every process."""
        index = self.index
        return index.decode(index.exts[index.mask_of(x)])

    def retractions(self, x: frozenset) -> tuple:
        """Events e in the configuration x with x \\ {e} a configuration,
        ordered by ``repr``."""
        index = self.index
        return index.decode(index.rets[index.mask_of(x)])


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
    if c.configs and frozenset() not in c.configs:
        out.append(("empty-configuration", None))
    index = c.index
    bit = index.bit
    for m in index.exts:
        # finiteness: a finite z ∈ C with e ∈ z ⊆ x; x itself witnesses it
        # for finite families, so only coincidence-freeness can fail here:
        # e1 and e2 coincide iff each lies below the other, that is iff every
        # sub-configuration of x holds both or neither.  Bit k of held[i]
        # marks the k-th sub-configuration holding event i: the order is the
        # definitional one, since ConfIndex.causes assumes stability.
        held = dict.fromkeys(bits(m), 0)
        for k, z in enumerate(z for z in index.exts if not z & ~m):
            for i in bits(z):
                held[i] |= 1 << k
        if len(set(held.values())) < len(held):
            x = index.config(m)
            out.extend(("coincidence-freeness", (x, e1, e2))
                       for e1 in x for e2 in x
                       if held[bit[e1]] == held[bit[e2]] and repr(e1) < repr(e2))
    # every upper bound lies below a configuration with no extension (a
    # maximal one in particular); bit i of above[x] marks the i-th of those
    # that contains x, so x and y are bounded iff above[x] & above[y]
    tops = [z for z, ext in index.exts.items() if not ext]
    above = {x: sum(1 << i for i, z in enumerate(tops) if not x & ~z)
             for x in index.exts}
    config_list = sorted(index.exts, key=int.bit_count)
    for i, x in enumerate(config_list):
        for y in config_list[i:]:
            if x | y in index.exts:
                if x & y not in index.exts:
                    out.append(("stability", (index.config(x), index.config(y))))
            elif above[x] & above[y]:
                out.append(("finite-completeness",
                            (index.config(x), index.config(y))))
    return out


# ---------------------------------------------------------------------------
# Constructions

def product(c1: ConfStruct, c2: ConfStruct,
            pair_label: Callable = PairLabel) -> ProductResult:
    """Synchronous product, with its projections read off the event pairs.

    Events are ("x", e1, e2), e1 or e2 None when absent, a pair labelled by
    ``pair_label`` of the two labels; pairs it labels killed are left out.
    Events are numbered as they first appear, and a configuration is a mask
    over them grown from the empty one with its projection masks m1 and m2:
    its moves are e1 alone, e2 alone and their pair, for e1 in
    ``c1.index.exts[m1]`` and e2 in ``c2.index.exts[m2]``.  Growth by single
    events materializes exactly the events of some configuration.
    """
    i1, i2 = c1.index, c2.index
    pairs = [[pair_label(c1.label(e1), c2.label(e2)) for e2 in i2.events]
             for e1 in i1.events]
    number: dict = {}                   # (e1 bit, e2 bit) -> product bit
    tags, labels, configs = [], {}, {0: frozenset()}
    frontier = [(0, 0, 0)]
    while frontier:
        m, m1, m2 = frontier.pop()
        ext1, ext2 = i1.exts[m1], i2.exts[m2]
        for a, b in ([(a, None) for a in ext1] + [(None, b) for b in ext2]
                     + [(a, b) for a in ext1 for b in ext2
                        if pairs[a][b] is not KILLED]):
            k = number.get((a, b))
            if k is None:
                k = number[a, b] = len(tags)
                tag = ("x", None if a is None else i1.events[a],
                       None if b is None else i2.events[b])
                tags.append(tag)
                labels[tag] = (c2.label(tag[2]) if a is None else
                               c1.label(tag[1]) if b is None else pairs[a][b])
            n = m | 1 << k
            if n not in configs:
                configs[n] = configs[m] | {tags[k]}
                frontier.append((n, m1 if a is None else m1 | 1 << a,
                                 m2 if b is None else m2 | 1 << b))
    struct = ConfStruct(tags, configs.values(), labels)
    return ProductResult(struct, *(
        Morphism(struct, c, {e: e[i] for e in tags if e[i] is not None})
        for i, c in ((1, c1), (2, c2))))


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
    return getattr(label, "channel", None) == name    # killed: no channel


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
    """Tau for a pair of dual visible labels, killed for any other pair."""
    if not isinstance(label, PairLabel):
        return label
    left, right = label.left, label.right
    return TAU if not left.is_tau and right == left.dual() else KILLED


def parallel_full(c1: ConfStruct, c2: ConfStruct) -> ProductResult:
    return product(c1, c2, lambda l1, l2: _sync_label(PairLabel(l1, l2)))


def parallel(c1: ConfStruct, c2: ConfStruct) -> ConfStruct:
    """Product, synchronization relabelling, removal of killed events: the
    product grown with only the pairs of dual visible labels, as tau.  No
    configuration is lost: a killed-free one is reached through its own
    subsets.  No event is: a kept pair (e1, e2) lies in the configuration
    that grows left-only and right-only events up to configurations that e1
    and e2 extend, then adds the pair (a kept e1 or e2 alone likewise).
    """
    return parallel_full(c1, c2).struct


def residual(c: ConfStruct, x: frozenset) -> ConfStruct:
    """The structure of the futures of configuration ``x``."""
    x = frozenset(x)
    c.index.mask_of(x)                  # NotAConfiguration unless it is one
    configs = {y - x for y in c.configs if x <= y}
    events = set().union(*configs) if configs else set()
    return ConfStruct(events, configs, {e: c.label(e) for e in events})


def causal_order(c: ConfStruct, x: frozenset) -> frozenset:
    """The happens-before relation on ``x`` as a set of (cause, effect) pairs."""
    index = c.index
    y = index.mask_of(frozenset(x))
    return frozenset((index.events[d], index.events[e]) for e in bits(y)
                     for d in bits(index.causes(y, e) | 1 << e))


def strictly_below(order: frozenset, e1, e2) -> bool:
    return e1 != e2 and (e1, e2) in order


def transitions(c: ConfStruct, x: frozenset) -> set[tuple]:
    """Forward extensions and backward retractions of ``x``, as (event, dir);
    ``extensions`` raises ``NotAConfiguration`` when x is no configuration."""
    x = frozenset(x)
    return ({(e, "fwd") for e in c.extensions(x)}
            | {(e, "bwd") for e in c.retractions(x)})


def depth(c: ConfStruct, e) -> int:
    """Smallest cardinality of a configuration containing ``e``."""
    index = c.index
    found = index.depths[index.bit[e]]
    if found is None:
        raise ValueError(f"{e!r} is in no configuration")
    return found


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


# ---------------------------------------------------------------------------
# Serialization

def canonical_event_ids(c: ConfStruct) -> dict:
    """Deterministic event naming by (causal depth, label, provenance).

    Dead events (in no configuration, as restriction can leave) come last.
    """
    index, dead = c.index, len(c.events) + 1
    order = sorted(c.events, key=lambda e: (index.depths[index.bit[e]] or dead,
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
