"""Labelled configuration structures and their constructions.

A structure is a finite event set, a family of configurations (subsets of
events reachable as states), and a labelling of events by actions.  Events
are opaque hashable tags carrying enough provenance to keep identities stable
across the constructions.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable, NamedTuple

from .syntax import Action, Record, TAU


class NotAConfiguration(ValueError):
    pass


class PairLabel(Record):
    """Label of a product event pairing an event of each side."""

    __slots__ = ("left", "right")

    def __str__(self) -> str:
        return f"({self.left},{self.right})"


class Killed(Record):
    """Label of product events removed by parallel composition."""

    __slots__ = ()

    def __str__(self) -> str:
        return "0"


KILLED = Killed()


class SyncEvent(tuple):
    """Tag ("x", e1, e2) of a product event pairing an event of each side.
    Its ``repr``, hash and equality are the plain tuple's, so events order
    and compare as they would untyped."""

    __slots__ = ()


def bits(m: int) -> list:
    """The positions of the set bits of ``m``, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


_set = object.__setattr__      # past the structure's frozen ``__setattr__``


def _kept(derive: Callable) -> property:
    """A property computing ``derive(self)`` on first read and keeping it in
    the slot named for it with a leading underscore."""
    slot = "_" + derive.__name__

    def read(self):
        value = getattr(self, slot)
        if value is None:
            value = derive(self)
            _set(self, slot, value)
        return value
    return property(read, doc=derive.__doc__)


class ConfStruct:
    """Immutable labelled configuration structure, its events numbered and
    its configurations held as ints.

    Event ``tags[i]`` is bit i, in ``repr`` order (``bit`` maps back), and
    ``tag_labels[i]`` is its label: reading a mask from its lowest bit up
    visits events in the order ``extensions`` lists them.  ``exts`` maps
    each configuration's mask to its extensions as an ascending tuple of
    bits; it iterates in the order the structure was built, and
    ``ordered()`` gives the canonical order.  These three fields are all a
    structure is given: a structure given an explicit family of frozensets
    numbers it on construction, and the constructions derive ``exts`` from
    their operands' (see ``product``, ``coproduct``, ``prefix`` and
    ``restricted``).  Everything else follows from them and is computed on
    first read: the family ``configs``, the retractions ``rets`` (laid out
    as ``exts``), each event's least configuration size ``depths`` and the
    largest one ``max_card``, and each event's histories ``histories``,
    which ``causes`` reads cause masks from.  Equality and hashing read the
    numbering: equal structures number events alike.
    """

    __slots__ = ("tags", "tag_labels", "exts", "_bit", "_events", "_configs",
                 "_rets", "_depths", "_max_card", "_histories", "_hash")

    def __init__(self, events: Iterable, configs: Iterable, labels: dict):
        events = frozenset(events)
        missing = events - set(labels)
        if missing:
            raise ValueError(f"unlabelled events: {missing!r}")
        configs = [frozenset(x) for x in configs]
        stray = frozenset().union(*configs) - events
        if stray:
            raise ValueError(f"configurations name unknown events: {stray!r}")
        tags = tuple(sorted(events, key=repr))
        bit = {e: i for i, e in enumerate(tags)}
        exts = {sum(1 << bit[e] for e in x): [] for x in configs}
        for m in exts:
            for i in bits(m):
                if m ^ 1 << i in exts:
                    exts[m ^ 1 << i].append(i)
        for m, found in exts.items():
            exts[m] = tuple(sorted(found))
        self._fill(tags, tuple(labels[e] for e in tags), exts)

    def _fill(self, tags, tag_labels, exts):
        # in slot order; the derived fields start unset
        for name, value in zip(self.__slots__, (tags, tag_labels, exts) + (None,) * 8):
            _set(self, name, value)

    @classmethod
    def _built(cls, tags: tuple, tag_labels: tuple, exts: dict) -> "ConfStruct":
        """The structure a construction derived, its fields given."""
        c = object.__new__(cls)
        c._fill(tags, tag_labels, exts)
        return c

    def __setattr__(self, name, value):
        raise AttributeError("ConfStruct is immutable")

    @_kept
    def bit(self) -> dict:
        return {e: i for i, e in enumerate(self.tags)}

    @_kept
    def events(self) -> frozenset:
        return frozenset(self.tags)

    @_kept
    def configs(self) -> frozenset:
        return frozenset(map(self.config, self.exts))

    @_kept
    def rets(self) -> dict:
        """Each configuration's retractions, the events e of it whose
        removal leaves a configuration, as an ascending tuple of bits: the
        extensions turned round.  Walking the masks from the highest down
        meets the masks n ^ 1 << i below n with i ascending."""
        exts = self.exts
        rets = {m: [] for m in exts}
        for m in sorted(exts, reverse=True):
            for i in exts[m]:
                rets[m | 1 << i].append(i)
        return {m: tuple(back) for m, back in rets.items()}

    @_kept
    def depths(self) -> tuple:
        """Each event's least configuration size, None for an event in no
        configuration: the size of the first configuration holding it, the
        configurations taken by size."""
        depths = [None] * len(self.tags)
        seen = 0
        for m in sorted(self.exts, key=int.bit_count):
            for i in bits(m & ~seen):
                depths[i] = m.bit_count()
            seen |= m
        return tuple(depths)

    @_kept
    def max_card(self) -> int:
        """The largest configuration size."""
        return max(map(int.bit_count, self.exts), default=0)

    @_kept
    def histories(self) -> tuple:
        """Each event's histories, the configurations whose only retraction
        it is, as a tuple of masks per bit."""
        found = [[] for _ in self.tags]
        for m, back in self.rets.items():
            if len(back) == 1:
                found[back[0]].append(m)
        return tuple(map(tuple, found))

    def label(self, e) -> Action:
        return self.tag_labels[self.bit[e]]

    @property
    def labels(self) -> dict:
        return dict(zip(self.tags, self.tag_labels))

    def __eq__(self, other):
        if not isinstance(other, ConfStruct):
            return NotImplemented
        return (self.tags == other.tags and self.tag_labels == other.tag_labels
                and self.exts.keys() == other.exts.keys())

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.tags, frozenset(self.exts), self.tag_labels))
            _set(self, "_hash", h)
        return h

    def __repr__(self):
        return f"ConfStruct({len(self.tags)} events, {len(self.exts)} configs)"

    def extensions(self, x: frozenset) -> tuple:
        """Events e with x ∪ {e} a configuration, for a configuration x,
        ordered by ``repr`` so that everything iterating them runs the same
        way in every process."""
        return self.decode(self.exts[self.mask_of(x)])

    def retractions(self, x: frozenset) -> tuple:
        """Events e in the configuration x with x \\ {e} a configuration,
        ordered by ``repr``."""
        return self.decode(self.rets[self.mask_of(x)])

    def restricted(self, keep: int) -> "ConfStruct":
        """The structure restricted to the events of the mask ``keep``, its
        events renumbered in order: the configurations within ``keep``,
        with the extensions they keep."""
        n = len(self.tags)
        if keep == (1 << n) - 1:
            return self
        drop = [i for i in reversed(range(n)) if not keep >> i & 1]
        new = [(keep & (1 << i) - 1).bit_count() for i in range(n)]
        exts = {}
        for m, ext in self.exts.items():
            if m & ~keep:
                continue
            k = m
            for j in drop:                  # from the top, so lower bits stay put
                k = k & (1 << j) - 1 | k >> j + 1 << j
            exts[k] = tuple(new[b] for b in ext if keep >> b & 1)
        kept = [i for i in range(n) if keep >> i & 1]
        return ConfStruct._built(
            tuple(self.tags[i] for i in kept), tuple(self.tag_labels[i] for i in kept),
            exts)

    def mask_of(self, x: frozenset) -> int:
        """The mask of the configuration ``x``."""
        bit = self.bit
        m = sum(1 << bit[e] for e in x if e in bit)
        if m not in self.exts or m.bit_count() != len(x):
            raise NotAConfiguration(f"{sorted(map(repr, x))} is not a configuration")
        return m

    def config(self, m: int) -> frozenset:
        """The configuration with mask ``m``."""
        return frozenset(self.tags[i] for i in bits(m))

    def decode(self, positions) -> tuple:
        """The events at the given bit positions."""
        return tuple(self.tags[i] for i in positions)

    def ordered(self) -> list:
        """The configuration masks by size, then by their events' ``repr``
        lists: bits are numbered in ``repr`` order, so comparing the bit
        positions compares those lists."""
        return sorted(self.exts, key=lambda m: (m.bit_count(), bits(m)))

    def causes(self, y: int, e: int) -> int:
        """The strict causes of event ``e`` in configuration ``y``, as a mask:
        e's one history inside y, without e.

        By definition d lies below e in y when every sub-configuration of y
        holding e holds d.  On a stable structure those sub-configurations
        have a least one z, their intersection (y bounds any two), so the
        causes are z without e.  z is a history of e: removing a retraction
        j ≠ e would leave a smaller one holding e.  It is e's only history
        inside y: two would meet in a smaller configuration holding e, and a
        covering chain from there up to the larger would end by adding some
        j ≠ e, another retraction of it.  This assumes stability; ``validate``
        keeps the definition, which catches unstable structures.  Only a
        structure it rejects can have no history of e inside y; the answer
        there is y without e.
        """
        for h in (self._histories or self.histories)[e]:
            if not h & ~y:
                return h ^ 1 << e
        return y & ~(1 << e)


EMPTY = ConfStruct((), (frozenset(),), {})


class Morphism(Record, frozen=False, factories={"mapping": dict}):
    """Partial event map between structures.

    Morphisms preserve configurations and labels and are locally injective
    on every configuration.
    """

    __slots__ = ("source", "target", "mapping")

    def apply(self, x: frozenset) -> frozenset:
        return frozenset(self.mapping[e] for e in x if e in self.mapping)


class ProductResult(NamedTuple):
    struct: ConfStruct
    proj1: Morphism
    proj2: Morphism


# ---------------------------------------------------------------------------
# Axiom validation

def validate(c: ConfStruct) -> list[tuple[str, object]]:
    """Check the axioms; each violation names the axiom and a witness."""
    out: list[tuple[str, object]] = []
    if c.exts and 0 not in c.exts:
        out.append(("empty-configuration", None))
    config_list = c.ordered()
    for m in config_list:
        # finiteness: a finite z ∈ C with e ∈ z ⊆ x; x itself witnesses it
        # for finite families, so only coincidence-freeness can fail here:
        # e1 and e2 coincide iff each lies below the other, that is iff every
        # sub-configuration of x holds both or neither.  Bit k of held[i]
        # marks the k-th sub-configuration holding event i: the order is the
        # definitional one, since ConfStruct.causes assumes stability.
        held = dict.fromkeys(bits(m), 0)
        for k, z in enumerate(z for z in config_list if not z & ~m):
            for i in bits(z):
                held[i] |= 1 << k
        if len(set(held.values())) < len(held):
            x = c.config(m)
            out.extend(("coincidence-freeness", (x, c.tags[i], c.tags[j]))
                       for i in held for j in held
                       if i < j and held[i] == held[j])
    # every upper bound lies below a configuration with no extension (a
    # maximal one in particular); bit i of above[x] marks the i-th of those
    # that contains x, so x and y are bounded iff above[x] & above[y]
    tops = [z for z, ext in c.exts.items() if not ext]
    above = {x: sum(1 << i for i, z in enumerate(tops) if not x & ~z)
             for x in c.exts}
    for i, x in enumerate(config_list):
        for y in config_list[i:]:
            if x | y in c.exts:
                if x & y not in c.exts:
                    out.append(("stability", (c.config(x), c.config(y))))
            elif above[x] & above[y]:
                out.append(("finite-completeness",
                            (c.config(x), c.config(y))))
    return out


# ---------------------------------------------------------------------------
# Constructions

def _rooted(*operands: ConfStruct) -> None:
    """Check that each operand holds the empty configuration, which the
    constructions grow configurations from."""
    if any(0 not in c.exts for c in operands):
        raise NotAConfiguration("an operand lacks the empty configuration")


def product(c1: ConfStruct, c2: ConfStruct,
            pair_label: Callable = PairLabel) -> ProductResult:
    """Synchronous product, with its projections read off the event pairs
    (see ``ProductSteps`` and ``_product`` for the construction)."""
    struct = _product(c1, c2, pair_label)
    return ProductResult(struct, *(
        Morphism(struct, c, {e: e[i] for e in struct.tags
                             if e[i] is not None})
        for i, c in ((1, c1), (2, c2))))


class _Moves(dict):
    """A product side's moves alone, as product bits, per configuration."""

    def __init__(self, c: ConfStruct):
        self.exts, self.alone = c.exts, [None] * len(c.tags)

    def __missing__(self, m: int) -> list:
        moves = self[m] = [self.alone[e] for e in self.exts[m]]
        return moves


class ProductSteps:
    """The synchronous product of two structures: its events, numbered
    before growth, and the one step that grows its configurations.

    Events are ("x", e1, e2), e1 or e2 None when absent, a pair (a
    ``SyncEvent``) labelled by ``pair_label`` of the two labels; pairs it
    labels killed are left out.  The numbering, in ``repr`` order, holds
    each live event of either side alone and each live pair not killed;
    ``proj1`` and ``proj2`` map each to its components' bits.  The
    extensions of a configuration with projection masks m1 and m2 are e1
    alone, e2 alone and their pair, for e1 in ``c1.exts[m1]`` and e2 in
    ``c2.exts[m2]`` (``step``).  ``_product`` steps every configuration,
    context synthesis only those that silent moves reach (``ext``).
    """

    def __init__(self, c1: ConfStruct, c2: ConfStruct, pair_label: Callable):
        _rooted(c1, c2)
        labels1, labels2 = c1.tag_labels, c2.tag_labels
        live1 = [a for a, d in enumerate(c1.depths) if d is not None]
        live2 = [b for b, d in enumerate(c2.depths) if d is not None]
        found = ([(a, None, labels1[a]) for a in live1]
                 + [(None, b, labels2[b]) for b in live2])
        by_label2: dict = {}
        for b in live2:
            by_label2.setdefault(labels2[b], []).append(b)
        for a in live1:
            for label2, right in by_label2.items():
                label = pair_label(labels1[a], label2)
                if label is not KILLED:
                    found.extend((a, b, label) for b in right)
        # sorted by each tag's repr, spelled out from its components' reprs
        reprs1 = [repr(e) for e in c1.tags] + ["None"]
        reprs2 = [repr(e) for e in c2.tags] + ["None"]
        found.sort(key=lambda t: f"('x', {reprs1[-1 if t[0] is None else t[0]]}, "
                                 f"{reprs2[-1 if t[1] is None else t[1]]})")
        self.c1, self.c2 = c1, c2
        self.tags = tuple(("x", c1.tags[a], None) if b is None
                          else ("x", None, c2.tags[b]) if a is None
                          else SyncEvent(("x", c1.tags[a], c2.tags[b]))
                          for a, b, _ in found)
        self.tag_labels = tuple(label for _, _, label in found)
        self.proj1 = [0 if a is None else 1 << a for a, _, _ in found]
        self.proj2 = [0 if b is None else 1 << b for _, b, _ in found]
        self.moves = moves1, moves2 = _Moves(c1), _Moves(c2)
        pairs: list = [{} for _ in c1.tags]     # e1 bit -> e2 bit -> product bit
        for k, (a, b, _) in enumerate(found):
            if b is None:
                moves1.alone[a] = k
            elif a is None:
                moves2.alone[b] = k
            else:
                pairs[a][b] = k
        self.pairs = pairs if any(pairs) else None

    def step(self, m1: int, m2: int) -> tuple:
        """The product bits, ascending, that extend a configuration with
        projection masks ``m1`` and ``m2``."""
        moves1, moves2 = self.moves
        step = moves1[m1] + moves2[m2]
        if self.pairs:
            ext2 = self.c2.exts[m2]
            for a in self.c1.exts[m1]:
                row = self.pairs[a]
                if row:
                    step.extend(row[b] for b in ext2 if b in row)
        step.sort()
        return tuple(step)

    def ext(self, m: int) -> tuple:
        """The extensions of configuration ``m``, which projects each side's
        events one-to-one: its projection masks sum its bits'."""
        ks = bits(m)
        return self.step(sum(self.proj1[k] for k in ks), sum(self.proj2[k] for k in ks))


def _product(c1: ConfStruct, c2: ConfStruct, pair_label: Callable) -> ConfStruct:
    """The synchronous product, stepped from the empty configuration up.
    Each numbered event lies in some configuration: grow its side (both,
    for a pair) up to configurations its components extend, then add it."""
    g = ProductSteps(c1, c2, pair_label)
    proj1, proj2 = g.proj1, g.proj2
    exts, seen, live = {}, {0}, 0
    frontier = [(0, 0, 0)]
    while frontier:
        m, m1, m2 = frontier.pop()
        step = exts[m] = g.step(m1, m2)
        for k in step:
            n = m | 1 << k
            if n not in seen:
                seen.add(n)
                live |= n
                frontier.append((n, m1 | proj1[k], m2 | proj2[k]))
    # restricted to the live events growth reached, if it missed any
    return ConfStruct._built(g.tags, g.tag_labels, exts).restricted(live)


def coproduct(c1: ConfStruct, c2: ConfStruct) -> ConfStruct:
    """Disjoint union: every non-empty configuration comes from one side.
    Side 1's bits come first and side 2's after them, shifted: tags (1, e)
    sort before tags (2, e), and within a side as their events do."""
    _rooted(c1, c2)
    n1 = len(c1.tags)

    def shifted(found):
        return tuple(b + n1 for b in found)

    exts = dict(c1.exts)
    exts[0] += shifted(c2.exts[0])
    for m, ext in c2.exts.items():
        if m:
            exts[m << n1] = shifted(ext)
    return ConfStruct._built(
        tuple((1, e) for e in c1.tags) + tuple((2, e) for e in c2.tags),
        c1.tag_labels + c2.tag_labels, exts)


def _label_mentions(label, name: str) -> bool:
    if isinstance(label, PairLabel):
        return (_label_mentions(label.left, name) or _label_mentions(label.right, name))
    return getattr(label, "channel", None) == name    # killed: no channel


def restrict_name(c: ConfStruct, name: str) -> ConfStruct:
    """Drop every event whose visible label mentions ``name``."""
    return c.restricted(sum(1 << i for i, label in enumerate(c.tag_labels)
                            if not _label_mentions(label, name)))


def prefix(action: Action, c: ConfStruct) -> ConfStruct:
    """One fresh event below everything else: its bit goes in at its
    ``repr`` rank, and every configuration but the empty one holds it."""
    _rooted(c)
    n = 0
    while ("pre", n) in c.events:
        n += 1
    fresh = ("pre", n)
    r = bisect.bisect(c.tags, repr(fresh), key=repr)
    low, top = (1 << r) - 1, 1 << r

    def shifted(found):
        return tuple(b + (b >= r) for b in found)

    exts = {0: (r,)}
    for m, ext in c.exts.items():
        exts[m >> r << r + 1 | m & low | top] = shifted(ext)
    return ConfStruct._built(
        c.tags[:r] + (fresh,) + c.tags[r:],
        c.tag_labels[:r] + (action,) + c.tag_labels[r:], exts)


def relabel(c: ConfStruct, f: Callable) -> ConfStruct:
    return ConfStruct._built(c.tags, tuple(map(f, c.tag_labels)), c.exts)


def _sync_label(label):
    """Tau for a pair of dual visible labels, killed for any other pair."""
    if not isinstance(label, PairLabel):
        return label
    left, right = label.left, label.right
    return TAU if not left.is_tau and right == left.dual() else KILLED


def _sync_pair(label1, label2):
    return _sync_label(PairLabel(label1, label2))


def parallel(c1: ConfStruct, c2: ConfStruct) -> ConfStruct:
    """Product, synchronization relabelling, removal of killed events: the
    product grown with only the pairs of dual visible labels, as tau.  No
    configuration is lost: a killed-free one is reached through its own
    subsets.  No event is: a kept pair (e1, e2) lies in the configuration
    that grows left-only and right-only events up to configurations that e1
    and e2 extend, then adds the pair (a kept e1 or e2 alone likewise).
    """
    return _product(c1, c2, _sync_pair)


def parallel_steps(c1: ConfStruct, c2: ConfStruct) -> ProductSteps:
    """``parallel``'s numbering and step, for a driver that grows part of it."""
    return ProductSteps(c1, c2, _sync_pair)


def residual(c: ConfStruct, x: frozenset) -> ConfStruct:
    """The structure of the futures of configuration ``x``."""
    m = c.mask_of(frozenset(x))         # NotAConfiguration unless it is one
    configs = [c.config(y ^ m) for y in c.exts if y & m == m]
    events = set().union(*configs)
    return ConfStruct(events, configs, {e: c.label(e) for e in events})


def causal_order(c: ConfStruct, x: frozenset) -> frozenset:
    """The happens-before relation on ``x`` as a set of (cause, effect) pairs."""
    y = c.mask_of(frozenset(x))
    return frozenset((c.tags[d], c.tags[e]) for e in bits(y)
                     for d in bits(c.causes(y, e) | 1 << e))


def strictly_below(order: frozenset, e1, e2) -> bool:
    return e1 != e2 and (e1, e2) in order


def depth(c: ConfStruct, e) -> int:
    """Smallest cardinality of a configuration containing ``e``."""
    found = c.depths[c.bit[e]]
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
    return c.restricted(sum(1 << i for i, d in enumerate(c.depths) if d is not None))


def embeds(c1: ConfStruct, c2: ConfStruct) -> dict | None:
    """An injective label-preserving event map sending C1 into C2, or None.

    Dead events are pruned on both sides first.
    """
    c1, c2 = prune(c1), prune(c2)
    if (len(c1.tags) > len(c2.tags)
            or len(c1.exts) > len(c2.exts)):
        return None
    return _embed_search(c1, c2, require_onto=False)


def isomorphic(c1: ConfStruct, c2: ConfStruct) -> bool:
    """Label-preserving bijection between events mapping C1 exactly onto C2.

    Dead events are pruned on both sides first.
    """
    c1, c2 = prune(c1), prune(c2)
    if (len(c1.tags) != len(c2.tags)
            or len(c1.exts) != len(c2.exts)):
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
        return None
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


# ---------------------------------------------------------------------------
# Serialization

def canonical_event_ids(c: ConfStruct) -> dict:
    """Deterministic event naming by (causal depth, label, provenance).

    Dead events (in no configuration, as restriction can leave) come last.
    """
    tags, dead = c.tags, len(c.tags) + 1
    order = sorted(range(len(tags)), key=lambda i: (
        c.depths[i] or dead, str(c.tag_labels[i]), repr(tags[i])))
    return {tags[i]: f"e{k}" for k, i in enumerate(order)}


def _named_configs(c: ConfStruct, ids: dict) -> list:
    """(mask, sorted event ids) per configuration, by size, then by ids."""
    names = [ids[e] for e in c.tags]
    return sorted(((m, sorted(names[i] for i in bits(m))) for m in c.exts),
                  key=lambda named: (len(named[1]), named[1]))


def to_json(c: ConfStruct) -> dict:
    ids = canonical_event_ids(c)
    events = [{"id": ids[e], "label": str(c.label(e))}
              for e in sorted(c.events, key=lambda e: ids[e])]
    configs = [xs for _, xs in _named_configs(c, ids)]
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
    named = _named_configs(c, canonical_event_ids(c))
    node = {m: "c_" + "_".join(xs) if xs else "c_empty" for m, xs in named}
    lines = ["digraph confstruct {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for m, xs in named:
        label = "{" + ",".join(xs) + "}" if xs else "∅"
        lines.append(f'  {node[m]} [label="{label}"];')
    for m, _ in named:
        for e in c.exts[m]:
            lines.append(f'  {node[m]} -> {node[m | 1 << e]} '
                         f'[label="{c.tag_labels[e]}"];')
    lines.append("}")
    return "\n".join(lines)
