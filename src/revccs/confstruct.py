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

    Event ``events[i]`` is bit i, in ``repr`` order (``bit`` maps back), so
    reading a mask from its lowest bit up visits events in the order
    ``extensions`` lists them.  ``exts`` and ``rets`` map each
    configuration's mask to its extensions and retractions as ascending
    tuples of bits; they iterate in the order the index was built, and
    ``ordered()`` gives the canonical order.  ``depths`` holds each event's
    least configuration size (None for an event in no configuration) and
    ``max_card`` the largest configuration size.  The constructions derive
    their index from their operands' (see ``product``, ``coproduct``,
    ``prefix`` and ``restricted``); ``of_family`` builds one from an
    explicit family of frozensets.  Cause masks and order sizes are
    computed on first use.
    """

    __slots__ = ("events", "exts", "rets", "depths", "max_card", "_bit",
                 "_causes", "_sizes")

    def __init__(self, events: tuple, exts: dict, rets: dict, depths: tuple,
                 max_card: int, bit: dict | None = None):
        self.events, self.exts, self.rets = events, exts, rets
        self.depths, self.max_card, self._bit = depths, max_card, bit
        self._causes: dict = {}
        self._sizes: dict = {}

    @classmethod
    def of_family(cls, events: Iterable, configs: Iterable) -> "ConfIndex":
        """The index of an explicit family of frozensets over ``events``."""
        events = tuple(sorted(events, key=repr))
        bit = {e: i for i, e in enumerate(events)}
        exts = {sum(1 << bit[e] for e in x): [] for x in configs}
        rets = {m: [] for m in exts}
        depths = [None] * len(events)
        for m in exts:
            size = m.bit_count()
            for i in bits(m):
                if m ^ 1 << i in exts:
                    exts[m ^ 1 << i].append(i)
                    rets[m].append(i)
                if depths[i] is None or size < depths[i]:
                    depths[i] = size
        for table in (exts, rets):
            for m, found in table.items():
                table[m] = tuple(sorted(found))
        return cls(events, exts, rets, tuple(depths),
                   max((m.bit_count() for m in exts), default=0), bit)

    @property
    def bit(self) -> dict:
        bit = self._bit
        if bit is None:
            bit = self._bit = {e: i for i, e in enumerate(self.events)}
        return bit

    def restricted(self, keep: int) -> "ConfIndex":
        """The index of the configurations inside the event mask ``keep``,
        its events renumbered in order.  Depths are read off retractions:
        a least configuration holding an event retracts only that event, on
        a family whose configurations are all reached from the empty one by
        single events (as a restriction's are when its operand's are)."""
        drop = [i for i in reversed(range(len(self.events))) if not keep >> i & 1]
        new = [(keep & (1 << i) - 1).bit_count() for i in range(len(self.events))]
        exts, rets = {}, {}
        depths = [None] * keep.bit_count()
        for m, ext in self.exts.items():
            if m & ~keep:
                continue
            k = m
            for j in drop:                  # from the top, so lower bits stay put
                k = k & (1 << j) - 1 | k >> j + 1 << j
            exts[k] = tuple(new[b] for b in ext if keep >> b & 1)
            rets[k] = back = tuple(new[b] for b in self.rets[m])
            size = k.bit_count()
            for b in back:
                if depths[b] is None or size < depths[b]:
                    depths[b] = size
        return ConfIndex(tuple(e for i, e in enumerate(self.events) if keep >> i & 1),
                         exts, rets, tuple(depths),
                         max(map(int.bit_count, exts), default=0))

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
    integer index, ``index``.  A structure given an explicit family of
    frozensets builds its index from them on first use; the constructions
    hand each structure they build its index, and decode its family
    ``configs`` only when it is read.  Equality and hashing read the index:
    events are numbered in ``repr`` order, so equal structures number them
    alike.
    """

    __slots__ = ("events", "_configs", "_labels", "_hash", "_index")

    def __init__(self, events: Iterable, configs: Iterable, labels: dict):
        object.__setattr__(self, "events", frozenset(events))
        object.__setattr__(self, "_configs", frozenset(frozenset(x) for x in configs))
        object.__setattr__(self, "_labels", dict(labels))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_index", None)
        missing = self.events - set(self._labels)
        if missing:
            raise ValueError(f"unlabelled events: {missing!r}")

    @classmethod
    def _indexed(cls, index: ConfIndex, labels: dict) -> "ConfStruct":
        """The structure of ``index``, its events labelled by ``labels``."""
        c = object.__new__(cls)
        for name, value in (("events", frozenset(index.events)), ("_configs", None),
                            ("_labels", labels), ("_hash", None), ("_index", index)):
            object.__setattr__(c, name, value)
        return c

    def __setattr__(self, name, value):
        raise AttributeError("ConfStruct is immutable")

    @property
    def index(self) -> ConfIndex:
        index = self._index
        if index is None:
            index = ConfIndex.of_family(self.events, self._configs)
            object.__setattr__(self, "_index", index)
        return index

    @property
    def configs(self) -> frozenset:
        configs = self._configs
        if configs is None:
            index = self._index
            configs = frozenset(map(index.config, index.exts))
            object.__setattr__(self, "_configs", configs)
        return configs

    def label(self, e) -> Action:
        return self._labels[e]

    @property
    def labels(self) -> dict:
        return dict(self._labels)

    def __eq__(self, other):
        if not isinstance(other, ConfStruct):
            return NotImplemented
        return (self.events == other.events and self._labels == other._labels
                and self.index.exts.keys() == other.index.exts.keys())

    def __hash__(self):
        h = self._hash
        if h is None:
            index = self.index
            h = hash((self.events, frozenset(index.exts),
                      tuple(map(self._labels.__getitem__, index.events))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"ConfStruct({len(self.events)} events, {len(self.index.exts)} configs)"

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


class Morphism(Record, frozen=False, factories={"mapping": dict}):
    """Partial event map between structures.

    Morphisms preserve configurations and labels and are locally injective
    on every configuration.
    """

    __slots__ = ("source", "target", "mapping")

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
    index = c.index
    if index.exts and 0 not in index.exts:
        out.append(("empty-configuration", None))
    config_list = index.ordered()
    for m in config_list:
        # finiteness: a finite z ∈ C with e ∈ z ⊆ x; x itself witnesses it
        # for finite families, so only coincidence-freeness can fail here:
        # e1 and e2 coincide iff each lies below the other, that is iff every
        # sub-configuration of x holds both or neither.  Bit k of held[i]
        # marks the k-th sub-configuration holding event i: the order is the
        # definitional one, since ConfIndex.causes assumes stability.
        held = dict.fromkeys(bits(m), 0)
        for k, z in enumerate(z for z in config_list if not z & ~m):
            for i in bits(z):
                held[i] |= 1 << k
        if len(set(held.values())) < len(held):
            x = index.config(m)
            out.extend(("coincidence-freeness", (x, index.events[i], index.events[j]))
                       for i in held for j in held
                       if i < j and held[i] == held[j])
    # every upper bound lies below a configuration with no extension (a
    # maximal one in particular); bit i of above[x] marks the i-th of those
    # that contains x, so x and y are bounded iff above[x] & above[y]
    tops = [z for z, ext in index.exts.items() if not ext]
    above = {x: sum(1 << i for i, z in enumerate(tops) if not x & ~z)
             for x in index.exts}
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

def _rooted(c: ConfStruct) -> ConfIndex:
    """The index of an operand, whose configurations the constructions grow
    from the empty one."""
    index = c.index
    if 0 not in index.exts:
        raise NotAConfiguration("an operand lacks the empty configuration")
    return index


def product(c1: ConfStruct, c2: ConfStruct,
            pair_label: Callable = PairLabel) -> ProductResult:
    """Synchronous product, with its projections read off the event pairs
    (see ``_product`` for the construction)."""
    struct = _product(c1, c2, pair_label)
    return ProductResult(struct, *(
        Morphism(struct, c, {e: e[i] for e in struct.index.events
                             if e[i] is not None})
        for i, c in ((1, c1), (2, c2))))


def _product(c1: ConfStruct, c2: ConfStruct, pair_label: Callable) -> ConfStruct:
    """The synchronous product of two structures.

    Events are ("x", e1, e2), e1 or e2 None when absent, a pair labelled by
    ``pair_label`` of the two labels; pairs it labels killed are left out.
    The events are numbered before growth, in ``repr`` order: each live
    event of either side alone and each live pair not killed.  Each lies in
    some configuration: grow its side (both, for a pair) up to
    configurations its components extend, then add it.  A configuration is
    a mask grown from the empty one with its projection masks m1 and m2:
    its extensions are e1 alone, e2 alone and their pair, for e1 in
    ``c1.index.exts[m1]`` and e2 in ``c2.index.exts[m2]``, so growth
    records extensions and retractions as it goes.  An event's depth is the
    least size of a configuration first reached by adding it: a least
    configuration holding an event retracts only that event.
    """
    i1, i2 = _rooted(c1), _rooted(c2)
    live1 = [a for a, d in enumerate(i1.depths) if d is not None]
    live2 = [b for b, d in enumerate(i2.depths) if d is not None]
    found = ([(a, None, c1.label(i1.events[a])) for a in live1]
             + [(None, b, c2.label(i2.events[b])) for b in live2])
    by_label2: dict = {}
    for b in live2:
        by_label2.setdefault(c2.label(i2.events[b]), []).append(b)
    for a in live1:
        for label2, right in by_label2.items():
            label = pair_label(c1.label(i1.events[a]), label2)
            if label is not KILLED:
                found.extend((a, b, label) for b in right)
    # sorted by each tag's repr, spelled out from its components' reprs
    reprs1 = [repr(e) for e in i1.events] + ["None"]
    reprs2 = [repr(e) for e in i2.events] + ["None"]
    found.sort(key=lambda t: f"('x', {reprs1[-1 if t[0] is None else t[0]]}, "
                             f"{reprs2[-1 if t[1] is None else t[1]]})")
    tags = [("x", None if a is None else i1.events[a],
             None if b is None else i2.events[b]) for a, b, _ in found]
    labels = {tag: label for tag, (_, _, label) in zip(tags, found)}
    number = {(a, b): k for k, (a, b, _) in enumerate(found)}
    proj1 = [0 if a is None else 1 << a for a, _, _ in found]
    proj2 = [0 if b is None else 1 << b for _, b, _ in found]
    pairs: list = [{} for _ in i1.events]      # e1 bit -> e2 bit -> product bit
    for (a, b), k in number.items():
        if a is not None and b is not None:
            pairs[a][b] = k
    # the moves of each side alone, from each of its configurations
    moves1 = {m1: [number[a, None] for a in ext] for m1, ext in i1.exts.items()}
    moves2 = {m2: [number[None, b] for b in ext] for m2, ext in i2.exts.items()}
    paired = any(pairs)
    exts, rets = {}, {0: []}
    depths: list = [None] * len(tags)
    frontier = [(0, 0, 0)]
    while frontier:
        m, m1, m2 = frontier.pop()
        step = moves1[m1] + moves2[m2]
        if paired:
            ext2 = i2.exts[m2]
            for a in i1.exts[m1]:
                row = pairs[a]
                if row:
                    step.extend(row[b] for b in ext2 if b in row)
        step.sort()
        exts[m] = tuple(step)
        size = m.bit_count() + 1
        for k in step:
            n = m | 1 << k
            back = rets.get(n)
            if back is None:
                rets[n] = [k]
                if depths[k] is None or size < depths[k]:
                    depths[k] = size
                frontier.append((n, m1 | proj1[k], m2 | proj2[k]))
            else:
                back.append(k)
    index = ConfIndex(tuple(tags), exts,
                      {n: tuple(sorted(back)) for n, back in rets.items()},
                      tuple(depths), max(map(int.bit_count, exts)))
    if None in depths:                  # live events no growth reached
        index = index.restricted(sum(1 << k for k, d in enumerate(depths)
                                     if d is not None))
        labels = {e: labels[e] for e in index.events}
    return ConfStruct._indexed(index, labels)


def coproduct(c1: ConfStruct, c2: ConfStruct) -> ConfStruct:
    """Disjoint union: every non-empty configuration comes from one side.
    Side 1's bits come first and side 2's after them, shifted: tags (1, e)
    sort before tags (2, e), and within a side as their events do."""
    i1, i2 = _rooted(c1), _rooted(c2)
    n1 = len(i1.events)

    def shifted(found):
        return tuple(b + n1 for b in found)

    exts, rets = dict(i1.exts), dict(i1.rets)
    exts[0] += shifted(i2.exts[0])
    for m, ext in i2.exts.items():
        if m:
            exts[m << n1] = shifted(ext)
            rets[m << n1] = shifted(i2.rets[m])
    labels = {(1, e): c1.label(e) for e in c1.events}
    labels.update({(2, e): c2.label(e) for e in c2.events})
    return ConfStruct._indexed(ConfIndex(
        tuple((1, e) for e in i1.events) + tuple((2, e) for e in i2.events),
        exts, rets, i1.depths + i2.depths, max(i1.max_card, i2.max_card)),
        labels)


def _restricted(c: ConfStruct, keep: int) -> ConfStruct:
    """``c`` restricted to the events of the mask ``keep``."""
    index = c.index
    if keep == (1 << len(index.events)) - 1:
        return c
    index = index.restricted(keep)
    return ConfStruct._indexed(index, {e: c.label(e) for e in index.events})


def restrict_events(c: ConfStruct, keep: Iterable) -> ConfStruct:
    keep = frozenset(keep)
    return _restricted(c, sum(1 << i for i, e in enumerate(c.index.events)
                              if e in keep))


def _label_mentions(label, name: str) -> bool:
    if isinstance(label, PairLabel):
        return (_label_mentions(label.left, name) or _label_mentions(label.right, name))
    return getattr(label, "channel", None) == name    # killed: no channel


def restrict_name(c: ConfStruct, name: str) -> ConfStruct:
    """Drop every event whose visible label mentions ``name``."""
    return _restricted(c, sum(1 << i for i, e in enumerate(c.index.events)
                              if not _label_mentions(c.label(e), name)))


def prefix(action: Action, c: ConfStruct) -> ConfStruct:
    """One fresh event below everything else: its bit goes in at its
    ``repr`` rank, and every configuration but the empty one holds it."""
    index = _rooted(c)
    n = 0
    while ("pre", n) in c.events:
        n += 1
    fresh = ("pre", n)
    r = bisect.bisect(index.events, repr(fresh), key=repr)
    low, top = (1 << r) - 1, 1 << r

    def shifted(found):
        return tuple(b + (b >= r) for b in found)

    exts, rets = {0: (r,)}, {0: ()}
    for m, ext in index.exts.items():
        k = m >> r << r + 1 | m & low | top
        exts[k] = shifted(ext)
        rets[k] = shifted(index.rets[m]) if m else (r,)
    depths = tuple(None if d is None else d + 1 for d in index.depths)
    labels = c.labels
    labels[fresh] = action
    return ConfStruct._indexed(ConfIndex(
        index.events[:r] + (fresh,) + index.events[r:], exts, rets,
        depths[:r] + (1,) + depths[r:], index.max_card + 1), labels)


def relabel(c: ConfStruct, f: Callable) -> ConfStruct:
    return ConfStruct._indexed(c.index, {e: f(c.label(e)) for e in c.events})


def _sync_label(label):
    """Tau for a pair of dual visible labels, killed for any other pair."""
    if not isinstance(label, PairLabel):
        return label
    left, right = label.left, label.right
    return TAU if not left.is_tau and right == left.dual() else KILLED


def _sync_pair(label1, label2):
    return _sync_label(PairLabel(label1, label2))


def parallel_full(c1: ConfStruct, c2: ConfStruct) -> ProductResult:
    return product(c1, c2, _sync_pair)


def parallel(c1: ConfStruct, c2: ConfStruct) -> ConfStruct:
    """Product, synchronization relabelling, removal of killed events: the
    product grown with only the pairs of dual visible labels, as tau.  No
    configuration is lost: a killed-free one is reached through its own
    subsets.  No event is: a kept pair (e1, e2) lies in the configuration
    that grows left-only and right-only events up to configurations that e1
    and e2 extend, then adds the pair (a kept e1 or e2 alone likewise).
    """
    return _product(c1, c2, _sync_pair)


def residual(c: ConfStruct, x: frozenset) -> ConfStruct:
    """The structure of the futures of configuration ``x``."""
    index = c.index
    m = index.mask_of(frozenset(x))     # NotAConfiguration unless it is one
    configs = [index.config(y ^ m) for y in index.exts if y & m == m]
    events = set().union(*configs)
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
    return _restricted(c, sum(1 << i for i, d in enumerate(c.index.depths)
                              if d is not None))


def embeds(c1: ConfStruct, c2: ConfStruct) -> dict | None:
    """An injective label-preserving event map sending C1 into C2, or None.

    Dead events are pruned on both sides first.
    """
    c1, c2 = prune(c1), prune(c2)
    if (len(c1.events) > len(c2.events)
            or len(c1.index.exts) > len(c2.index.exts)):
        return None
    return _embed_search(c1, c2, require_onto=False)


def isomorphic(c1: ConfStruct, c2: ConfStruct) -> bool:
    """Label-preserving bijection between events mapping C1 exactly onto C2.

    Dead events are pruned on both sides first.
    """
    c1, c2 = prune(c1), prune(c2)
    if (len(c1.events) != len(c2.events)
            or len(c1.index.exts) != len(c2.index.exts)):
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
    order = sorted(range(len(index.events)), key=lambda i: (
        index.depths[i] or dead, str(c.label(index.events[i])),
        repr(index.events[i])))
    return {index.events[i]: f"e{k}" for k, i in enumerate(order)}


def _named_configs(c: ConfStruct, ids: dict) -> list:
    """(mask, sorted event ids) per configuration, by size, then by ids."""
    names = [ids[e] for e in c.index.events]
    return sorted(((m, sorted(names[i] for i in bits(m))) for m in c.index.exts),
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
    index, named = c.index, _named_configs(c, canonical_event_ids(c))
    node = {m: "c_" + "_".join(xs) if xs else "c_empty" for m, xs in named}
    lines = ["digraph confstruct {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for m, xs in named:
        label = "{" + ",".join(xs) + "}" if xs else "∅"
        lines.append(f'  {node[m]} [label="{label}"];')
    for m, _ in named:
        for e in index.exts[m]:
            lines.append(f'  {node[m]} -> {node[m | 1 << e]} '
                         f'[label="{c.label(index.events[e])}"];')
    lines.append("}")
    return "\n".join(lines)
