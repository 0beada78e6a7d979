"""Behavioural equivalences over configuration structures and terms.

Three deciders live here: hereditary history-preserving bisimulation on
structures (a greedy defender strategy decides related pairs; where it gets
stuck, triples grown into layers by size and filtered by layered passes
give the strata of the diagnosis and, where no stratum fails, the maximal
relation, cross-checked by a game-graph oracle), back-and-forth barbed
bisimulation and plain forward bisimulation, both played on configuration
graphs, the barbed game on only the configurations that silent moves reach;
the barbed game on reversible terms is kept as the operational reference.
When the history-preserving game fails, a discriminating context is
searched for among testers read off the configurations of either
denotation, each verified in the barbed game.  All three games are
equivalences, so each relates equal structures (the same numbered events,
labels and configurations) through the identity without being played, and
no context separates them.

The games run on each structure's event numbering (``ConfStruct.tags``):
configurations are masks of event bits, a history-preserving triple is keyed
by its bijection f, packed into one slot per left event, which fixes both
configurations (held beside it as one int, with a bit marking the
isomorphisms, in the dict of its left size), the barbed games refine dense
int graphs, and the forward game interns classes up its acyclic graph.
Only the public results (``hhpb_relation``, ``build_stratification``, the
oracle's game) are decoded back to frozensets.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Optional

from .confstruct import ConfStruct, bits, parallel_steps
from .syntax import (Context, HOLE, NIL, Par, Prefix, Process, Record, Restrict,
                     Sum, all_names, fresh_name, free_names, inp, instantiate,
                     unparse)
from .rccs import RTerm, lift, reachable_states
from .encoding import encode_ccs


class BoundExceeded(RuntimeError):
    """The oracle refuses structures beyond its configured size."""


class EquivalenceVerdict(Record, defaults={
        "failing_stratum": None, "witness": None, "context": None}):
    # failing_stratum: ("F", i) or ("B", i)
    __slots__ = ("related", "failing_stratum", "witness", "context")

    def to_json(self) -> dict:
        direction, depth = self.failing_stratum or (None, None)
        return {"related": self.related, "failing_stratum": depth,
                "direction": direction, "witness": self.witness,
                "context": self.context}


# ---------------------------------------------------------------------------
# Triples over the two structures' event bits: a label- and order-preserving
# bijection f: m1 -> m2 packed into one slot per left event, holding one plus
# its image's bit.  f fixes m1 and m2, so a set of triples of one left size
# is a dict f -> m1 | iso | m2 << high, m1 in the bits of ``left`` and the
# bit ``iso`` just above them marking an isomorphism, and a set of triples
# is a list of such layers by size; the empty triple is 0 -> iso.

class _Masks(dict):
    """Each configuration's extensions as one mask, computed on first read."""

    def __init__(self, exts: dict):
        self.exts = exts

    def __missing__(self, m: int) -> int:
        every = self[m] = sum(1 << e for e in self.exts[m])
        return every


class _Game:
    """The two structures one decision compares, the left retraction table,
    the slot width of a packed bijection, the mask ``left``, the bit ``iso``
    and the shift ``high`` that lay out a triple's value, and for each left
    event (``match``) and each right one (``peers``) the mask of the right
    events with its label."""

    __slots__ = ("c1", "c2", "width", "slot", "left", "iso", "high", "match",
                 "peers", "rets1")

    def __init__(self, c1: ConfStruct, c2: ConfStruct):
        self.c1, self.c2, self.rets1 = c1, c2, c1.rets
        self.width = len(c2.tags).bit_length()
        self.slot = (1 << self.width) - 1
        self.iso = 1 << len(c1.tags)
        self.left, self.high = self.iso - 1, len(c1.tags) + 1
        rows: dict = {}                 # right label -> its events' mask
        for b, label in enumerate(c2.tag_labels):
            rows[label] = rows.get(label, 0) | 1 << b
        self.match = [rows.get(label, 0) for label in c1.tag_labels]
        self.peers = [rows[label] for label in c2.tag_labels]

    def image(self, f: int, y1: int, e1: int) -> int:
        """The mask of the right events f maps e1's causes in y1 to."""
        image, width, slot = 0, self.width, self.slot
        for d in bits(self.c1.causes(y1, e1)):
            image |= 1 << (f >> d * width & slot) - 1
        return image

    def decode(self, f: int) -> tuple:
        """The triple keyed by ``f`` as (left configuration, right one,
        frozen bijection)."""
        w, tags1, tags2 = self.width, self.c1.tags, self.c2.tags
        fs = frozenset((tags1[a], tags2[(f >> a * w & self.slot) - 1])
                       for a in range(len(tags1)) if f >> a * w & self.slot)
        return frozenset(a for a, _ in fs), frozenset(b for _, b in fs), fs


def _all_triples(g: _Game) -> list:
    """Every order-preserving triple, grown from the empty triple by matched
    extensions and marked as an isomorphism or not, in layers by left size,
    each triple grown once, from its canonical parent.

    e1 of m1 pairs with e2 of m2 when their labels agree and f maps every
    cause of e1 below e2.  That suffices for f to stay order-preserving: the
    order of m1 | {e1} restricted to m1 is that of m1, and e1 lies below no
    event of m1.  A triple's canonical parent drops the highest retraction
    of its right configuration and that event's preimage, so a child is
    grown only where e2 is the highest retraction of m2 | {e2}.  Nothing is
    missed when both structures are stable and finitely complete.  Removing
    the highest retraction at each step is a covering chain of m2; pulled
    back along f, each prefix is down-closed in m1, hence a configuration
    whose causal order is that of m1 restricted to it.  So each triple's
    canonical parent is an order-preserving triple one smaller, grown by
    induction, and growth reaches each triple from it alone.

    The grown triple is an isomorphism iff the parent is one and f maps e1's
    causes onto all of e2's.  The orders of m1 | {e1} and m2 | {e2} are those
    of m1 and m2 (restrictions, as above) plus the pairs below the added
    event, which is maximal; the extended bijection reflects both parts iff
    f reflects the first and the cause images fill the second.
    """
    c1, exts2, rets2, causes2 = g.c1, g.c2.exts, g.c2.rets, g.c2.causes
    width, match, peers, image_of = g.width, g.match, g.peers, g.image
    left, iso, high = g.left, g.iso, g.high
    # for each right event, the left events with its label
    partners = [sum(1 << e1 for e1, row in enumerate(match) if row >> e2 & 1)
                for e2 in range(len(peers))]
    layers = [{0: iso}]
    for _ in range(c1.max_card):
        # canonical: a right configuration -> the left events whose label one
        # of its extensions e2 that is the highest retraction of the
        # configuration it makes carries, and by label row in ``match`` each
        # such e2's slot, its configuration shifted into place and its causes
        grown, canonical, every1 = {}, {}, _Masks(c1.exts)
        for f, ms in layers[-1].items():
            m1, m2, flag = ms & left, ms >> high, ms & iso
            found = canonical.get(m2)
            if found is None:
                wanted, answers = 0, {}
                for e2 in exts2[m2]:
                    y2 = m2 | 1 << e2
                    if rets2[y2][-1] == e2:
                        wanted |= partners[e2]
                        answers.setdefault(peers[e2], []).append(
                            (e2 + 1, y2 << high, causes2(y2, e2)))
                found = canonical[m2] = wanted, answers
            todo, answers = every1[m1] & found[0], found[1]
            while todo:                 # the left extensions some e2 matches
                low = todo & -todo
                todo ^= low
                e1 = low.bit_length() - 1
                shift, y1 = e1 * width, m1 | low
                image = image_of(f, y1, e1)
                for held, y2, below in answers[match[e1]]:
                    if not image & ~below:
                        grown[f | held << shift] = (
                            y1 | y2 | flag * (image == below))
        layers.append(grown)
    return layers


def _strategy(g: _Game) -> Optional[dict]:
    """A defender strategy: a dict f -> m1 | m2 << high of isomorphism
    triples holding the empty triple and closed under every challenge, hence
    an HHP bisimulation; None where the greedy search, which never
    backtracks, gets stuck or outgrows both structures.  Each triple taken
    adds its left retraction parents, which cover the right ones (see
    ``_back_ok``), and answers each unanswered extension, in
    ``_unanswered``'s one scan, by the first label-matched isomorphism child
    (its cause image as in growth), preferring one whose two configurations'
    extensions carry equal label multisets, then one of the same event
    tag."""
    c1, c2, exts1, exts2, match = g.c1, g.c2, g.c1.exts, g.c2.exts, g.match
    width, slot, left, high = g.width, g.slot, g.left, g.high
    chosen, stack, cap = {0: 0}, [0], len(exts1) + len(exts2)

    def answer(side: bool, e: int) -> int:
        """Take the best child answering the challenge; its right event's
        bit, or 0 if none does."""
        best, top = None, 4     # the child's key, value and right bit, and its rank
        for e1, e2 in ([(e, e2) for e2 in exts2[m2] if match[e] >> e2 & 1] if side
                       else [(e1, e) for e1 in exts1[m1] if match[e1] >> e & 1]):
            same = c1.tags[e1] == c2.tags[e2]
            if top <= (not same):   # no better rank left
                continue
            y1, y2 = m1 | 1 << e1, m2 | 1 << e2
            if g.image(f, y1, e1) != c2.causes(y2, e2):
                continue
            rows = [match[d] for d in exts1[y1]]   # one row per left label
            every = sum(1 << d for d in exts2[y2])
            rank = (not same) + 2 * (len(rows) != every.bit_count() or not all(
                row and rows.count(row) == (row & every).bit_count() for row in rows))
            if rank < top:
                best, top = (f | (e2 + 1) << e1 * width, y1 | y2 << high, 1 << e2), rank
                if not rank:
                    break
        if best is None:
            return 0
        chosen[best[0]] = best[1]
        stack.append(best[0])
        return best[2]

    while stack:
        f = stack.pop()
        ms = chosen[f]
        m1, m2 = ms & left, ms >> high
        for e1 in g.rets1[m1]:
            shift = e1 * width
            parent = f & ~(slot << shift)
            if parent not in chosen:
                chosen[parent] = ms ^ (1 << e1 | 1 << (f >> shift & slot) - 1 + high)
                stack.append(parent)
        if (_unanswered(f, ms, sum(1 << e2 for e2 in exts2[m2]), g, chosen, answer)
                or len(chosen) > cap):
            return None
    return chosen


def _unanswered(f: int, ms: int, every: int, g: _Game, reference, answer=None
                ) -> Optional[tuple]:
    """The triple's first left extension with no answer in ``reference``, as
    (True, its bit), or else its first such right one, as (False, its bit),
    looking up label-matched pairs only; ``every`` is the mask of the right
    configuration's extensions.  Given ``answer``, each such
    challenge goes to it first, and the scan passes it if ``answer`` adds an
    answer to ``reference`` and returns its right bit (else 0): as
    ``reference`` only grows, one scan meets the challenges that a scan
    restarted after each answer would."""
    ext1, width, match = g.c1.exts[ms & g.left], g.width, g.match
    answered = 0                    # the right extensions answered
    for e1 in ext1:
        shift, row = e1 * width, match[e1] & every
        while row:
            low = row & -row        # e2's bit, and e2 + 1 its length
            if f | low.bit_length() << shift in reference:
                answered |= low
                break
            row ^= low
        else:
            if answer is None or not (got := answer(True, e1)):
                return True, e1
            answered |= got
    for e2 in bits(every & ~answered):
        for e1 in ext1:
            if match[e1] >> e2 & 1 and f | (e2 + 1) << e1 * width in reference:
                break
        else:
            if answer is None or not answer(False, e2):
                return False, e2
    return None


def _forth_ok(f: int, ms: int, g: _Game, reference) -> Optional[str]:
    found = _unanswered(f, ms, sum(1 << e2 for e2 in g.c2.exts[ms >> g.high]),
                        g, reference)
    if found:
        c, word = (g.c1, "left") if found[0] else (g.c2, "right")
        return f"{word} extension {c.tag_labels[found[1]]} unanswered"
    return None


def _back_ok(f: int, ms: int, g: _Game, reference) -> bool:
    """Whether ``reference`` answers every retraction.  Only left ones need
    a lookup: under growth's axioms an event is removable iff it is maximal,
    and an order-preserving f keeps non-maximal events non-maximal, so each
    right retraction's preimage is a left one, and an isomorphism's
    retraction parents are grown isomorphisms."""
    for e1 in g.rets1[ms & g.left]:
        if f & ~(g.slot << e1 * g.width) not in reference:
            return False
    return True


def _forth(g: _Game, layers: list) -> list:
    """The forward half of a layered pass over ``layers`` (triples by size),
    filtered in place from the top down: each layer keeps the triples whose
    forward challenges are answered in the layer above, the top one whole."""
    high = g.high
    for layer, above in zip(layers[-2::-1], layers[:0:-1]):
        every2 = _Masks(g.c2.exts)      # many triples share a right configuration
        for f in [f for f, ms in layer.items()
                  if _unanswered(f, ms, every2[ms >> high], g, above)]:
            del layer[f]
    return layers


def _back(g: _Game, forth: list):
    """The backward half of a layered pass, yielded from the bottom up: each
    layer keeps the triples of its forward layer whose retractions are
    answered in the layer below, and is that forward layer if it loses none."""
    below = forth[0]
    yield below
    for layer in forth[1:]:
        failed = {f for f, ms in layer.items() if not _back_ok(f, ms, g, below)}
        below = ({f: ms for f, ms in layer.items() if f not in failed}
                 if failed else layer)
        yield below


# ---------------------------------------------------------------------------
# Hereditary history-preserving bisimulation: greatest fixpoint over triples

def hhpb_relation(c1: ConfStruct, c2: ConfStruct) -> set:
    """The maximal back-and-forth history-preserving bisimulation, as the
    set of surviving triples (x1, x2, frozen bijection)."""
    g = _Game(c1, c2)
    return {g.decode(f) for layer in _hhpb_gfp(g, _all_triples(g))
            for f in layer}


def _hhpb_gfp(g: _Game, layers: list) -> list:
    """The maximal relation by size below ``layers``: a copy of their
    isomorphism triples and an empty layer on top, filtered by layered
    passes, forward then backward, until the backward half removes nothing."""
    layers = [{f: ms for f, ms in layer.items() if ms & g.iso}
              for layer in layers] + [{}]
    while True:
        forth = _forth(g, layers)
        layers = list(_back(g, forth))
        if sum(map(len, forth)) == sum(map(len, layers)):
            return layers


@functools.lru_cache(maxsize=1024)
def hhpb(c1: ConfStruct, c2: ConfStruct) -> EquivalenceVerdict:
    """Decide the history-preserving game with backward moves.

    Related configurations carry a label- and order-isomorphism of their
    events; forward challenges extend it, backward challenges retract the
    image of the retracted event.  The pair is related once the defender
    strategy closes.  Otherwise it is unrelated if a cardinality stratum
    misses a left configuration, the least one locating the failure, and
    else the maximal relation R decides.  Every triple of R survives the
    forward layers, by induction down from the whole top layer, and the
    backward layers, by induction up from layer 0; an R holding the empty
    triple relates every left configuration, so then no stratum misses one.
    R lies within the forward layers, which thus seed the fixpoint.  Of the
    forward strata only F0 can miss one: a surviving triple answers each
    left extension with a surviving child, so once the empty triple
    survives, a covering chain up from it reaches every left configuration.
    """
    if c1 == c2:
        return EquivalenceVerdict(True)
    g = _Game(c1, c2)
    if _strategy(g) is not None:
        return EquivalenceVerdict(True)
    forth = _forth(g, _all_triples(g))
    stratum, witness = _diagnose(g, forth)
    if stratum is None:
        # the empty triple has no retractions: the maximal relation holds it
        # iff its forward challenges are answered there, or it is not maximal
        witness = _forth_ok(0, 0, g, _hhpb_gfp(g, forth)[1])
    return EquivalenceVerdict(witness is None, stratum, witness)


# ---------------------------------------------------------------------------
# Cardinality strata: forward layers computed from the largest configuration
# size down, backward layers from size zero up.

class StratifiedRelation(Record, frozen=False,
                         factories={"forth": list, "back": list}):
    # k: the largest left cardinality; forth[i]: the triples of size i
    __slots__ = ("k", "forth", "back")

    def covered(self, i: int, x1, backward: bool) -> bool:
        """Whether some triple of layer i in the given direction relates the
        left configuration ``x1``."""
        return any(t[0] == x1 for t in (self.back if backward else self.forth)[i])


def build_stratification(c1: ConfStruct, c2: ConfStruct) -> StratifiedRelation:
    """Approximate the game by configuration size.

    The top forward layer holds every label- and order-preserving bijection
    between largest configurations; layer i keeps the triples whose forward
    challenges are answered inside layer i+1.  Backward layer 0 is forward
    layer 0; backward layer i keeps the triples of forward layer i whose
    retractions land in backward layer i-1.
    """
    g = _Game(c1, c2)
    forth = _forth(g, _all_triples(g))
    return StratifiedRelation(c1.max_card, *(
        [set(map(g.decode, layer)) for layer in layers]
        for layers in (forth, _back(g, forth))))


def _diagnose(g: _Game, forth: list):
    """Least stratum whose layers, ``forth`` and the backward layers built
    from it only as far as that stratum, exclude some left configuration;
    the witness is the least one excluded in ``ordered()`` order.  Of the
    forward strata only F0 can fail (see ``hhpb``): it fails iff the empty
    triple is not in ``forth[0]``."""
    if 0 not in forth[0]:
        return ("F", 0), "configuration {} unmatched in forward stratum 0"
    strata, back = [[] for _ in forth], _back(g, forth)
    for m1 in g.c1.exts:
        strata[m1.bit_count()].append(m1)
    for i, (layer, triples) in enumerate(zip(strata, back)):
        covered = {ms & g.left for ms in triples.values()}
        missed = [m1 for m1 in layer if m1 not in covered]
        if missed:
            names = sorted(str(g.c1.tag_labels[e])
                           for e in bits(min(missed, key=bits)))
            return (("B", i), "configuration {" + ",".join(names) + "} "
                    f"unmatched in backward stratum {i}")
    return None, None


# ---------------------------------------------------------------------------
# Game-graph oracle: same game, decided by attacker-win propagation

def hhpb_oracle(c1: ConfStruct, c2: ConfStruct, bound: int = 10) -> bool:
    """The history-preserving game decided on an explicit game graph.

    Builds the bipartite challenge/response graph and propagates attacker
    wins by the standard attractor computation; the defender wins every
    infinite play.  Its triples and isomorphism flags come from
    ``_all_triples``, as on ``hhpb``'s complete path, so it checks the
    fixpoint; the tests check the growth by brute force.
    """
    if len(c1.events) + len(c2.events) > bound:
        raise BoundExceeded(
            f"{len(c1.events)} + {len(c2.events)} events exceed bound {bound}")
    game = _Game(c1, c2)
    triples = {game.decode(f) for layer in _all_triples(game)
               for f, ms in layer.items() if ms & game.iso}
    empty = (frozenset(), frozenset(), frozenset())

    def challenges(t):
        x1, x2, fs = t
        f = dict(fs)
        g = {e2: e1 for e1, e2 in fs}
        out = []
        for e1 in c1.extensions(x1):
            out.append([(x1 | {e1}, x2 | {e2}, fs | {(e1, e2)})
                        for e2 in c2.extensions(x2)])
        for e2 in c2.extensions(x2):
            out.append([(x1 | {e1}, x2 | {e2}, fs | {(e1, e2)})
                        for e1 in c1.extensions(x1)])
        for e1 in c1.retractions(x1):
            resp = (x1 - {e1}, x2 - {f[e1]}, fs - {(e1, f[e1])})
            out.append([resp] if (x2 - {f[e1]}) in c2.configs else [])
        for e2 in c2.retractions(x2):
            resp = (x1 - {g[e2]}, x2 - {e2}, fs - {(g[e2], e2)})
            out.append([resp] if (x1 - {g[e2]}) in c1.configs else [])
        return out

    # a defender node is (attacker triple, challenge index)
    succ: dict = {}
    preds: dict = defaultdict(list)
    for t in triples:
        chs = challenges(t)
        succ[("A", t)] = [("D", t, k) for k in range(len(chs))]
        for k, responses in enumerate(chs):
            valid = [r for r in responses if r in triples]
            succ[("D", t, k)] = [("A", r) for r in valid]
            preds[("A", t)]  # touch so every node exists
            for r in valid:
                preds[("A", r)].append(("D", t, k))
        for node in succ[("A", t)]:
            preds[node].append(("A", t))

    attacker_wins: set = set()
    remaining = {node: len(nxt) for node, nxt in succ.items()}
    queue = [node for node, nxt in succ.items()
             if node[0] == "D" and not nxt]
    attacker_wins.update(queue)
    while queue:
        node = queue.pop()
        for p in preds[node]:
            if p in attacker_wins:
                continue
            if p[0] == "A":
                attacker_wins.add(p)
                queue.append(p)
            else:
                remaining[p] -= 1
                if remaining[p] == 0:
                    attacker_wins.add(p)
                    queue.append(p)
    if empty not in triples:
        return False
    return ("A", empty) not in attacker_wins


# ---------------------------------------------------------------------------
# Bisimulation games as coarsest stable partitions

def _coarsest_blocks(block: list, succ: list) -> list:
    """Coarsest partition refining ``block`` (node -> initial class, on
    nodes 0..size-1) stable under ``succ`` (node -> moves, each packed as
    label * size + target), as node -> block.  Nodes share a block iff they
    are bisimilar: each round splits blocks by the labelled blocks their
    moves reach, until no block splits.  The barbed games need it, as their
    undo moves make cycles; the forward game's acyclic graph does not.
    """
    size, count = len(block), len(set(block))
    while True:
        ids: dict = {}
        block = [ids.setdefault((b, frozenset([
                     m - m % size + block[m % size] for m in moves])), len(ids))
                 for b, moves in zip(block, succ)]
        if len(ids) == count:
            return block
        count = len(ids)


def _barbed_game(barbs: list, succ: list, s1: int, s2: int, starts=None
                 ) -> EquivalenceVerdict:
    """The barbed back-and-forth game on one graph holding both sides'
    states, numbered 0..size-1: ``barbs[k]`` names the set of state k's
    visible actions, and ``succ[k]`` holds its silent moves, a forward one
    as its target (label 0) and a backward one as size + target (label 1).
    ``s1`` and ``s2`` are the start states; ``starts`` names them in
    witnesses.
    """
    size = len(barbs)
    ids: dict = {}
    initial = [ids.setdefault(b, len(ids)) for b in barbs]
    block = _coarsest_blocks(initial, succ)
    if block[s1] == block[s2]:
        return EquivalenceVerdict(True)
    if initial[s1] != initial[s2]:
        at = " at the start" if starts else ""
        return EquivalenceVerdict(False, witness=f"barbs differ{at}")
    # the partition is stable, so some challenge from the start pair fails:
    # a labelled block one start reaches and the other does not
    reach = [{m - m % size + block[m % size] for m in succ[s]} for s in (s1, s2)]
    for label, word in ((0, "silent move"), (1, "silent undo")):
        for i, who in enumerate(("left", "right")):
            if any(r // size == label and r not in reach[1 - i] for r in reach[i]):
                at = f" at {starts[i]}" if starts else ""
                return EquivalenceVerdict(
                    False, witness=f"{who} {word} unanswered{at}")


def barbed_bf_bisim_structs(c1: ConfStruct, c2: ConfStruct, starts=None
                            ) -> EquivalenceVerdict:
    """Barb-preserving bisimulation matching silent moves both ways.

    The game runs on the configuration graphs: a configuration's barbs are
    the labels of its visible extensions, its silent moves its tau
    extensions forward and, undone, its tau retractions backward.  By operational
    correspondence (criterion 6) a term's state graph is the image of its
    denotation's configuration graph under the address map, which
    preserves and reflects labelled moves both ways; so each configuration
    is bisimilar to its state, and given the terms' starts the game on the
    two configuration graphs answers as the term game does.  ``starts``,
    the two start terms, are named in witnesses.

    Every move is silent, so only the configurations that silent extensions
    reach from the empty one are numbered, and only their extensions read.
    Silent retractions stay among them: under the axioms ``validate``
    checks, every configuration is reached from the empty one by single
    events.  Bisimilarity depends only on what moves reach, so this part
    answers, witness included, as the whole graph does.
    """
    if c1 == c2:
        return EquivalenceVerdict(True)
    return _silent_game([(c.tag_labels, c.exts.__getitem__) for c in (c1, c2)],
                        starts)


def _silent_game(sides, starts=None) -> EquivalenceVerdict:
    """``barbed_bf_bisim_structs`` on two sides, each its labels by bit and
    its extension reader: a configuration mask to its extensions' bits."""
    barbs: list = []
    succ: list = []                     # silent moves forward
    begin, ids = [], {}
    for labels, ext in sides:
        # per event: 0 if silent, else a bit
        barb = [0 if action.is_tau else 1 << ids.setdefault(action, len(ids))
                for action in labels]
        base = len(barbs)
        number, reached = {0: base}, [0]
        for m in reached:               # numbered in the order found
            seen, moves = 0, []
            for e in ext(m):
                if barb[e]:
                    seen |= barb[e]
                else:
                    n = m | 1 << e
                    k = number.get(n)
                    if k is None:
                        k = number[n] = base + len(reached)
                        reached.append(n)
                    moves.append(k)
            barbs.append(seen)
            succ.append(moves)
        begin.append(base)
    size = len(barbs)
    undo: list = [[] for _ in range(size)]
    for k, moves in enumerate(succ):
        for n in moves:
            undo[n].append(size + k)
    return _barbed_game(barbs, [f + b for f, b in zip(succ, undo)], *begin,
                        starts)


def forward_bisim_structs(c1: ConfStruct, c2: ConfStruct) -> bool:
    """Strong bisimilarity of the empty configurations, each extension a
    move labelled by its event's label: by the correspondence argued at
    ``barbed_bf_bisim_structs``, the forward game of the denoted processes.

    Extensions only grow a configuration, so the graph is acyclic and needs
    no refinement: visited largest first, each configuration's class is the
    set of its (label, target class) pairs, interned across both sides."""
    if c1 == c2:
        return True
    ids: dict = {}
    labels = [[ids.setdefault(a, len(ids)) for a in c.tag_labels] for c in (c1, c2)]
    width, classes, start = len(ids), {}, []
    for c, label in zip((c1, c2), labels):
        exts, cls = c.exts, {}
        for m in sorted(exts, key=int.bit_count, reverse=True):
            cls[m] = classes.setdefault(frozenset(
                cls[m | 1 << e] * width + label[e] for e in exts[m]), len(classes))
        start.append(cls[0])
    return start[0] == start[1]


def forward_strong_bisim(p1: Process, p2: Process) -> bool:
    """Classical strong bisimilarity of the erased, forward-only semantics."""
    return forward_bisim_structs(encode_ccs(p1), encode_ccs(p2))


def barbed_bf_bisim_terms(t1: RTerm, t2: RTerm,
                          max_states: Optional[int] = None
                          ) -> EquivalenceVerdict:
    """The barbed back-and-forth game played on reachable state graphs."""
    graphs = reachable_states(t1, max_states), reachable_states(t2, max_states)
    size = sum(len(g.nodes) for g in graphs)
    barbs: list = [set() for _ in range(size)]
    succ: list = [[] for _ in range(size)]
    base, begin = 0, []
    for g in graphs:
        number = {key: k for k, key in enumerate(g.nodes, base)}
        for s, lbl, d in g.edges:
            if lbl.action.is_tau:
                succ[number[s]].append(number[d])
                succ[number[d]].append(size + number[s])
            else:
                barbs[number[s]].add(lbl.action)
        begin.append(number[g.initial])
        base += len(number)
    return _barbed_game(list(map(frozenset, barbs)), succ, *begin,
                        tuple(g.nodes[g.initial] for g in graphs))


# ---------------------------------------------------------------------------
# Context synthesis

MAX_FACTORS = 8                 # the most tester factors a candidate holds


def _factor(label, barb_name: str) -> Process:
    return Sum(Prefix(label.dual(), NIL), Prefix(inp(barb_name), NIL))


def _candidate(labels, taken) -> Context:
    ctx: Context = HOLE
    chosen: set = set()
    for label in labels:
        barb = fresh_name("c", taken | chosen)
        chosen.add(barb)
        ctx = Par(_factor(label, barb), ctx)
    return ctx


def synthesize_context(p1: Process, p2: Process) -> Optional[Context]:
    """Search for a context separating two processes in the barbed game.

    The bare hole is tried first.  Then each configuration of either
    denotation gives a parallel tester: for every visible event in it, a
    factor offering the co-action guarded against a fresh barb, so consuming
    the tester leaves an observable trace.  Testers of 1 to ``MAX_FACTORS``
    factors are tried once per sorted label tuple, by size, then by their
    labels; each is verified before it is returned.
    """
    s1, s2 = encode_ccs(p1), encode_ccs(p2)
    if s1 == s2:
        return None
    if not barbed_bf_bisim_structs(s1, s2).related:
        return HOLE
    taken = all_names(p1) | all_names(p2)
    testers: set = set()
    for struct in (s1, s2):
        labels = struct.tag_labels
        for m in struct.exts:
            tester = tuple(sorted((labels[i] for i in bits(m)
                                   if not labels[i].is_tau), key=str))
            if 0 < len(tester) <= MAX_FACTORS:
                testers.add(tester)
    for tester in sorted(testers, key=lambda c: (len(c), tuple(map(str, c)))):
        ctx = _candidate(tester, taken)
        # ctx[p] is structurally congruent to ctx[0] | p, so the two denote
        # isomorphic structures: the game plays on the tester beside each
        # process, each product grown only where silent moves reach
        t = encode_ccs(instantiate(ctx, NIL))
        steps = parallel_steps(t, s1), parallel_steps(t, s2)
        if not _silent_game([(g.tag_labels, g.ext) for g in steps]).related:
            return ctx
    return None


def default_context_family(p1: Process, p2: Process) -> list[Context]:
    """A small family probing each visible action, restriction and guarding."""
    taken = all_names(p1) | all_names(p2)
    family: list[Context] = [HOLE]
    labels = set()
    for struct in (encode_ccs(p1), encode_ccs(p2)):
        labels.update(label for label in struct.tag_labels if not label.is_tau)
    for label in sorted(labels, key=str):
        family.append(Par(_factor(label, fresh_name("c", taken)), HOLE))
    for name in sorted(free_names(p1) | free_names(p2)):
        family.append(Restrict(name, HOLE))
    family.append(Prefix(inp(fresh_name("g", taken)), HOLE))
    return family


class CongruenceReport(Record, frozen=False, factories={"entries": list}):
    """Closure of the equivalences under a context family.

    ``consistent`` holds when relatedness of the bare processes carries over
    to every instantiated pair, in both games; results speak only for the
    family tried, never for all contexts.
    """

    __slots__ = ("base_related", "entries")   # entries: (context, hhpb ok, barbed ok)

    @property
    def consistent(self) -> bool:
        return (not self.base_related
                or all(h and b for _, h, b in self.entries))


def check_congruence_closure(p1: Process, p2: Process,
                             contexts: Optional[list[Context]] = None,
                             max_states: int = 5000) -> CongruenceReport:
    """Play both games under each context of the family."""
    if contexts is None:
        contexts = default_context_family(p1, p2)
    report = CongruenceReport(hhpb(encode_ccs(p1), encode_ccs(p2)).related)
    for ctx in contexts:
        q1, q2 = instantiate(ctx, p1), instantiate(ctx, p2)
        hh = hhpb(encode_ccs(q1), encode_ccs(q2)).related
        barbed = barbed_bf_bisim_terms(lift(q1), lift(q2),
                                       max_states=max_states).related
        report.entries.append((ctx, hh, barbed))
    return report
