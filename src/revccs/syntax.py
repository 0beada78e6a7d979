"""Finite CCS terms: abstract syntax, concrete syntax, normalization.

The term language is the finite fragment: inaction, action prefix, binary
guarded sum, parallel composition and name restriction.  Contexts are terms
with exactly one hole.
"""

from __future__ import annotations

import re
from typing import Iterator, Union


class ParseError(ValueError):
    """Raised on malformed concrete syntax; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Value classes

_TEMPLATE = """\
def __init__({params}):
    {body}
def __eq__(self, other):
    return ({mine}) == ({theirs}) if other.__class__ is self.__class__ else NotImplemented
def __hash__(self):
    return hash(({mine}))
"""
_FACTORY = object()   # marks a field left to its factory


class Record:
    """A value whose fields are its class's own ``__slots__``, in order.

    ``__init__``, ``__eq__`` and ``__hash__`` are compiled per class from
    ``_TEMPLATE`` with the semantics of the standard library's generated
    classes, but without the import cost: equality within one class,
    hashing by fields, reprs ``Name(field=value, ...)``.  Keywords give
    trailing fields ``defaults`` or ``factories`` (called per instance);
    ``frozen=False`` makes instances mutable and unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen=True, defaults=None, factories=None):
        defaults, factories = defaults or {}, factories or {}
        fields = cls.__dict__["__slots__"]
        params = ["self"] + [f"{f}=_default_{f}" if f in defaults else f"{f}=_FACTORY"
                             if f in factories else f for f in fields]
        # each field is set through its slot, past a frozen ``__setattr__``
        body = [f"_set_{f}(self, _default_{f}() if {f} is _FACTORY else {f})"
                if f in factories else f"_set_{f}(self, {f})" for f in fields]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {f"_default_{f}": v for f, v in {**defaults, **factories}.items()}
        namespace.update({f"_set_{f}": cls.__dict__[f].__set__ for f in fields}, _FACTORY=_FACTORY)
        mine = "".join(f"self.{f}," for f in fields)
        exec(_TEMPLATE.format(params=", ".join(params), body="\n    ".join(body or ["pass"]),
                              mine=mine, theirs=mine.replace("self.", "other.")), namespace)
        cls._fields = fields
        cls.__init__, cls.__eq__ = namespace["__init__"], namespace["__eq__"]
        cls.__hash__ = namespace["__hash__"] if frozen else None
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):   # copies and pickles rebuild through __init__
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Actions

class Action(Record, defaults={"channel": None}):
    """An input `a`, an output `'a`, or the silent action tau."""

    __slots__ = ("kind", "channel")   # kind: "in" | "out" | "tau"

    def __post_init__(self):
        if self.kind not in ("in", "out", "tau"):
            raise ValueError(f"bad action kind {self.kind!r}")
        if (self.channel is None) != (self.kind == "tau"):
            raise ValueError("visible actions need a channel, tau forbids one")
        if self.channel == "tau":       # its co-name would print as tau
            raise ValueError("tau is not a channel name")

    def dual(self) -> "Action":
        if self.kind == "tau":
            return self
        return Action("out" if self.kind == "in" else "in", self.channel)

    @property
    def is_tau(self) -> bool:
        return self.kind == "tau"

    def __str__(self) -> str:
        if self.kind == "tau":
            return "tau"
        return self.channel if self.kind == "in" else f"'{self.channel}"


TAU = Action("tau")


def inp(channel: str) -> Action:
    return Action("in", channel)


def out(channel: str) -> Action:
    return Action("out", channel)


# ---------------------------------------------------------------------------
# Terms

class _Term(Record):
    """A term or context, printed as ``unparse`` renders it."""

    __slots__ = ()

    def __str__(self) -> str:
        return unparse(self)


class Nil(_Term):
    __slots__ = ()


class Prefix(_Term):
    __slots__ = ("action", "body")


class Sum(_Term):
    """Binary sum of guarded branches; n-ary sums are right-nested."""

    __slots__ = ("left", "right")

    def __post_init__(self):
        for branch in (self.left, self.right):
            if not isinstance(branch, (Prefix, Sum, Hole)):
                raise ValueError(f"unguarded sum branch: {branch!r}")


class Par(_Term):
    __slots__ = ("left", "right")


class Restrict(_Term):
    __slots__ = ("name", "body")


class Hole(_Term):
    """The unique hole of a context."""

    __slots__ = ()


CcsTerm = Union[Nil, Prefix, Sum, Par, Restrict]
Process = CcsTerm
Context = Union[Hole, Prefix, Sum, Par, Restrict]

NIL = Nil()
HOLE = Hole()


def summands(t: CcsTerm) -> list[Prefix]:
    """Flatten a (possibly nested) sum into its guarded branches."""
    if isinstance(t, Sum):
        return summands(t.left) + summands(t.right)
    if isinstance(t, Prefix):
        return [t]
    raise ValueError(f"not a guarded term: {t!r}")


def sum_of(branches: list[CcsTerm]) -> CcsTerm:
    """Rebuild a right-nested sum; empty gives 0, a singleton stays bare."""
    if not branches:
        return NIL
    if len(branches) == 1:
        return branches[0]
    return Sum(branches[0], sum_of(branches[1:]))


# ---------------------------------------------------------------------------
# Concrete syntax
#
# process := sum ('|' sum)*
# sum     := factor ('+' factor)*          (right-nested, branches guarded)
# factor  := '0' | 'tau' '.' factor | NAME '.' factor | "'" NAME '.' factor
#          | '(' NAME ')' factor | '(' process ')' | '{' process '}' | hole
#
# `(x)` is a restriction exactly when a factor follows; a bare name is never
# a process, so two-token lookahead disambiguates restriction from grouping.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<out>'[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<hole>\[(?:·|_)?\])"
    r"|(?P<punct>[0.+|(){}]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        kind = m.lastgroup          # punctuation is its own kind
        value = m.group(kind)
        tokens.append((value if kind == "punct" else kind,
                       value[1:] if kind == "out" else value, m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, allow_hole: bool):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        self.allow_hole = allow_hole

    def peek(self, ahead: int = 0):
        i = self.index + ahead
        return self.tokens[i] if i < len(self.tokens) else ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_process(self):
        left = self.parse_sum()
        while self.peek()[0] == "|":
            self.next()
            left = Par(left, self.parse_sum())
        return left

    def parse_sum(self):
        branches = [self.parse_factor()]
        while self.peek()[0] == "+":
            self.next()
            branches.append(self.parse_factor())
        if len(branches) == 1:
            return branches[0]
        for b in branches:
            if not isinstance(b, (Prefix, Sum, Hole)):
                raise ParseError("sum branches must be guarded", self.peek()[2])
        return sum_of(branches)

    def parse_factor(self):
        kind, value, pos = self.peek()
        if kind == "0":
            self.next()
            return NIL
        if kind == "hole":
            self.next()
            if not self.allow_hole:
                raise ParseError("hole not allowed in a process", pos)
            return HOLE
        if kind in ("name", "out"):
            if kind == "out" and value == "tau":
                raise ParseError("tau is not a channel name", pos)
            self.next()
            self.expect(".")
            action = TAU if value == "tau" else (inp if kind == "name" else out)(value)
            return Prefix(action, self.parse_factor())
        if kind == "(":
            if self.peek(1)[0] == "name" and self.peek(2)[0] == ")" and self.peek(1)[1] != "tau":
                self.next()
                name = self.next()[1]
                self.next()
                return Restrict(name, self.parse_factor())
        if kind in ("(", "{"):
            self.next()
            inner = self.parse_process()
            self.expect(")" if kind == "(" else "}")
            return inner
        raise ParseError(f"unexpected token {value!r}", pos)

    def finish(self, node):
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node


def parse(text: str) -> CcsTerm:
    """Parse the concrete syntax of a finite CCS process."""
    return _parse(text, allow_hole=False)


def _parse(text: str, allow_hole: bool):
    parser = _Parser(text, allow_hole)
    node = parser.parse_process()
    return parser.finish(node)


def parse_context(text: str) -> Context:
    """Parse a context; exactly one hole is required."""
    node = _parse(text, allow_hole=True)
    n = count_holes(node)
    if n != 1:
        raise ParseError(f"a context needs exactly one hole, found {n}", 0)
    return node


def count_holes(t) -> int:
    if isinstance(t, Hole):
        return 1
    if isinstance(t, (Prefix, Restrict)):
        return count_holes(t.body)
    if isinstance(t, (Sum, Par)):
        return count_holes(t.left) + count_holes(t.right)
    return 0


# ---------------------------------------------------------------------------
# Printing

def _render(t, level: int) -> str:
    # level: 0 = parallel position, 1 = sum position, 2 = factor position
    if isinstance(t, Nil):
        return "0"
    if isinstance(t, Hole):
        return "[·]"
    if isinstance(t, Par):
        s = f"{_render(t.left, 0)} | {_render(t.right, 1)}"
        return f"({s})" if level >= 1 else s
    if isinstance(t, Sum):
        s = f"{_render(t.left, 2)} + {_render(t.right, 1)}"
        return f"({s})" if level >= 2 else s
    if isinstance(t, Prefix):
        return f"{t.action}.{_render(t.body, 2)}"
    if isinstance(t, Restrict):
        return f"({t.name}){_render(t.body, 2)}"
    raise TypeError(f"not a term: {t!r}")


def unparse(t) -> str:
    """Render a term (or context); ``parse(unparse(t)) == t``."""
    return _render(t, 0)


# ---------------------------------------------------------------------------
# Structural helpers

def free_names(t, bound: bool = False) -> frozenset[str]:
    """The free channel names of ``t``; with ``bound``, the bound ones too."""
    if isinstance(t, (Nil, Hole)):
        return frozenset()
    if isinstance(t, Prefix):
        names = free_names(t.body, bound)
        return names if t.action.is_tau else names | {t.action.channel}
    if isinstance(t, (Sum, Par)):
        return free_names(t.left, bound) | free_names(t.right, bound)
    if isinstance(t, Restrict):
        names = free_names(t.body, bound)
        return names | {t.name} if bound else names - {t.name}
    raise TypeError(f"not a term: {t!r}")


def all_names(t) -> frozenset[str]:
    """Every channel name occurring in ``t``, bound or free."""
    return free_names(t, bound=True)


def rename_free(t, old: str, new: str):
    """Rename free occurrences of channel ``old`` to ``new``.

    ``new`` must not occur in ``t`` at all, which rules out capture.
    """
    if isinstance(t, Nil):
        return t
    if isinstance(t, Prefix):
        act = t.action
        if act.channel == old:
            act = Action(act.kind, new)
        return Prefix(act, rename_free(t.body, old, new))
    if isinstance(t, Sum):
        return Sum(rename_free(t.left, old, new), rename_free(t.right, old, new))
    if isinstance(t, Par):
        return Par(rename_free(t.left, old, new), rename_free(t.right, old, new))
    if isinstance(t, Restrict):
        if t.name == old:
            return t
        return Restrict(t.name, rename_free(t.body, old, new))
    raise TypeError(f"not a term: {t!r}")


def fresh_name(base: str, taken: frozenset[str] | set[str]) -> str:
    k = 1
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def instantiate(c: Context, t: CcsTerm) -> CcsTerm:
    """Plug ``t`` into the unique hole of ``c``."""
    n = count_holes(c)
    if n != 1:
        raise ValueError(f"a context needs exactly one hole, found {n}")
    return _subst(c, t)


def _subst(c, t):
    if isinstance(c, Hole):
        return t
    if isinstance(c, Nil):
        return c
    if isinstance(c, Prefix):
        return Prefix(c.action, _subst(c.body, t))
    if isinstance(c, Sum):
        return Sum(_subst(c.left, t), _subst(c.right, t))
    if isinstance(c, Par):
        return Par(_subst(c.left, t), _subst(c.right, t))
    if isinstance(c, Restrict):
        return Restrict(c.name, _subst(c.body, t))
    raise TypeError(f"not a context: {c!r}")


def push_restrictions(t: CcsTerm) -> CcsTerm:
    """Sink every restriction as deep as it goes and drop unused ones.

    The rewrites ((a)α.P to α.(a)P when α avoids a, (a)(P|Q) to P|(a)Q when
    P avoids a, distribution over sums with a-free guards) preserve the
    denotation; they give restriction placement a normal form, so terms
    that differ only by where a binder sits compare equal.
    """
    if isinstance(t, (Nil, Hole)):
        return t
    if isinstance(t, Prefix):
        return Prefix(t.action, push_restrictions(t.body))
    if isinstance(t, Sum):
        return Sum(push_restrictions(t.left), push_restrictions(t.right))
    if isinstance(t, Par):
        return Par(push_restrictions(t.left), push_restrictions(t.right))
    if isinstance(t, Restrict):
        return _sink(t.name, push_restrictions(t.body))
    raise TypeError(f"not a term: {t!r}")


def _sink(a: str, body: CcsTerm) -> CcsTerm:
    if a not in free_names(body):
        return body
    if isinstance(body, Prefix) and body.action.channel != a:
        return Prefix(body.action, _sink(a, body.body))
    if isinstance(body, Par):
        if a not in free_names(body.left):
            return Par(body.left, _sink(a, body.right))
        if a not in free_names(body.right):
            return Par(_sink(a, body.left), body.right)
    if isinstance(body, Sum):
        branches = summands(body)
        if all(b.action.channel != a for b in branches):
            return sum_of([_sink(a, b) for b in branches])
    return Restrict(a, body)


# ---------------------------------------------------------------------------
# Collapse normalization

def collapse(t: CcsTerm, par_rule: bool = True) -> CcsTerm:
    """Merge duplicated branches so every state denotes a unique configuration.

    ``par_rule`` controls the rewrite that turns two identical parallel
    prefixes into a single one; it is part of the normalization as defined
    but erases a parallel component, so callers may opt out.
    """
    if isinstance(t, Nil):
        return t
    if isinstance(t, Prefix):
        return Prefix(t.action, collapse(t.body, par_rule))
    if isinstance(t, Sum):
        done: list[CcsTerm] = []
        for branch in summands(t):
            cb = Prefix(branch.action, collapse(branch.body, par_rule))
            if cb not in done:
                done.append(cb)
        return sum_of(done)
    if isinstance(t, Par):
        left = collapse(t.left, par_rule)
        right = collapse(t.right, par_rule)
        if (par_rule and isinstance(left, Prefix) and isinstance(right, Prefix)
                and left.action == right.action and left.body == right.body):
            return left
        return Par(left, right)
    if isinstance(t, Restrict):
        return Restrict(t.name, collapse(t.body, par_rule))
    raise TypeError(f"not a term: {t!r}")


def is_collapsed(t: CcsTerm, par_rule: bool = True) -> bool:
    return collapse(t, par_rule) == t


# ---------------------------------------------------------------------------
# Auto-concurrency / auto-conflict detection

class LabelClash(Record):
    """Two distinct same-labelled events enabled at the same configuration."""

    __slots__ = ("configuration", "label", "events")

    def __str__(self) -> str:
        return (f"configuration of size {len(self.configuration)} enables "
                f"{len(self.events)} distinct events labelled {self.label}")


def detect_auto_conflict_or_concurrency(t: CcsTerm) -> list[LabelClash]:
    """Label clashes among the extension events of any reachable configuration.

    Detection runs on the denotation so that clashes masked by restriction do
    not count.  An empty result means every enabled event is identified by its
    label alone.
    """
    from .encoding import encode_ccs

    struct = encode_ccs(t)
    violations = []
    for m in struct.ordered():
        by_label: dict[Action, list] = {}
        for e in struct.exts[m]:
            by_label.setdefault(struct.tag_labels[e], []).append(struct.tags[e])
        for label, events in sorted(by_label.items(), key=lambda kv: str(kv[0])):
            if len(events) > 1:
                violations.append(LabelClash(struct.config(m), label, tuple(events)))
    return violations
