"""Abstract syntax for multi-modal ALC concepts and formulas.

Concepts are built from atomic names with boolean connectives, role
restrictions and indexed modal operators; formulas are concept inclusions
closed under negation, conjunction, disjunction and the same modal
operators.  The module provides a fully parenthesized prefix-notation
parser and serializer, negation-normal-form rewriting (with inclusions
internalized to the form ``top <= C``), the structural weight measure used
as a termination/induction ordering, and the closure sets over which the
solver's search state ranges.

All AST nodes are interned (hash-consed) `Term`s: building a node from
the same class and fields returns the one existing object, so equal terms
are identical, equality and hashing cost constant time at any depth, and
the immutable nodes are safe to share between concurrent solver instances.

A node's child terms are written once, in the class-keyed table
`_CHILDREN`; a value whose class has no row is not a term (`child_terms`
raises `TypeError`).  `postorder` lists the distinct nodes under a root
children first, reading that table unless given its own `children`:
closure, sort keys, weights, deep negation and the fragment all walk with
it.  Only the hot rewrite loops of `normalize` and `neg_nnf` read fields
directly.

The parser splits text at whitespace once the parentheses are spaced
out, and builds terms with a table-driven loop on an explicit stack; line
and column are worked out from a token's offset, with the token regex,
only when a `ParseError` is raised.  Neither the parser, the rewrites nor
the walks recurse once per nesting level.  Three memo tables sit next to the
intern table `_TERMS`: `_NORMAL` maps each term to its normal form (and
every normal form to itself), `_NEGATIONS` each term to its NNF negation,
and `_CLOSURES` each formula to its frozen `Closure`.  Like `_TERMS` they
are written only through `dict.setdefault` and hold only immutable
values, so concurrent callers agree on one entry and distinct calls share
nothing mutable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from operator import length_hint

#: The one intern table: (class, *fields) -> the node with those fields.
_TERMS: dict[tuple, Term] = {}


class Term:
    """Interned syntax node.

    Building a node from the same class and fields gives back the existing
    node, so equality and hashing are object identity: constant time and
    no recursion, however deep the term.  Nodes enter the table through
    `dict.setdefault`, so threads that build equal terms concurrently
    still get one object.  A subclass lists its fields once, as both
    `__slots__` and `_fields`; fields cannot be assigned after
    construction.  `_sort_key` caches the key `sort_key` computes.
    """

    __slots__ = ("_sort_key",)
    _fields: tuple[str, ...] = ()

    def __new__(cls, *args):
        key = (cls, *args)
        node = _TERMS.get(key)
        if node is None:
            if len(args) != len(cls._fields):
                raise TypeError(
                    f"{cls.__qualname__} takes {len(cls._fields)} fields, "
                    f"got {len(args)}"
                )
            node = object.__new__(cls)
            for name, value in zip(cls._fields, args):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_sort_key", None)
            node = _TERMS.setdefault(key, node)
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Concept(Term):
    """Base class for concept expressions."""

    __slots__ = ()


class AtomicConcept(Concept):
    __slots__ = _fields = ("name",)


class Top(Concept):
    __slots__ = _fields = ()


class Bot(Concept):
    __slots__ = _fields = ()


class Not(Concept):
    __slots__ = _fields = ("arg",)


class And(Concept):
    __slots__ = _fields = ("left", "right")


class Or(Concept):
    __slots__ = _fields = ("left", "right")


class Exists(Concept):
    __slots__ = _fields = ("role", "arg")


class Forall(Concept):
    __slots__ = _fields = ("role", "arg")


class Box(Concept):
    __slots__ = _fields = ("index", "arg")


class Dia(Concept):
    __slots__ = _fields = ("index", "arg")


class Formula(Term):
    """Base class for formula expressions."""

    __slots__ = ()


class CI(Formula):
    """Concept inclusion ``left <= right``."""

    __slots__ = _fields = ("left", "right")


class NotF(Formula):
    __slots__ = _fields = ("arg",)


class AndF(Formula):
    __slots__ = _fields = ("left", "right")


class OrF(Formula):
    __slots__ = _fields = ("left", "right")


class BoxF(Formula):
    __slots__ = _fields = ("index", "arg")


class DiaF(Formula):
    __slots__ = _fields = ("index", "arg")


TOP = Top()
BOT = Bot()

#: Per node class, the node's child terms, leftmost first: its fields
#: that hold terms, in `_fields` order.
_CHILDREN = {
    **dict.fromkeys((AtomicConcept, Top, Bot), lambda t: ()),
    **dict.fromkeys(
        (Not, Exists, Forall, Box, Dia, NotF, BoxF, DiaF), lambda t: (t.arg,)
    ),
    **dict.fromkeys((And, Or, CI, AndF, OrF), lambda t: (t.left, t.right)),
}


def child_terms(term: Concept | Formula) -> tuple:
    """The child terms of `term`, from `_CHILDREN`; a value that is not a
    concept or formula raises `TypeError`."""
    try:
        of = _CHILDREN[term.__class__]
    except KeyError:
        raise TypeError(f"not a concept or formula: {term!r}") from None
    return of(term)


#: Marks, on a `postorder` stack, that the node below it is complete.
_EXIT = object()


def postorder(root: Term, children=None) -> list:
    """Distinct nodes under `root`, `root` included, each listed after the
    nodes `children` gives for it (by default its child terms), the
    leftmost first.  Walked on an explicit stack, so deep terms need no
    recursion."""
    if children is None:
        children = child_terms
    out: list = []
    seen: set = set()
    stack: list = [root]
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        top = pop()
        if top is _EXIT:
            emit(pop())
        elif top not in seen:
            seen.add(top)
            push(top)
            push(_EXIT)
            stack.extend(reversed(children(top)))
    return out


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


#: One token: a parenthesis, or a maximal run of anything else that is
#: not whitespace (`\s` is exactly `str.isspace`).  Used for offsets.
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _tokens(text: str) -> list[str]:
    """The tokens `_TOKEN` finds in `text`: `str.split` splits exactly
    where `str.isspace` holds, once the parentheses are spaced out."""
    return text.replace("(", " ( ").replace(")", " ) ").split()


class _BadToken(Exception):
    """A leading argument failed its check; the parser adds the position."""


def _modality_index(token: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise _BadToken(f"expected modality index, found '{token}'")
    try:
        value = int(token)
    except ValueError:  # more digits than `int` converts
        raise _BadToken("modality index has too many digits") from None
    if value < 1:
        raise _BadToken("modality index must be at least 1")
    return value


def _name(what: str):
    def check(token: str) -> str:
        if not token[0].isalpha() or not token.replace("_", "").isalnum():
            raise _BadToken(f"expected {what}, found '{token}'")
        return token

    return check


#: Sort of a term argument: one keyword table per sort.
_FORMULA, _CONCEPT = 0, 1

#: Per sort, keyword -> (constructor, check of the leading name or index
#: or None, intern key length (1 + number of fields), sort of the term
#: arguments).
_KEYWORDS = (
    {
        "sub": (CI, None, 3, _CONCEPT),
        "not": (NotF, None, 2, _FORMULA),
        "and": (AndF, None, 3, _FORMULA),
        "or": (OrF, None, 3, _FORMULA),
        "box": (BoxF, _modality_index, 3, _FORMULA),
        "dia": (DiaF, _modality_index, 3, _FORMULA),
    },
    {
        "atom": (AtomicConcept, _name("concept name"), 2, None),
        "not": (Not, None, 2, _CONCEPT),
        "and": (And, None, 3, _CONCEPT),
        "or": (Or, None, 3, _CONCEPT),
        "some": (Exists, _name("role name"), 3, _CONCEPT),
        "all": (Forall, _name("role name"), 3, _CONCEPT),
        "box": (Box, _modality_index, 3, _CONCEPT),
        "dia": (Dia, _modality_index, 3, _CONCEPT),
    },
)

#: Bare tokens that stand for a term, per sort.
_CONSTANTS = ({}, {"top": TOP, "bot": BOT})


def _misplaced(sort: int, token: str, head: bool) -> str:
    """Message for a token that cannot start a term of `sort`; `head`
    when it follows an opening parenthesis."""
    if sort == _FORMULA:
        if token in ("top", "bot") or (
            head and token in ("atom", "some", "all")
        ):
            return f"'{token}' is a concept, not a formula"
        if head:
            return f"unknown formula keyword '{token}'"
        return f"'{token}' is not a formula"
    if head:
        if token == "sub":
            return "'sub' is a formula, not a concept"
        return f"unknown concept keyword '{token}'"
    return f"'{token}' is not a concept"


_END = "unexpected end of input"


def _error(text: str, tokens: list, rest, message: str) -> ParseError:
    """ParseError at the last token taken from `tokens`, whose iterator
    `rest` holds the tokens not yet taken (1:1 when there are none).
    Positions are found from the token's offset only here, on the error
    path."""
    index = len(tokens) - length_hint(rest) - 1
    starts = [m.start() for m in islice(_TOKEN.finditer(text), index + 1)]
    offset = starts[-1] if starts else 0
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


def _parse(text: str, sort: int):
    """Parse one term of `sort` covering all of `text`.

    A table-driven shift/reduce loop over the tokens with an explicit
    stack of the enclosing open parentheses, so nesting depth costs no
    Python frames.  The open frame is `key`, the intern key so far
    (constructor, then fields), complete at length `size`, whose term
    arguments have sort `sort`; the bottom frame only collects the
    result.  A complete key is looked up in `_TERMS` first, so a node
    that exists costs one dict lookup."""
    tokens = _tokens(text)
    rest = iter(tokens)
    terms = _TERMS
    stack: list[tuple] = []
    key, size = [None], 2
    for token in rest:
        if token == "(":
            head = next(rest, None)
            entry = _KEYWORDS[sort].get(head)
            if entry is None:
                if head is None:
                    raise _error(text, tokens, rest, _END)
                raise _error(text, tokens, rest, _misplaced(sort, head, True))
            stack.append((key, size, sort))
            cls, lead, size, sort = entry
            key = [cls]
            if lead is None:
                continue
            token = next(rest, None)
            if token is None:
                raise _error(text, tokens, rest, _END)
            try:
                key.append(lead(token))
            except _BadToken as bad:
                raise _error(text, tokens, rest, str(bad)) from None
        else:
            value = _CONSTANTS[sort].get(token)
            if value is None:
                raise _error(text, tokens, rest, _misplaced(sort, token, False))
            key.append(value)
        # Close every frame whose fields are complete.
        while len(key) == size:
            if not stack:
                token = next(rest, None)
                if token is not None:
                    raise _error(
                        text, tokens, rest, f"trailing input '{token}'"
                    )
                return key[1]
            token = next(rest, None)
            if token != ")":
                if token is None:
                    raise _error(text, tokens, rest, _END)
                raise _error(
                    text, tokens, rest, f"expected ')', found '{token}'"
                )
            value = terms.get(tuple(key))
            if value is None:
                value = key[0](*key[1:])
            key, size, sort = stack.pop()
            key.append(value)
    raise _error(text, tokens, rest, _END)


def parse_formula(text: str) -> Formula:
    """Parse prefix-notation text into a formula AST.

    Raises ParseError (with line/column) on malformed input, sort
    mismatches (a concept where a formula is required, or vice versa),
    modality indices below 1, and unknown keywords.
    """
    return _parse(text, _FORMULA)


def parse_concept(text: str) -> Concept:
    """Parse prefix-notation text into a concept AST."""
    return _parse(text, _CONCEPT)


#: Per node class, the node's text as a tuple of strings and children.
_PARTS = {
    Top: lambda t: ("top",),
    Bot: lambda t: ("bot",),
    AtomicConcept: lambda t: (f"(atom {t.name})",),
    Not: lambda t: ("(not ", t.arg, ")"),
    And: lambda t: ("(and ", t.left, " ", t.right, ")"),
    Or: lambda t: ("(or ", t.left, " ", t.right, ")"),
    Exists: lambda t: (f"(some {t.role} ", t.arg, ")"),
    Forall: lambda t: (f"(all {t.role} ", t.arg, ")"),
    Box: lambda t: (f"(box {t.index} ", t.arg, ")"),
    Dia: lambda t: (f"(dia {t.index} ", t.arg, ")"),
    CI: lambda t: ("(sub ", t.left, " ", t.right, ")"),
    NotF: lambda t: ("(not ", t.arg, ")"),
    AndF: lambda t: ("(and ", t.left, " ", t.right, ")"),
    OrF: lambda t: ("(or ", t.left, " ", t.right, ")"),
    BoxF: lambda t: (f"(box {t.index} ", t.arg, ")"),
    DiaF: lambda t: (f"(dia {t.index} ", t.arg, ")"),
}


def serialize(term: Concept | Formula) -> str:
    """Render a concept or formula; parse_formula/parse_concept invert this.

    The text is emitted left to right from an explicit stack of pending
    strings and subterms, so deep terms need no recursion and no
    subterm's text is built apart from the whole."""
    if term.__class__ not in _CHILDREN:
        child_terms(term)  # raises TypeError
    out: list[str] = []
    stack: list = [term]
    while stack:
        top = stack.pop()
        if top.__class__ is str:
            out.append(top)
        else:
            stack.extend(reversed(_PARTS[top.__class__](top)))
    return "".join(out)


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------

#: Normal forms: term -> its `normalize` result, written through
#: `dict.setdefault` next to `_TERMS`.  Every result also maps to itself.
_NORMAL: dict[Term, Term] = {}

#: NNF negations: term -> its `neg_nnf` result, written the same way.
_NEGATIONS: dict[Term, Term] = {}

#: The dual of each connective, restriction and modal operator.
_DUAL = {
    And: Or,
    Or: And,
    Exists: Forall,
    Forall: Exists,
    Box: Dia,
    Dia: Box,
    AndF: OrF,
    OrF: AndF,
    BoxF: DiaF,
    DiaF: BoxF,
}

_JUNCTIONS = (And, Or, AndF, OrF)
_LEAVES = (AtomicConcept, Top, Bot)


def _intern(key: tuple) -> Term:
    """The node with intern key `key` (constructor, then fields)."""
    node = _TERMS.get(key)
    if node is None:
        node = key[0](*key[1:])
    return node


def _lead(node):
    """The role or modality index of a unary node."""
    return node.role if type(node) in (Exists, Forall) else node.index


def _rewrite(term):
    """Normal form of `term`, built children first on an explicit stack
    and recorded in `_NORMAL` for every subterm.  A negation's normal form
    is the NNF negation of its argument's, so nothing is built but the
    result, and a node whose children are their own normal forms is its
    own."""
    memo = _NORMAL
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        cls = type(node)
        if not ready:
            if node in memo:
                continue
            if cls in _LEAVES:
                memo.setdefault(node, node)
                continue
            stack.append((node, True))
            if cls in _JUNCTIONS or cls is CI:
                if node.right not in memo:
                    stack.append((node.right, False))
                if node.left not in memo:
                    stack.append((node.left, False))
            elif node.arg not in memo:
                stack.append((node.arg, False))
            continue
        if cls is Not or cls is NotF:
            result = neg_nnf(memo[node.arg])
        elif cls is CI:
            right = memo[node.right]
            if node.left is not TOP:
                right = _intern((Or, neg_nnf(memo[node.left]), right))
            if right is node.right and node.left is TOP:
                result = node
            else:
                result = _intern((CI, TOP, right))
        elif cls in _JUNCTIONS:
            left, right = memo[node.left], memo[node.right]
            if left is node.left and right is node.right:
                result = node
            else:
                result = _intern((cls, left, right))
        else:
            arg = memo[node.arg]
            if arg is node.arg:
                result = node
            else:
                result = _intern((cls, _lead(node), arg))
        memo.setdefault(node, result)
        if result is not node:
            memo.setdefault(result, result)
    return memo[term]


def normalize(term: Concept | Formula) -> Concept | Formula:
    """Rewrite to the solver's input form.

    Every inclusion C <= D becomes top <= (not C) or D, and the whole
    formula (concepts included) is put in negation normal form, so NotF
    survives only directly above an inclusion; on a concept this is its
    negation normal form, with negation pushed down to atomic names
    (top/bot stay native).  Satisfiability is preserved, and the rewrite
    is idempotent: a result is its own normal form.  Results are kept per
    interned node, so a repeated call is one lookup.
    """
    result = _NORMAL.get(term)
    if result is None:
        if term.__class__ not in _CHILDREN:
            child_terms(term)  # raises TypeError
        result = _rewrite(term)
    return result


def _negation(node) -> Term | None:
    """NNF negation of `node` from its children's, or None when one of
    those is not in `_NEGATIONS` yet."""
    cls = type(node)
    if cls is AtomicConcept:
        return Not(node)
    if cls is Not or cls is NotF:
        return node.arg
    if cls is Top:
        return BOT
    if cls is Bot:
        return TOP
    if cls is CI:
        return NotF(node)
    memo = _NEGATIONS
    if cls in _JUNCTIONS:
        left, right = memo.get(node.left), memo.get(node.right)
        if left is None or right is None:
            return None
        return _intern((_DUAL[cls], left, right))
    if cls in _DUAL:
        arg = memo.get(node.arg)
        if arg is None:
            return None
        return _intern((_DUAL[cls], _lead(node), arg))
    raise TypeError(f"not a concept or formula: {node!r}")


def _negate_deep(term) -> Term:
    """NNF negation of `term`, its subterms' negations built children
    first and recorded in `_NEGATIONS`."""
    memo = _NEGATIONS

    def missing(node) -> list:
        # A negation is built from its children's when its class has a dual.
        if node.__class__ not in _DUAL:
            return []
        return [c for c in _CHILDREN[node.__class__](node) if c not in memo]

    for node in postorder(term, missing):
        memo.setdefault(node, _negation(node))
    return memo[term]


def neg_nnf(term):
    """NNF negation of an NNF term; an involution on both sorts.  Kept per
    interned node; when a child's negation is not kept yet, the subterms
    are negated children first, so no call recurses."""
    result = _NEGATIONS.get(term)
    if result is None:
        result = _negation(term)
        if result is None:
            return _negate_deep(term)
        result = _NEGATIONS.setdefault(term, result)
    return result


def weight(term: Concept | Formula) -> int:
    """Structural weight: invariant under NNF negation.

    Atoms, their negations, top/bot and inclusions weigh 0; restrictions
    and modal operators add 1; binary connectives add 1 plus the weights
    of both arguments: a node adds 1 when its class has a dual.  Computed
    children first, with each distinct subterm weighed once per call; a
    shared subterm still counts once per occurrence.
    """
    weights: dict = {}
    for node in postorder(term):
        cls = node.__class__
        kids = () if cls is CI else _CHILDREN[cls](node)
        weights[node] = (cls in _DUAL) + sum([weights[c] for c in kids])
    return weights[term]


# ---------------------------------------------------------------------------
# Closure sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Closure:
    """Subterm closure of a normalized formula, closed under NNF negation.

    fg_size is the combined size of the three components and bounds the
    solver's label and constraint budgets.  `atoms` lists the concept
    names and `modalities` the modality indices that occur, both sorted:
    the signature an extracted model interprets.
    """

    con_neg: frozenset[Concept]
    for_neg: frozenset[Formula]
    roles: frozenset[str]
    atoms: tuple[str, ...]
    modalities: tuple[int, ...]

    @property
    def fg_size(self) -> int:
        return len(self.con_neg) + len(self.for_neg) + len(self.roles)


def _subterms(term: Concept | Formula) -> list:
    """Distinct subterms of a term, both sides of every inclusion
    included, each listed after its own subterms."""
    return postorder(term)


#: Closures: formula -> its `Closure`, written through `dict.setdefault`.
_CLOSURES: dict[Formula, Closure] = {}


def _build_closure(phi: Formula) -> Closure:
    """Closure sets of `phi` in one pass over its subterms.  Subterms come
    children first, so every `neg_nnf` call finds its children's
    negations kept and builds one node."""
    concepts: set = set()
    formulas: set = set()
    roles: set = set()
    atoms: set = set()
    modalities: set = set()
    for term in _subterms(phi):
        cls = type(term)
        if issubclass(cls, Concept):
            concepts.add(term)
            concepts.add(neg_nnf(term))
            if cls is Exists or cls is Forall:
                roles.add(term.role)
            elif cls is AtomicConcept:
                atoms.add(term.name)
            elif cls is Box or cls is Dia:
                modalities.add(term.index)
        else:
            formulas.add(term)
            formulas.add(neg_nnf(term))
            if cls is BoxF or cls is DiaF:
                modalities.add(term.index)
    return Closure(
        frozenset(concepts),
        frozenset(formulas),
        frozenset(roles),
        tuple(sorted(atoms)),
        tuple(sorted(modalities)),
    )


def closure(phi: Formula) -> Closure:
    """Closure sets of a normalized formula, built once per formula: the
    frozen result is shared by every later call."""
    result = _CLOSURES.get(phi)
    if result is None:
        result = _CLOSURES.setdefault(phi, _build_closure(phi))
    return result


def sort_key(term: Concept | Formula) -> str:
    """Stable canonical ordering key for deterministic iteration: the
    serialized term.  Each key is stored on its node and built children
    first from the children's stored keys, so each subterm is rendered
    once and deep terms need no recursion."""
    key = term._sort_key
    if key is None:

        def unkeyed(node) -> list:
            return [c for c in child_terms(node) if c._sort_key is None]

        for node in postorder(term, unkeyed):
            text = [
                p if p.__class__ is str else p._sort_key
                for p in _PARTS[node.__class__](node)
            ]
            object.__setattr__(node, "_sort_key", "".join(text))
        key = term._sort_key
    return key
