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

Each node class has one row in each of four class-keyed tables.
`_CHILDREN` gives its child terms; a value whose class has no row is not
a term (`child_terms` raises `TypeError`).  `_TEXT` gives its text, a
format over its fields that both `serialize` and `sort_key` render from.
`_FIELD_CHECKS` gives one check per field, by the parser's rules: a
concept or role name, a modality index, a concept or a formula; the
constructors run it on every call.  `_BUILD` gives its build path, made
by one factory per field count, which checks nothing.  `postorder` lists
the distinct nodes under a root children first, reading `_CHILDREN`
unless given its own `children`: closure, weights, deep negation and the
fragment all walk with it.  The hot loops (the rewrites of `normalize`
and `neg_nnf`, `serialize` and `sort_key`) read fields directly,
dispatching on class sets derived from the classes' fields.

The parser splits text at whitespace once the parentheses are spaced
out, and builds terms with a table-driven loop on an explicit stack that
probes `_TERMS` once per node and calls the class's build path on a miss;
line and column are worked out from a token's offset, with the token regex,
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
from itertools import islice
from operator import length_hint
from typing import NamedTuple

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
    construction.  The constructor of each concrete class checks, on
    every call, the number of fields and then each field by the class's
    `_FIELD_CHECKS` row before it probes `_TERMS`, so it refuses exactly
    what the parser refuses, whatever is interned.  A new node is written
    by the class's build path in `_BUILD`, which checks nothing: the
    parser calls it on tokens it has checked, and the rewrites on fields
    of existing nodes.  `Term`, `Concept` and `Formula` keep the
    constructor below, which builds nothing.  `_sort_key` caches the key
    `sort_key` computes.
    """

    __slots__ = ("_sort_key",)
    _fields: tuple[str, ...] = ()

    def __new__(cls, *args):
        raise _bad_call(cls, args)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields
        )
        return f"{type(self).__qualname__}({fields})"


def _bad_call(cls, args: tuple) -> TypeError:
    """Why a constructor call with fields `args` builds nothing: a wrong
    count, or a class without a constructor of its own."""
    name, count = cls.__qualname__, len(cls._fields)
    if len(args) != count:
        return TypeError(f"{name} takes {count} fields, got {len(args)}")
    return TypeError(f"{name} is abstract")


def _not_a_term(value) -> TypeError:
    return TypeError(f"not a concept or formula: {value!r}")


def _is_name(text: str) -> bool:
    """The rule for concept and role names: a letter, then letters,
    digits and underscores."""
    return text[:1].isalpha() and text.replace("_", "").isalnum()


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


#: Per node class, the node's child terms, leftmost first: its fields
#: that hold terms, in `_fields` order.
_CHILDREN = {
    **dict.fromkeys((AtomicConcept, Top, Bot), lambda t: ()),
    **dict.fromkeys(
        (Not, Exists, Forall, Box, Dia, NotF, BoxF, DiaF), lambda t: (t.arg,)
    ),
    **dict.fromkeys((And, Or, CI, AndF, OrF), lambda t: (t.left, t.right)),
}

#: Per node class, its text: a %-format of its fields in `_fields` order,
#: where a term field stands for that term's text.  `sort_key` fills it
#: with the children's keys; `serialize` cuts it at the fields.
_TEXT = {
    Top: "top",
    Bot: "bot",
    AtomicConcept: "(atom %s)",
    Not: "(not %s)",
    And: "(and %s %s)",
    Or: "(or %s %s)",
    Exists: "(some %s %s)",
    Forall: "(all %s %s)",
    Box: "(box %s %s)",
    Dia: "(dia %s %s)",
    CI: "(sub %s %s)",
    NotF: "(not %s)",
    AndF: "(and %s %s)",
    OrF: "(or %s %s)",
    BoxF: "(box %s %s)",
    DiaF: "(dia %s %s)",
}

#: The node classes, and the class sets the hot loops dispatch on, read
#: off their fields and sorts.
_CLASSES = (*Concept.__subclasses__(), *Formula.__subclasses__())
_CONCEPTS = frozenset(c for c in _CLASSES if issubclass(c, Concept))
_BINARY = frozenset(c for c in _CLASSES if c._fields == ("left", "right"))
_LEADS = frozenset(c for c in _CLASSES if c._fields[1:] == ("arg",))
_LEAVES = frozenset(
    c for c in _CLASSES if c not in _BINARY and "arg" not in c._fields
)
_JUNCTIONS = _BINARY - {CI}


def _name_check(what: str):
    def check(value) -> None:
        if value.__class__ is not str:
            raise TypeError(f"{what} must be a str, got {value!r}")
        if not _is_name(value):
            raise ValueError(f"expected {what}, found {value!r}")

    return check


def _index_check(value) -> None:
    if value.__class__ is not int:
        raise TypeError(f"modality index must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"modality index must be at least 1, got {value}")


def _sort_check(sort: type, what: str):
    def check(value) -> None:
        if value.__class__ not in _CHILDREN:
            raise _not_a_term(value)
        if not isinstance(value, sort):
            raise TypeError(f"not a {what}: {value!r}")

    return check


_concept_field = _sort_check(Concept, "concept")
_formula_field = _sort_check(Formula, "formula")
_role_field = _name_check("role name")

#: Per node class, one check per field in `_fields` order, by the
#: parser's rules: what `_KEYWORDS` reads there.  A check raises
#: `TypeError` for a value of the wrong type or sort, `ValueError` for a
#: name or index of the right type that the parser would refuse.
_FIELD_CHECKS = {
    **dict.fromkeys((Top, Bot), ()),
    AtomicConcept: (_name_check("concept name"),),
    Not: (_concept_field,),
    **dict.fromkeys((And, Or, CI), (_concept_field, _concept_field)),
    **dict.fromkeys((Exists, Forall), (_role_field, _concept_field)),
    **dict.fromkeys((Box, Dia), (_index_check, _concept_field)),
    NotF: (_formula_field,),
    **dict.fromkeys((AndF, OrF), (_formula_field, _formula_field)),
    **dict.fromkeys((BoxF, DiaF), (_index_check, _formula_field)),
}

_new_object = object.__new__
_set_sort_key = Term._sort_key.__set__


def _build_path(cls):
    """The build path of `cls`, one shape per arity: it makes the node of
    an intern key (class, then fields) that `_TERMS` lacks, writing the
    slots through the class's descriptors, and enters it through
    `dict.setdefault`, returning whichever node the table keeps.  It
    checks nothing."""
    setters = [getattr(cls, name).__set__ for name in cls._fields]
    if not setters:

        def build(key):
            node = _new_object(cls)
            _set_sort_key(node, None)
            return _TERMS.setdefault(key, node)

    elif len(setters) == 1:
        (set_field,) = setters

        def build(key):
            node = _new_object(cls)
            set_field(node, key[1])
            _set_sort_key(node, None)
            return _TERMS.setdefault(key, node)

    else:
        set_first, set_second = setters

        def build(key):
            node = _new_object(cls)
            set_first(node, key[1])
            set_second(node, key[2])
            _set_sort_key(node, None)
            return _TERMS.setdefault(key, node)

    return build


#: Per node class, its build path, which the parser and `_intern` call
#: after their own `_TERMS` miss.
_BUILD = {cls: _build_path(cls) for cls in _CLASSES}


def _constructor(cls):
    """The constructor of `cls`: the field count, then each field by its
    `_FIELD_CHECKS` check, then one `_TERMS` probe and the build path on
    a miss.  A field left out, one too many or a subclass builds
    nothing."""
    checks, build = _FIELD_CHECKS[cls], _BUILD[cls]

    def new(kind, *fields):
        if kind is not cls or len(fields) != len(checks):
            raise _bad_call(kind, fields)
        for check, value in zip(checks, fields):
            check(value)
        key = (kind, *fields)
        node = _TERMS.get(key)
        if node is None:
            node = build(key)
        return node

    return new


for _cls in _CLASSES:
    _cls.__new__ = _constructor(_cls)
del _cls

TOP = Top()
BOT = Bot()


def child_terms(term: Concept | Formula) -> tuple:
    """The child terms of `term`, from `_CHILDREN`; a value that is not a
    concept or formula raises `TypeError`."""
    try:
        of = _CHILDREN[term.__class__]
    except KeyError:
        raise _not_a_term(term) from None
    return of(term)


#: Marks, on a `postorder` stack, that the node below it is complete.
_EXIT = object()


def postorder(root: Term, children=None) -> list:
    """Distinct nodes under `root`, `root` included, each listed after the
    nodes `children` gives for it (by default its child terms), the
    leftmost first.  Walked on an explicit stack, so deep terms need no
    recursion; the default walk reads `_CHILDREN` itself."""
    if root.__class__ not in _CHILDREN:
        raise _not_a_term(root)
    table = _CHILDREN
    out: list = []
    seen: set = set()
    stack: list = [root]
    pop, push, emit, extend = stack.pop, stack.append, out.append, stack.extend
    while stack:
        top = pop()
        if top is _EXIT:
            emit(pop())
        elif top not in seen:
            seen.add(top)
            if children is None:
                kids = table[top.__class__](top)
            else:
                kids = children(top)
            if kids:
                push(top)
                push(_EXIT)
                extend(reversed(kids))
            else:
                emit(top)
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
        if not _is_name(token):
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
    result.  A complete key is looked up in `_TERMS`, so a node that
    exists costs one dict lookup and a new one its class's build path."""
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
            key = tuple(key)
            value = terms.get(key)
            if value is None:
                value = _BUILD[key[0]](key)
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


#: Per node class, its `_TEXT` format cut at the fields.
_CUTS = {cls: tuple(text.split("%s")) for cls, text in _TEXT.items()}


def serialize(term: Concept | Formula) -> str:
    """Render a concept or formula; parse_formula/parse_concept invert this.

    The text is emitted left to right from an explicit stack of pending
    strings and subterms, each subterm's `_TEXT` format cut at its
    fields, so deep terms need no recursion and no subterm's text is
    built apart from the whole.  Stored sort keys are not read, so the
    two renderings are built apart."""
    if term.__class__ not in _CHILDREN:
        raise _not_a_term(term)
    out: list[str] = []
    stack: list = [term]
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        top = pop()
        cls = top.__class__
        if cls is str:
            emit(top)
        elif cls in _BINARY:
            head, middle, tail = _CUTS[cls]
            emit(head)
            push(tail)
            push(top.right)
            push(middle)
            push(top.left)
        elif cls in _LEADS:
            head, middle, tail = _CUTS[cls]
            emit(head)
            emit(str(_lead(top)))
            emit(middle)
            push(tail)
            push(top.arg)
        elif cls is Not or cls is NotF:
            head, tail = _CUTS[cls]
            emit(head)
            push(tail)
            push(top.arg)
        elif cls is AtomicConcept:
            emit(_TEXT[cls] % (top.name,))
        else:
            emit(_TEXT[cls])
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

def _intern(key: tuple) -> Term:
    """The node with intern key `key` (class, then fields)."""
    node = _TERMS.get(key)
    if node is None:
        node = _BUILD[key[0]](key)
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
            if cls in _BINARY:
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
            raise _not_a_term(term)
        result = _rewrite(term)
    return result


def _negation(node) -> Term | None:
    """NNF negation of `node` from its children's, or None when one of
    those is not in `_NEGATIONS` yet."""
    cls = type(node)
    if cls is AtomicConcept:
        return _intern((Not, node))
    if cls is Not or cls is NotF:
        return node.arg
    if cls is Top:
        return BOT
    if cls is Bot:
        return TOP
    if cls is CI:
        return _intern((NotF, node))
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
    raise _not_a_term(node)


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

class Closure(NamedTuple):
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


#: Closures: formula -> its `Closure`, written through `dict.setdefault`.
_CLOSURES: dict[Formula, Closure] = {}


def _build_closure(phi: Formula) -> Closure:
    """Closure sets of `phi` in one pass over its subterms, sorted by the
    class sets.  Subterms come children first, so every `neg_nnf` call
    finds its children's negations kept and builds one node."""
    concepts: set = set()
    formulas: set = set()
    roles: set = set()
    atoms: set = set()
    modalities: set = set()
    for term in postorder(phi):
        cls = type(term)
        if cls in _CONCEPTS:
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
    serialized term.  Each key is stored on its node, built from its
    class's `_TEXT` format over the children's stored keys.  Missing keys
    are built children first on an explicit stack that holds only
    unkeyed nodes, so each subterm is rendered once and deep terms need
    no recursion."""
    key = term._sort_key
    if key is not None:
        return key
    stack = [term]
    pop, push = stack.pop, stack.append
    while stack:
        node = stack[-1]
        if node._sort_key is not None:  # a shared subterm, keyed meanwhile
            pop()
            continue
        cls = node.__class__
        if cls in _BINARY:
            left, right = node.left, node.right
            left_key, right_key = left._sort_key, right._sort_key
            if left_key is None or right_key is None:
                if right_key is None:
                    push(right)
                if left_key is None:
                    push(left)
                continue
            key = _TEXT[cls] % (left_key, right_key)
        elif cls is AtomicConcept:
            key = _TEXT[cls] % (node.name,)
        elif cls is Top or cls is Bot:
            key = _TEXT[cls]
        else:
            arg = node.arg
            arg_key = arg._sort_key
            if arg_key is None:
                push(arg)
                continue
            if cls in _LEADS:
                key = _TEXT[cls] % (_lead(node), arg_key)
            else:
                key = _TEXT[cls] % (arg_key,)
        _set_sort_key(node, key)
        pop()
    return term._sort_key
