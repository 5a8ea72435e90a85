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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

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


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


_PUNCT = {"(", ")"}


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, line, col))
            col += 1
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _PUNCT:
            j += 1
        tokens.append((text[i:j], line, col))
        col += j - i
        i = j
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self._end = (1, 1) if not self.tokens else None

    def _err(self, message: str, at: tuple[str, int, int] | None = None):
        if at is None:
            if self.tokens:
                last = self.tokens[min(self.pos, len(self.tokens) - 1)]
                line, col = last[1], last[2]
            else:
                line, col = 1, 1
            raise ParseError(message, line, col)
        raise ParseError(message, at[1], at[2])

    def _next(self) -> tuple[str, int, int]:
        if self.pos >= len(self.tokens):
            self._err("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, text: str):
        tok = self._next()
        if tok[0] != text:
            self._err(f"expected '{text}', found '{tok[0]}'", tok)

    def _ident(self, what: str) -> str:
        tok = self._next()
        name = tok[0]
        if not name or not name[0].isalpha() or not all(
            c.isalnum() or c == "_" for c in name
        ):
            self._err(f"expected {what}, found '{name}'", tok)
        return name

    def _index(self) -> int:
        tok = self._next()
        if not tok[0].isdigit():
            self._err(f"expected modality index, found '{tok[0]}'", tok)
        value = int(tok[0])
        if value < 1:
            self._err("modality index must be at least 1", tok)
        return value

    def formula(self) -> Formula:
        tok = self._next()
        if tok[0] != "(":
            if tok[0] in ("top", "bot"):
                self._err(f"'{tok[0]}' is a concept, not a formula", tok)
            self._err(f"'{tok[0]}' is not a formula", tok)
        head = self._next()
        kw = head[0]
        if kw == "sub":
            left = self.concept()
            right = self.concept()
            self._expect(")")
            return CI(left, right)
        if kw == "not":
            arg = self.formula()
            self._expect(")")
            return NotF(arg)
        if kw == "and" or kw == "or":
            left = self.formula()
            right = self.formula()
            self._expect(")")
            return AndF(left, right) if kw == "and" else OrF(left, right)
        if kw == "box" or kw == "dia":
            index = self._index()
            arg = self.formula()
            self._expect(")")
            return BoxF(index, arg) if kw == "box" else DiaF(index, arg)
        if kw in ("top", "bot", "atom", "some", "all"):
            self._err(f"'{kw}' is a concept, not a formula", head)
        self._err(f"unknown formula keyword '{kw}'", head)

    def concept(self) -> Concept:
        tok = self._next()
        if tok[0] == "top":
            return TOP
        if tok[0] == "bot":
            return BOT
        if tok[0] != "(":
            self._err(f"'{tok[0]}' is not a concept", tok)
        head = self._next()
        kw = head[0]
        if kw == "atom":
            name = self._ident("concept name")
            self._expect(")")
            return AtomicConcept(name)
        if kw == "not":
            arg = self.concept()
            self._expect(")")
            return Not(arg)
        if kw == "and" or kw == "or":
            left = self.concept()
            right = self.concept()
            self._expect(")")
            return And(left, right) if kw == "and" else Or(left, right)
        if kw == "some" or kw == "all":
            role = self._ident("role name")
            arg = self.concept()
            self._expect(")")
            return Exists(role, arg) if kw == "some" else Forall(role, arg)
        if kw == "box" or kw == "dia":
            index = self._index()
            arg = self.concept()
            self._expect(")")
            return Box(index, arg) if kw == "box" else Dia(index, arg)
        if kw == "sub":
            self._err("'sub' is a formula, not a concept", head)
        self._err(f"unknown concept keyword '{kw}'", head)

    def finish(self):
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            self._err(f"trailing input '{tok[0]}'", tok)


def parse_formula(text: str) -> Formula:
    """Parse prefix-notation text into a formula AST.

    Raises ParseError (with line/column) on malformed input, sort
    mismatches (a concept where a formula is required, or vice versa),
    modality indices below 1, and unknown keywords.
    """
    parser = _Parser(text)
    result = parser.formula()
    parser.finish()
    return result


def parse_concept(text: str) -> Concept:
    """Parse prefix-notation text into a concept AST."""
    parser = _Parser(text)
    result = parser.concept()
    parser.finish()
    return result


def serialize(term: Concept | Formula, sub=None) -> str:
    """Render a concept or formula; parse_formula/parse_concept invert this.

    Children are rendered with `sub`, by default serialize itself;
    sort_key passes the keys already stored on the children.
    """
    if sub is None:
        sub = serialize
    if isinstance(term, Top):
        return "top"
    if isinstance(term, Bot):
        return "bot"
    if isinstance(term, AtomicConcept):
        return f"(atom {term.name})"
    if isinstance(term, Not):
        return f"(not {sub(term.arg)})"
    if isinstance(term, And):
        return f"(and {sub(term.left)} {sub(term.right)})"
    if isinstance(term, Or):
        return f"(or {sub(term.left)} {sub(term.right)})"
    if isinstance(term, Exists):
        return f"(some {term.role} {sub(term.arg)})"
    if isinstance(term, Forall):
        return f"(all {term.role} {sub(term.arg)})"
    if isinstance(term, Box):
        return f"(box {term.index} {sub(term.arg)})"
    if isinstance(term, Dia):
        return f"(dia {term.index} {sub(term.arg)})"
    if isinstance(term, CI):
        return f"(sub {sub(term.left)} {sub(term.right)})"
    if isinstance(term, NotF):
        return f"(not {sub(term.arg)})"
    if isinstance(term, AndF):
        return f"(and {sub(term.left)} {sub(term.right)})"
    if isinstance(term, OrF):
        return f"(or {sub(term.left)} {sub(term.right)})"
    if isinstance(term, BoxF):
        return f"(box {term.index} {sub(term.arg)})"
    if isinstance(term, DiaF):
        return f"(dia {term.index} {sub(term.arg)})"
    raise TypeError(f"not a concept or formula: {term!r}")


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------

def nnf_concept(concept: Concept) -> Concept:
    """Push concept negation down to atomic names (top/bot stay native)."""
    if isinstance(concept, (AtomicConcept, Top, Bot)):
        return concept
    if isinstance(concept, And):
        return And(nnf_concept(concept.left), nnf_concept(concept.right))
    if isinstance(concept, Or):
        return Or(nnf_concept(concept.left), nnf_concept(concept.right))
    if isinstance(concept, Exists):
        return Exists(concept.role, nnf_concept(concept.arg))
    if isinstance(concept, Forall):
        return Forall(concept.role, nnf_concept(concept.arg))
    if isinstance(concept, Box):
        return Box(concept.index, nnf_concept(concept.arg))
    if isinstance(concept, Dia):
        return Dia(concept.index, nnf_concept(concept.arg))
    assert isinstance(concept, Not)
    arg = concept.arg
    if isinstance(arg, AtomicConcept):
        return concept
    if isinstance(arg, Top):
        return BOT
    if isinstance(arg, Bot):
        return TOP
    if isinstance(arg, Not):
        return nnf_concept(arg.arg)
    if isinstance(arg, And):
        return Or(nnf_concept(Not(arg.left)), nnf_concept(Not(arg.right)))
    if isinstance(arg, Or):
        return And(nnf_concept(Not(arg.left)), nnf_concept(Not(arg.right)))
    if isinstance(arg, Exists):
        return Forall(arg.role, nnf_concept(Not(arg.arg)))
    if isinstance(arg, Forall):
        return Exists(arg.role, nnf_concept(Not(arg.arg)))
    if isinstance(arg, Box):
        return Dia(arg.index, nnf_concept(Not(arg.arg)))
    assert isinstance(arg, Dia)
    return Box(arg.index, nnf_concept(Not(arg.arg)))


def _normalize_ci(ci: CI) -> CI:
    if isinstance(ci.left, Top):
        return CI(TOP, nnf_concept(ci.right))
    return CI(TOP, nnf_concept(Or(Not(ci.left), ci.right)))


def normalize(phi: Formula) -> Formula:
    """Rewrite to the solver's input form.

    Every inclusion C <= D becomes top <= (not C) or D, and the whole
    formula (concepts included) is put in negation normal form, so NotF
    survives only directly above an inclusion.  Satisfiability is
    preserved, and the rewrite is idempotent.
    """
    if isinstance(phi, CI):
        return _normalize_ci(phi)
    if isinstance(phi, AndF):
        return AndF(normalize(phi.left), normalize(phi.right))
    if isinstance(phi, OrF):
        return OrF(normalize(phi.left), normalize(phi.right))
    if isinstance(phi, BoxF):
        return BoxF(phi.index, normalize(phi.arg))
    if isinstance(phi, DiaF):
        return DiaF(phi.index, normalize(phi.arg))
    assert isinstance(phi, NotF)
    arg = phi.arg
    if isinstance(arg, CI):
        return NotF(_normalize_ci(arg))
    if isinstance(arg, NotF):
        return normalize(arg.arg)
    if isinstance(arg, AndF):
        return OrF(normalize(NotF(arg.left)), normalize(NotF(arg.right)))
    if isinstance(arg, OrF):
        return AndF(normalize(NotF(arg.left)), normalize(NotF(arg.right)))
    if isinstance(arg, BoxF):
        return DiaF(arg.index, normalize(NotF(arg.arg)))
    assert isinstance(arg, DiaF)
    return BoxF(arg.index, normalize(NotF(arg.arg)))


@lru_cache(maxsize=None)
def neg_nnf(term):
    """NNF negation of an NNF term; an involution on both sorts."""
    if isinstance(term, AtomicConcept):
        return Not(term)
    if isinstance(term, Not):
        return term.arg
    if isinstance(term, Top):
        return BOT
    if isinstance(term, Bot):
        return TOP
    if isinstance(term, And):
        return Or(neg_nnf(term.left), neg_nnf(term.right))
    if isinstance(term, Or):
        return And(neg_nnf(term.left), neg_nnf(term.right))
    if isinstance(term, Exists):
        return Forall(term.role, neg_nnf(term.arg))
    if isinstance(term, Forall):
        return Exists(term.role, neg_nnf(term.arg))
    if isinstance(term, Box):
        return Dia(term.index, neg_nnf(term.arg))
    if isinstance(term, Dia):
        return Box(term.index, neg_nnf(term.arg))
    if isinstance(term, CI):
        return NotF(term)
    if isinstance(term, NotF):
        return term.arg
    if isinstance(term, AndF):
        return OrF(neg_nnf(term.left), neg_nnf(term.right))
    if isinstance(term, OrF):
        return AndF(neg_nnf(term.left), neg_nnf(term.right))
    if isinstance(term, BoxF):
        return DiaF(term.index, neg_nnf(term.arg))
    if isinstance(term, DiaF):
        return BoxF(term.index, neg_nnf(term.arg))
    raise TypeError(f"not a concept or formula: {term!r}")


def weight(term: Concept | Formula) -> int:
    """Structural weight: invariant under NNF negation.

    Atoms, their negations, top/bot and inclusions weigh 0; restrictions
    and modal operators add 1; binary connectives add 1 plus the weights
    of both arguments.
    """
    if isinstance(term, (AtomicConcept, Top, Bot, CI)):
        return 0
    if isinstance(term, Not):
        return weight(term.arg)
    if isinstance(term, NotF):
        return weight(term.arg)
    if isinstance(term, (And, Or, AndF, OrF)):
        return weight(term.left) + weight(term.right) + 1
    if isinstance(term, (Exists, Forall, Box, Dia, BoxF, DiaF)):
        return weight(term.arg) + 1
    raise TypeError(f"not a concept or formula: {term!r}")


# ---------------------------------------------------------------------------
# Closure sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Closure:
    """Subterm closure of a normalized formula, closed under NNF negation.

    fg_size is the combined size of the three components and bounds the
    solver's label and constraint budgets.
    """

    con_neg: frozenset[Concept]
    for_neg: frozenset[Formula]
    roles: frozenset[str]

    @property
    def fg_size(self) -> int:
        return len(self.con_neg) + len(self.for_neg) + len(self.roles)


def _subterms(term: Concept | Formula) -> list:
    """Distinct subterms of a term, both sides of every inclusion
    included, each listed after its own subterms.  Built with an explicit
    stack, so deep terms need no recursion."""
    out: list = []
    seen: set = set()
    stack = [(term, False)]
    while stack:
        top, expanded = stack.pop()
        if expanded:
            out.append(top)
        elif top not in seen:
            seen.add(top)
            stack.append((top, True))
            stack.extend((c, False) for c in _children(top))
    return out


def subformulas(phi: Formula) -> set[Formula]:
    return {t for t in _subterms(phi) if isinstance(t, Formula)}


def formula_concepts(phi: Formula) -> set[Concept]:
    """All concepts occurring in phi (both sides of every inclusion)."""
    return {t for t in _subterms(phi) if isinstance(t, Concept)}


def closure(phi: Formula) -> Closure:
    """Closure sets of a normalized formula.

    Subterms are negated children first, so every `neg_nnf` call finds
    its children's negations cached and recursion stays shallow however
    deep the formula."""
    terms = _subterms(phi)
    terms += [neg_nnf(t) for t in terms]
    con_neg = frozenset(t for t in terms if isinstance(t, Concept))
    for_neg = frozenset(t for t in terms if isinstance(t, Formula))
    roles = frozenset(
        c.role for c in con_neg if isinstance(c, (Exists, Forall))
    )
    return Closure(con_neg, for_neg, roles)


def has_modalised_concept(phi: Formula) -> bool:
    """True when a box or diamond occurs at concept level."""
    return any(
        isinstance(c, (Box, Dia)) for c in formula_concepts(phi)
    )


def _children(term: Concept | Formula) -> tuple:
    if isinstance(term, (And, Or, CI, AndF, OrF)):
        return (term.left, term.right)
    if isinstance(term, (Top, Bot, AtomicConcept)):
        return ()
    return (term.arg,)


_cached_key = attrgetter("_sort_key")


def sort_key(term: Concept | Formula) -> str:
    """Stable canonical ordering key for deterministic iteration: the
    serialized term.  Each key is stored on its node and built children
    first from the children's stored keys, with an explicit stack, so
    each subterm is rendered once and deep terms need no recursion."""
    key = term._sort_key
    if key is None:
        stack = [term]
        while stack:
            top = stack[-1]
            missing = [c for c in _children(top) if c._sort_key is None]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            object.__setattr__(top, "_sort_key", serialize(top, _cached_key))
        key = term._sort_key
    return key
