import gc
import multiprocessing
import random
import statistics
import sys
import threading
import time

import pytest

from nnmdl import syntax
from nnmdl.syntax import (
    And,
    AndF,
    AtomicConcept,
    Bot,
    Box,
    BoxF,
    CI,
    Concept,
    Dia,
    DiaF,
    Exists,
    Forall,
    Formula,
    Not,
    NotF,
    Or,
    OrF,
    ParseError,
    Term,
    Top,
    child_terms,
    closure,
    neg_nnf,
    normalize,
    parse_concept,
    parse_formula,
    postorder,
    serialize,
    sort_key,
    weight,
)

from corpus import (
    random_concept,
    random_g_formula,
    random_normalized_formula,
    random_raw_formula_any,
)
from test_acceptance import CORPUS_SEED, CORPUS_SIZE, FRAGMENT_SEED, FRAGMENT_SIZE

A = AtomicConcept("A")
B = AtomicConcept("B")


# -- parsing ----------------------------------------------------------------

def test_parse_simple_inclusion():
    assert parse_formula("(sub top (atom A))") == CI(Top(), A)


def test_parse_boxed_inclusion():
    assert parse_formula("(box 1 (sub (atom A) (atom B)))") == BoxF(1, CI(A, B))


def test_parse_sort_mismatch():
    with pytest.raises(ParseError, match="concept, not a formula"):
        parse_formula("(and top top)")


def test_parse_modality_index_zero():
    with pytest.raises(ParseError, match="at least 1"):
        parse_formula("(box 0 (sub top top))")


def test_parse_unknown_keyword():
    with pytest.raises(ParseError, match="unknown"):
        parse_formula("(implies top top)")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_formula("(sub top\n  (atom 1X))")
    assert err.value.line == 2


def test_parse_trailing_input_rejected():
    with pytest.raises(ParseError, match="trailing"):
        parse_formula("(sub top top) top")


def test_parse_concepts():
    assert parse_concept("(some r (all s bot))") == Exists("r", Forall("s", Bot()))


#: Malformed inputs and the exact error each raises, position included.
PARSE_ERRORS = [
    (parse_formula, "", "1:1: unexpected end of input"),
    (parse_formula, "   \n  ", "1:1: unexpected end of input"),
    (parse_formula, "(sub top", "1:6: unexpected end of input"),
    (parse_formula, "(and (sub top top)", "1:18: unexpected end of input"),
    (parse_formula, "(box", "1:2: unexpected end of input"),
    (parse_concept, "(atom", "1:2: unexpected end of input"),
    (parse_formula, "(implies top top)", "1:2: unknown formula keyword 'implies'"),
    (parse_concept, "(implies top top)", "1:2: unknown concept keyword 'implies'"),
    (parse_formula, "top", "1:1: 'top' is a concept, not a formula"),
    (parse_formula, "bot", "1:1: 'bot' is a concept, not a formula"),
    (parse_formula, "(atom A)", "1:2: 'atom' is a concept, not a formula"),
    (parse_formula, "(not (some r top))", "1:7: 'some' is a concept, not a formula"),
    (parse_formula, ")", "1:1: ')' is not a formula"),
    (parse_concept, "(sub top top)", "1:2: 'sub' is a formula, not a concept"),
    (parse_concept, "A", "1:1: 'A' is not a concept"),
    (parse_formula, "(sub top\n  (atom 1X))", "2:9: expected concept name, found '1X'"),
    (parse_concept, "(some 1r top)", "1:7: expected role name, found '1r'"),
    (parse_formula, "(box 0 (sub top top))", "1:6: modality index must be at least 1"),
    (parse_formula, "(dia x (sub top top))", "1:6: expected modality index, found 'x'"),
    (parse_formula, "(box \u00b2 (sub top top))", "1:6: expected modality index, found '\u00b2'"),
    (
        parse_formula,
        "(box " + "1" * 5000 + " (sub top top))",
        "1:6: modality index has too many digits",
    ),
    (parse_formula, "(sub top (atom A)", "1:17: unexpected end of input"),
    (parse_formula, "(sub top top top)", "1:14: expected ')', found 'top'"),
    (parse_formula, "(sub top top) top", "1:15: trailing input 'top'"),
    (parse_formula, "(sub top\t(atom A B))", "1:18: expected ')', found 'B'"),
    (parse_formula, "(sub top\u00a0(atom A B))", "1:18: expected ')', found 'B'"),
    (
        parse_formula,
        "(sub\n\t\u00a0 top\r\n  (all r (atom _A)))",
        "3:16: expected concept name, found '_A'",
    ),
]


@pytest.mark.parametrize("parse, text, message", PARSE_ERRORS)
def test_parse_error_text_and_position(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    line, column, _ = message.split(":", 2)
    assert (err.value.line, err.value.column) == (int(line), int(column))


def test_split_tokens_equal_the_token_regex():
    # The parser splits with str.split; error positions come from _TOKEN.
    # Both must cut text at the same places: at every whitespace character
    # and around parentheses, and nowhere else.
    spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    texts = ["", "()", ")(", "(sub top (atom A))", "((a)b)c", "a\u200bb\ufeffc\x00"]
    for ch in spaces:
        texts += [ch, f"a{ch}b", f"({ch})", f"{ch}(sub{ch}top{ch}(atom A)){ch}{ch}"]
    rng = random.Random(5)
    alphabet = spaces + list("()ab_1") + ["\u200b", "\ufeff", "\x00", "\u00e9"]
    texts += ["".join(rng.choices(alphabet, k=rng.randrange(30))) for _ in range(2000)]
    for text in texts:
        assert syntax._tokens(text) == syntax._TOKEN.findall(text), repr(text)


# -- serialization ----------------------------------------------------------

def test_serialize_golden():
    assert serialize(CI(Top(), A)) == "(sub top (atom A))"
    assert serialize(DiaF(2, CI(Top(), A))) == "(dia 2 (sub top (atom A)))"


def test_round_trip_random_asts():
    rng = random.Random(2024)
    for _ in range(1000):
        phi = random_raw_formula_any(rng)
        assert parse_formula(serialize(phi)) == phi


# -- sort keys ----------------------------------------------------------------

def _assert_keys_are_texts(roots) -> None:
    """Every subterm of each root, and every member of the closure of its
    normal form (that form's subterms and their negations), has the sort
    key `serialize` renders.  The members' stored keys are cleared first,
    so `sort_key` builds each one anew."""
    members = set()
    for phi in roots:
        clo = closure(normalize(phi))
        members.update(postorder(phi), clo.con_neg, clo.for_neg)
    for term in members:
        object.__setattr__(term, "_sort_key", None)
    for term in members:
        assert sort_key(term) == serialize(term)


def test_sort_key_is_the_text_on_the_corpora():
    rng = random.Random(CORPUS_SEED)
    roots = [random_normalized_formula(rng) for _ in range(CORPUS_SIZE)]
    rng = random.Random(FRAGMENT_SEED)
    roots += [random_g_formula(rng) for _ in range(FRAGMENT_SIZE)]
    _assert_keys_are_texts(roots)


def test_sort_key_is_the_text_on_random_formulas():
    rng = random.Random(23)
    _assert_keys_are_texts([random_raw_formula_any(rng) for _ in range(1000)])


def _deep_keys(left: bool) -> None:
    _assert_keys_are_texts([CI(Top(), _chain(2000, left, And, A, A))])


@pytest.mark.parametrize("left", [True, False])
def test_sort_key_is_the_text_on_deep_chains(left):
    with _fresh_children() as pool:
        pool.apply(_deep_keys, (left,))


# -- normalization ----------------------------------------------------------

def test_normalize_internalizes_inclusions():
    assert normalize(CI(A, B)) == CI(Top(), Or(Not(A), B))


def test_normalize_pushes_formula_negation():
    psi = CI(Top(), A)
    assert normalize(NotF(BoxF(1, psi))) == DiaF(1, NotF(psi))


def test_normalize_de_morgan_in_concepts():
    phi = CI(Top(), Not(And(A, B)))
    assert normalize(phi) == CI(Top(), Or(Not(A), Not(B)))


def test_normalize_idempotent_random():
    rng = random.Random(99)
    for _ in range(1000):
        phi = normalize(random_raw_formula_any(rng))
        assert normalize(phi) == phi


# -- negation and weight ----------------------------------------------------

def test_neg_nnf_examples():
    assert neg_nnf(A) == Not(A)
    assert neg_nnf(Exists("r", A)) == Forall("r", Not(A))
    psi = CI(Top(), A)
    assert neg_nnf(psi) == NotF(psi)


def test_neg_nnf_involution_random():
    rng = random.Random(5)
    for _ in range(1000):
        phi = normalize(random_raw_formula_any(rng))
        assert neg_nnf(neg_nnf(phi)) == phi


def test_weight_recurrences():
    assert weight(A) == 0
    assert weight(Not(A)) == 0
    assert weight(Exists("r", A)) == 1
    assert weight(And(A, Or(A, B))) == 2
    assert weight(CI(Top(), Exists("r", A))) == 0
    assert weight(BoxF(1, CI(Top(), A))) == 1
    assert weight(AndF(CI(Top(), A), CI(Top(), B))) == 1
    # A shared subterm counts once per occurrence.
    assert weight(And(Exists("r", A), Exists("r", A))) == 3
    doubled = A
    for _ in range(64):
        doubled = Or(doubled, doubled)
    assert weight(doubled) == 2**64 - 1


def test_weight_invariant_under_negation_random():
    rng = random.Random(17)
    for _ in range(1000):
        phi = normalize(random_raw_formula_any(rng))
        assert weight(phi) == weight(neg_nnf(phi))


def _node_classes() -> list:
    """The concrete node classes: those that list their own fields."""
    classes, stack = [], Term.__subclasses__()
    while stack:
        cls = stack.pop()
        stack += cls.__subclasses__()
        if "_fields" in cls.__dict__:
            classes.append(cls)
    return sorted(classes, key=lambda cls: cls.__name__)


NODE_CLASSES = _node_classes()


def _fields_of(cls) -> list:
    """Fields for a node of `cls`: a name, role or index where the class
    takes one, and for each term `CI(TOP, A)` where a formula class but
    `CI` takes it, `A` elsewhere."""
    term = CI(Top(), A) if issubclass(cls, Formula) and cls is not CI else A
    leads = {"name": "A", "role": "r", "index": 1}
    return [leads.get(name, term) for name in cls._fields]


def _with_field(cls, position: int):
    """Builds a node of `cls` from `_fields_of(cls)` with the given value
    at field `position`."""

    def build(value):
        fields = _fields_of(cls)
        fields[position] = value
        return cls(*fields)

    return build


@pytest.mark.parametrize(
    "function",
    [
        weight,
        neg_nnf,
        serialize,
        closure,
        normalize,
        # A node refuses a non-term child when it is built, at every term
        # field of every class; the id names the field after the first.
        *(
            pytest.param(
                _with_field(cls, i),
                id=cls.__name__ + (".right" if name == "right" else ""),
            )
            for cls in NODE_CLASSES
            for i, name in enumerate(cls._fields)
            if name in ("left", "right", "arg")
        ),
    ],
)
def test_a_non_term_is_a_type_error(function):
    interned = dict(syntax._TERMS)
    with pytest.raises(TypeError, match="^not a concept or formula: 42$"):
        function(42)
    assert syntax._TERMS == interned


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_a_wrong_field_count_is_a_type_error(cls):
    fields = _fields_of(cls)
    cls(*fields)  # exists, so a call with one field too many could hit it
    interned = dict(syntax._TERMS)
    count = len(fields)
    for given in [fields[:n] for n in range(count)] + [fields + [A], fields + [A, A]]:
        message = f"^{cls.__name__} takes {count} fields, got {len(given)}$"
        with pytest.raises(TypeError, match=message):
            cls(*given)
    assert syntax._TERMS == interned


@pytest.mark.parametrize("cls", [Term, Concept, Formula], ids=lambda c: c.__name__)
def test_an_abstract_class_is_a_type_error(cls):
    interned = dict(syntax._TERMS)
    with pytest.raises(TypeError, match=f"^{cls.__name__} is abstract$"):
        cls()
    assert syntax._TERMS == interned


@pytest.mark.parametrize(
    "cls, position",
    [
        pytest.param(cls, i, id=f"{cls.__name__}.{name}")
        for cls in NODE_CLASSES
        for i, name in enumerate(cls._fields)
        if name in ("left", "right", "arg")
    ],
)
def test_a_term_of_the_other_sort_is_a_type_error(cls, position):
    # `(or (atom A) (sub top (atom A)))` does not parse, so `Or(A, CI(TOP,
    # A))` must not build either: the engine would meet a concept outside
    # its closure.  Checked with the right node interned, and before any
    # node is built.
    build = _with_field(cls, position)
    right = _fields_of(cls)[position]
    build(right)
    other = A if isinstance(right, Formula) else CI(Top(), A)
    expected = "concept" if isinstance(right, Concept) else "formula"
    interned = dict(syntax._TERMS)
    with pytest.raises(TypeError, match=f"^not a {expected}: "):
        build(other)
    assert syntax._TERMS == interned


# -- walks ------------------------------------------------------------------

def _field_children(term) -> tuple:
    """The fields of `term` that hold terms, in `_fields` order."""
    values = (getattr(term, name) for name in term._fields)
    return tuple(v for v in values if isinstance(v, Term))


def _recursive_postorder(root, children) -> list:
    """Reference walk: each distinct node once, after its children."""
    out, seen = [], set()

    def visit(node):
        if node not in seen:
            seen.add(node)
            for child in children(node):
                visit(child)
            out.append(node)

    visit(root)
    return out


def _shared_terms(rng: random.Random) -> list:
    """Random concepts and formulas, some with a subterm used twice."""
    concept = random_concept(rng, 3)
    phi = random_raw_formula_any(rng)
    return [
        concept,
        And(concept, Exists("r", concept)),
        phi,
        AndF(phi, BoxF(1, NotF(phi))),
        CI(concept, Or(Not(concept), concept)),
    ]


def test_postorder_matches_a_recursive_walk():
    # Both sides of an inclusion are walked by default; the custom walk
    # stops at inclusions and takes children rightmost first.
    def custom(term) -> tuple:
        return () if type(term) is CI else _field_children(term)[::-1]

    rng = random.Random(21)
    terms = [t for _ in range(100) for t in _shared_terms(rng)]
    assert len(terms) == 500
    for term in terms:
        assert postorder(term) == _recursive_postorder(term, _field_children)
        assert postorder(term, custom) == _recursive_postorder(term, custom)


def test_children_table_has_a_row_per_node_class():
    # A concrete class lists its own fields, has one row in each
    # per-class table and a constructor of its own; Term, Concept and
    # Formula have no row and no constructor but Term's, which builds
    # nothing.  A class's field checks check the sort of exactly the
    # fields its children come from, each by the sort the parser reads
    # there, so the constructors and the parser agree on every field.
    classes = set(NODE_CLASSES)
    assert len(classes) == 16
    tables = (syntax._CHILDREN, syntax._TEXT, syntax._FIELD_CHECKS, syntax._BUILD)
    for table in tables:
        assert set(table) == classes
    for cls in (Term, Concept, Formula):
        assert not any(cls in table for table in tables)
        assert cls.__new__ is Term.__new__
    parsed_sort = {
        cls: sort
        for keywords in syntax._KEYWORDS
        for cls, _, _, sort in keywords.values()
    }
    sort_check = {
        syntax._CONCEPT: syntax._concept_field,
        syntax._FORMULA: syntax._formula_field,
    }
    for cls in classes:
        assert "__new__" in cls.__dict__
        node = cls(*_fields_of(cls))
        assert [getattr(node, name) for name in cls._fields] == _fields_of(cls)
        checks = syntax._FIELD_CHECKS[cls]
        assert len(checks) == len(cls._fields)
        sorted_fields = [
            getattr(node, name)
            for name, check in zip(cls._fields, checks)
            if check in sort_check.values()
        ]
        assert tuple(sorted_fields) == child_terms(node)
        for check in checks:
            if check in sort_check.values():
                assert check is sort_check[parsed_sort[cls]]
    assert len({cls.__new__ for cls in classes}) == len(classes)
    rng = random.Random(22)
    met = set()
    for _ in range(200):
        for term in postorder(random_raw_formula_any(rng)):
            met.add(type(term))
            kids = child_terms(term)
            assert kids == _field_children(term)
            values = (getattr(term, name) for name in term._fields)
            texts = tuple(serialize(v) if isinstance(v, Term) else v for v in values)
            assert serialize(term) == syntax._TEXT[type(term)] % texts
    assert met == classes


# -- closure ----------------------------------------------------------------

def test_closure_of_plain_inclusion():
    phi = CI(Top(), A)
    clo = closure(phi)
    assert clo.con_neg == frozenset({Top(), Bot(), A, Not(A)})
    assert clo.for_neg == frozenset({phi, NotF(phi)})
    assert clo.roles == frozenset()
    assert clo.fg_size == 6


def test_closure_collects_roles():
    phi = BoxF(1, CI(Top(), Exists("r", A)))
    assert closure(phi).roles == frozenset({"r"})


def test_closure_signature_matches_a_scan_of_its_sets():
    # `atoms` and `modalities` come from the walk that builds the sets.
    rng = random.Random(29)
    for _ in range(300):
        clo = closure(normalize(random_raw_formula_any(rng)))
        atoms = {c.name for c in clo.con_neg if isinstance(c, AtomicConcept)}
        modal = (Box, Dia, BoxF, DiaF)
        terms = clo.con_neg | clo.for_neg
        indices = {t.index for t in terms if isinstance(t, modal)}
        assert clo.atoms == tuple(sorted(atoms))
        assert clo.modalities == tuple(sorted(indices))


def test_closure_closed_under_negation_and_subterms():
    rng = random.Random(23)
    for _ in range(200):
        phi = normalize(random_raw_formula_any(rng))
        clo = closure(phi)
        for c in clo.con_neg:
            assert neg_nnf(c) in clo.con_neg
        for f in clo.for_neg:
            assert neg_nnf(f) in clo.for_neg
        for f in clo.for_neg:
            if isinstance(f, (AndF, OrF)):
                assert f.left in clo.for_neg and f.right in clo.for_neg
            elif isinstance(f, (BoxF, DiaF)):
                assert f.arg in clo.for_neg
        for c in clo.con_neg:
            if isinstance(c, (And, Or)):
                assert c.left in clo.con_neg and c.right in clo.con_neg
            elif isinstance(c, (Exists, Forall)):
                assert c.arg in clo.con_neg


def test_modality_count_inferred():
    from nnmdl.oracle import formula_signature

    phi = parse_formula("(box 2 (dia 1 (sub top top)))")
    assert formula_signature(phi).modalities == 2
    assert formula_signature(parse_formula("(sub top top)")).modalities == 0


def test_signature_of_deep_chain_needs_no_recursion():
    from nnmdl.oracle import Signature, formula_signature

    phi = BoxF(2, CI(Top(), Exists("r", A)))
    for _ in range(3_000):
        phi = AndF(phi, CI(Top(), B))
    assert formula_signature(phi) == Signature(("A", "B"), ("r",), 2)


def test_normalization_keeps_nnf_shape():
    rng = random.Random(31)

    def nnf_ok(phi: Formula) -> bool:
        if isinstance(phi, NotF):
            return isinstance(phi.arg, CI)
        if isinstance(phi, (AndF, OrF)):
            return nnf_ok(phi.left) and nnf_ok(phi.right)
        if isinstance(phi, (BoxF, DiaF)):
            return nnf_ok(phi.arg)
        return isinstance(phi, CI) and isinstance(phi.left, Top)

    for _ in range(500):
        assert nnf_ok(normalize(random_raw_formula_any(rng)))


# -- interning ----------------------------------------------------------------

def test_parsing_twice_gives_one_object():
    text = "(and (sub top (atom A)) (box 1 (sub (atom A) (some r (atom B)))))"
    assert parse_formula(text) is parse_formula(text)
    assert parse_concept("(and top (atom A))") is And(Top(), A)


def test_rewrites_return_interned_terms_random():
    rng = random.Random(41)
    for _ in range(1000):
        phi = normalize(random_raw_formula_any(rng))
        assert normalize(phi) is phi
        clo = closure(phi)
        for t in clo.con_neg | clo.for_neg:
            assert neg_nnf(neg_nnf(t)) is t


def test_terms_are_immutable():
    with pytest.raises(AttributeError):
        A.name = "B"
    with pytest.raises(AttributeError):
        del A.name
    with pytest.raises(AttributeError):
        Top().extra = 1
    assert A.name == "A"


def test_repr_names_the_fields():
    assert repr(BoxF(1, CI(Top(), A))) == (
        "BoxF(index=1, arg=CI(left=Top(), right=AtomicConcept(name='A')))"
    )


def test_threads_building_equal_terms_get_one_object():
    barrier = threading.Barrier(2)
    built: list[list] = [[], []]

    def build(slot: int) -> None:
        barrier.wait()
        for i in range(2000):
            atom = AtomicConcept(f"Thread{i}")
            built[slot].append(CI(Top(), And(atom, Exists("r", Not(atom)))))

    threads = [threading.Thread(target=build, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(built[0]) == 2000
    assert all(a is b for a, b in zip(*built))


# -- depth ------------------------------------------------------------------

DEPTH = 100_000


def _fresh_children():
    """A pool that runs each task in a fresh child process, its result or
    exception passed back: the deep terms a task interns die with its
    child instead of staying in this process's intern and memo tables for
    the rest of the run."""
    return multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1)


def _chain_text(depth: int, left: bool, leaf: str, pad: str) -> str:
    """`depth` nested `and`s around `leaf`, with `pad` as the other argument
    of each: the nested argument on the left or on the right."""
    if left:
        return "(and " * depth + leaf + f" {pad})" * depth
    return f"(and {pad} " * depth + leaf + ")" * depth


def _chain(depth: int, left: bool, cls, leaf, pad):
    term = leaf
    for _ in range(depth):
        term = cls(term, pad) if left else cls(pad, term)
    return term


def _deep_formula_chain(left: bool) -> None:
    psi = CI(Top(), A)
    phi = parse_formula(_chain_text(DEPTH, left, serialize(psi), serialize(psi)))
    assert phi is _chain(DEPTH, left, AndF, psi, psi)
    assert normalize(phi) is phi
    clo = closure(phi)
    assert len(clo.for_neg) == 2 * DEPTH + 2
    assert clo.con_neg == frozenset({Top(), Bot(), A, Not(A)})


@pytest.mark.parametrize("left", [True, False])
def test_deep_formula_chain_needs_no_recursion(left):
    with _fresh_children() as pool:
        pool.apply(_deep_formula_chain, (left,))


def _deep_negated_inclusion(left: bool) -> None:
    pad = Exists("r", B)
    concept = parse_concept(_chain_text(DEPTH, left, "(atom A)", serialize(pad)))
    assert concept is _chain(DEPTH, left, And, A, pad)
    assert normalize(concept) is concept
    # The negation of the inclusion is pushed through every level.
    D = AtomicConcept("D")
    nnf = _chain(DEPTH, left, Or, Not(A), Forall("r", Not(B)))
    assert normalize(NotF(CI(concept, D))) is NotF(CI(Top(), Or(nnf, D)))
    clo = closure(NotF(CI(Top(), Or(nnf, D))))
    # The chain and its negation, level by level, plus the leaves, the
    # pads and their negations, top and bot.
    assert len(clo.con_neg) == 2 * (DEPTH + 1) + 10
    assert clo.roles == frozenset({"r"})


@pytest.mark.parametrize("left", [True, False])
def test_deep_negated_inclusion_needs_no_recursion(left):
    with _fresh_children() as pool:
        pool.apply(_deep_negated_inclusion, (left,))


def _deep_weight(left: bool) -> None:
    formulas = _chain(DEPTH, left, AndF, CI(Top(), A), BoxF(1, CI(Top(), B)))
    assert weight(formulas) == 2 * DEPTH
    concept = _chain(DEPTH, left, And, Exists("r", A), Not(B))
    assert weight(concept) == DEPTH + 1
    assert weight(neg_nnf(concept)) == DEPTH + 1


@pytest.mark.parametrize("left", [True, False])
def test_deep_weight_needs_no_recursion(left):
    with _fresh_children() as pool:
        pool.apply(_deep_weight, (left,))


def _front_end_seconds(depth: int) -> float:
    """CPU time of parse, normalize and closure of a right-nested chain.
    The objects that exist before are frozen out of the garbage
    collector's generations, so its full collections scan only what this
    run builds."""
    leaf = "(sub (atom Deep) (some r (atom B)))"
    text = _chain_text(depth, False, leaf, "(not (sub top (atom A)))")
    gc.collect()
    gc.freeze()
    start = time.process_time()
    closure(normalize(parse_formula(text)))
    return time.process_time() - start


@pytest.mark.slow
def test_front_end_time_is_linear_in_depth():
    # Every run starts in a fresh child from the same tables and heap.
    # Each ratio is taken within a pair of consecutive runs, so a slow
    # phase of the host that spans the pair cancels out; the pairs
    # alternate which depth runs first, so a phase that starts or ends
    # inside a pair favours neither depth.
    ratios = []
    with _fresh_children() as pool:
        for pair in range(8):
            depths = (10_000, 20_000) if pair % 2 == 0 else (20_000, 10_000)
            seconds = {d: pool.apply(_front_end_seconds, (d,)) for d in depths}
            ratios.append(seconds[20_000] / seconds[10_000])
    assert statistics.median(ratios) <= 2.5, ratios


# -- memo tables -------------------------------------------------------------

def test_normal_forms_are_memoized(monkeypatch):
    # A second call, on the input or on its normal form, is one lookup.
    rng = random.Random(43)
    raws = [random_raw_formula_any(rng) for _ in range(200)]
    phis = [normalize(raw) for raw in raws]
    rewrites = []
    monkeypatch.setattr(syntax, "_rewrite", rewrites.append)
    for raw, phi in zip(raws, phis):
        assert normalize(phi) is phi
        assert normalize(raw) is phi
    assert rewrites == []


def test_closure_is_built_once_for_all_classes(monkeypatch):
    from nnmdl.tableau import FrameClass, solve

    builds = []

    def counting(phi):
        builds.append(phi)
        return build(phi)

    build = syntax._build_closure
    monkeypatch.setattr(syntax, "_build_closure", counting)
    phi = parse_formula("(box 1 (sub (atom Once) (some r (atom B))))")
    results = [solve(phi, frame_class) for frame_class in FrameClass]
    assert builds == [normalize(phi)]
    assert len({id(r.completion.closure) for r in results if r.completion}) == 1


def test_abstraction_and_solve_share_one_normal_form(monkeypatch):
    from nnmdl.fragment import prop_abstraction
    from nnmdl.tableau import FrameClass, solve

    rewrites = []

    def counting(term):
        rewrites.append(term)
        return rewrite(term)

    rewrite = syntax._rewrite
    monkeypatch.setattr(syntax, "_rewrite", counting)
    phi = parse_formula("(not (box 1 (sub (atom Shared) (atom B))))")
    abstraction = prop_abstraction(phi)
    result = solve(phi, FrameClass.E)
    assert rewrites == [phi]
    ci = normalize(phi).arg.arg
    assert abstraction.letter_to_ci == {"p1": ci}
    assert result.completion.phi is normalize(phi)
