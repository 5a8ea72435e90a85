"""Seeded input generators for the benchmark, producing formula text.

Terms are plain tuples owned by this module, so neither the solver's code
nor the test suite can shift the inputs: the solver only ever receives the
serialized text.  The random generators draw in the same shapes, under the
same caps and with the same oracle-budget resampling as the acceptance
corpora (concept names A/B, role r, modalities 1-2, weight at most 6,
at most 1.5M raw oracle candidates).

Concepts: ("top",) ("bot",) ("atom", name) ("not", c) ("and", c, c)
("or", c, c) ("some", role, c) ("all", role, c) ("box", i, c) ("dia", i, c).
Formulas: ("sub", c, c) ("notf", f) ("andf", f, f) ("orf", f, f)
("boxf", i, f) ("diaf", i, f).
"""

from __future__ import annotations

import random
import re
from itertools import product

CONCEPT_NAMES = ("A", "B")
ROLE = "r"
MODALITIES = (1, 2)
MAX_WEIGHT = 6
ORACLE_BUDGET = 1_500_000
MAX_WORLDS = 2
MAX_DOMAIN = 2

TOP = ("top",)
BOT = ("bot",)


def atom(name):
    return ("atom", name)


def conj(formulas):
    """Left-nested conjunction of a non-empty formula list."""
    out = formulas[0]
    for f in formulas[1:]:
        out = ("andf", out, f)
    return out


# ---------------------------------------------------------------------------
# Serialization, normal form and measures
# ---------------------------------------------------------------------------

_KEYWORD = {"notf": "not", "andf": "and", "orf": "or", "boxf": "box", "diaf": "dia"}


def serialize(term) -> str:
    tag = term[0]
    if tag in ("top", "bot"):
        return tag
    if tag == "atom":
        return f"(atom {term[1]})"
    word = _KEYWORD.get(tag, tag)
    if tag in ("not", "notf"):
        return f"({word} {serialize(term[1])})"
    if tag in ("some", "all", "box", "dia", "boxf", "diaf"):
        return f"({word} {term[1]} {serialize(term[2])})"
    return f"({word} {serialize(term[1])} {serialize(term[2])})"


_DUAL = {"and": "or", "or": "and", "some": "all", "all": "some", "box": "dia", "dia": "box"}


def nnf_concept(c):
    tag = c[0]
    if tag in ("atom", "top", "bot"):
        return c
    if tag in ("and", "or"):
        return (tag, nnf_concept(c[1]), nnf_concept(c[2]))
    if tag in ("some", "all", "box", "dia"):
        return (tag, c[1], nnf_concept(c[2]))
    arg = c[1]
    inner = arg[0]
    if inner == "atom":
        return c
    if inner == "top":
        return BOT
    if inner == "bot":
        return TOP
    if inner == "not":
        return nnf_concept(arg[1])
    if inner in ("and", "or"):
        return (_DUAL[inner], nnf_concept(("not", arg[1])), nnf_concept(("not", arg[2])))
    return (_DUAL[inner], arg[1], nnf_concept(("not", arg[2])))


def _normalize_ci(ci):
    left, right = ci[1], ci[2]
    if left == TOP:
        return ("sub", TOP, nnf_concept(right))
    return ("sub", TOP, nnf_concept(("or", ("not", left), right)))


_DUAL_F = {"andf": "orf", "orf": "andf", "boxf": "diaf", "diaf": "boxf"}


def normalize(phi):
    """Inclusions become top <= C and everything goes to negation normal
    form, so "notf" survives only directly above an inclusion."""
    tag = phi[0]
    if tag == "sub":
        return _normalize_ci(phi)
    if tag in ("andf", "orf"):
        return (tag, normalize(phi[1]), normalize(phi[2]))
    if tag in ("boxf", "diaf"):
        return (tag, phi[1], normalize(phi[2]))
    arg = phi[1]
    inner = arg[0]
    if inner == "sub":
        return ("notf", _normalize_ci(arg))
    if inner == "notf":
        return normalize(arg[1])
    if inner in ("andf", "orf"):
        return (_DUAL_F[inner], normalize(("notf", arg[1])), normalize(("notf", arg[2])))
    return (_DUAL_F[inner], arg[1], normalize(("notf", arg[2])))


def weight(term) -> int:
    tag = term[0]
    if tag in ("atom", "top", "bot", "sub"):
        return 0
    if tag in ("not", "notf"):
        return weight(term[1])
    if tag in ("and", "or", "andf", "orf"):
        return weight(term[1]) + weight(term[2]) + 1
    return weight(term[2]) + 1


def _walk(term, names: set, roles: set) -> int:
    """Collect concept and role names; return the largest modality index."""
    tag = term[0]
    if tag == "atom":
        names.add(term[1])
        return 0
    if tag in ("top", "bot"):
        return 0
    if tag in ("not", "notf"):
        return _walk(term[1], names, roles)
    if tag in ("some", "all"):
        roles.add(term[1])
        return _walk(term[2], names, roles)
    if tag in ("box", "dia", "boxf", "diaf"):
        return max(term[1], _walk(term[2], names, roles))
    return max(_walk(term[1], names, roles), _walk(term[2], names, roles))


def _admissible_collections(wcount: int, frame_class: str | None) -> int:
    """Number of neighbourhood collections over wcount worlds that the
    frame class admits (None admits all).  Sets are bitmasks."""
    full = (1 << wcount) - 1
    subsets = range(1 << wcount)
    total = 0
    for mask in range(1 << (1 << wcount)):
        members = [s for s in subsets if mask >> s & 1]
        if frame_class == "M" and any(
            not mask >> (s | 1 << w) & 1 for s in members for w in range(wcount)
        ):
            continue
        if frame_class == "C" and any(
            not mask >> (a & b) & 1 for a in members for b in members
        ):
            continue
        if frame_class == "N" and not mask >> full & 1:
            continue
        total += 1
    return total


def count_candidates(phi, constant_domain: bool = False, frame_class: str | None = None) -> int:
    """Size of the oracle's enumeration space at default bounds: the raw
    space when frame_class is None, else the models the class admits."""
    names: set = set()
    roles: set = set()
    modalities = _walk(phi, names, roles)
    return space_size((len(names), len(roles), modalities), constant_domain, frame_class)


def text_space_size(text: str, constant_domain: bool, frame_class: str | None = None) -> int:
    """count_candidates read off a formula's text."""
    signature = (
        len(set(re.findall(r"\(atom (\w+)\)", text))),
        len(set(re.findall(r"\((?:some|all) (\w+)", text))),
        max((int(i) for i in re.findall(r"\((?:box|dia) (\d+)", text)), default=0),
    )
    return space_size(signature, constant_domain, frame_class)


def space_size(signature, constant_domain: bool, frame_class: str | None) -> int:
    n_names, n_roles, modalities = signature
    total = 0
    for wcount in range(1, MAX_WORLDS + 1):
        nbhd = _admissible_collections(wcount, frame_class) ** (wcount * modalities)
        if constant_domain:
            combos = [(s,) * wcount for s in range(1, MAX_DOMAIN + 1)]
        else:
            combos = list(product(range(1, MAX_DOMAIN + 1), repeat=wcount))
        for sizes in combos:
            ext = 1
            for s in sizes:
                ext *= 2 ** (s * n_names) * 2 ** (s * s * n_roles)
            total += ext * nbhd
    return total


# ---------------------------------------------------------------------------
# Random corpora
# ---------------------------------------------------------------------------

def random_concept(rng, depth, names=CONCEPT_NAMES, allow_role=True,
                   allow_modal=True, modalities=MODALITIES):
    choices = ["atom"] * (4 if depth <= 0 else 1) + ["top", "bot", "not", "and", "or"]
    if depth > 0 and allow_role:
        choices += ["some", "all"]
    if depth > 0 and allow_modal:
        choices += ["box", "dia"]
    kind = rng.choice(choices)
    if kind == "atom":
        return atom(rng.choice(names))
    if kind in ("top", "bot"):
        return (kind,)

    def sub():
        return random_concept(rng, depth - 1, names, allow_role, allow_modal, modalities)

    if kind == "not":
        return ("not", sub())
    if kind in ("and", "or"):
        left = sub()
        return (kind, left, sub())
    if kind in ("some", "all"):
        return (kind, ROLE, sub())
    arg = sub()
    return (kind, rng.choice(modalities), arg)


def _random_formula_raw(rng, depth, names, allow_role, allow_modal_concepts, modalities):
    if depth <= 0 or rng.random() < 0.3:
        left = (
            TOP
            if rng.random() < 0.6
            else random_concept(rng, 1, names, allow_role, allow_modal_concepts, modalities)
        )
        right = random_concept(rng, 2, names, allow_role, allow_modal_concepts, modalities)
        return ("sub", left, right)

    def sub():
        return _random_formula_raw(
            rng, depth - 1, names, allow_role, allow_modal_concepts, modalities
        )

    kind = rng.choice(["not", "and", "or", "box", "dia", "box", "dia"])
    if kind == "not":
        return ("notf", sub())
    if kind in ("and", "or"):
        left = sub()
        return (kind + "f", left, sub())
    arg = sub()
    return (kind + "f", rng.choice(modalities), arg)


def random_formula(rng: random.Random):
    """A normalized formula within the caps whose varying-domain oracle
    sweep stays within budget; rejected candidates are resampled."""
    while True:
        names = CONCEPT_NAMES[: rng.choice((1, 1, 2))]
        allow_role = rng.random() < 0.35
        allow_modal_concepts = rng.random() < 0.4
        modalities = MODALITIES if rng.random() < 0.3 else (1,)
        phi = normalize(
            _random_formula_raw(rng, 3, names, allow_role, allow_modal_concepts, modalities)
        )
        if weight(phi) > MAX_WEIGHT:
            continue
        if count_candidates(phi) > ORACLE_BUDGET:
            continue
        return phi


def random_g_formula(rng: random.Random, max_cis: int = 4, max_depth: int = 2):
    """A normalized formula without modalised concepts, with at most
    max_cis distinct inclusions, within the constant-domain oracle budget."""
    cis: list = []

    def build(depth):
        if depth <= 0 or rng.random() < 0.35:
            if cis and (len(cis) >= max_cis or rng.random() < 0.4):
                return rng.choice(cis)
            ci = (
                "sub",
                TOP,
                random_concept(
                    rng,
                    2,
                    CONCEPT_NAMES[: rng.choice((1, 2))],
                    allow_role=rng.random() < 0.3,
                    allow_modal=False,
                ),
            )
            cis.append(ci)
            return ci
        kind = rng.choice(["not", "and", "or", "box", "dia", "box", "dia"])
        if kind == "not":
            return ("notf", build(depth - 1))
        if kind in ("and", "or"):
            left = build(depth - 1)
            return (kind + "f", left, build(depth - 1))
        index = rng.choice(MODALITIES if rng.random() < 0.3 else (1,))
        return (kind + "f", index, build(depth - 1))

    while True:
        cis.clear()
        phi = normalize(build(max_depth + 1))
        if len(cis) > max_cis:
            continue
        if count_candidates(phi, constant_domain=True) > ORACLE_BUDGET:
            continue
        return phi


# ---------------------------------------------------------------------------
# Scaling families (verdicts known by construction)
# ---------------------------------------------------------------------------

def or_chain(n: int, names: list[str]):
    """n inclusions top <= Ai or Bi plus n inclusions top <= not Ai.
    Satisfiable in one world with one element (every Bi, no Ai); each
    disjunction first tries the refuted Ai and backtracks."""
    a, b = names[:n], names[n : 2 * n]
    parts = [("sub", TOP, ("or", atom(x), atom(y))) for x, y in zip(a, b)]
    parts += [("sub", TOP, ("not", atom(x))) for x in a]
    return conj(parts)


def c_boxes(n: int, names: list[str]):
    """Boxes of A0..A(n-1) on every element plus a refuted box of A0 and A1.
    Unsatisfiable over intersection-closed frames."""
    parts = [("sub", TOP, ("box", 1, atom(x))) for x in names[:n]]
    parts.append(("notf", ("sub", TOP, ("box", 1, ("and", atom(names[0]), atom(names[1]))))))
    return conj(parts)


def box_dia(n: int, names: list[str]):
    """n formula-level boxes plus one diamond; satisfiable with n + 1
    worlds in every class."""
    parts = [("boxf", 1, ("sub", TOP, atom(x))) for x in names[:n]]
    parts.append(("diaf", 1, ("sub", TOP, atom(names[n]))))
    return conj(parts)
