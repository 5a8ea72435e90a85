"""Brute-force satisfiability by exhaustive small-model enumeration.

This is the independent ground truth the main engine is tested against:
it knows nothing about the calculus, it simply walks every neighbourhood
model within the given bounds (up to a fixed naming of worlds w0, w1, ...
and elements d0, d1, ...) and evaluates the formula semantically.  A SAT
answer is therefore unconditionally sound; the negative answer only means
"no model within bounds" and is reported as such.

Enumeration order is fixed (world count, then domain sizes, then concept
extensions, then role extensions, then neighbourhood collections, each
axis in lexicographic bitmask order) so the first witness is reproducible.

Models are walked as int bitmasks.  A world set is the int whose bit i is
w{i}; a collection is an int over the 2^W world-set indices, so alpha
belongs to it when `coll >> alpha & 1`; an element set is an int over
d0, d1, ...  A concept's value is a tuple of per-world element masks and
a formula's value is the mask of the worlds where it holds.  The formula
is compiled once per world count and domain sizes into one closure per
subterm.  The subterms without a modal operator at or below them are
evaluated once per ALC skeleton (domains, concepts, roles); only the
modal layer above them is evaluated again for each neighbourhood choice.
Only a witness is decoded into a `NeighbourhoodModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

from .semantics import (
    FrameClass,
    NeighbourhoodModel,
    intersection_closed_collection,
    supplemented_collection,
)
from .syntax import (
    CI,
    And,
    AndF,
    AtomicConcept,
    Bot,
    Box,
    BoxF,
    Dia,
    DiaF,
    Exists,
    Forall,
    Formula,
    Not,
    NotF,
    Or,
    OrF,
    Top,
    _children,
    _subterms,
)

DEFAULT_MAX_WORLDS = 2
DEFAULT_MAX_DOMAIN = 2
DEFAULT_CANDIDATE_CAP = 10**8

SAT = "sat"
UNSAT_WITHIN_BOUNDS = "unsat-within-bounds"

_SIGNATURE_LIMITS = (3, 2, 2)  # concept names, role names, modalities

_MODAL = (Box, Dia, BoxF, DiaF)


class BoundsTooLargeError(ValueError):
    """The enumeration space exceeds the configured candidate cap."""


@dataclass(frozen=True)
class Signature:
    concept_names: tuple[str, ...]
    role_names: tuple[str, ...]
    modalities: int


@dataclass(frozen=True)
class OracleBounds:
    max_worlds: int = DEFAULT_MAX_WORLDS
    max_domain: int = DEFAULT_MAX_DOMAIN
    domain_mode: str = "varying"  # or "constant"
    candidate_cap: int = DEFAULT_CANDIDATE_CAP

    def __post_init__(self):
        if self.max_worlds < 1 or self.max_domain < 1:
            raise ValueError("bounds must be at least 1")
        if self.max_worlds > 2 * DEFAULT_MAX_WORLDS:
            raise ValueError(f"max_worlds {self.max_worlds} beyond supported range")
        if self.max_domain > 2 * DEFAULT_MAX_DOMAIN:
            raise ValueError(f"max_domain {self.max_domain} beyond supported range")
        if self.domain_mode not in ("varying", "constant"):
            raise ValueError(f"unknown domain mode {self.domain_mode!r}")


@dataclass
class OracleResult:
    verdict: str
    model: NeighbourhoodModel | None
    world: str | None
    models_checked: int


def _signature(nodes: list) -> Signature:
    return Signature(
        tuple(sorted({t.name for t in nodes if isinstance(t, AtomicConcept)})),
        tuple(sorted({t.role for t in nodes if isinstance(t, (Exists, Forall))})),
        max((t.index for t in nodes if isinstance(t, _MODAL)), default=0),
    )


def formula_signature(phi: Formula) -> Signature:
    return _signature(_subterms(phi))


def _check_signature(signature: Signature) -> None:
    max_names, max_roles, max_mods = _SIGNATURE_LIMITS
    if len(signature.concept_names) > max_names:
        raise ValueError(f"too many concept names: {signature.concept_names}")
    if len(signature.role_names) > max_roles:
        raise ValueError(f"too many role names: {signature.role_names}")
    if signature.modalities > max_mods:
        raise ValueError(f"too many modalities: {signature.modalities}")


def _size_combos(bounds: OracleBounds, wcount: int) -> list[tuple[int, ...]]:
    if bounds.domain_mode == "constant":
        return [(s,) * wcount for s in range(1, bounds.max_domain + 1)]
    return list(product(range(1, bounds.max_domain + 1), repeat=wcount))


def count_candidates(signature: Signature, bounds: OracleBounds) -> int:
    """Size of the raw enumeration space (before any frame-class filter)."""
    total = 0
    n_names = len(signature.concept_names)
    n_roles = len(signature.role_names)
    for wcount in range(1, bounds.max_worlds + 1):
        collections = 2 ** (2**wcount)
        nbhd = collections ** (wcount * signature.modalities)
        for sizes in _size_combos(bounds, wcount):
            ext = 1
            for s in sizes:
                ext *= 2 ** (s * n_names)
                ext *= 2 ** (s * s * n_roles)
            total += ext * nbhd
    return total


# ---------------------------------------------------------------------------
# The mask space
# ---------------------------------------------------------------------------

def _members(mask: int, items) -> frozenset:
    return frozenset(x for i, x in enumerate(items) if mask >> i & 1)


def _world_sets(wcount: int) -> list[frozenset[str]]:
    """World sets by index: index alpha holds w{i} when bit i is set."""
    worlds = [f"w{i}" for i in range(wcount)]
    return [_members(alpha, worlds) for alpha in range(1 << wcount)]


#: (world count, frame class) -> the admitted collections, ascending.
#: Entries are deterministic, so threads that race on one only compute it
#: twice.
_COLLECTIONS: dict[tuple[int, FrameClass], tuple[int, ...]] = {}


def _class_collections(wcount: int, frame_class: FrameClass) -> tuple[int, ...]:
    """Every collection over wcount worlds that the class admits."""
    key = (wcount, frame_class)
    cached = _COLLECTIONS.get(key)
    if cached is None:
        sets = _world_sets(wcount)
        full = sets[-1]
        admitted = []
        for coll in range(1 << len(sets)):
            collection = _members(coll, sets)
            if frame_class is FrameClass.M and not supplemented_collection(
                collection, full
            ):
                continue
            if frame_class is FrameClass.C and not intersection_closed_collection(
                collection
            ):
                continue
            if frame_class is FrameClass.N and full not in collection:
                continue
            admitted.append(coll)
        cached = _COLLECTIONS[key] = tuple(admitted)
    return cached


@dataclass(frozen=True)
class _Shape:
    """World count and domain sizes, and the models built on them.

    A skeleton is one concept mask per (world, name) axis, axis (w{j},
    name k) at j * len(names) + k, and one pair mask per (world, role)
    axis, laid out the same way; bit d * size + e of a pair mask stands
    for (d{d}, d{e}).  A skeleton's models are its neighbourhood choices:
    one admitted collection per (modality, world) axis, axis (i, w{j}) at
    (i - 1) * wcount + j.  Both are walked in `product` order."""

    wcount: int
    sizes: tuple[int, ...]
    n_names: int
    n_roles: int
    collections: tuple[int, ...]
    axes: int

    def skeletons(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        concepts = [range(1 << s) for s in self.sizes for _ in range(self.n_names)]
        roles = [range(1 << s * s) for s in self.sizes for _ in range(self.n_roles)]
        return product(product(*concepts), product(*roles))

    def choices(self) -> Iterator[tuple[int, ...]]:
        return product(self.collections, repeat=self.axes)

    @property
    def skeleton_count(self) -> int:
        return 2 ** (
            sum(self.sizes) * self.n_names
            + sum(s * s for s in self.sizes) * self.n_roles
        )

    @property
    def sweep_size(self) -> int:
        return len(self.collections) ** self.axes


def _shapes(
    signature: Signature, bounds: OracleBounds, frame_class: FrameClass
) -> Iterator[_Shape]:
    for wcount in range(1, bounds.max_worlds + 1):
        collections = _class_collections(wcount, frame_class)
        for sizes in _size_combos(bounds, wcount):
            yield _Shape(
                wcount,
                sizes,
                len(signature.concept_names),
                len(signature.role_names),
                collections,
                wcount * signature.modalities,
            )


def count_models(
    signature: Signature, bounds: OracleBounds, frame_class: FrameClass
) -> int:
    """Number of models within bounds whose frame lies in the class: the
    models_checked of a sweep that finds no witness."""
    return sum(
        shape.skeleton_count * shape.sweep_size
        for shape in _shapes(signature, bounds, frame_class)
    )


def _mask_space(
    signature: Signature, bounds: OracleBounds, frame_class: FrameClass
) -> Iterator[_Shape]:
    """The shapes within bounds, in enumeration order: each shape's
    skeletons, and each skeleton's neighbourhood choices, follow it."""
    _check_signature(signature)
    candidates = count_candidates(signature, bounds)
    if candidates > bounds.candidate_cap:
        raise BoundsTooLargeError(
            f"{candidates} candidate models exceed the cap of {bounds.candidate_cap}"
        )
    return _shapes(signature, bounds, frame_class)


def _cached_members(cache: dict, mask: int, items) -> frozenset:
    members = cache.get(mask)
    if members is None:
        members = cache[mask] = _members(mask, items)
    return members


class _Decoder:
    """Turns the mask points of one shape into models.

    Each set is decoded once and shared by every model that holds it, and
    consecutive skeletons with the same concepts share their concept
    extensions; treat the models as immutable."""

    def __init__(self, signature: Signature, constant: bool, shape: _Shape):
        self.signature = signature
        self.constant = constant
        self.worlds = tuple(f"w{i}" for i in range(shape.wcount))
        self.sets = _world_sets(shape.wcount)
        self.elements = [tuple(f"d{i}" for i in range(s)) for s in shape.sizes]
        self.pairs = [
            tuple((d, e) for d in els for e in els) for els in self.elements
        ]
        self.domains = {
            w: frozenset(els) for w, els in zip(self.worlds, self.elements)
        }
        # Decoded sets by mask: per world for elements and pairs.
        self.element_sets: list[dict] = [{} for _ in shape.sizes]
        self.pair_sets: list[dict] = [{} for _ in shape.sizes]
        self.collections: dict[int, frozenset[frozenset[str]]] = {}
        # Per modality index, (world, position of its axis in a choice).
        self.axes = [
            (i, [(w, (i - 1) * shape.wcount + j) for j, w in enumerate(self.worlds)])
            for i in range(1, signature.modalities + 1)
        ]
        self._concepts: tuple = (None, None)  # last concept masks, extensions

    def _extensions(self, masks, names, sets, items) -> dict:
        return {
            w: {
                a: _cached_members(sets[j], masks[j * len(names) + k], items[j])
                for k, a in enumerate(names)
            }
            for j, w in enumerate(self.worlds)
        }

    def skeleton(self, concepts: tuple[int, ...], roles: tuple[int, ...]):
        """The concept and role extensions of a skeleton."""
        if concepts != self._concepts[0]:
            self._concepts = concepts, self._extensions(
                concepts,
                self.signature.concept_names,
                self.element_sets,
                self.elements,
            )
        roles_ext = self._extensions(
            roles, self.signature.role_names, self.pair_sets, self.pairs
        )
        return self._concepts[1], roles_ext

    def model(self, skeleton, choice: tuple[int, ...]) -> NeighbourhoodModel:
        concepts, roles = skeleton
        collections, sets = self.collections, self.sets
        return NeighbourhoodModel(
            worlds=self.worlds,
            constant_domain=self.constant,
            domains=self.domains,
            concepts=concepts,
            roles=roles,
            neighbourhoods={
                i: {
                    w: _cached_members(collections, choice[axis], sets)
                    for w, axis in axes
                }
                for i, axes in self.axes
            },
        )


def enumerate_models(
    signature: Signature,
    bounds: OracleBounds,
    frame_class: FrameClass,
) -> Iterator[NeighbourhoodModel]:
    """Every model within bounds whose frame lies in the class.

    Models are produced up to the fixed naming w0.. / d0.. (domains are
    prefixes of the element pool; no further isomorphism pruning).
    Models share the sets and dictionaries they have in common; treat
    them as immutable.
    """
    constant = bounds.domain_mode == "constant"
    for shape in _mask_space(signature, bounds, frame_class):
        decoder = _Decoder(signature, constant, shape)
        for concepts, roles in shape.skeletons():
            skeleton = decoder.skeleton(concepts, roles)
            for choice in shape.choices():
                yield decoder.model(skeleton, choice)


# ---------------------------------------------------------------------------
# Evaluation on masks
# ---------------------------------------------------------------------------

# Tiers: what a subterm's value depends on besides the shape.
_SKELETON, _NEIGHBOURHOODS = 0, 1


def _layout(nodes: list) -> list[tuple]:
    """(node, child slots, tier) per subterm, in `_subterms` order: tier
    _NEIGHBOURHOODS with a modal operator at or below the node, else
    _SKELETON."""
    slot = {node: i for i, node in enumerate(nodes)}
    layout = []
    for node in nodes:
        kids = tuple([slot[c] for c in _children(node)])
        tier = _NEIGHBOURHOODS if isinstance(node, _MODAL) else _SKELETON
        for k in kids:
            tier = max(tier, layout[k][2])
        layout.append((node, kids, tier))
    return layout


class _Program:
    """A formula compiled for one shape.

    `vals` holds one value per subterm, in layout order, plus one slot of
    per-element truth sets for every concept-level box or diamond.
    `sweep` computes the values of tier _SKELETON once per skeleton and
    those of tier _NEIGHBOURHOODS once per neighbourhood choice.  Before a
    skeleton's choices, `vals` first receives an upper bound of where each
    formula of tier _NEIGHBOURHOODS can hold (every world at a modal
    operator, negation or inclusion; the and/or of the children's values
    or bounds above them); a root bound of no world settles the sweep
    without a choice.
    """

    def __init__(self, layout: list[tuple], signature: Signature, shape: _Shape):
        sizes = shape.sizes
        self.shape = shape
        self.full = (1 << shape.wcount) - 1
        self.doms = tuple((1 << s) - 1 for s in sizes)
        self.worlds = range(shape.wcount)
        self.elements = range(max(sizes))
        # Worlds whose domain holds element d.
        self.presence = tuple(
            sum(1 << w for w in self.worlds if sizes[w] > d) for d in self.elements
        )
        self.names = {a: k for k, a in enumerate(signature.concept_names)}
        self.role_index = {r: k for k, r in enumerate(signature.role_names)}
        self.vals: list = [None] * len(layout)
        self.nbhd = [0] * shape.axes
        self.skeleton: list = [(), ()]  # concept masks, role rows
        self.tiers = [tier for _, _, tier in layout]
        self.steps: tuple[list, list] = ([], [])
        self.bound: list = []  # upper-bound steps over tier _NEIGHBOURHOODS
        for i, (node, kids, tier) in enumerate(layout):
            fn = _BUILDERS[type(node)](self, node, kids)
            self.steps[tier].append((i, fn))
            if tier == _NEIGHBOURHOODS and isinstance(node, Formula):
                bound = fn if isinstance(node, (AndF, OrF)) else self._full
                self.bound.append((i, bound))
        self.root = len(layout) - 1
        self.root_tier = layout[-1][2]

    def _full(self) -> int:
        return self.full

    def _run(self, steps) -> None:
        vals = self.vals
        for i, fn in steps:
            vals[i] = fn()

    def add_truth_sets(self, arg: int, negate: bool) -> int:
        """A slot that holds, per element d, the worlds whose value of
        slot arg holds d, or, negated, the worlds whose domain holds d and
        whose value does not; evaluated in the tier of arg."""
        vals, elements, worlds, presence = (
            self.vals, self.elements, self.worlds, self.presence
        )

        def fn():
            x = vals[arg]
            out = []
            for d in elements:
                t = 0
                for w in worlds:
                    if x[w] >> d & 1:
                        t |= 1 << w
                out.append(presence[d] & ~t if negate else t)
            return out

        vals.append(None)
        self.steps[self.tiers[arg]].append((len(vals) - 1, fn))
        return len(vals) - 1

    def sweep(
        self, concepts: tuple[int, ...], roles: tuple[int, ...]
    ) -> tuple[int, tuple[int, ...], int] | None:
        """The first neighbourhood choice under which the formula holds
        somewhere in this skeleton: (its 1-based position in the sweep, the
        choice, the worlds where it holds), or None."""
        shape, vals, root = self.shape, self.vals, self.root
        rows = []
        for w, s in enumerate(shape.sizes):
            low = (1 << s) - 1
            for k in range(shape.n_roles):
                pairs = roles[w * shape.n_roles + k]
                rows.append(tuple(pairs >> s * d & low for d in range(s)))
        self.skeleton[0] = concepts
        self.skeleton[1] = rows
        self._run(self.steps[_SKELETON])
        if self.root_tier < _NEIGHBOURHOODS:
            # No choice changes the verdict: the first one decides it.
            if vals[root]:
                return 1, next(shape.choices()), vals[root]
            return None
        self._run(self.bound)
        if not vals[root]:
            return None
        nbhd, steps = self.nbhd, self.steps[_NEIGHBOURHOODS]
        for position, choice in enumerate(shape.choices(), 1):
            nbhd[:] = choice
            for i, fn in steps:
                vals[i] = fn()
            if vals[root]:
                return position, choice, vals[root]
        return None


# One builder per node class: (program, node, child slots) -> a closure
# that computes the node's value from the values in program.vals.

def _atomic(p: _Program, node, kids) -> Callable:
    skeleton, n_names = p.skeleton, len(p.names)
    axes = [w * n_names + p.names[node.name] for w in p.worlds]
    return lambda: tuple([skeleton[0][i] for i in axes])


def _top(p: _Program, node, kids) -> Callable:
    doms = p.doms
    return lambda: doms


def _bot(p: _Program, node, kids) -> Callable:
    zeros = (0,) * len(p.worlds)
    return lambda: zeros


def _not(p: _Program, node, kids) -> Callable:
    vals, doms, (a,) = p.vals, p.doms, kids
    return lambda: tuple([m & ~x for m, x in zip(doms, vals[a])])


def _and(p: _Program, node, kids) -> Callable:
    vals, (a, b) = p.vals, kids
    return lambda: tuple([x & y for x, y in zip(vals[a], vals[b])])


def _or(p: _Program, node, kids) -> Callable:
    vals, (a, b) = p.vals, kids
    return lambda: tuple([x | y for x, y in zip(vals[a], vals[b])])


def _restriction(p: _Program, node, kids) -> Callable:
    vals, skeleton, doms, worlds, (a,) = p.vals, p.skeleton, p.doms, p.worlds, kids
    n_roles, k = len(p.role_index), p.role_index[node.role]
    universal = isinstance(node, Forall)

    def fn():
        x = vals[a]
        rows = skeleton[1]
        out = []
        for w in worlds:
            target = x[w]
            m = 0
            for d, row in enumerate(rows[w * n_roles + k]):
                # Forall collects the elements with a successor outside
                # the target, Exists those with one inside.
                if row & (~target if universal else target):
                    m |= 1 << d
            out.append(doms[w] & ~m if universal else m)
        return tuple(out)

    return fn


def _concept_modal(p: _Program, node, kids) -> Callable:
    # A diamond tests the truth set of the negated argument.
    negate = isinstance(node, Dia)
    vals, nbhd = p.vals, p.nbhd
    t = p.add_truth_sets(kids[0], negate)
    wcount = len(p.worlds)
    per_world = [
        ((node.index - 1) * wcount + w, range(p.shape.sizes[w])) for w in p.worlds
    ]

    def fn():
        ts = vals[t]
        out = []
        for axis, dom in per_world:
            coll = nbhd[axis]
            m = 0
            for d in dom:
                if (coll >> ts[d] & 1) != negate:
                    m |= 1 << d
            out.append(m)
        return tuple(out)

    return fn


def _inclusion(p: _Program, node, kids) -> Callable:
    vals, (a, b) = p.vals, kids
    bits = [1 << w for w in p.worlds]

    def fn():
        out = 0
        for bit, x, y in zip(bits, vals[a], vals[b]):
            if not x & ~y:
                out |= bit
        return out

    return fn


def _not_f(p: _Program, node, kids) -> Callable:
    vals, full, (a,) = p.vals, p.full, kids
    return lambda: full & ~vals[a]


def _and_f(p: _Program, node, kids) -> Callable:
    vals, (a, b) = p.vals, kids
    return lambda: vals[a] & vals[b]


def _or_f(p: _Program, node, kids) -> Callable:
    vals, (a, b) = p.vals, kids
    return lambda: vals[a] | vals[b]


def _formula_modal(p: _Program, node, kids) -> Callable:
    # A diamond tests the truth set of the negated argument.
    negate = isinstance(node, DiaF)
    vals, nbhd, full, (a,) = p.vals, p.nbhd, p.full, kids
    wcount = len(p.worlds)
    per_world = [((node.index - 1) * wcount + w, 1 << w) for w in p.worlds]

    def fn():
        ts = full & ~vals[a] if negate else vals[a]
        out = 0
        for axis, bit in per_world:
            if (nbhd[axis] >> ts & 1) != negate:
                out |= bit
        return out

    return fn


_BUILDERS = {
    AtomicConcept: _atomic,
    Top: _top,
    Bot: _bot,
    Not: _not,
    And: _and,
    Or: _or,
    Exists: _restriction,
    Forall: _restriction,
    Box: _concept_modal,
    Dia: _concept_modal,
    CI: _inclusion,
    NotF: _not_f,
    AndF: _and_f,
    OrF: _or_f,
    BoxF: _formula_modal,
    DiaF: _formula_modal,
}


def brute_force_sat(
    phi: Formula,
    frame_class: FrameClass,
    bounds: OracleBounds | None = None,
) -> OracleResult:
    """SAT iff some enumerated model has a world satisfying the formula.

    The signature enumerated is the one actually occurring in the
    formula.  Stops at the first witness, the first world (in world
    order) of the first model that satisfies the formula; models_checked
    counts the models walked up to and including it.  The negative
    verdict is explicitly bounds-relative.
    """
    if bounds is None:
        bounds = OracleBounds()
    nodes = _subterms(phi)
    signature = _signature(nodes)
    layout = _layout(nodes)
    checked = 0
    for shape in _mask_space(signature, bounds, frame_class):
        program = _Program(layout, signature, shape)
        for concepts, roles in shape.skeletons():
            hit = program.sweep(concepts, roles)
            if hit is None:
                checked += shape.sweep_size
                continue
            position, choice, holds = hit
            decoder = _Decoder(signature, bounds.domain_mode == "constant", shape)
            model = decoder.model(decoder.skeleton(concepts, roles), choice)
            world = model.worlds[(holds & -holds).bit_length() - 1]
            return OracleResult(SAT, model, world, checked + position)
    return OracleResult(UNSAT_WITHIN_BOUNDS, None, None, checked)
