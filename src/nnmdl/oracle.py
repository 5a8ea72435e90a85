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
a formula's value is the mask of the worlds where it holds.

A call walks the formula once, for its signature and for all of its
evaluation that does not depend on the shape (world count and domain
sizes).  What depends only on the shapes is built once per process, in
one table keyed by the signature's size, the bounds and the class: each
shape's mask ranges, collections, domain masks and decode templates.  A
shape then only binds one closure per step.  Subterms without a modal
operator at or below them are evaluated once per ALC skeleton (domains,
concepts, roles), and only the modal layer above them once per
neighbourhood choice.  Only the witness is decoded into a
`NeighbourhoodModel`, from its own masks, by the `_decode` that
`enumerate_models` uses for every model.

A formula without a modal operator is decided on the one-world shapes
alone.  Its value at a world depends only on that world's domain,
concepts and roles, so it holds at a world of a k-world model exactly
when it holds in the one-world model made of that world, and every
one-world model comes before every larger one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import and_, or_, xor
from typing import Callable, Iterator, NamedTuple

from .semantics import (
    FrameClass,
    NeighbourhoodModel,
    intersection_closed_collection,
    mask_members,
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
)

DEFAULT_MAX_WORLDS = 2
DEFAULT_MAX_DOMAIN = 2
DEFAULT_CANDIDATE_CAP = 10**8

SAT = "sat"
UNSAT_WITHIN_BOUNDS = "unsat-within-bounds"

_SIGNATURE_LIMITS = (3, 2, 2)  # concept names, role names, modalities


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


# Tiers: what a subterm's value depends on besides the shape.
_SKELETON, _NEIGHBOURHOODS = 0, 1


class _Plan(NamedTuple):
    """The shape-independent part of a formula's evaluation.

    `steps` holds per tier the steps (slot, builder, node, child slots) in
    evaluation order; a concept-level box or diamond's truth sets take the
    slot just before its own.  `bound` holds the upper-bound steps over
    the formulas of tier _NEIGHBOURHOODS: (slot, position of the and/or
    step in steps[_NEIGHBOURHOODS], or None for every world)."""

    steps: tuple[list, list]
    bound: list
    root: int
    root_tier: int
    names: dict[str, int]
    roles: dict[str, int]


def _compile(phi: Formula) -> tuple[Signature, _Plan]:
    """The signature of `phi` and its plan, from one children-first walk
    on an explicit stack: a node gets its slot once its children have
    theirs, the left one first."""
    slot: dict = {}
    tiers: list[int] = []
    steps: tuple[list, list] = ([], [])
    bound: list = []
    names, roles, modalities = set(), set(), 0
    stack = [phi]
    while stack:
        node = stack[-1]
        if node in slot:
            stack.pop()
            continue
        cls = node.__class__
        if cls in _BINARY:
            a, b = slot.get(node.left), slot.get(node.right)
            if a is None or b is None:
                stack += node.right, node.left
                continue
            kids, tier = (a, b), tiers[a] | tiers[b]
        elif cls in _LEAVES:
            kids, tier = (), _SKELETON
            if cls is AtomicConcept:
                names.add(node.name)
        else:
            a = slot.get(node.arg)
            if a is None:
                stack.append(node.arg)
                continue
            kids, tier = (a,), tiers[a]
            if cls is Exists or cls is Forall:
                roles.add(node.role)
            elif cls in _MODAL:
                if cls is Box or cls is Dia:
                    # Truth sets, evaluated in the tier of the argument.
                    steps[tier].append((len(tiers), _truth_sets, node, kids))
                    kids = (len(tiers),)
                    tiers.append(tier)
                tier = _NEIGHBOURHOODS
                modalities = max(modalities, node.index)
        stack.pop()
        i = slot[node] = len(tiers)
        if tier == _NEIGHBOURHOODS and issubclass(cls, Formula):
            andor = cls is AndF or cls is OrF
            bound.append((i, len(steps[tier]) if andor else None))
        steps[tier].append((i, _BUILDERS[cls], node, kids))
        tiers.append(tier)
    names, roles = tuple(sorted(names)), tuple(sorted(roles))
    root = slot[phi]
    index = {x: k for k, x in enumerate(names)}, {x: k for k, x in enumerate(roles)}
    plan = _Plan(steps, bound, root, tiers[root], *index)
    return Signature(names, roles, modalities), plan


def formula_signature(phi: Formula) -> Signature:
    return _compile(phi)[0]


def _check_signature(signature: Signature) -> None:
    max_names, max_roles, max_mods = _SIGNATURE_LIMITS
    if len(signature.concept_names) > max_names:
        raise ValueError(f"too many concept names: {signature.concept_names}")
    if len(signature.role_names) > max_roles:
        raise ValueError(f"too many role names: {signature.role_names}")
    if signature.modalities > max_mods:
        raise ValueError(f"too many modalities: {signature.modalities}")


def count_candidates(signature: Signature, bounds: OracleBounds) -> int:
    """Size of the raw enumeration space (before any frame-class filter)."""
    n_names, n_roles = len(signature.concept_names), len(signature.role_names)
    # Extensions over one world, per domain size.
    sizes = range(1, bounds.max_domain + 1)
    ext = [2 ** (s * n_names + s * s * n_roles) for s in sizes]
    total = 0
    for wcount in range(1, bounds.max_worlds + 1):
        if bounds.domain_mode == "constant":
            skeletons = sum(x**wcount for x in ext)
        else:
            skeletons = sum(ext) ** wcount
        total += skeletons * 2 ** (2**wcount * wcount * signature.modalities)
    return total


# ---------------------------------------------------------------------------
# The mask space
# ---------------------------------------------------------------------------

_WORLDS = tuple(f"w{i}" for i in range(2 * DEFAULT_MAX_WORLDS))
_ELEMENTS = tuple(f"d{i}" for i in range(2 * DEFAULT_MAX_DOMAIN))


class _Shape(NamedTuple):
    """The models of one world count and one domain size per world, and
    what evaluating a formula or decoding a model reads of them.

    A skeleton is one concept mask per (world, name) axis, axis (w{j},
    name k) at j * len(names) + k, and one pair mask per (world, role)
    axis, laid out the same way; bit d * size + e of a pair mask stands
    for (d{d}, d{e}).  A skeleton's models are its neighbourhood choices:
    one admitted collection per (modality, world) axis, axis (i, w{j}) at
    (i - 1) * wcount + j, of `axes`.  Both are walked in `product` order."""

    wcount: int
    ranges: tuple  # the concept axes' mask ranges, the role axes'
    collections: tuple[int, ...]
    axes: int
    sweep_size: int
    models: int  # skeletons times sweep size
    # The world set; each world's domain mask and bit; per element d, the
    # worlds whose domain holds it; per role axis, the shifts of its
    # elements' successor masks and its domain mask; per name, its axes;
    # per modality, each world's (axis, element range, bit, name).
    full: int
    doms: tuple[int, ...]
    bits: tuple[int, ...]
    presence: tuple[int, ...]
    rows: tuple
    name_axes: tuple
    modal_axes: tuple
    # The decode templates: see `_decode`.
    decode: tuple

    def skeletons(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        concepts, roles = self.ranges
        return product(product(*concepts), product(*roles))

    def choices(self) -> Iterator[tuple[int, ...]]:
        return product(self.collections, repeat=self.axes)


def _shape(sizes, constant, n_names, n_roles, modalities, world_sets, collections):
    wcount, worlds = len(sizes), _WORLDS[: len(sizes)]
    indexes, axes = range(wcount), wcount * modalities
    sweep_size = len(collections) ** axes
    skeletons = 2 ** (sum(sizes) * n_names + sum(s * s for s in sizes) * n_roles)
    # Per world, the element pairs by bit: bit d * size + e is (d{d}, d{e}).
    pairs = [tuple(product(_ELEMENTS[:s], repeat=2)) for s in sizes]
    by_index = list(enumerate(worlds))
    return _Shape(
        wcount,
        ranges=(
            tuple(range(1 << s) for s in sizes for _ in range(n_names)),
            tuple(range(1 << s * s) for s in sizes for _ in range(n_roles)),
        ),
        collections=collections, axes=axes,
        sweep_size=sweep_size, models=skeletons * sweep_size,
        full=(1 << wcount) - 1,
        doms=tuple((1 << s) - 1 for s in sizes),
        bits=tuple(1 << w for w in indexes),
        presence=tuple(
            sum(1 << w for w in indexes if sizes[w] > d) for d in range(max(sizes))
        ),
        rows=tuple(
            (w * n_roles + k, tuple(s * d for d in range(s)), (1 << s) - 1)
            for w, s in enumerate(sizes)
            for k in range(n_roles)
        ),
        name_axes=tuple(
            tuple(w * n_names + k for w in indexes) for k in range(n_names)
        ),
        modal_axes=tuple(
            tuple((m + w, range(sizes[w]), 1 << w, worlds[w]) for w in indexes)
            for m in range(0, axes, wcount)
        ),
        decode=(
            worlds,
            constant,
            world_sets,
            tuple((w, frozenset(_ELEMENTS[:s])) for w, s in zip(worlds, sizes)),
            tuple((w, j * n_names, (j + 1) * n_names, _ELEMENTS) for j, w in by_index),
            tuple((w, j * n_roles, (j + 1) * n_roles, pairs[j]) for j, w in by_index),
        ),
    )


def _admitted(sets: tuple[frozenset, ...], frame_class: FrameClass) -> tuple[int, ...]:
    """Every collection over the world sets that the class admits, ascending."""
    full = sets[-1]
    admits = {
        FrameClass.E: lambda collection: True,
        FrameClass.M: lambda collection: supplemented_collection(collection, full),
        FrameClass.C: intersection_closed_collection,
        FrameClass.N: lambda collection: full in collection,
    }[frame_class]
    return tuple(coll for coll in range(1 << len(sets)) if admits(mask_members(coll, sets)))


def _build_space(key: tuple) -> tuple[_Shape, ...]:
    """The shapes of a bounded space in enumeration order: world count,
    then domain sizes."""
    n_names, n_roles, modalities, max_worlds, max_domain, domain_mode, frame_class = key
    sizes, constant = range(1, max_domain + 1), domain_mode == "constant"
    shapes: list[_Shape] = []
    for wcount in range(1, max_worlds + 1):
        world_sets = tuple(mask_members(alpha, _WORLDS) for alpha in range(1 << wcount))
        # Without a modality a skeleton has one model and no collection.
        collections = _admitted(world_sets, frame_class) if modalities else ()
        if constant:
            combos = [(s,) * wcount for s in sizes]
        else:
            combos = product(sizes, repeat=wcount)
        shapes += [
            _shape(c, constant, n_names, n_roles, modalities, world_sets, collections)
            for c in combos
        ]
    return tuple(shapes)


#: (concept names, role names, modalities, max_worlds, max_domain, domain
#: mode, frame class) -> (raw candidate count, shapes) of the bounded space.
#: Only keys within _SIGNATURE_LIMITS and the OracleBounds ranges get an
#: entry, so the table stays finite.  Threads that race on a missing entry
#: may both build it; setdefault keeps the first, and both use it.
_SPACES: dict[tuple, tuple[int, tuple[_Shape, ...]]] = {}


def _mask_space(
    signature: Signature, bounds: OracleBounds, frame_class: FrameClass, cap=None
) -> tuple[_Shape, ...]:
    """The shapes of the bounded space, from the table entry built on first
    use.  A space of more raw candidates than `cap` raises
    BoundsTooLargeError, before its entry is built."""
    key = (
        len(signature.concept_names), len(signature.role_names), signature.modalities,
        bounds.max_worlds, bounds.max_domain, bounds.domain_mode, frame_class,
    )
    entry = _SPACES.get(key)
    if entry is None:
        _check_signature(signature)
    candidates = count_candidates(signature, bounds) if entry is None else entry[0]
    if cap is not None and candidates > cap:
        raise BoundsTooLargeError(
            f"{candidates} candidate models exceed the cap of {cap}"
        )
    if entry is None:
        entry = _SPACES.setdefault(key, (candidates, _build_space(key)))
    return entry[1]


def count_models(
    signature: Signature, bounds: OracleBounds, frame_class: FrameClass
) -> int:
    """Number of models within bounds whose frame lies in the class: the
    models_checked of a sweep that finds no witness."""
    return sum(shape.models for shape in _mask_space(signature, bounds, frame_class))


def _cached_members(cache: dict, mask: int, items) -> frozenset:
    members = cache.get(mask)
    if members is None:
        members = cache[mask] = mask_members(mask, items)
    return members


def _extensions(names, masks, worlds) -> dict:
    """Per world, the set of each name under the skeleton's masks; see
    `_decode` for `worlds`."""
    return {
        w: {a: _cached_members(cache, m, items) for a, m in zip(names, masks[lo:hi])}
        for w, lo, hi, items, cache in worlds
    }


def _decode(
    shape: _Shape, signature: Signature, skeletons
) -> Iterator[NeighbourhoodModel]:
    """The models of the shape at the given skeletons (concept masks, role
    masks, choices), one per choice, in order.  Each set is decoded once
    and shared by every model that holds it, and consecutive skeletons
    with the same concept masks share their concept extensions; treat the
    models as immutable."""
    # The world names, the world sets by index (index alpha holds w{i} when
    # bit i is set) and (world, domain) pairs; per world of each kind, its
    # name, the slice of the masks and the items a mask's bits stand for.
    worlds, constant, world_sets, domains, concept_worlds, role_worlds = shape.decode
    domains = dict(domains)
    # With the sets decoded so far by mask, per world.
    concept_worlds = [(*world, {}) for world in concept_worlds]
    role_worlds = [(*world, {}) for world in role_worlds]
    collections: dict = {}
    last_concepts = None
    for concepts, roles, choices in skeletons:
        if concepts != last_concepts:
            last_concepts = concepts
            concept_ext = _extensions(signature.concept_names, concepts, concept_worlds)
        role_ext = _extensions(signature.role_names, roles, role_worlds)
        for choice in choices:
            yield NeighbourhoodModel(
                worlds=worlds,
                constant_domain=constant,
                domains=domains,
                concepts=concept_ext,
                roles=role_ext,
                neighbourhoods={
                    i: {
                        w: _cached_members(collections, choice[k], world_sets)
                        for k, _, _, w in per_world
                    }
                    for i, per_world in enumerate(shape.modal_axes, 1)
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
    them as immutable.  The walk covers every shape, also for a
    signature without modalities, so it is the reference that
    `brute_force_sat`'s one-world rule is tested against.
    """
    for shape in _mask_space(signature, bounds, frame_class, bounds.candidate_cap):
        skeletons = ((c, r, shape.choices()) for c, r in shape.skeletons())
        yield from _decode(shape, signature, skeletons)


# ---------------------------------------------------------------------------
# Evaluation on masks
# ---------------------------------------------------------------------------

class _Program:
    """A plan bound to one shape.

    `vals` holds one value per plan slot, the root's last.  `sweep` computes the values of
    tier _SKELETON once per skeleton and those of tier _NEIGHBOURHOODS
    once per neighbourhood choice.  Before a skeleton's choices, `vals`
    first receives an upper bound of where each formula of tier
    _NEIGHBOURHOODS can hold (every world at a modal operator, negation
    or inclusion; the and/or of the children's values or bounds above
    them); a root bound of no world settles the sweep without a choice.
    """

    def __init__(self, plan: _Plan, shape: _Shape):
        self.plan = plan
        self.shape = shape
        self.vals: list = [None] * (plan.root + 1)
        self.nbhd = [0] * shape.axes
        self.skeleton: list = [(), ()]  # concept masks, role rows
        self.steps = tuple(
            [(i, build(self, node, kids)) for i, build, node, kids in tier]
            for tier in plan.steps
        )
        modal, full = self.steps[_NEIGHBOURHOODS], shape.full
        self.bound = [
            (i, (lambda: full) if j is None else modal[j][1]) for i, j in plan.bound
        ]

    def sweep(
        self, concepts: tuple[int, ...], roles: tuple[int, ...]
    ) -> tuple[int, tuple[int, ...], int] | None:
        """The first neighbourhood choice under which the formula holds
        somewhere in this skeleton: (its 1-based position in the sweep, the
        choice, the worlds where it holds), or None."""
        vals, root = self.vals, self.plan.root
        self.skeleton[0] = concepts
        self.skeleton[1] = [
            tuple([roles[axis] >> shift & low for shift in shifts])
            for axis, shifts, low in self.shape.rows
        ]
        for i, fn in self.steps[_SKELETON]:
            vals[i] = fn()
        if self.plan.root_tier == _SKELETON:
            # No modal operator, so the one choice is the empty one.
            return (1, (), vals[root]) if vals[root] else None
        for i, fn in self.bound:
            vals[i] = fn()
        if not vals[root]:
            return None
        nbhd, steps = self.nbhd, self.steps[_NEIGHBOURHOODS]
        for position, choice in enumerate(self.shape.choices(), 1):
            nbhd[:] = choice
            for i, fn in steps:
                vals[i] = fn()
            if vals[root]:
                return position, choice, vals[root]
        return None


# One builder per node class: (program, node, child slots) -> a closure
# that computes the node's value from the values in program.vals.

def _atomic(p: _Program, node, kids) -> Callable:
    skeleton, axes = p.skeleton, p.shape.name_axes[p.plan.names[node.name]]
    return lambda: tuple([skeleton[0][i] for i in axes])


def _constant(p: _Program, node, kids) -> Callable:
    value = p.shape.doms if node.__class__ is Top else (0,) * p.shape.wcount
    return lambda: value


def _not(p: _Program, node, kids) -> Callable:
    # A concept's element mask at a world lies within the world's domain
    # mask, so the complement there is the exclusive or.
    vals, doms, (a,) = p.vals, p.shape.doms, kids
    return lambda: tuple(map(xor, doms, vals[a]))


def _and_or(p: _Program, node, kids) -> Callable:
    vals, (a, b), op = p.vals, kids, and_ if node.__class__ is And else or_
    return lambda: tuple(map(op, vals[a], vals[b]))


def _restriction(p: _Program, node, kids) -> Callable:
    vals, skeleton, doms, (a,) = p.vals, p.skeleton, p.shape.doms, kids
    worlds = range(p.shape.wcount)
    n_roles, k = len(p.plan.roles), p.plan.roles[node.role]
    universal = node.__class__ is Forall

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


def _truth_sets(p: _Program, node, kids) -> Callable:
    """Per element d, the worlds whose value of the argument holds d; under
    a diamond, those whose domain holds d and whose value does not."""
    negate = node.__class__ is Dia
    vals, (arg,), presence = p.vals, kids, p.shape.presence
    worlds = range(p.shape.wcount)

    def fn():
        x = vals[arg]
        out = []
        for d, present in enumerate(presence):
            t = 0
            for w in worlds:
                if x[w] >> d & 1:
                    t |= 1 << w
            out.append(present & ~t if negate else t)
        return out

    return fn


def _concept_modal(p: _Program, node, kids) -> Callable:
    # A diamond tests the truth set of the negated argument.
    negate = node.__class__ is Dia
    vals, nbhd, (t,) = p.vals, p.nbhd, kids
    per_world = p.shape.modal_axes[node.index - 1]

    def fn():
        ts = vals[t]
        out = []
        for axis, dom, _, _ in per_world:
            coll = nbhd[axis]
            m = 0
            for d in dom:
                if (coll >> ts[d] & 1) != negate:
                    m |= 1 << d
            out.append(m)
        return tuple(out)

    return fn


def _inclusion(p: _Program, node, kids) -> Callable:
    vals, (a, b), bits = p.vals, kids, p.shape.bits

    def fn():
        out = 0
        for bit, x, y in zip(bits, vals[a], vals[b]):
            if not x & ~y:
                out |= bit
        return out

    return fn


def _not_f(p: _Program, node, kids) -> Callable:
    vals, full, (a,) = p.vals, p.shape.full, kids
    return lambda: full & ~vals[a]


def _and_or_f(p: _Program, node, kids) -> Callable:
    vals, (a, b) = p.vals, kids
    if node.__class__ is AndF:
        return lambda: vals[a] & vals[b]
    return lambda: vals[a] | vals[b]


def _formula_modal(p: _Program, node, kids) -> Callable:
    # A diamond tests the truth set of the negated argument.
    negate = node.__class__ is DiaF
    vals, nbhd, full, (a,) = p.vals, p.nbhd, p.shape.full, kids
    per_world = p.shape.modal_axes[node.index - 1]

    def fn():
        ts = full & ~vals[a] if negate else vals[a]
        out = 0
        for axis, _, bit, _ in per_world:
            if (nbhd[axis] >> ts & 1) != negate:
                out |= bit
        return out

    return fn


_BUILDERS = {
    AtomicConcept: _atomic,
    Top: _constant,
    Bot: _constant,
    Not: _not,
    And: _and_or,
    Or: _and_or,
    Exists: _restriction,
    Forall: _restriction,
    Box: _concept_modal,
    Dia: _concept_modal,
    CI: _inclusion,
    NotF: _not_f,
    AndF: _and_or_f,
    OrF: _and_or_f,
    BoxF: _formula_modal,
    DiaF: _formula_modal,
}

_LEAVES = frozenset((Top, Bot, AtomicConcept))
_BINARY = frozenset((And, Or, CI, AndF, OrF))
_MODAL = frozenset((Box, Dia, BoxF, DiaF))


def brute_force_sat(
    phi: Formula,
    frame_class: FrameClass,
    bounds: OracleBounds | None = None,
) -> OracleResult:
    """SAT iff some enumerated model has a world satisfying the formula.

    The signature enumerated is the one actually occurring in the
    formula.  Stops at the first witness, the first world (in world
    order) of the first model that satisfies the formula; models_checked
    counts the models walked up to and including it, and a sweep that
    finds none counts the whole space.  The negative verdict is
    explicitly bounds-relative.  A formula without a modal operator is
    swept over the one-world shapes only (see the module docstring), and
    the later shapes count as checked; verdict, witness and count are
    those of the full walk.
    """
    if bounds is None:
        bounds = OracleBounds()
    signature, plan = _compile(phi)
    space = shapes = _mask_space(signature, bounds, frame_class, bounds.candidate_cap)
    if plan.root_tier == _SKELETON:
        # No modal operator: a world's value is the one it has in the
        # one-world model made of it alone, and the one-world shapes, one
        # per domain size, come first.
        shapes = space[: bounds.max_domain]
    checked = 0
    for shape in shapes:
        program = _Program(plan, shape)
        for concepts, roles in shape.skeletons():
            hit = program.sweep(concepts, roles)
            if hit is None:
                checked += shape.sweep_size
                continue
            position, choice, holds = hit
            model = next(_decode(shape, signature, [(concepts, roles, [choice])]))
            world = model.worlds[(holds & -holds).bit_length() - 1]
            return OracleResult(SAT, model, world, checked + position)
    return OracleResult(
        UNSAT_WITHIN_BOUNDS, None, None, sum(shape.models for shape in space)
    )
