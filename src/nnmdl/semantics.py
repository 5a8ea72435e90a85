"""Finite neighbourhood models and their evaluation.

A model is a non-empty set of worlds, a neighbourhood function per
modality index (mapping each world to a set of sets of worlds), and a
per-world ALC interpretation with a non-empty domain.  Evaluation follows
the two-sorted semantics: concepts denote sets of domain elements at a
world, formulas are true or false at a world, and a box tests membership
of a truth set in the world's neighbourhood collection.

Models are treated as immutable after construction and evaluation is
pure, so values can be shared freely across threads or solver instances.

An element d may be absent from the domain of some world v; such v never
enters a truth set of d (membership of d in any concept at v is read as
false).  This matches the literal evaluation of per-world interpretations
and is the only reading implemented.
"""

from __future__ import annotations

from collections.abc import Sequence, Set
from enum import Enum
from itertools import combinations

from .syntax import (
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
    TOP,
    Top,
)

#: The member-by-member supplementation check ranges over subsets of the
#: world set; models beyond this many worlds are rejected rather than
#: silently skipped (window collections upward closed by shape need no
#: member-by-member check).
MAX_WORLDS_FOR_SUPPLEMENTATION = 16


class FrameClass(str, Enum):
    """Frame condition the neighbourhood functions must satisfy.

    E: none; M: closed under supersets; C: closed under binary
    intersection; N: the full world set belongs to every collection.
    """

    E = "E"
    M = "M"
    C = "C"
    N = "N"


class ModelTooLargeError(ValueError):
    """Raised when a check would enumerate subsets of too many worlds."""


#: The empty set every decoded empty mask shares: models are immutable,
#: so their empty sets are one object rather than a fresh frozenset each.
EMPTY: frozenset = frozenset()


def mask_members(mask: int, items: Sequence) -> frozenset:
    """The entries of `items` at the positions whose bit is set in `mask`."""
    if not mask:
        return EMPTY
    return frozenset([item for n, item in enumerate(items) if mask >> n & 1])


class Windows(Set):
    """Read-only collection of world sets given as a union of windows.

    A window (floor, ceil) stands for every world set alpha with
    floor <= alpha <= ceil.  Membership is tested against the windows;
    iteration and len() expand the windows once, lazily, so a Windows
    equals the frozenset of its members and exports like one.
    """

    __slots__ = ("windows", "_members")

    def __init__(self, windows=()):
        # Equal windows are kept once, in order; empty ones are dropped.
        self.windows: tuple[tuple[frozenset[str], frozenset[str]], ...] = tuple(
            dict.fromkeys(
                (frozenset(floor), frozenset(ceil))
                for floor, ceil in windows
                if floor <= ceil
            )
        )
        self._members: frozenset[frozenset[str]] | None = None

    @classmethod
    def _from_iterable(cls, iterable):
        return frozenset(iterable)

    def __contains__(self, alpha) -> bool:
        for floor, ceil in self.windows:
            if floor <= alpha <= ceil:
                return True
        return False

    def _expand(self) -> frozenset[frozenset[str]]:
        if self._members is None:
            members = set()
            for floor, ceil in self.windows:
                slack = sorted(ceil - floor)
                for r in range(len(slack) + 1):
                    for extra in combinations(slack, r):
                        members.add(floor.union(extra))
            self._members = frozenset(members)
        return self._members

    def __iter__(self):
        return iter(self._expand())

    def __len__(self) -> int:
        return len(self._expand())

    def __repr__(self) -> str:
        return f"Windows({[(sorted(f), sorted(c)) for f, c in self.windows]!r})"


class NeighbourhoodModel:
    """Finite neighbourhood model.

    worlds is kept as an ordered tuple (the first world is the
    distinguished one for validation); all set-valued fields use
    frozensets.  neighbourhoods maps modality index -> world ->
    collection of world sets: a frozenset, or a Windows when the
    collection was extracted from a completion set.  Both read the same
    through membership, iteration, len() and equality.  Two models are
    equal when their fields are.
    """

    __slots__ = (
        "worlds",
        "constant_domain",
        "domains",
        "concepts",
        "roles",
        "neighbourhoods",
    )

    def __init__(
        self,
        worlds: tuple[str, ...],
        constant_domain: bool,
        domains: dict[str, frozenset[str]],
        concepts: dict[str, dict[str, frozenset[str]]],
        roles: dict[str, dict[str, frozenset[tuple[str, str]]]],
        neighbourhoods: dict[
            int, dict[str, frozenset[frozenset[str]] | Windows]
        ] | None = None,
    ):
        self.worlds = worlds
        self.constant_domain = constant_domain
        self.domains = domains
        self.concepts = concepts
        self.roles = roles
        self.neighbourhoods = {} if neighbourhoods is None else neighbourhoods

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"NeighbourhoodModel({fields})"

    def world_set(self) -> frozenset[str]:
        return frozenset(self.worlds)

    def check_invariants(self) -> None:
        if not self.worlds:
            raise ValueError("model has no worlds")
        ws = self.world_set()
        keyed = [
            ("domains", self.domains),
            ("concepts", self.concepts),
            ("roles", self.roles),
            *(
                (f"neighbourhoods of modality {index}", per_world)
                for index, per_world in self.neighbourhoods.items()
            ),
        ]
        for name, per_world in keyed:
            for w in per_world:
                if w not in ws:
                    raise ValueError(
                        f"{name} has an entry for unknown world {w!r}"
                    )
        for w in self.worlds:
            if not self.domains.get(w):
                raise ValueError(f"world {w!r} has an empty domain")
        if self.constant_domain:
            first = self.domains[self.worlds[0]]
            if any(self.domains[w] != first for w in self.worlds):
                raise ValueError("constant-domain flag with varying domains")
        for w, ext in self.concepts.items():
            for name, members in ext.items():
                if not members <= self.domains[w]:
                    raise ValueError(f"{name} at {w!r} exceeds the domain")
        for w, ext in self.roles.items():
            dom = self.domains[w]
            for name, pairs in ext.items():
                for d, e in pairs:
                    if d not in dom or e not in dom:
                        raise ValueError(f"{name} at {w!r} exceeds the domain")
        for index, per_world in self.neighbourhoods.items():
            if index < 1:
                raise ValueError(f"modality index {index} out of range")
            for w, collection in per_world.items():
                if isinstance(collection, Windows):
                    # Every member lies below some ceiling.
                    members = (ceil for _, ceil in collection.windows)
                else:
                    members = collection
                for alpha in members:
                    if not alpha <= ws:
                        raise ValueError(
                            f"neighbourhood member at {w!r} is not a set of worlds"
                        )

    # -- JSON interchange ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "worlds": list(self.worlds),
            "constant_domain": self.constant_domain,
            "domains": {w: sorted(self.domains[w]) for w in self.worlds},
            "concepts": {
                w: {a: sorted(members) for a, members in sorted(ext.items())}
                for w, ext in sorted(self.concepts.items())
            },
            "roles": {
                w: {
                    r: sorted([list(p) for p in pairs])
                    for r, pairs in sorted(ext.items())
                }
                for w, ext in sorted(self.roles.items())
            },
            "neighbourhoods": {
                str(index): {
                    w: sorted([sorted(alpha) for alpha in collection])
                    for w, collection in sorted(per_world.items())
                }
                for index, per_world in sorted(self.neighbourhoods.items())
            },
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "NeighbourhoodModel":
        if not isinstance(data, dict):
            raise ValueError("model file is not a JSON object")
        for field in ("worlds", "domains"):
            if field not in data:
                raise ValueError(f"model has no {field!r} field")
        for field, shape in _EXPORTED_SHAPES.items():
            if field in data and not _has_shape(data[field], shape):
                raise ValueError(
                    f"model field {field!r} is not {_describe(shape)}"
                )
        seen: set[str] = set()
        for w in data["worlds"]:
            if w in seen:
                raise ValueError(f"model field 'worlds' lists world {w!r} twice")
            seen.add(w)
        keys: dict[int, str] = {}
        for key in data.get("neighbourhoods", {}):
            try:
                index = int(key)
            except ValueError:
                raise ValueError(
                    f"model field 'neighbourhoods' has modality index "
                    f"{key!r}, which is not an integer"
                ) from None
            if index in keys:
                raise ValueError(
                    f"model field 'neighbourhoods' has modality indices "
                    f"{keys[index]!r} and {key!r}, which are the same integer"
                )
            keys[index] = key
        model = cls(
            worlds=tuple(data["worlds"]),
            constant_domain=data.get("constant_domain", False),
            domains={
                w: frozenset(members) for w, members in data["domains"].items()
            },
            concepts={
                w: {a: frozenset(m) for a, m in ext.items()}
                for w, ext in data.get("concepts", {}).items()
            },
            roles={
                w: {
                    r: frozenset((d, e) for d, e in pairs)
                    for r, pairs in ext.items()
                }
                for w, ext in data.get("roles", {}).items()
            },
            neighbourhoods={
                int(index): {
                    w: frozenset(frozenset(alpha) for alpha in collection)
                    for w, collection in per_world.items()
                }
                for index, per_world in data.get("neighbourhoods", {}).items()
            },
        )
        model.check_invariants()
        return model

    @classmethod
    def from_json(cls, text: str) -> "NeighbourhoodModel":
        import json

        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model file is not JSON: {exc}") from exc
        return cls.from_json_dict(data)


#: Each field of an exported model, outermost container first: a JSON
#: "object" (keyed by world, or by modality index outermost in
#: neighbourhoods), a "list", and at the leaves a "string", a "pair"
#: (a list of two strings) or a "boolean".
_EXPORTED_SHAPES = {
    "worlds": ("list", "string"),
    "constant_domain": ("boolean",),
    "domains": ("object", "list", "string"),
    "concepts": ("object", "object", "list", "string"),
    "roles": ("object", "object", "list", "pair"),
    "neighbourhoods": ("object", "object", "list", "list", "string"),
}


def _has_shape(value, shape: tuple[str, ...]) -> bool:
    kind, inner = shape[0], shape[1:]
    if kind == "string":
        return isinstance(value, str)
    if kind == "boolean":
        return isinstance(value, bool)
    if kind == "pair":
        return (
            isinstance(value, list)
            and len(value) == 2
            and all(isinstance(part, str) for part in value)
        )
    if kind == "list":
        return isinstance(value, list) and all(
            _has_shape(item, inner) for item in value
        )
    return isinstance(value, dict) and all(
        _has_shape(item, inner) for item in value.values()
    )


def _describe(shape: tuple[str, ...]) -> str:
    """'an object of lists of strings' for ("object", "list", "string")."""
    head = "an object" if shape[0] == "object" else f"a {shape[0]}"
    return " of ".join([head, *(f"{kind}s" for kind in shape[1:])])


class Evaluator:
    """Memoizing evaluator bound to a single model."""

    def __init__(self, model: NeighbourhoodModel):
        self.model = model
        self._concept_memo: dict[tuple[str, Concept], frozenset[str]] = {}
        self._concept_set_memo: dict[tuple[str, Concept], frozenset[str]] = {}
        self._formula_set_memo: dict[Formula, frozenset[str]] = {}

    def _neighbourhood(self, index: int, world: str) -> frozenset[frozenset[str]]:
        per_world = self.model.neighbourhoods.get(index)
        if per_world is None:
            raise ValueError(f"modality index {index} out of range")
        return per_world.get(world, frozenset())

    def concept_ext(self, world: str, concept: Concept) -> frozenset[str]:
        if world not in self.model.domains:
            raise ValueError(f"unknown world {world!r}")
        key = (world, concept)
        cached = self._concept_memo.get(key)
        if cached is not None:
            return cached
        model = self.model
        dom = model.domains[world]
        if isinstance(concept, AtomicConcept):
            out = model.concepts.get(world, {}).get(concept.name, frozenset())
        elif isinstance(concept, Top):
            out = dom
        elif isinstance(concept, Bot):
            out = frozenset()
        elif isinstance(concept, Not):
            out = dom - self.concept_ext(world, concept.arg)
        elif isinstance(concept, And):
            out = self.concept_ext(world, concept.left) & self.concept_ext(
                world, concept.right
            )
        elif isinstance(concept, Or):
            out = self.concept_ext(world, concept.left) | self.concept_ext(
                world, concept.right
            )
        elif isinstance(concept, Exists):
            pairs = model.roles.get(world, {}).get(concept.role, frozenset())
            targets = self.concept_ext(world, concept.arg)
            out = frozenset(d for d, e in pairs if e in targets)
        elif isinstance(concept, Forall):
            pairs = model.roles.get(world, {}).get(concept.role, frozenset())
            targets = self.concept_ext(world, concept.arg)
            bad = frozenset(d for d, e in pairs if e not in targets)
            out = dom - bad
        elif isinstance(concept, Box):
            collection = self._neighbourhood(concept.index, world)
            out = frozenset(
                d
                for d in dom
                if self.concept_truth_set(d, concept.arg) in collection
            )
        elif isinstance(concept, Dia):
            # d is in not-C at v iff v's domain holds d and C does not.
            collection = self._neighbourhood(concept.index, world)
            truth = self.concept_truth_set
            out = frozenset(
                d
                for d in dom
                if truth(d, TOP) - truth(d, concept.arg) not in collection
            )
        else:
            raise TypeError(f"not a concept: {concept!r}")
        self._concept_memo[key] = out
        return out

    def concept_truth_set(self, element: str, concept: Concept) -> frozenset[str]:
        key = (element, concept)
        cached = self._concept_set_memo.get(key)
        if cached is not None:
            return cached
        out = frozenset(
            v
            for v in self.model.worlds
            if element in self.concept_ext(v, concept)
        )
        self._concept_set_memo[key] = out
        return out

    def holds(self, world: str, phi: Formula) -> bool:
        if world not in self.model.domains:
            raise ValueError(f"unknown world {world!r}")
        if isinstance(phi, CI):
            return self.concept_ext(world, phi.left) <= self.concept_ext(
                world, phi.right
            )
        if isinstance(phi, NotF):
            return not self.holds(world, phi.arg)
        # Both operands are evaluated, so a modality index the model lacks
        # raises wherever it sits, never hidden by the other operand.
        if isinstance(phi, AndF):
            return self.holds(world, phi.left) & self.holds(world, phi.right)
        if isinstance(phi, OrF):
            return self.holds(world, phi.left) | self.holds(world, phi.right)
        if isinstance(phi, BoxF):
            return self.formula_truth_set(phi.arg) in self._neighbourhood(
                phi.index, world
            )
        if isinstance(phi, DiaF):
            refuted = self.model.world_set() - self.formula_truth_set(phi.arg)
            return refuted not in self._neighbourhood(phi.index, world)
        raise TypeError(f"not a formula: {phi!r}")

    def formula_truth_set(self, phi: Formula) -> frozenset[str]:
        cached = self._formula_set_memo.get(phi)
        if cached is not None:
            return cached
        out = frozenset(v for v in self.model.worlds if self.holds(v, phi))
        self._formula_set_memo[phi] = out
        return out


def satisfies(model: NeighbourhoodModel, world: str, phi: Formula) -> bool:
    """Truth of a formula at a world (full syntax, no NNF required)."""
    return Evaluator(model).holds(world, phi)


# ---------------------------------------------------------------------------
# Frame classes
# ---------------------------------------------------------------------------

def _collections(model: NeighbourhoodModel):
    # Worlds absent from a neighbourhood map carry the empty collection.
    for index, per_world in model.neighbourhoods.items():
        for world in model.worlds:
            yield index, world, per_world.get(world, frozenset())


def supplemented_collection(
    collection: frozenset[frozenset[str]], worlds: frozenset[str]
) -> bool:
    """Closure under supersets, checked by single-world extensions."""
    for alpha in collection:
        for w in worlds - alpha:
            if alpha | {w} not in collection:
                return False
    return True


def intersection_closed_collection(
    collection: frozenset[frozenset[str]],
) -> bool:
    return all(a & b in collection for a in collection for b in collection)


def _supplemented_by_shape(collection, worlds: frozenset[str]) -> bool:
    """Windows that all reach up to the full world set are upward closed."""
    return isinstance(collection, Windows) and all(
        ceil == worlds for _, ceil in collection.windows
    )


def _meet_closed_by_shape(collection) -> bool:
    """The meets of two windows' members form the window of the meets of
    their floors and ceilings; sufficient that each such window is one of
    the collection's windows."""
    if not isinstance(collection, Windows):
        return False
    windows = collection.windows
    if len(windows) < 2:
        return True
    present = set(windows)
    return all(
        (floor_i & floor_j, ceil_i & ceil_j) in present
        for i, (floor_i, ceil_i) in enumerate(windows)
        for floor_j, ceil_j in windows[i + 1 :]
    )


def check_frame_class(model: NeighbourhoodModel, frame_class: FrameClass) -> bool:
    """Membership of the model's frame in the given class.

    Window collections are decided by their shape where it suffices;
    every other collection is checked member by member.  That
    supplementation check refuses models with more than
    MAX_WORLDS_FOR_SUPPLEMENTATION worlds (the condition ranges over
    subsets of the world set).
    """
    frame_class = FrameClass(frame_class)
    if frame_class is FrameClass.E:
        return True
    ws = model.world_set()
    if frame_class is FrameClass.M:
        rest = [
            collection
            for _, _, collection in _collections(model)
            if not _supplemented_by_shape(collection, ws)
        ]
        if rest and len(ws) > MAX_WORLDS_FOR_SUPPLEMENTATION:
            raise ModelTooLargeError(
                f"supplementation check: {len(ws)} worlds, too large to verify"
            )
        return all(supplemented_collection(c, ws) for c in rest)
    if frame_class is FrameClass.C:
        return all(
            _meet_closed_by_shape(collection)
            or intersection_closed_collection(collection)
            for _, _, collection in _collections(model)
        )
    # N: the full world set belongs to every collection.
    return all(ws in collection for _, _, collection in _collections(model))
