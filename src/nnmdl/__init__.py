"""Satisfiability for non-normal modal description logics.

Multi-modal ALC over neighbourhood models: a labelled tableau engine with
countermodel extraction for varying domains (frame classes E, M, C, N), a
propositional-abstraction procedure for the constant-domain fragment
without modalised concepts (classes C, N), and a brute-force bounded-model
oracle used as independent ground truth.

Importing the package loads the parser, the semantics, the tableau and
extraction; the oracle and the fragment procedure load on first use of one
of their names, since a call runs at most one of them.
"""

from .extraction import extract_model, validate
from .semantics import (
    FrameClass,
    NeighbourhoodModel,
    Windows,
    check_frame_class,
    satisfies,
)
from .syntax import (
    Closure,
    Concept,
    Formula,
    closure,
    neg_nnf,
    normalize,
    parse_concept,
    parse_formula,
    serialize,
    weight,
)
from .tableau import (
    CompletionSet,
    SolveOptions,
    SolveResult,
    find_applicable,
    init,
    is_clash,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "Abstraction",
    "Closure",
    "CompletionSet",
    "Concept",
    "Formula",
    "FragmentResult",
    "FrameClass",
    "NeighbourhoodModel",
    "OracleBounds",
    "OracleResult",
    "Signature",
    "SolveOptions",
    "SolveResult",
    "Windows",
    "brute_force_sat",
    "check_frame_class",
    "closure",
    "enumerate_models",
    "extract_model",
    "find_applicable",
    "init",
    "is_clash",
    "neg_nnf",
    "normalize",
    "parse_concept",
    "parse_formula",
    "prop_abstraction",
    "satisfies",
    "serialize",
    "solve",
    "solve_fragment",
    "validate",
    "weight",
]

#: Exported name -> the submodule that defines it, for the two procedures
#: `__getattr__` imports on first use.  The submodules map to themselves.
_DEFERRED = {
    "Abstraction": "fragment",
    "FragmentResult": "fragment",
    "prop_abstraction": "fragment",
    "solve_fragment": "fragment",
    "fragment": "fragment",
    "OracleBounds": "oracle",
    "OracleResult": "oracle",
    "Signature": "oracle",
    "brute_force_sat": "oracle",
    "enumerate_models": "oracle",
    "oracle": "oracle",
}


def __getattr__(name: str):
    """Import the submodule that defines `name` and bind all of its
    exported names here, so later reads are plain attribute reads."""
    home = _DEFERRED.get(name)
    # `from . import oracle` would first ask this hook for `oracle` and
    # recurse; importing from the submodule does not.
    if home == "oracle":
        from .oracle import __dict__ as namespace
    elif home == "fragment":
        from .fragment import __dict__ as namespace
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    bound = globals()
    bound.update(
        (each, namespace[each])
        for each, at in _DEFERRED.items()
        if at == home and each != home
    )
    return bound[name]


def __dir__() -> list:
    return sorted({*globals(), *_DEFERRED})
