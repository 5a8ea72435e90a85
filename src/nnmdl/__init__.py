"""Satisfiability for non-normal modal description logics.

Multi-modal ALC over neighbourhood models: a labelled tableau engine with
countermodel extraction for varying domains (frame classes E, M, C, N), a
propositional-abstraction procedure for the constant-domain fragment
without modalised concepts (classes C, N), and a brute-force bounded-model
oracle used as independent ground truth.
"""

from .extraction import extract_model, validate
from .fragment import (
    Abstraction,
    FragmentResult,
    prop_abstraction,
    solve_fragment,
)
from .oracle import (
    OracleBounds,
    OracleResult,
    Signature,
    brute_force_sat,
    enumerate_models,
)
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
