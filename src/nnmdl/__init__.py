"""Satisfiability for non-normal modal description logics.

Multi-modal ALC over neighbourhood models: a labelled tableau engine with
countermodel extraction for varying domains (frame classes E, M, C, N), a
propositional-abstraction procedure for the constant-domain fragment
without modalised concepts (classes C, N), and a brute-force bounded-model
oracle used as independent ground truth.
"""

from .extraction import extract_model, floors_ceilings, validate
from .fragment import (
    Abstraction,
    FragmentResult,
    check_g_fragment,
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
    add_unit,
    check_frame_class,
    close_intersection,
    close_supplementation,
    interpret_concept,
    satisfies,
    truth_set_concept,
    truth_set_formula,
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
    is_complete,
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
    "add_unit",
    "brute_force_sat",
    "check_frame_class",
    "check_g_fragment",
    "close_intersection",
    "close_supplementation",
    "closure",
    "enumerate_models",
    "extract_model",
    "find_applicable",
    "floors_ceilings",
    "init",
    "interpret_concept",
    "is_clash",
    "is_complete",
    "neg_nnf",
    "normalize",
    "parse_concept",
    "parse_formula",
    "prop_abstraction",
    "satisfies",
    "serialize",
    "solve",
    "solve_fragment",
    "truth_set_concept",
    "truth_set_formula",
    "validate",
    "weight",
]
