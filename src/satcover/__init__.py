"""satcover: a covering-search SAT engine with a verification harness.

The engine decides satisfiability by reducing a CNF formula to a pair of
binary matrices (a decomposition of the clause set into per-variable
positive/negative occurrence rows) and searching for a set of row swaps
that covers every clause column.  Every satisfiable verdict is gated by
direct evaluation.

This namespace holds the front door: reading and writing CNF (``cnf``),
the pair model (``decomposition``), and the two entry points with their
verdicts and reports (``solver``).  The search steps are public in
``satcover.graph`` and ``satcover.procedures``, the op counter and trace
in ``satcover.instrument``, and the differential and complexity harness
in ``satcover.harness``; import them from there.  Importing the package
loads only the engine.
"""
from .cnf import (
    CnfFormula,
    ParseError,
    assignment_from_swaps,
    emit_dimacs,
    evaluate,
    parse_dimacs,
    restrict_to_used,
    to_decomposition,
)
from .decomposition import (
    ColumnCounts,
    DecompositionPair,
    StructuralError,
    Violation,
    apply_swaps,
    column_counts,
    input_length,
    is_alpha_covering,
    validate,
)
from .solver import (
    CoveringFound,
    EngineError,
    NoCovering,
    Reason,
    Sat,
    SolveRun,
    Unsat,
    build_covering_report,
    build_sat_report,
    report_json,
    solve_covering,
    solve_sat,
)

__version__ = "0.1.0"

__all__ = [
    "CnfFormula",
    "ParseError",
    "assignment_from_swaps",
    "emit_dimacs",
    "evaluate",
    "parse_dimacs",
    "restrict_to_used",
    "to_decomposition",
    "ColumnCounts",
    "DecompositionPair",
    "StructuralError",
    "Violation",
    "apply_swaps",
    "column_counts",
    "input_length",
    "is_alpha_covering",
    "validate",
    "CoveringFound",
    "EngineError",
    "NoCovering",
    "Reason",
    "Sat",
    "SolveRun",
    "Unsat",
    "build_covering_report",
    "build_sat_report",
    "report_json",
    "solve_covering",
    "solve_sat",
    "__version__",
]
