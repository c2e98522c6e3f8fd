"""satcover: a covering-search SAT engine with a verification harness.

The engine decides satisfiability by reducing a CNF formula to a pair of
binary matrices (a decomposition of the clause set into per-variable
positive/negative occurrence rows) and searching for a set of row swaps
that covers every clause column.  Every satisfiable verdict is gated by
direct evaluation; the harness differentially tests the engine against
brute-force oracles and measures operation-count growth.

The harness names are served on first use (PEP 562), so importing the
package, or running a solve, loads only the engine.
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
from .graph import PointingGraph, construct, find_main_vertices
from .instrument import DISABLED_OPS, OpCounter, Trace
from .procedures import (
    ExtensionPlan,
    RemovalOutcome,
    StateSnapshot,
    Unreachable,
    clean,
    eliminate_incompatibilities,
    extend,
    removal_procedure,
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
    "PointingGraph",
    "construct",
    "find_main_vertices",
    "DifferentialReport",
    "FuzzConfig",
    "brute_covering",
    "brute_sat",
    "complexity_probe",
    "diff_exhaustive",
    "differential_run",
    "dpll",
    "enumerate_clause_universe",
    "enumerate_formulas",
    "random_cnf",
    "shrink_disagreement",
    "DISABLED_OPS",
    "OpCounter",
    "Trace",
    "ExtensionPlan",
    "RemovalOutcome",
    "StateSnapshot",
    "Unreachable",
    "clean",
    "eliminate_incompatibilities",
    "extend",
    "removal_procedure",
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

# the names of __all__ not bound above: the harness's
_HARNESS_NAMES = frozenset(__all__).difference(globals())


def __getattr__(name: str):
    """A harness name, read from ``satcover.harness`` (imported on first use)."""
    if name not in _HARNESS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import harness

    return getattr(harness, name)


def __dir__():
    return sorted(set(globals()) | _HARNESS_NAMES)
