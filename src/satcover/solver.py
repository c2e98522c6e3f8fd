"""End-to-end drivers: the covering search loop and the SAT wrapper.

The covering loop alternates graph construction, cleaning, and
incompatibility elimination, extending the graph with fresh main vertices
when elimination gets stuck, until either a covering is verified or one of
the no-covering exits fires.  The SAT wrapper reduces a formula to a
decomposition pair, runs the loop, and converts the swap set into an
assignment; an assignment that fails evaluation is downgraded to an engine
error and never reported as satisfiable.
"""
from __future__ import annotations

import json
from typing import List, NamedTuple, Optional, Tuple

from .cnf import (
    CnfFormula,
    assignment_from_swaps,
    check_alpha,
    evaluate,
    to_decomposition,
)
from .cnf import restrict_to_used  # noqa: F401  not called; perfbench/tracer.py patches it here
from .cnf import to_matrix  # noqa: F401  not called; perfbench/tracer.py patches it here
from .decomposition import (
    DecompositionPair,
    StructuralError,
    apply_swaps,
    column_counts,
    input_length,
    is_alpha_covering,
    validate,
)
from .graph import (
    construct,
    find_forced_conflict_row,
    find_main_vertices,
)
from .instrument import DISABLED_OPS, OpCounter, Trace, UnkeptTrace
from .procedures import (
    Unreachable,
    clean,
    eliminate_incompatibilities,
    extend,
)

# reason kinds
NON_REMOVABLE_USELESS_VERTEX = "non-removable-useless-vertex"
UNREACHABLE_COLUMN = "unreachable-column"
BOTH_COMPONENTS_SINGLE = "both-components-single"
EMPTY_CLAUSE = "empty-clause"

REASON_KINDS = (
    NON_REMOVABLE_USELESS_VERTEX,
    UNREACHABLE_COLUMN,
    BOTH_COMPONENTS_SINGLE,
    EMPTY_CLAUSE,
)


class EngineInvariantError(RuntimeError):
    """An internal contract of the covering loop was violated."""


class _ReasonFields(NamedTuple):
    kind: str
    index: Optional[int] = None


class Reason(_ReasonFields):
    __slots__ = ()

    def __new__(cls, kind: str, index: Optional[int] = None) -> "Reason":
        if kind not in REASON_KINDS:
            raise ValueError(f"unknown reason kind {kind!r}")
        return super().__new__(cls, kind, index)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "index": self.index}


# verdicts; ``status`` is the word reports, the harness and the CLI use

class CoveringFound(NamedTuple):
    swaps: frozenset
    status = "COVERING"


class NoCovering(NamedTuple):
    reason: Reason
    status = "NO_COVERING"


class Sat(NamedTuple):
    assignment: Tuple[bool, ...]
    status = "SAT"


class Unsat(NamedTuple):
    reason: Reason
    status = "UNSAT"


class EngineError(NamedTuple):
    detail: str
    status = "ERROR"


class SolveRun(NamedTuple):
    """One driver run: verdict plus instrumentation."""

    verdict: object
    trace: Trace
    extensions: int

    @property
    def ops(self) -> OpCounter:
        """The run's op counter, the one its trace reads."""
        return self.trace.ops


# ---------------------------------------------------------------------------
# invariant checks (optional, used by the harness)
# ---------------------------------------------------------------------------

def _check_graph_invariants(graph) -> None:
    """Raise EngineInvariantError unless the graph's counters match its live
    edges and vertices: the edge bound, live endpoints, indegree, live
    targets and multiplicity, checked in that order."""
    g = graph
    formed, removed, edge_live, edge_base = g.formed, g.removed, g.edge_live, g.edge_base
    indegree = [0] * g.n
    per_column = [0] * g.m
    dead_endpoint = False
    for j0, source in enumerate(g.col_single_row):
        base = edge_base[j0]
        if not source:  # a column with no single row has no edges
            dead_endpoint = dead_endpoint or edge_live.find(1, base, edge_base[j0 + 1]) >= 0
            continue
        s0 = source - 1
        for edge, t0 in enumerate(g.targets[j0], base):
            if edge_live[edge]:
                dead_endpoint = dead_endpoint or not formed[s0] or removed[s0] or not formed[t0] or removed[t0]
                indegree[t0] += 1
                per_column[j0] += 1
    edges = sum(per_column)
    if edges > (g.n - 1) * g.m:
        raise EngineInvariantError(
            f"edge bound violated: {edges} > (n-1)*m = {(g.n - 1) * g.m}"
        )
    if dead_endpoint:
        raise EngineInvariantError("live edge touches a removed or unformed vertex")
    if indegree != g.indegree:
        raise EngineInvariantError("indegree does not match live incoming edge counts")
    if per_column != g.live_targets:
        raise EngineInvariantError("live-target counts do not match the live edges")
    mult = [0] * g.m
    for v0, columns in enumerate(g.main_columns):
        if g.main[v0] and formed[v0] and not removed[v0]:
            for c in columns:
                mult[c - 1] += 1
    if mult != g.multiplicity:
        raise EngineInvariantError("multiplicity does not match live main vertices")


# ---------------------------------------------------------------------------
# covering driver
# ---------------------------------------------------------------------------

def _run_covering(pair: DecompositionPair, trace: Trace, *, shortcut: bool, invariant_checks: bool):
    """The covering loop: (verdict, extensions).  A broken internal contract
    ends the run as an EngineError verdict with 0 extensions."""
    try:
        counts = column_counts(pair, ops=trace.ops)
        if shortcut:
            hit = find_forced_conflict_row(pair, counts)
            if hit is not None:
                trace.emit("shortcut-hit", hit)
                trace.emit("verdict", 1, hit)
                return NoCovering(Reason(BOTH_COMPONENTS_SINGLE, hit)), 0

        graph = find_main_vertices(pair, counts, trace)
        if graph is None:
            if not is_alpha_covering(pair):
                raise EngineInvariantError("no uncovered column yet the pair is not a covering")
            trace.emit("verdict", 0, 0)
            return CoveringFound(frozenset()), 0

        extensions = 0
        while True:
            construct(graph)
            if invariant_checks:
                _check_graph_invariants(graph)
            blocking = clean(graph)
            if invariant_checks:
                _check_graph_invariants(graph)
            if blocking is not None:
                trace.emit("verdict", 1, blocking)
                return NoCovering(Reason(NON_REMOVABLE_USELESS_VERTEX, blocking)), extensions
            result = eliminate_incompatibilities(graph)
            if invariant_checks:
                _check_graph_invariants(graph)
            if isinstance(result, Unreachable):
                trace.emit("verdict", 1, result.column)
                return NoCovering(Reason(UNREACHABLE_COLUMN, result.column)), extensions
            if result is None:
                swaps = frozenset(graph.live_vertices())
                if not is_alpha_covering(apply_swaps(pair, swaps)):
                    raise EngineInvariantError("eliminated state failed the covering gate")
                trace.emit("verdict", 0, 0)
                return CoveringFound(swaps), extensions
            extensions += 1
            if extensions > pair.n:
                raise EngineInvariantError(f"extension count exceeded n={pair.n}")
            extend(graph, result)
    except EngineInvariantError as exc:
        return EngineError(str(exc)), 0


def solve_covering(
    pair: DecompositionPair,
    *,
    count_ops: bool = False,
    shortcut: bool = False,
    invariant_checks: bool = False,
) -> SolveRun:
    """Decide whether some swap set turns the pair into an alpha covering.

    Returns a run whose verdict is CoveringFound (with the swap set, verified
    against the covering check before return), NoCovering with a reason, or
    EngineError when an internal contract broke.  A pair that breaks a
    decomposition condition raises StructuralError.
    """
    violations = validate(pair)
    if violations:
        first = violations[0]
        witnesses = " ".join(
            f"{name}={value}"
            for name, value in (("row", first.row), ("column", first.column))
            if value is not None
        )
        raise StructuralError(
            f"invalid decomposition: {first.condition} at {witnesses}"
            + (f" (+{len(violations) - 1} more)" if len(violations) > 1 else "")
        )
    trace = Trace(OpCounter() if count_ops else DISABLED_OPS)
    verdict, extensions = _run_covering(
        pair, trace, shortcut=shortcut, invariant_checks=invariant_checks
    )
    return SolveRun(verdict=verdict, trace=trace, extensions=extensions)


# ---------------------------------------------------------------------------
# SAT driver
# ---------------------------------------------------------------------------

def solve_sat(
    formula: CnfFormula,
    *,
    count_ops: bool = False,
    shortcut: bool = False,
    alpha: str = "neg",
    invariant_checks: bool = False,
    clause_labels: Optional[List[int]] = None,
    keep_trace: bool = True,
) -> SolveRun:
    """Decide satisfiability through the covering reduction.

    Reason indices are reported in the formula's own numbering (variables as
    given; clauses by position) unless ``clause_labels`` supplies original
    file numbering, one label per clause.  ``alpha="pos"`` mirrors the
    reduction's orientation: it reduces the formula with every literal
    negated and reads a variable as true when its row is left unswapped.  A
    satisfying verdict is emitted only after the assignment passes
    evaluation; a failing assignment becomes EngineError.  With
    ``keep_trace=False`` the run's trace is an ``UnkeptTrace``: the verdict,
    the ops and the extensions are the same, but no event is kept.
    """
    check_alpha(alpha)
    m = len(formula.clauses)
    if clause_labels is None:
        clause_labels = range(1, m + 1)
    elif len(clause_labels) != m:
        raise StructuralError(f"clause_labels has {len(clause_labels)} labels for {m} clauses")
    trace = (Trace if keep_trace else UnkeptTrace)(OpCounter() if count_ops else DISABLED_OPS)

    for idx, clause in enumerate(formula.clauses, start=1):
        if not clause:
            trace.emit("verdict", 1, idx)
            return SolveRun(Unsat(Reason(EMPTY_CLAUSE, clause_labels[idx - 1])), trace, 0)
    if not formula.clauses:
        trace.emit("verdict", 0, 0)
        return SolveRun(Sat((False,) * formula.num_vars), trace, 0)

    if alpha == "pos":  # the mirrored orientation is the negated formula's
        reduced = CnfFormula(formula.num_vars, [[-lit for lit in c] for c in formula.clauses])
    else:
        reduced = formula
    pair, used = to_decomposition(reduced, ops=trace.ops)

    verdict, extensions = _run_covering(
        pair, trace, shortcut=shortcut, invariant_checks=invariant_checks
    )

    if isinstance(verdict, CoveringFound):
        swaps = verdict.swaps
        if alpha == "pos":  # a row left unswapped makes its variable true
            swaps = set(range(1, pair.n + 1)) - swaps
        assignment = assignment_from_swaps(swaps, used, formula.num_vars)
        if not evaluate(formula, assignment):
            verdict = EngineError("covering produced a non-satisfying assignment")
        else:
            verdict = Sat(assignment)
    elif isinstance(verdict, NoCovering):
        reason = verdict.reason
        if reason.kind == UNREACHABLE_COLUMN:
            index = clause_labels[reason.index - 1]
        else:  # a vertex: decomposition row -> variable
            index = used[reason.index - 1]
        verdict = Unsat(Reason(reason.kind, index))
    return SolveRun(verdict, trace, extensions)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _assignment_literals(assignment: Tuple[bool, ...]) -> List[int]:
    return [i if value else -i for i, value in enumerate(assignment, start=1)]


def _report(
    instance: str, run: SolveRun, n: int, m: int, length: int, elapsed_ms: Optional[float], **answer
) -> dict:
    """The report both front ends write; ``answer`` adds the front end's own
    answer field (``assignment`` or ``swaps``), None unless it answered yes."""
    verdict = run.verdict
    reason = getattr(verdict, "reason", None)
    report = {
        "instance": instance,
        "verdict": verdict.status,
        "assignment": None,
        "reason": None if reason is None else reason.as_dict(),
        "n": n,
        "m": m,
        "input_length": length,
        "op_total": run.ops.total,
        "op_by_kind": run.ops.as_dict(),
        "extensions": run.extensions,
        "elapsed_ms": elapsed_ms,
        "trace_hash": run.trace.sha256(),
        **answer,
    }
    if isinstance(verdict, EngineError):
        report["error_detail"] = verdict.detail
    return report


def build_sat_report(
    instance: str,
    formula: CnfFormula,
    run: SolveRun,
    *,
    elapsed_ms: Optional[float] = None,
) -> dict:
    verdict = run.verdict
    clauses = formula.clauses
    return _report(
        instance, run, formula.num_vars, len(clauses), sum(map(len, clauses)), elapsed_ms,
        assignment=_assignment_literals(verdict.assignment) if isinstance(verdict, Sat) else None,
    )


def build_covering_report(
    instance: str,
    pair: DecompositionPair,
    run: SolveRun,
    *,
    elapsed_ms: Optional[float] = None,
) -> dict:
    verdict = run.verdict
    return _report(
        instance, run, pair.n, pair.m, input_length(pair), elapsed_ms,
        swaps=sorted(verdict.swaps) if isinstance(verdict, CoveringFound) else None,
    )


def report_json(report: dict) -> str:
    """Canonical serialization: sorted keys, compact separators."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))
