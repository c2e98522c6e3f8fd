"""Span tracing from outside the package.

``Tracer.patch`` replaces the attribute a caller resolves (for example
``satcover.solver.construct``) with a wrapper that records one span per call:
its name, its parent span and its start and end.  Spans are kept in memory
as parallel arrays; ``layer_metrics`` turns them into self times and counts
once the run is over, and ``restore`` puts every original back.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# span name -> per-layer metric holding its summed self time
SELF_TIME_METRICS = {
    "cli.solve": "cli.solve_s",
    "cli.report": "cli.report_s",
    "cnf.parse_dimacs": "cnf.parse_dimacs_s",
    "cnf.restrict": "cnf.restrict_s",
    "cnf.to_matrix": "cnf.to_matrix_s",
    "cnf.to_decomposition": "cnf.to_decomposition_s",
    "cnf.evaluate": "cnf.evaluate_s",
    "decomposition.validate": "decomposition.validate_s",
    "decomposition.column_counts": "decomposition.column_counts_s",
    "decomposition.apply_swaps": "decomposition.apply_swaps_s",
    "decomposition.is_alpha_covering": "decomposition.is_alpha_covering_s",
    "graph.find_main_vertices": "graph.find_main_vertices_s",
    "graph.construct": "graph.construct_s",
    "procedures.snapshot_capture": "procedures.snapshot_capture_s",
    "procedures.snapshot_restore": "procedures.snapshot_restore_s",
    "procedures.swapped_counts": "procedures.swapped_counts_s",
    "procedures.removal": "procedures.removal_s",
    "procedures.clean": "procedures.clean_s",
    "procedures.eliminate": "procedures.eliminate_s",
    "procedures.extend": "procedures.extend_s",
    "solver.solve_sat": "solver.self_s",
    "harness.brute_sat": "harness.brute_sat_s",
    "harness.dpll": "harness.dpll_s",
    "harness.brute_covering": "harness.brute_covering_s",
    "harness.generate": "harness.generate_s",
}

# span name -> per-layer metric holding its number of calls
CALL_COUNT_METRICS = {
    "graph.construct": "graph.construct_calls",
    "procedures.snapshot_capture": "procedures.snapshot_captures",
    "procedures.snapshot_restore": "procedures.snapshot_restores",
    "procedures.removal": "procedures.removal_calls",
    "harness.brute_sat": "harness.brute_sat_calls",
    "harness.dpll": "harness.dpll_calls",
}


class Tracer:
    """In-memory span recorder plus the counters read at the same boundaries."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.counting = False  # whether the solve in progress counts ops

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with one span per call; ``before(args, kwargs)`` and
        ``after(result, args)`` run outside the span."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """A generator function whose every ``next`` is one span."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, *, impl=None, generator=False, **hooks) -> None:
        """Replace ``owner.attr`` with a traced version of ``impl`` (default:
        the current attribute).  Class methods stay class methods."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        target = impl or (original.__func__ if is_classmethod else original)
        wrapped = self.wrap_generator(target, name) if generator else self.wrap(target, name, **hooks)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def spans(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name ids, parent indices, durations) of every recorded span."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        durations = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        return names, parents, durations

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        names, parents, durations = self.spans()
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=len(durations)
        )
        own = np.bincount(names, weights=durations - child_time, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def inclusive_times(self, name: str, *, outside: Optional[str] = None) -> float:
        """Summed duration of the spans called ``name``, leaving out those with
        an ancestor called ``outside``."""
        if name not in self._ids:
            return 0.0
        names, parents, durations = self.spans()
        target = self._ids[name]
        excluded = self._ids.get(outside, -1)
        total = 0.0
        for idx in np.nonzero(names == target)[0]:
            up = int(parents[idx])
            while up >= 0 and names[up] != excluded:
                up = int(parents[up])
            if up < 0:
                total += float(durations[idx])
        return total

    def call_counts(self) -> Dict[str, int]:
        counts = np.bincount(self.spans()[0], minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}


# ---------------------------------------------------------------------------
# the patch table
# ---------------------------------------------------------------------------

def install(tracer: Tracer) -> None:
    """Trace every public function the benchmark breaks down by layer.

    Each function is patched where its caller looks it up: the package
    modules import names directly, so ``satcover.solver.construct`` is what
    the covering loop calls, not ``satcover.graph.construct``.
    """
    from satcover import cli, harness, procedures, solver

    t = tracer
    counts = t.counts

    def solve_before(args, kwargs):
        t.counting = bool(kwargs.get("count_ops", False))

    def solve_after(run, args):
        counts["solver.ops_total"] += run.ops.total
        counts["solver.extensions"] += run.extensions
        counts["instrument.trace_events"] += len(run.trace.events)
        t.counting = False

    def captured(snapshot, args):
        cells = snapshot.cell_count()
        counts["procedures.snapshot_cells"] += cells
        if t.counting:
            counts["charged_cells"] += cells

    def restored(result, args):
        if t.counting:
            counts["charged_cells"] += args[0].cell_count()

    def removal_done(outcome, args):
        counts["removal_commits"] += int(outcome.removable)

    def dpll_done(result, args):
        counts["harness.oracle_unknown"] += int(result[0] is None)

    original_shrink = harness.shrink_disagreement

    def counted_shrink(formula, check):
        def counted_check(candidate):
            counts["harness.shrink_checks"] += 1
            return check(candidate)

        return original_shrink(formula, counted_check)

    t.patch(cli, "parse_dimacs", "cnf.parse_dimacs")
    t.patch(cli, "solve_sat", "solver.solve_sat", before=solve_before, after=solve_after)
    t.patch(cli, "build_sat_report", "cli.report")
    t.patch(cli, "report_json", "cli.report")
    for module in (solver, harness):
        t.patch(module, "restrict_to_used", "cnf.restrict")
        t.patch(module, "to_matrix", "cnf.to_matrix")
        t.patch(module, "to_decomposition", "cnf.to_decomposition")
        t.patch(module, "evaluate", "cnf.evaluate")
    t.patch(solver, "validate", "decomposition.validate")
    t.patch(solver, "column_counts", "decomposition.column_counts")
    t.patch(solver, "apply_swaps", "decomposition.apply_swaps")
    t.patch(solver, "is_alpha_covering", "decomposition.is_alpha_covering")
    t.patch(solver, "find_main_vertices", "graph.find_main_vertices")
    t.patch(solver, "construct", "graph.construct")
    t.patch(solver, "clean", "procedures.clean")
    t.patch(solver, "eliminate_incompatibilities", "procedures.eliminate")
    t.patch(solver, "extend", "procedures.extend")
    t.patch(procedures, "removal_procedure", "procedures.removal", after=removal_done)
    t.patch(procedures, "swapped_alpha_counts", "procedures.swapped_counts")
    t.patch(procedures.StateSnapshot, "capture", "procedures.snapshot_capture", after=captured)
    t.patch(procedures.StateSnapshot, "restore", "procedures.snapshot_restore", after=restored)
    t.patch(harness, "solve_sat", "solver.solve_sat", before=solve_before, after=solve_after)
    t.patch(harness, "brute_sat", "harness.brute_sat")
    t.patch(harness, "dpll", "harness.dpll", after=dpll_done)
    t.patch(harness, "brute_covering", "harness.brute_covering")
    t.patch(harness, "random_cnf", "harness.generate")
    t.patch(harness, "enumerate_formulas", "harness.generate", generator=True)
    t.patch(harness, "shrink_disagreement", "harness.shrink", impl=counted_shrink)


def layer_metrics(tracer: Tracer, harness_workload: bool) -> Dict[str, float]:
    """Every per-layer metric except ``trace_overhead_frac``.

    ``_s`` metrics are summed self times, except three that are inclusive:
    ``solver.solve_sat_s`` (all engine time), ``harness.shrink_s`` (all
    minimization time, re-runs included) and ``harness.engine_s`` (engine
    time of the adjudication loop, minimization re-runs left out).
    """
    own = tracer.self_times()
    calls = tracer.call_counts()
    counts = tracer.counts
    out: Dict[str, float] = {}
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] = own.get(span, 0.0)
    for span, metric in CALL_COUNT_METRICS.items():
        out[metric] = calls.get(span, 0)
    for metric in (
        "procedures.snapshot_cells",
        "solver.ops_total",
        "solver.extensions",
        "instrument.trace_events",
        "harness.oracle_unknown",
        "harness.shrink_checks",
    ):
        out[metric] = counts[metric]
    removals = calls.get("procedures.removal", 0)
    out["procedures.removal_commit_ratio"] = counts["removal_commits"] / removals if removals else 0.0
    ops_total = counts["solver.ops_total"]
    out["solver.snapshot_op_share"] = counts["charged_cells"] / ops_total if ops_total else 0.0
    out["solver.solve_sat_s"] = tracer.inclusive_times("solver.solve_sat")
    out["harness.shrink_s"] = tracer.inclusive_times("harness.shrink")
    out["harness.engine_s"] = (
        tracer.inclusive_times("solver.solve_sat", outside="harness.shrink")
        if harness_workload
        else 0.0
    )
    return out
