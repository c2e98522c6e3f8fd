"""Acceptance gate: ten criteria, one summary line each.

Heavy corpora are computed once in module-scoped fixtures and shared.
Engine/oracle disagreements are findings, not failures (criterion 9 checks
the reporting machinery); only soundness-gate and invariant violations are
fatal.
"""
import copy
import hashlib
import itertools
import math
import os
import random
import statistics
import time

import numpy as np
import pytest

from satcover import (
    CnfFormula,
    FuzzConfig,
    Reason,
    Sat,
    Trace,
    Unsat,
    build_sat_report,
    clean,
    column_counts,
    complexity_probe,
    construct,
    diff_exhaustive,
    differential_run,
    emit_dimacs,
    exhaustive_reduction_check,
    find_main_vertices,
    input_length,
    parse_dimacs,
    random_cnf,
    report_json,
    restrict_to_used,
    shrink_disagreement,
    solve_sat,
    to_decomposition,
)
from satcover import harness
from satcover.cnf import to_matrix
from satcover.harness import enumerate_formulas, oracle_status
from satcover.procedures import StateSnapshot, removal_procedure

from conftest import E1_TEXT, E2_TEXT, E3_TEXT, formula_of, record_criterion, typed

# 10,000 seeded instances, n <= 30 and m <= 120 throughout; variable counts
# 21..25 are left out so the brute-force oracle stays affordable
FUZZ_BATCHES = (
    FuzzConfig(
        seed=20260823,
        num_instances=6000,
        var_range=(1, 20),
        clause_range=(1, 120),
        width_range=(1, 3),
    ),
    FuzzConfig(
        seed=20260824,
        num_instances=4000,
        var_range=(26, 30),
        clause_range=(1, 120),
        width_range=(1, 3),
    ),
)
ORACLE_BRUTE_LIMIT = 20
# sha256 of emit_dimacs over every instance of both batches, in order,
# recorded with the randint/sample generator that random_cnf replaced
FUZZ_CORPORA_SHA256 = "9c4fdc653af667aea9e298dad7bcc767d3283377243360bde07b9ffb8432ed6e"


@pytest.fixture(scope="module")
def exhaustive_report():
    start = time.perf_counter()
    report = diff_exhaustive(3, 4, 3)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def fuzz_reports():
    start = time.perf_counter()
    reports = [
        differential_run(cfg, brute_limit=ORACLE_BRUTE_LIMIT) for cfg in FUZZ_BATCHES
    ]
    return reports, time.perf_counter() - start


def corpus_formulas(count: int, seed: int = 20260825):
    cfg = FuzzConfig(
        seed=seed,
        num_instances=count,
        var_range=(1, 14),
        clause_range=(1, 40),
        width_range=(1, 3),
    )
    return [random_cnf(cfg, i) for i in range(count)]


def test_fuzz_corpora_are_pinned():
    digest = hashlib.sha256()
    for cfg in FUZZ_BATCHES:
        for i in range(cfg.num_instances):
            digest.update(emit_dimacs(random_cnf(cfg, i)).encode("ascii"))
    assert digest.hexdigest() == FUZZ_CORPORA_SHA256, (
        "random_cnf no longer generates the acceptance fuzz corpora; "
        "criteria 02, 04 and 09 would judge different instances"
    )


def test_criterion_01_reduction_equivalence():
    start = time.perf_counter()
    ok = exhaustive_reduction_check(3, 4, 3)
    elapsed = time.perf_counter() - start
    record_criterion(
        "criterion-01 reduction equivalence",
        ok and elapsed < 60.0,
        f"exhaustive double-oracle sweep over 27404 formulas, zero mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_soundness_gate(exhaustive_report, fuzz_reports):
    ex, ex_elapsed = exhaustive_report
    fz, fz_elapsed = fuzz_reports
    generated = ex.generated + sum(r.generated for r in fz)
    gate_failures = ex.gate_failures + sum(r.gate_failures for r in fz)
    archived = len(ex.engine_errors) + sum(len(r.engine_errors) for r in fz)
    elapsed = ex_elapsed + fz_elapsed
    record_criterion(
        "criterion-02 soundness gate",
        gate_failures == 0 and generated == 27404 + 10000 and elapsed < 300.0,
        f"{generated} instances, {gate_failures} gate failures, "
        f"{archived} archived engine errors, {elapsed:.1f}s",
    )


def test_criterion_03_worked_fixtures():
    e1 = solve_sat(formula_of(E1_TEXT))
    e2 = solve_sat(formula_of(E2_TEXT))
    e3 = solve_sat(formula_of(E3_TEXT))
    ok = (
        typed(e1.verdict) == typed(Sat((True, True)))
        and typed(e2.verdict) == typed(Unsat(Reason("non-removable-useless-vertex", 1)))
        and typed(e3.verdict) == typed(Unsat(Reason("unreachable-column", 1)))
    )
    # the recorded hand-run milestones, in order
    ok = ok and e1.trace.kinds() == [
        "vertex-formed",
        "vertex-examined",
        "vertex-formed",
        "edge-formed",
        "vertex-examined",
        "final-marked",
        "construct-result",
        "clean-result",
        "verdict",
    ]
    ok = ok and e2.trace.kinds() == [
        "vertex-formed",
        "vertex-examined",
        "useless-marked",
        "construct-result",
        "snapshot",
        "rp-start",
        "vertex-removed",
        "rp-result",
        "restore",
        "clean-result",
        "verdict",
    ]
    ok = ok and e3.trace.kinds() == [
        "vertex-formed",
        "vertex-formed",
        "vertex-examined",
        "final-marked",
        "vertex-examined",
        "final-marked",
        "construct-result",
        "clean-result",
        "incompat-found",
        "snapshot",
        "rp-start",
        "vertex-removed",
        "rp-result",
        "restore",
        "rp-start",
        "vertex-removed",
        "rp-result",
        "restore",
        "unreachable-column",
        "verdict",
    ]
    record_criterion(
        "criterion-03 worked fixtures",
        ok,
        "E1 satisfiable (true,true); E2 non-removable useless vertex; "
        "E3 unreachable column 1; traces match the hand-run milestones exactly",
    )


def _build_graph(formula):
    if not formula.clauses or any(not c for c in formula.clauses):
        return None, None
    pair, _ = to_decomposition(formula)
    graph = find_main_vertices(pair, column_counts(pair), Trace())
    if graph is None:
        return None, None
    construct(graph)
    return pair, graph


def _same_state(a, b) -> bool:
    """Exact equality of deep-copied graph fields: containers (value classes
    are NamedTuples) member by member."""
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_same_state(x, y) for x, y in zip(a, b))
        )
    return a == b


def _round_trip_exact(graph, vertex):
    """(state restored exactly, cascade removable) for one snapshot, cascade
    from ``vertex`` and restore.  The copy shares the solve's trace: a
    restore records the attempt there rather than rewinding it."""
    before = copy.deepcopy(vars(graph), {id(graph.trace): graph.trace})
    snap = StateSnapshot.capture(graph)
    outcome = removal_procedure(graph, vertex)
    snap.restore(graph)
    after = vars(graph)
    exact = before.keys() == after.keys() and all(
        _same_state(before[name], after[name]) for name in before
    )
    return exact, outcome.removable


def test_criterion_04_structural_invariants(fuzz_reports):
    fz, _ = fuzz_reports
    # per-phase invariant checks ran inside every fuzz solve; any violation
    # would have been downgraded to an archived engine error
    archived = [e for r in fz for e in r.engine_errors]
    ok = not archived

    # snapshot/restore exactness on corpus graphs: every PointingGraph field,
    # deep-copied before the cascade, must come back exactly after restore,
    # whether the cascade was blocked or removable; after a removable one is
    # committed, the next cascade must restore to the committed state
    outcomes = {False: 0, True: 0}
    after_commit = 0
    for formula in corpus_formulas(200, seed=20260826):
        pair, graph = _build_graph(formula)
        if graph is None:
            continue
        live = graph.live_vertices()
        if not live:
            continue
        exact, removable = _round_trip_exact(graph, live[0])
        if exact and removable:
            snap = StateSnapshot.capture(graph)
            removal_procedure(graph, live[0])
            snap.commit(graph)
            rest = graph.live_vertices()
            if rest:
                exact, _ = _round_trip_exact(graph, rest[0])
                after_commit += 1
        if not exact:
            ok = False
            break
        outcomes[removable] += 1
    checked = outcomes[False] + outcomes[True]
    ok = ok and outcomes[False] > 0 and outcomes[True] > 0 and after_commit > 0

    # no vertex removed twice within one removal cascade
    double_removals = 0
    for formula in corpus_formulas(300, seed=20260827):
        run = solve_sat(formula)
        segment = []
        for kind, payload, _ in run.trace.events:
            if kind == "rp-start":
                segment = []
            elif kind == "vertex-removed":
                segment.append(int(payload[0]))
            elif kind == "rp-result":
                if len(segment) != len(set(segment)):
                    double_removals += 1
    ok = ok and double_removals == 0
    record_criterion(
        "criterion-04 structural invariants",
        ok,
        f"edge bound, indegree, extension and multiplicity checks clean on 10000 "
        f"fuzz solves; snapshot round-trip exact on {checked} graphs "
        f"({outcomes[False]} blocked, {outcomes[True]} removable, {after_commit} "
        f"after a commit); {double_removals} double removals",
    )


def _useless_instance(index):
    rng = random.Random(9_000_000 + index)
    n = rng.randint(4, 9)
    base = rng.sample(range(1, n + 1), rng.randint(3, min(4, n)))
    clauses = [list(base)]
    if rng.random() < 0.4:
        clauses.append(rng.sample(range(1, n + 1), rng.randint(2, 3)))
    for v in rng.sample(base, rng.randint(2, min(4, len(base)))):
        clauses.append([-v])
    for _ in range(rng.randint(0, 3)):
        width = rng.randint(2, 3)
        vs = rng.sample(range(1, n + 1), width)
        clause = [v if rng.random() < 0.5 else -v for v in vs]
        if all(l > 0 for l in clause):
            clause[0] = -clause[0]
        clauses.append(clause)
    rng.shuffle(clauses)
    return CnfFormula(n, clauses)


def test_criterion_05_cleaning_order_independence():
    accepted = 0
    blocked = 0
    index = 0
    ok = True
    while accepted < 1000 and ok:
        formula = _useless_instance(index)
        index += 1
        pair, graph = _build_graph(formula)
        if graph is None:
            continue
        live_useless = [
            v + 1
            for v in range(graph.n)
            if graph.useless[v] and graph.formed[v] and not graph.removed[v]
        ]
        if len(live_useless) < 2:
            continue
        accepted += 1
        outcomes = []
        for perm in itertools.islice(itertools.permutations(live_useless), 24):
            pair2, graph2 = _build_graph(formula)
            blocking = clean(graph2, order=list(perm))
            outcomes.append(
                (
                    blocking is None,
                    tuple(graph2.live_vertices()) if blocking is None else None,
                )
            )
        if len({o[0] for o in outcomes}) > 1:
            ok = False
        elif outcomes[0][0]:
            if len({o[1] for o in outcomes}) > 1:
                ok = False
        else:
            blocked += 1
    record_criterion(
        "criterion-05 cleaning order independence",
        ok and accepted == 1000,
        f"{accepted} instances with >=2 useless vertices, permutations capped at 24; "
        f"cleanable outcomes identical, {blocked} instances blocked under every order",
    )


def test_criterion_06_input_length_equality():
    formulas = corpus_formulas(1000)
    formulas += [formula_of(t) for t in (E1_TEXT, E2_TEXT, E3_TEXT)]
    checked = 0
    ok = True
    for formula in formulas:
        sub, _ = restrict_to_used(formula)
        if not sub.clauses or any(not c for c in sub.clauses):
            continue
        matrix = to_matrix(sub)
        pair, _ = to_decomposition(formula)
        if np.count_nonzero(matrix) != input_length(pair):
            ok = False
            break
        checked += 1
    record_criterion(
        "criterion-06 input length equality",
        ok and checked >= 1000,
        f"matrix nonzero count equals decomposition input length on {checked} instances",
    )


def test_criterion_07_determinism():
    formulas = corpus_formulas(150, seed=20260828)
    formulas += [formula_of(t) for t in (E1_TEXT, E2_TEXT, E3_TEXT)]
    ok = True
    for formula in formulas:
        reports = []
        for _ in range(2):
            run = solve_sat(formula, count_ops=True)
            report = build_sat_report("instance", formula, run, elapsed_ms=None)
            reports.append(report_json(report))
        if reports[0] != reports[1]:
            ok = False
            break
    record_criterion(
        "criterion-07 determinism",
        ok,
        f"byte-identical JSON reports (timings excluded) across repeated runs "
        f"on {len(formulas)} instances",
    )


def test_criterion_08_complexity_probe():
    start = time.perf_counter()
    doc = complexity_probe([100, 1000, 10000, 100000], instances_per_size=2)
    elapsed = time.perf_counter() - start
    stats = doc["op_stats"]
    ok = (
        len(doc["rows"]) == 8
        and all(row["op_total"] > 0 for row in doc["rows"])
        and stats["fitted_exponent"] is not None
        and stats["max_ratio_cubic"] is not None
        and elapsed < 600.0
    )
    exponent = (
        f"{stats['fitted_exponent']:.2f}" if stats["fitted_exponent"] is not None else "n/a"
    )
    ratio = (
        f"{stats['max_ratio_cubic']:.3e}" if stats["max_ratio_cubic"] is not None else "n/a"
    )
    record_criterion(
        "criterion-08 complexity probe",
        ok,
        f"sizes 1e2..1e5, fitted exponent {exponent}, max op/N^3 ratio {ratio}, "
        f"{elapsed:.1f}s (reported, not judged)",
    )


def _reproduce(item, brute_limit):
    formula, _ = parse_dimacs(item["minimized"])
    run = solve_sat(formula)
    if isinstance(run.verdict, Sat):
        engine = "SAT"
    elif isinstance(run.verdict, Unsat):
        engine = "UNSAT"
    else:
        engine = "ERROR"
    return engine == item["engine"] and (
        oracle_status(formula, brute_limit=brute_limit) == item["oracle"]
    )


def test_criterion_09_differential_deliverable(exhaustive_report, fuzz_reports):
    ex, _ = exhaustive_report
    fz, _ = fuzz_reports
    reports = [ex] + fz
    ok = all(
        r.total == r.agreements + len(r.disagreements) + r.gate_failures
        for r in reports
    )
    disagreements = [d for r in reports for d in r.disagreements]
    ok = ok and all("minimized" in d for d in disagreements)
    ok = ok and all(_reproduce(d, ORACLE_BRUTE_LIMIT) for d in disagreements)
    record_criterion(
        "criterion-09 differential deliverable",
        ok,
        f"{len(disagreements)} engine/oracle disagreements across 37404 instances "
        f"({len(ex.disagreements)} on the exhaustive space), every one shipping a "
        "re-runnable minimized counterexample (false negatives: the search gives "
        "up on some satisfiable instances; soundness gate stayed clean)",
    )


def _tuple_op_stats(points):
    """op_stats as the harness first computed it: a list of (N, op_total)
    tuples, then a regression over fresh lists of floats."""
    usable = [(N, ops) for N, ops in points if N > 0 and ops > 0]
    stats = {"points": len(usable), "max_ratio_cubic": None, "fitted_exponent": None}
    if usable:
        stats["max_ratio_cubic"] = max(ops / N**3 for N, ops in usable)
    if len({N for N, _ in usable}) >= 2:
        slope, _ = statistics.linear_regression(
            [math.log10(N) for N, _ in usable], [math.log10(ops) for _, ops in usable]
        )
        stats["fitted_exponent"] = round(slope, 4)
    return stats


def _solve_points(formulas):
    """(N, op_total) of each formula, solved as the differential runs do."""
    points = []
    for formula in formulas:
        run = solve_sat(formula, count_ops=True, invariant_checks=True)
        points.append((sum(len(c) for c in formula.clauses), run.ops.total))
    return points


def test_op_stats_equal_the_tuple_formula(exhaustive_report, fuzz_reports):
    # the compact point store gives the same dict, floats included
    ex, _ = exhaustive_report
    assert ex.op_stats == _tuple_op_stats(_solve_points(enumerate_formulas(3, 4, 3)))
    cfg, report = FUZZ_BATCHES[1], fuzz_reports[0][1]
    formulas = (random_cnf(cfg, i) for i in range(cfg.num_instances))
    assert report.op_stats == _tuple_op_stats(_solve_points(formulas))
    doc = complexity_probe([60, 120], seed=5)
    rows = [(row["input_length"], row["op_total"]) for row in doc["rows"]]
    assert doc["op_stats"] == _tuple_op_stats(rows)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_reports_are_the_same_for_every_shard_count(
    exhaustive_report, fuzz_reports, cpus, monkeypatch
):
    # the fixtures ran with one shard per usable CPU; 1, 2 and 3 shards give
    # the same reports, the 53 disagreements with their minimized texts and
    # the op_stats floats included
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(harness, "MIN_SHARD_ITEMS", 1)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    assert diff_exhaustive(3, 4, 3).as_dict() == exhaustive_report[0].as_dict()
    for cfg, report in zip(FUZZ_BATCHES, fuzz_reports[0]):
        assert differential_run(cfg, brute_limit=ORACLE_BRUTE_LIMIT).as_dict() == report.as_dict()
    assert len(forks) == 3 * (cpus - 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# sha256 of every check the shrinker made, in order (candidate DIMACS and
# verdict), re-shrinking the disagreements of diff_exhaustive(3, 4, 2) and of
# the fuzz corpora; recorded with the two-loop shrinker the candidate stream
# replaced
SHRINK_CHECKS_SHA256 = "d98a6d49b2bebc8f5aeb325e37bd5d8cbbeefce0e30fa154f169dca0142e6136"


def test_shrinker_check_sequence_is_pinned(fuzz_reports):
    # the archived instances are canonical DIMACS, whose sorted literals
    # would change the candidate order: rebuild each formula from its label
    def index(item):
        return int(item["label"].rsplit("-", 1)[1])

    space = list(enumerate_formulas(3, 4, 2))
    cases = [(space[index(d)], d) for d in diff_exhaustive(3, 4, 2).disagreements]
    for cfg, report in zip(FUZZ_BATCHES, fuzz_reports[0]):
        cases += [(random_cnf(cfg, index(d)), d) for d in report.disagreements]
    assert len(cases) == 15
    digest = hashlib.sha256()
    for formula, item in cases:

        def recording(f, item=item):
            same = solve_sat(f).verdict.status == item["engine"] and (
                oracle_status(f, brute_limit=ORACLE_BRUTE_LIMIT) == item["oracle"]
            )
            digest.update(f"{emit_dimacs(f)}{int(same)}\n".encode("ascii"))
            return same

        assert emit_dimacs(shrink_disagreement(formula, recording)) == item["minimized"]
    assert digest.hexdigest() == SHRINK_CHECKS_SHA256


def test_criterion_10_dimacs_round_trip():
    ok = True
    for formula in corpus_formulas(1000, seed=20260829):
        text = emit_dimacs(formula)
        parsed, _ = parse_dimacs(text)
        if emit_dimacs(parsed) != text:
            ok = False
            break
        reparsed, _ = parse_dimacs(emit_dimacs(parsed))
        if reparsed.clauses != parsed.clauses or reparsed.num_vars != parsed.num_vars:
            ok = False
            break
    record_criterion(
        "criterion-10 dimacs round trip",
        ok,
        "parse -> canonical emit -> parse is a fixpoint on 1000 random instances",
    )
