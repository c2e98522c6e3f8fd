"""Driver loop, SAT wrapper, verdict gating, and report building."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satcover import (
    CnfFormula,
    CoveringFound,
    EngineError,
    NoCovering,
    Reason,
    Sat,
    StructuralError,
    Unsat,
    apply_swaps,
    build_covering_report,
    build_sat_report,
    emit_dimacs,
    evaluate,
    parse_dimacs,
    report_json,
    solve_covering,
    solve_sat,
    to_decomposition,
)
from satcover import solver as solver_mod
from satcover.graph import REMOVED
from satcover.harness import brute_sat, enumerate_formulas

from conftest import E5_TEXT, formulas, naive_sat, negated, pair_of, seeded_corpus, typed


class TestCoveringDriver:
    def test_e1_found(self, e1_pair):
        run = solve_covering(e1_pair)
        assert typed(run.verdict) == typed(CoveringFound(frozenset({1, 2})))
        assert run.extensions == 0

    def test_e2_non_removable(self, e2_pair):
        run = solve_covering(e2_pair)
        assert typed(run.verdict) == typed(NoCovering(Reason("non-removable-useless-vertex", 1)))

    def test_e3_unreachable(self, e3_pair):
        run = solve_covering(e3_pair)
        assert typed(run.verdict) == typed(NoCovering(Reason("unreachable-column", 1)))

    def test_covering_already(self):
        pair = pair_of("p cnf 2 2\n-1 -2 0\n-1 0\n")
        run = solve_covering(pair)
        assert typed(run.verdict) == typed(CoveringFound(frozenset()))

    def test_invalid_pair_rejected(self):
        from satcover import DecompositionPair, StructuralError

        # row 1 holds column 1 on both sides; column 2 is covered by neither
        pair = DecompositionPair(1, 2, [[0]], [[0]])
        with pytest.raises(StructuralError) as err:
            solve_covering(pair)
        assert str(err.value) == "invalid decomposition: disjointness at row=1 column=1 (+1 more)"

    @pytest.mark.parametrize(
        "alpha_rows, bar_rows, message",
        [
            ([[], [1]], [[], [0]], "pair-nonempty at row=1"),
            ([[0], []], [[], [0]], "coverage at column=2"),
            ([[], [], []], [[], [], []], "pair-nonempty at row=1 (+4 more)"),
        ],
        ids=["row-only", "column-only", "row-and-more"],
    )
    def test_invalid_pair_names_only_its_witnesses(self, alpha_rows, bar_rows, message):
        from satcover import DecompositionPair, StructuralError

        pair = DecompositionPair(len(alpha_rows), 2, alpha_rows, bar_rows)
        with pytest.raises(StructuralError) as err:
            solve_covering(pair)
        assert str(err.value) == f"invalid decomposition: {message}"

    def test_shortcut_changes_reason_not_verdict(self, e2_pair):
        plain = solve_covering(e2_pair)
        quick = solve_covering(e2_pair, shortcut=True)
        assert isinstance(plain.verdict, NoCovering)
        assert typed(quick.verdict) == typed(NoCovering(Reason("both-components-single", 1)))

    def test_extension_loop(self):
        pair = pair_of("p cnf 3 3\n1 0\n2 0\n-1 -2 3 0\n")
        run = solve_covering(pair)
        assert typed(run.verdict) == typed(CoveringFound(frozenset({1, 2, 3})))
        assert run.extensions == 1

    def test_verdict_event_closes_trace(self, e1_pair, e3_pair):
        for pair in (e1_pair, e3_pair):
            run = solve_covering(pair)
            assert run.trace.kinds()[-1] == "verdict"


class TestSolveSat:
    def test_e1(self, e1):
        run = solve_sat(e1)
        assert typed(run.verdict) == typed(Sat((True, True)))

    def test_e2(self, e2):
        run = solve_sat(e2)
        assert typed(run.verdict) == typed(Unsat(Reason("non-removable-useless-vertex", 1)))

    def test_e3(self, e3):
        run = solve_sat(e3)
        assert typed(run.verdict) == typed(Unsat(Reason("unreachable-column", 1)))

    def test_e4_extension(self, e4):
        run = solve_sat(e4)
        assert typed(run.verdict) == typed(Sat((True, True, True)))
        assert run.extensions == 1

    def test_empty_clause_short_circuit(self):
        formula, _ = parse_dimacs("p cnf 2 2\n1 0\n0\n")
        run = solve_sat(formula)
        assert typed(run.verdict) == typed(Unsat(Reason("empty-clause", 2)))

    def test_empty_clause_with_labels(self):
        formula, _ = parse_dimacs("p cnf 2 2\n1 0\n0\n")
        run = solve_sat(formula, clause_labels=[7, 9])
        assert typed(run.verdict) == typed(Unsat(Reason("empty-clause", 9)))

    @pytest.mark.parametrize(
        "clauses,labels", [([[]], []), ([[]], [7, 9]), ([[1], [-2]], [7]), ([[1], [-2]], [7, 9, 11])]
    )
    def test_clause_labels_of_another_length_refused(self, clauses, labels):
        # one label per clause, checked before solving; a short list would
        # otherwise fail on the lookup of the empty clause's label
        with pytest.raises(StructuralError, match="clause_labels"):
            solve_sat(CnfFormula(2, clauses), clause_labels=labels)

    @pytest.mark.parametrize("labels", [iter([7, 9]), range(7, 9), {7: 0, 9: 1}, "79"])
    def test_clause_labels_of_another_type_refused(self, labels):
        # as CnfFormula refuses its clauses: a one-shot iterator used to
        # raise TypeError from len()
        with pytest.raises(StructuralError, match="clause_labels must be a list or tuple"):
            solve_sat(CnfFormula(2, [[1], [-2]]), clause_labels=labels)

    def test_no_clauses_trivially_sat(self):
        run = solve_sat(CnfFormula(3, []))
        assert typed(run.verdict) == typed(Sat((False, False, False)))

    def test_unused_variables_default_false(self):
        formula = CnfFormula(4, [[2]])
        run = solve_sat(formula)
        assert isinstance(run.verdict, Sat)
        assert run.verdict.assignment == (False, True, False, False)

    def test_reason_index_translated_to_original_variable(self):
        # the conflict lives on variable 2; variables 1 and 3 are padding
        formula = CnfFormula(3, [[2], [-2]])
        run = solve_sat(formula)
        assert typed(run.verdict) == typed(Unsat(Reason("non-removable-useless-vertex", 2)))

    def test_unreachable_index_is_clause_position(self):
        formula = CnfFormula(2, [[-1, -2], [1], [2]])
        run = solve_sat(formula)
        assert typed(run.verdict) == typed(Unsat(Reason("unreachable-column", 1)))

    def test_unreachable_index_respects_labels(self):
        formula = CnfFormula(2, [[-1, -2], [1], [2]])
        run = solve_sat(formula, clause_labels=[4, 5, 6])
        assert typed(run.verdict) == typed(Unsat(Reason("unreachable-column", 4)))

    @pytest.mark.parametrize("clauses", [[], [[]], [[1], []]])
    def test_unknown_orientation_rejected_before_any_verdict(self, clauses):
        # a formula with no clauses or an empty clause used to get a
        # verdict before the orientation was looked at
        with pytest.raises(StructuralError, match="alpha must be"):
            solve_sat(CnfFormula(2, clauses), alpha="bogus")

    def test_pos_orientation_agrees(self, e1, e2, e3, e4):
        for formula in (e1, e2, e3, e4):
            neg = solve_sat(formula)
            pos = solve_sat(formula, alpha="pos")
            assert isinstance(pos.verdict, type(neg.verdict))
            if isinstance(pos.verdict, Sat):
                assert evaluate(formula, pos.verdict.assignment)

    def test_shortcut_verdict_equality_on_corpus(self):
        for formula in seeded_corpus(401, 150):
            plain = solve_sat(formula)
            quick = solve_sat(formula, shortcut=True)
            assert type(plain.verdict) is type(quick.verdict), formula

    @given(formulas())
    @settings(max_examples=80, deadline=None)
    def test_sat_assignments_always_evaluate(self, formula):
        run = solve_sat(formula, invariant_checks=True)
        if isinstance(run.verdict, Sat):
            assert evaluate(formula, run.verdict.assignment)
        assert not isinstance(run.verdict, EngineError)

    @given(formulas(max_vars=4, max_clauses=5))
    @settings(max_examples=60, deadline=None)
    def test_never_claims_sat_on_unsatisfiable(self, formula):
        run = solve_sat(formula)
        if isinstance(run.verdict, Sat):
            assert naive_sat(formula)


class TestMirroredOrientation:
    """``alpha="pos"`` swaps every row of the reduced pair; ``negated`` in
    conftest is the independent reference, the formula it reduces to."""

    def test_every_row_swapped_is_the_negated_reduction(self):
        for formula in enumerate_formulas(3, 4, 3):
            pair, used = to_decomposition(formula)
            negated_pair, negated_used = to_decomposition(negated(formula))
            assert apply_swaps(pair, range(1, pair.n + 1)) == negated_pair, formula
            assert used == negated_used

    def test_pos_solve_builds_no_formula(self, e1, e2, e3, e4, monkeypatch):
        corpus = [e1, e2, e3, e4] + seeded_corpus(36, 40)
        built = []
        real_new = CnfFormula.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(CnfFormula, "__new__", staticmethod(counting_new))
        negated(e1)  # the count sees a formula being built
        assert len(built) == 1
        built.clear()
        for formula in corpus:
            solve_sat(formula, alpha="pos", count_ops=True, invariant_checks=True)
        assert built == []

    def test_pos_solve_is_the_negated_formula_solve(self):
        for formula in list(enumerate_formulas(3, 4, 3))[::20]:
            pos = solve_sat(formula, alpha="pos", count_ops=True)
            neg = solve_sat(negated(formula), count_ops=True)
            assert pos.trace.serialize() == neg.trace.serialize(), formula
            assert pos.verdict.status == neg.verdict.status
            assert getattr(pos.verdict, "reason", None) == getattr(neg.verdict, "reason", None)
            if isinstance(pos.verdict, Sat):
                # a used variable's value flips; an unused one is false in both
                _, used = to_decomposition(formula)
                flipped = tuple(
                    value != (v in used) for v, value in enumerate(neg.verdict.assignment, 1)
                )
                assert pos.verdict.assignment == flipped


class TestHornCompleteness:
    """No false negative on Horn input: every satisfiable Horn formula (each
    clause at most one positive literal) and dual-Horn formula (at most one
    negative literal) of the (3, 4, 3) space gets SAT in both orientations.
    Every known false negative is renamable Horn but not Horn."""

    def test_every_satisfiable_horn_and_dual_horn_formula_gets_sat(self):
        satisfiable = {1: 0, -1: 0}  # Horn, dual-Horn
        for formula in enumerate_formulas(3, 4, 3):
            signs = [
                sign for sign in satisfiable
                if all(sum(sign * lit > 0 for lit in clause) <= 1 for clause in formula.clauses)
            ]
            if not signs or not brute_sat(formula)[0]:
                continue
            for sign in signs:
                satisfiable[sign] += 1
            for alpha in ("neg", "pos"):
                run = solve_sat(formula, alpha=alpha, keep_trace=False)
                assert isinstance(run.verdict, Sat), (emit_dimacs(formula), alpha, run.verdict)
        assert satisfiable == {1: 7884, -1: 7884}

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_random_satisfiable_horn_and_dual_horn_formulas_get_sat(self, data):
        # beyond the exhaustive space: n <= 12, m <= 40, widths 1..4; each
        # clause has at most one positive literal, and a dual-Horn formula is
        # a Horn one negated
        n = data.draw(st.integers(1, 12), label="n")
        clauses = []
        for _ in range(data.draw(st.integers(1, 40), label="m")):
            variables = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True))
            positive = data.draw(st.integers(-1, len(variables) - 1))  # -1: none
            clauses.append([v if k == positive else -v for k, v in enumerate(variables)])
        formula = CnfFormula(n, clauses)
        if data.draw(st.booleans(), label="dual"):
            formula = negated(formula)
        if not brute_sat(formula)[0]:
            return
        for alpha in ("neg", "pos"):
            run = solve_sat(formula, alpha=alpha, keep_trace=False)
            assert isinstance(run.verdict, Sat), (emit_dimacs(formula), alpha, run.verdict)


class TestOneCounter:
    @pytest.mark.parametrize("count_ops", [False, True])
    def test_run_ops_is_the_trace_counter(self, e1, e1_pair, count_ops):
        runs = [
            solve_sat(e1, count_ops=count_ops),
            solve_sat(CnfFormula(1, [[]]), count_ops=count_ops),
            solve_covering(e1_pair, count_ops=count_ops),
        ]
        for run in runs:
            assert run.ops is run.trace.ops
        assert (runs[0].ops.total > 0) == count_ops


class TestUnkeptTrace:
    @pytest.mark.parametrize("alpha", ["neg", "pos"])
    def test_same_answer_and_ops_without_events(self, alpha):
        corpus = seeded_corpus(27, 300, var_range=(1, 12), clause_range=(1, 40))
        corpus += [CnfFormula(2, []), CnfFormula(2, [[1], []])]
        for formula in corpus:
            kept = solve_sat(formula, count_ops=True, alpha=alpha, invariant_checks=True)
            unkept = solve_sat(
                formula, count_ops=True, alpha=alpha, invariant_checks=True, keep_trace=False
            )
            assert typed(unkept.verdict) == typed(kept.verdict)
            assert unkept.ops.as_dict() == kept.ops.as_dict()
            assert unkept.extensions == kept.extensions
            assert kept.trace.events and unkept.trace.events == []
            with pytest.raises(ValueError, match="kept no trace events"):
                unkept.trace.sha256()


class TestGateDowngrades:
    def test_failed_evaluation_becomes_engine_error(self, e1, monkeypatch):
        monkeypatch.setattr(solver_mod, "evaluate", lambda f, a: False)
        run = solver_mod.solve_sat(e1)
        assert isinstance(run.verdict, EngineError)
        assert "non-satisfying" in run.verdict.detail

    def test_invariant_error_becomes_engine_error(self, e1, monkeypatch):
        def broken(pair):
            return False

        monkeypatch.setattr(solver_mod, "is_alpha_covering", broken)
        run = solver_mod.solve_sat(e1)
        assert isinstance(run.verdict, EngineError)

    def test_solve_covering_reports_invariant_breakage(self, e1_pair, monkeypatch):
        monkeypatch.setattr(solver_mod, "is_alpha_covering", lambda pair: False)
        run = solve_covering(e1_pair)
        assert isinstance(run.verdict, EngineError)
        assert "covering gate" in run.verdict.detail
        assert run.extensions == 0

    @pytest.mark.parametrize("invariant_checks", [False, True])
    def test_extension_cap_becomes_engine_error(self, e4, monkeypatch, invariant_checks):
        # an extension that adds nothing leaves E4 stuck where it was, so
        # the loop runs into its cap of n = 3 extensions
        monkeypatch.setattr(solver_mod, "extend", lambda graph, result: None)
        run = solve_sat(e4, invariant_checks=invariant_checks)
        assert typed(run.verdict) == typed(EngineError("extension count exceeded n=3"))
        assert run.extensions == 0


class TestGraphInvariantChecks:
    """Each check of ``_check_graph_invariants`` fires, with its message, on
    a graph whose state was corrupted after ``construct``."""

    def assert_caught(self, graph, message):
        with pytest.raises(solver_mod.EngineInvariantError) as err:
            solver_mod._check_graph_invariants(graph)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "field, index, value, message",
        [
            ("indegree", 2, 2, "indegree does not match live incoming edge counts"),
            ("live_targets", 1, 1, "live-target counts do not match the live edges"),
            ("multiplicity", 0, 3, "multiplicity does not match live main vertices"),
            ("status", 0, REMOVED, "live edge touches a removed or unformed vertex"),
            ("status", 2, REMOVED, "live edge touches a removed or unformed vertex"),
            ("edge_live", 0, 1, "live edge touches a removed or unformed vertex"),
        ],
        ids=[
            "indegree", "live-targets", "multiplicity", "removed-source", "removed-target",
            "edge-in-column-without-source",
        ],
    )
    def test_corrupted_state_is_caught(self, field, index, value, message):
        from satcover import column_counts
        from satcover.graph import construct, find_main_vertices
        from satcover.instrument import Trace

        # E5: main vertices 1 and 2, live edges 1 -> 2 and 1 -> 3 labelled 2,
        # so indegree [0, 1, 1], live_targets [0, 2], multiplicity [2, 0];
        # column 1 has no single row, so its edge bytes 0 and 1 stay dead
        pair = pair_of(E5_TEXT)
        graph = find_main_vertices(pair, column_counts(pair), Trace())
        construct(graph)
        solver_mod._check_graph_invariants(graph)  # clean before corruption
        getattr(graph, field)[index] = value
        self.assert_caught(graph, message)

    def test_edge_bound(self):
        from satcover import DecompositionPair, column_counts
        from satcover.graph import construct, find_main_vertices
        from satcover.instrument import Trace

        # an invalid pair: row 1 holds column 1 on both sides, so the graph
        # gets a self-loop, one edge past (n - 1) * m = 0
        pair = DecompositionPair(1, 2, [[0]], [[0, 1]])
        graph = find_main_vertices(pair, column_counts(pair), Trace())
        construct(graph)
        self.assert_caught(graph, "edge bound violated: 1 > (n-1)*m = 0")


class TestReports:
    EXPECTED_KEYS = {
        "instance",
        "verdict",
        "assignment",
        "reason",
        "n",
        "m",
        "input_length",
        "op_total",
        "op_by_kind",
        "extensions",
        "elapsed_ms",
        "trace_hash",
    }

    def test_sat_report_schema(self, e1):
        run = solve_sat(e1, count_ops=True)
        report = build_sat_report("e1", e1, run, elapsed_ms=1.0)
        assert set(report) == self.EXPECTED_KEYS
        assert report["verdict"] == "SAT"
        assert report["assignment"] == [1, 2]
        assert report["reason"] is None
        assert report["n"] == 2
        assert report["m"] == 2
        assert report["input_length"] == 3
        assert report["op_total"] == run.ops.total > 0
        assert len(report["trace_hash"]) == 64

    def test_input_length_is_the_literal_count_past_int64(self):
        # variables past 2**63, where a count keyed by clause and variable
        # in int64 would overflow
        base = 2**70
        formula = CnfFormula(base + 3, [[base + 1, -(base + 3)], [-(base + 1)], [base + 3]])
        report = build_sat_report("wide", formula, solve_sat(formula))
        assert report["verdict"] == "UNSAT"
        assert report["input_length"] == 4

    def test_unsat_report(self, e3):
        run = solve_sat(e3)
        report = build_sat_report("e3", e3, run, elapsed_ms=None)
        assert report["verdict"] == "UNSAT"
        assert report["assignment"] is None
        assert report["reason"] == {"kind": "unreachable-column", "index": 1}

    def test_error_report_carries_detail(self, e1, monkeypatch):
        monkeypatch.setattr(solver_mod, "evaluate", lambda f, a: False)
        run = solver_mod.solve_sat(e1)
        report = build_sat_report("e1", e1, run)
        assert report["verdict"] == "ERROR"
        assert "error_detail" in report

    def test_covering_report(self, e1_pair):
        run = solve_covering(e1_pair, count_ops=True)
        report = build_covering_report("e1", e1_pair, run, elapsed_ms=0.5)
        assert report["verdict"] == "COVERING"
        assert report["swaps"] == [1, 2]
        assert report["input_length"] == 3

    def test_report_json_is_canonical(self, e1):
        run = solve_sat(e1, count_ops=True)
        report = build_sat_report("e1", e1, run, elapsed_ms=None)
        text = report_json(report)
        assert json.loads(text) == report
        assert text.index('"assignment"') < text.index('"verdict"')  # sorted keys

    def test_determinism_modulo_elapsed(self, e1, e2, e3, e4):
        for formula in (e1, e2, e3, e4):
            first = build_sat_report("x", formula, solve_sat(formula, count_ops=True))
            second = build_sat_report("x", formula, solve_sat(formula, count_ops=True))
            first.pop("elapsed_ms")
            second.pop("elapsed_ms")
            assert report_json(first) == report_json(second)


class TestReasonType:
    def test_as_dict(self):
        assert Reason("empty-clause", 3).as_dict() == {
            "kind": "empty-clause",
            "index": 3,
        }


class TestSparsePath:
    def test_solve_sat_never_builds_the_dense_matrices(self, monkeypatch):
        # the SAT path reads the occurrence lists only; the pair has no dense
        # form, and the signed m x n matrix of to_matrix is never built
        from satcover import cnf
        from satcover.harness import FuzzConfig, random_cnf

        def refuse(formula):
            raise AssertionError("dense matrix built on the SAT path")

        monkeypatch.setattr(cnf, "to_matrix", refuse)
        monkeypatch.setattr(solver_mod, "to_matrix", refuse)
        corpus = seeded_corpus(20261020, 200, var_range=(1, 30), clause_range=(1, 120))
        cfg = FuzzConfig(
            seed=3, num_instances=4, var_range=(150, 150), clause_range=(639, 639),
            width_range=(3, 3), satisfiable_bias="planted",
        )
        corpus += [random_cnf(cfg, i) for i in range(cfg.num_instances)]
        verdicts = set()
        for i, formula in enumerate(corpus):
            run = solve_sat(
                formula,
                count_ops=True,
                invariant_checks=True,
                alpha="pos" if i % 2 else "neg",
                shortcut=i % 3 == 0,
            )
            verdicts.add(type(run.verdict).__name__)
        assert verdicts == {"Sat", "Unsat"}
