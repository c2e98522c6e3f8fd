"""Oracles, generators, differential adjudication, shrinking, probing."""

import errno
import hashlib
import itertools
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satcover import (
    CnfFormula,
    Reason,
    Sat,
    Unsat,
    assignment_from_swaps,
    emit_dimacs,
    evaluate,
    parse_dimacs,
    solve_sat,
    to_decomposition,
)
from satcover import harness, shards
from satcover.cli import main
from satcover.harness import (
    FuzzConfig,
    _dpll_simplify,
    brute_covering,
    brute_sat,
    complexity_probe,
    diff_exhaustive,
    differential_run,
    dpll,
    enumerate_clause_universe,
    enumerate_formulas,
    oracle_status,
    probe_shape,
    random_cnf,
    shrink_disagreement,
)

from conftest import (
    formula_of,
    formulas,
    naive_sat,
    negated,
    pair_of,
    reference_brute_sat,
    reference_random_cnf,
    typed,
)


def recursive_dpll(formula, step_budget):
    """The recursive search ``dpll`` replaced, kept as its reference: same
    branching order, same one step per propagation pass."""
    if any(len(clause) == 0 for clause in formula.clauses):
        return False, None
    budget = [step_budget]

    def search(clauses, assignment):
        while True:
            budget[0] -= 1
            if budget[0] <= 0:
                return None
            if not clauses:
                return assignment
            unit = next((c[0] for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            assignment[abs(unit)] = unit > 0
            clauses = _dpll_simplify(clauses, unit)
            if clauses is None:
                return False
        var = min(abs(l) for clause in clauses for l in clause)
        for value in (True, False):
            child = dict(assignment)
            child[var] = value
            reduced = _dpll_simplify(clauses, var if value else -var)
            if reduced is None:
                continue
            result = search(reduced, child)
            if result is None:
                return None
            if result is not False:
                return result
        return False

    result = search([list(c) for c in formula.clauses], {})
    if result is None:
        return None, None
    if result is False:
        return False, None
    return True, tuple(result.get(v, False) for v in range(1, formula.num_vars + 1))


def pigeonhole(pigeons, holes):
    """PHP(pigeons, holes): variable (p - 1) * holes + h puts pigeon p in
    hole h; each pigeon sits somewhere and no hole holds two."""
    rows = [list(range((p - 1) * holes + 1, p * holes + 1)) for p in range(1, pigeons + 1)]
    clauses = [*rows]
    for h in range(holes):
        for a, b in itertools.combinations(rows, 2):
            clauses.append([-a[h], -b[h]])
    return CnfFormula(pigeons * holes, clauses)


DPLL_BUDGETS = (3, 40, 200, 2_000_000)


class TestBruteSat:
    def test_e1(self, e1):
        assert brute_sat(e1) == (True, (True, True))

    def test_e2(self, e2):
        assert brute_sat(e2) == (False, None)

    def test_no_clauses(self):
        assert brute_sat(CnfFormula(2, [])) == (True, (False, False))

    def test_empty_clause(self):
        assert brute_sat(CnfFormula(1, [[]])) == (False, None)

    def test_witness_is_first_in_bitmask_order(self):
        # x2 must be true and both values of x1 work; x1 false comes first
        formula = CnfFormula(2, [[1, 2], [-1, 2]])
        assert brute_sat(formula) == (True, (False, True))

    def test_limit_refused(self):
        with pytest.raises(ValueError):
            brute_sat(CnfFormula(26, [[1]]))

    def test_literal_tables_match_the_division_formula(self):
        # the reference: x_i's table is the 2^k-bit all-ones int divided by
        # one period's all-ones and multiplied by the period's pattern
        for k in range(17):
            full = (1 << (1 << k)) - 1
            reference = {}
            for i in range(k):
                table = full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
                reference[i + 1], reference[-i - 1] = table, full ^ table
            assert harness._literal_tables(k) == reference, k

    @pytest.mark.parametrize(
        "formula",
        [
            # the first witness sets x(k+1), the lowest high variable, with
            # k = 12 for n = 13..16, n - 4 for n = 17..20 and 16 above: block 1
            CnfFormula(13, [[13], [-1]]),
            CnfFormula(16, [[13], [-12]]),
            CnfFormula(17, [[14], [-1]]),
            CnfFormula(20, [[17], [-16]]),
            CnfFormula(22, [[22], [21, -3], [-1, 2], [-21]]),
            # a later block
            CnfFormula(18, [[17], [-18], [-1]]),
            # block 1 passes the high tests but its low tables AND to 0;
            # the witness is in block 3
            CnfFormula(15, [[13], [-13, -1], [14, 1, 2], [-13, -2]]),
            CnfFormula(18, [[15], [-15, -1], [16, 1, 2], [-15, -2]]),
            CnfFormula(18, [[17], [-17, -1], [18, 1, 2], [-17, -2]]),
            CnfFormula(25, [[v] for v in range(17, 26)] + [[-16, -17]]),
            # no block survives: a high contradiction, then a low one
            CnfFormula(18, [[17], [-17, 18], [-18]]),
            CnfFormula(20, [[20, 1], [20, -1], [-20, 2], [-20, -2]]),
        ],
    )
    def test_later_blocks_match_reference(self, formula):
        assert brute_sat(formula) == reference_brute_sat(formula)

    @given(formulas(max_vars=22, max_clauses=12), st.lists(st.integers(12, 22), max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference(self, formula, forced):
        # unit clauses on variables near and past the block boundary (x13
        # at n = 13..16, up to x17 above) push the first witness into later
        # blocks
        units = [[v] for v in forced if v <= formula.num_vars]
        formula = CnfFormula(formula.num_vars, formula.clauses + units)
        assert brute_sat(formula) == reference_brute_sat(formula)

    def test_agrees_with_naive_on_small_space(self):
        for formula in enumerate_formulas(2, 2, 2):
            sat, witness = brute_sat(formula)
            assert sat == naive_sat(formula)
            if sat:
                from satcover import evaluate

                assert evaluate(formula, witness)


class TestBruteCovering:
    def test_e1(self, e1_pair):
        assert brute_covering(e1_pair) == (True, frozenset({1, 2}))

    def test_e3(self, e3_pair):
        assert brute_covering(e3_pair) == (False, None)

    def test_empty_swap_set_when_alpha_covers(self):
        pair = pair_of("p cnf 2 2\n-1 -2 0\n-1 0\n")
        assert brute_covering(pair) == (True, frozenset())

    def test_limit_refused(self):
        from satcover import DecompositionPair

        big = DecompositionPair(26, 1, [[0]] * 26, [[]] * 26)
        with pytest.raises(ValueError):
            brute_covering(big)


class TestDpll:
    def test_fixtures(self, e1, e2, e3, e4):
        assert dpll(e1)[0] is True
        assert dpll(e2)[0] is False
        assert dpll(e3)[0] is False
        assert dpll(e4)[0] is True

    def test_witness_satisfies(self, e1, e4):
        from satcover import evaluate

        for formula in (e1, e4):
            sat, witness = dpll(formula)
            assert sat and evaluate(formula, witness)

    def test_budget_exhaustion_returns_unknown(self, e1):
        assert dpll(e1, step_budget=1) == (None, None)

    def test_empty_clause(self):
        assert dpll(CnfFormula(1, [[]])) == (False, None)

    def test_agrees_with_brute_on_exhaustive_space(self):
        for formula in enumerate_formulas(2, 3, 2):
            assert dpll(formula)[0] == brute_sat(formula)[0]

    def test_matches_recursive_reference(self):
        # witnesses, UNSAT and budget-exhausted outcomes all match, budgets
        # small enough that some runs give up part way
        cfg = FuzzConfig(seed=41, num_instances=150, var_range=(1, 30), clause_range=(1, 120))
        outcomes = set()
        for i in range(cfg.num_instances):
            formula = random_cnf(cfg, i)
            for budget in (3, 40, 2_000_000):
                got = dpll(formula, step_budget=budget)
                assert got == recursive_dpll(formula, budget)
                outcomes.add(got[0])
        assert outcomes == {True, False, None}

    def test_long_decision_chain(self):
        # (x1 or x2)(x3 or x4)...(x2999 or x3000): one decision per clause,
        # 1500 deep, past the interpreter's recursion limit
        chain = CnfFormula(3000, [[v, v + 1] for v in range(1, 3000, 2)])
        sat, witness = dpll(chain)
        assert sat and evaluate(chain, witness)
        assert witness == tuple(v % 2 == 1 for v in range(1, 3001))
        assert oracle_status(chain) == "SAT"

    @pytest.mark.parametrize(
        "formula",
        [
            CnfFormula(2, [[1, 2], [1, -2], [-1, 2], [-1, -2]]),
            pigeonhole(3, 2),
            pigeonhole(4, 3),
        ],
        ids=["four-sign-patterns", "php-3-2", "php-4-3"],
    )
    def test_refutes_both_branches_of_a_decision(self, formula):
        # unsatisfiable with no unit clause, so propagation at the root
        # refutes nothing: the search must take a decision, refute its true
        # branch and then its false one
        assert min(len(clause) for clause in formula.clauses) >= 2
        assert brute_sat(formula) == (False, None)
        # also at the smallest budget the reference answers with, and one
        # step below it
        need = next(b for b in itertools.count(1) if recursive_dpll(formula, b)[0] is not None)
        for budget in (*DPLL_BUDGETS, need - 1, need):
            assert dpll(formula, step_budget=budget) == recursive_dpll(formula, budget)
        assert dpll(formula) == (False, None)

    @pytest.mark.parametrize("n", [8, 12, 16, 20])
    def test_backtracks_on_threshold_3sat(self, n):
        # random 3-SAT at m = 4.26 n: every clause has three literals, so
        # each UNSAT formula here is refuted only after decisions
        m = round(4.26 * n)
        cfg = FuzzConfig(seed=4260, var_range=(n, n), clause_range=(m, m), width_range=(3, 3))
        outcomes = set()
        for formula in (random_cnf(cfg, i) for i in range(10)):
            for budget in DPLL_BUDGETS:
                got = dpll(formula, step_budget=budget)
                assert got == recursive_dpll(formula, budget)
                outcomes.add(got[0])
            sat, witness = dpll(formula)
            assert sat == brute_sat(formula)[0]
            if sat:
                assert evaluate(formula, witness)
        assert outcomes == {True, False, None}

    @given(formulas(max_vars=25, max_clauses=100))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force(self, formula):
        sat, witness = dpll(formula)
        assert sat == brute_sat(formula)[0]
        if sat:
            assert evaluate(formula, witness)

    def test_oracle_status_uses_dpll_above_limit(self, monkeypatch):
        wide = CnfFormula(30, [[i] for i in range(1, 31)])
        assert oracle_status(wide, brute_limit=25) == "SAT"
        # a DPLL run out of budget answers None, which reads as UNKNOWN
        assert dpll(wide, step_budget=1) == (None, None)
        monkeypatch.setattr(harness, "dpll", lambda formula: (None, None))
        assert oracle_status(wide, brute_limit=25) == "UNKNOWN"


class TestRandomCnf:
    def test_deterministic(self):
        cfg = FuzzConfig(seed=5, num_instances=3)
        assert random_cnf(cfg, 1).clauses == random_cnf(cfg, 1).clauses

    def test_different_indices_vary(self):
        cfg = FuzzConfig(seed=5, num_instances=10, var_range=(4, 8), clause_range=(3, 9))
        texts = {emit_dimacs(random_cnf(cfg, i)) for i in range(10)}
        assert len(texts) > 1

    def test_respects_ranges(self):
        cfg = FuzzConfig(
            seed=9,
            num_instances=30,
            var_range=(2, 4),
            clause_range=(1, 5),
            width_range=(1, 2),
        )
        for i in range(30):
            formula = random_cnf(cfg, i)
            assert 2 <= formula.num_vars <= 4
            assert 1 <= len(formula.clauses) <= 5
            assert all(1 <= len(c) <= 2 for c in formula.clauses)

    def test_width_clamped_to_vars(self):
        cfg = FuzzConfig(
            seed=2, num_instances=5, var_range=(1, 1), clause_range=(2, 2), width_range=(3, 3)
        )
        formula = random_cnf(cfg, 0)
        assert all(len(c) == 1 for c in formula.clauses)

    def test_tiny_space_enumeration(self):
        cfg = FuzzConfig(
            seed=3, num_instances=400, var_range=(1, 1), clause_range=(2, 2), width_range=(1, 1)
        )
        seen = {tuple(tuple(c) for c in random_cnf(cfg, i).clauses) for i in range(400)}
        assert seen == {
            ((1,), (1,)),
            ((1,), (-1,)),
            ((-1,), (1,)),
            ((-1,), (-1,)),
        }

    def test_planted_instances_are_satisfiable(self):
        cfg = FuzzConfig(
            seed=8,
            num_instances=60,
            var_range=(2, 10),
            clause_range=(1, 30),
            width_range=(1, 3),
            satisfiable_bias="planted",
        )
        for i in range(60):
            assert brute_sat(random_cnf(cfg, i))[0]

    def test_bad_bias_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(seed=1, num_instances=1, satisfiable_bias="maybe")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("var_range", (0, 3)),
            ("var_range", (5, 2)),
            ("var_range", (-2, -1)),
            ("clause_range", (0, 0)),
            ("clause_range", (1,)),
            ("clause_range", (1, 2, 3)),
            ("width_range", (1.0, 3)),
            ("width_range", ("1", "3")),
            ("width_range", [1, 3]),
            ("width_range", 3),
            ("num_instances", -1),
            ("num_instances", "3"),
            ("num_instances", 2**32 + 1),
            ("seed", -1),
            ("seed", 1.0),
            ("seed", "1"),
            ("seed", True),
            ("num_instances", False),
            ("var_range", (True, 3)),
        ],
    )
    def test_bad_config_rejected(self, field, value):
        # getrandbits(0) is 0, so a zero-width or reversed range would make
        # the generator's rejection loop spin forever; random.Random seeds
        # from abs(), so seed -1 would repeat seed 1's corpus, and an index
        # past 2**32 would repeat the next seed's; True is 1 but no int
        # here, or seed=True would repeat seed 1's corpus; the config
        # refuses them all
        with pytest.raises(ValueError, match=field):
            FuzzConfig(**{"seed": 1, field: value})

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            random_cnf(FuzzConfig(seed=1), -1)

    def test_index_past_32_bits_rejected(self):
        # (5, 2**32 + 7) would draw instance (6, 7)
        with pytest.raises(ValueError, match="index"):
            random_cnf(FuzzConfig(seed=5), 2**32 + 7)

    @pytest.mark.parametrize("index", [True, 1.5, 2**32], ids=["bool", "fraction", "2**32"])
    def test_index_is_an_int_below_2_32(self, index):
        # True would draw instance 1 and 1.5 a formula no index names
        with pytest.raises(ValueError, match="^index "):
            random_cnf(FuzzConfig(seed=5), index)

    @pytest.mark.parametrize(
        "var_range, width_range",
        [
            ((21, 21), (1, 5)),  # largest n drawn from a pool when w <= 5
            ((22, 22), (1, 5)),  # smallest n drawn by redraws when w <= 5
            ((21, 22), (5, 6)),  # w = 6 raises the pool limit to 21 + 4 ** 3
            ((85, 86), (6, 6)),  # n = 85 is that limit's last pool size
            ((277, 278), (22, 22)),  # w = 22 lifts the limit to 21 + 4 ** 4
            ((1, 4), (6, 9)),  # every width above n, clamped to n
            ((1, 1), (1, 1)),
        ],
    )
    @pytest.mark.parametrize("bias", ["none", "planted"])
    def test_boundaries_match_reference(self, var_range, width_range, bias):
        cfg = FuzzConfig(
            seed=2**40 + 7,  # seed * 2**32 + index passes 2**64
            num_instances=25,
            var_range=var_range,
            clause_range=(1, 30),
            width_range=width_range,
            satisfiable_bias=bias,
        )
        for i in range(cfg.num_instances):
            assert random_cnf(cfg, i) == reference_random_cnf(cfg, i)

    @given(
        seed=st.integers(0, 2**48),
        index=st.integers(0, 2**32 - 1),
        n_lo=st.integers(1, 100),
        n_span=st.integers(0, 20),
        w_lo=st.integers(1, 12),
        w_span=st.integers(0, 4),
        bias=st.sampled_from(["none", "planted"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, seed, index, n_lo, n_span, w_lo, w_span, bias):
        # n on both sides of 21 and of 21 + 4 ** 3, w on both sides of 5 and
        # above n; seeds up to 2**48 push seed * 2**32 + index past 2**64
        cfg = FuzzConfig(
            seed=seed,
            var_range=(n_lo, n_lo + n_span),
            clause_range=(1, 40),
            width_range=(w_lo, w_lo + w_span),
            satisfiable_bias=bias,
        )
        assert random_cnf(cfg, index) == reference_random_cnf(cfg, index)


class TestEnumeration:
    def test_universe_size(self):
        assert len(enumerate_clause_universe(3, 3)) == 26
        assert len(enumerate_clause_universe(2, 2)) == 8

    def test_universe_has_no_tautologies_or_duplicates(self):
        for clause in enumerate_clause_universe(3, 3):
            variables = [abs(l) for l in clause]
            assert len(set(variables)) == len(variables)

    def test_formula_space_size(self):
        # multisets of 1..4 clauses over the 26-clause universe
        assert sum(1 for _ in enumerate_formulas(3, 4, 3)) == 27404
        assert sum(1 for _ in enumerate_formulas(2, 2, 2)) == 8 + 36


@st.composite
def distinct_variable_formulas(draw):
    """Formulas of 1..14 clauses of width 1..3 over 1..10 variables, each
    clause naming a variable at most once."""
    n = draw(st.integers(1, 10))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clause = st.lists(literal, min_size=1, max_size=min(3, n), unique_by=abs)
    return CnfFormula(n, draw(st.lists(clause, min_size=1, max_size=14)))


class TestReductionCheck:
    @given(distinct_variable_formulas())
    @settings(max_examples=300, deadline=None)
    def test_reduction_is_sound_on_random_formulas(self, formula):
        # beyond the exhaustive space, for the formula and its negation (the
        # reduction alpha="pos" runs): satisfiable iff the pair has a
        # covering, and a covering encodes a model
        for reduced in (formula, negated(formula)):
            sat, _ = brute_sat(reduced)
            pair, used = to_decomposition(reduced)
            covered, swaps = brute_covering(pair)
            assert covered == sat
            if covered:
                assert evaluate(reduced, assignment_from_swaps(swaps, used, reduced.num_vars))

    def test_refuses_large_space(self, monkeypatch):
        with pytest.raises(ValueError):
            diff_exhaustive(5, 1, 1)
        # more formulas than 2**32, refused before anything forks; (4, 5, 3),
        # with 11,238,512 formulas, stays accepted
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a refused space"))
        with pytest.raises(ValueError, match="^the space holds 6,646,448,384,109,071 formulas"):
            diff_exhaustive(3, 30, 3)
        with pytest.raises(ValueError, match="more than the 2[*][*]32 a sweep takes$"):
            diff_exhaustive(4, 40, 3)
        with pytest.raises(ValueError, match="^max-m must be at most 4294967296, got 9{200}$"):
            diff_exhaustive(1, int("9" * 200), 1)
        assert harness._check_space(4, 5, 3) == 11_238_512


class TestOpStats:
    def test_a_counted_point_weighs_as_that_many_points(self):
        # points with N or op_total 0 are left out of the count and the fit
        points = Counter({(10, 100): 3, (20, 900): 1, (40, 5000): 2, (0, 7): 4, (5, 0): 1})
        usable = [(N, ops) for (N, ops), k in points.items() if N and ops for _ in range(k)]
        slope, _ = statistics.linear_regression(
            [math.log10(N) for N, _ in usable], [math.log10(ops) for _, ops in usable]
        )
        assert harness._op_stats(points) == {
            "points": 6,
            "max_ratio_cubic": 900 / 20**3,
            "fitted_exponent": round(slope, 4),
        }

    def test_one_distinct_length_fits_no_line(self):
        stats = harness._op_stats(Counter({(10, 100): 2, (10, 300): 1}))
        assert stats == {"points": 3, "max_ratio_cubic": 0.3, "fitted_exponent": None}


class TestDifferentialRun:
    def test_empty_config(self):
        report = differential_run(FuzzConfig(seed=1, num_instances=0))
        assert report.total == 0
        assert report.generated == 0
        assert report.as_dict()["op_stats"]["points"] == 0

    def test_tally_equation_holds(self):
        cfg = FuzzConfig(seed=21, num_instances=120, var_range=(1, 8), clause_range=(1, 20))
        report = differential_run(cfg)
        assert report.total == report.agreements + len(report.disagreements) + report.gate_failures
        assert report.generated == report.total + report.unknown
        assert report.gate_failures == 0

    def test_planted_corpus_all_gated(self):
        cfg = FuzzConfig(
            seed=22,
            num_instances=60,
            var_range=(2, 8),
            clause_range=(1, 15),
            satisfiable_bias="planted",
        )
        report = differential_run(cfg)
        assert report.gate_failures == 0

    def test_unknown_oracle_answers_are_counted_apart(self, monkeypatch, capsys):
        # n = 26 is past the brute-force limit: a DPLL run out of budget
        # answers None, which counts as unknown, never as a verdict
        monkeypatch.setattr(harness, "dpll", lambda formula: (None, None))
        report = differential_run(FuzzConfig(seed=4, num_instances=6, var_range=(26, 26)))
        assert (report.generated, report.unknown, report.total) == (6, 6, 0)
        assert (report.agreements, report.disagreements, report.engine_errors) == (0, [], [])
        assert main(["fuzz", "--seed", "4", "--count", "6", "--vars", "26..26"]) == 0
        assert json.loads(capsys.readouterr().out)["unknown"] == 6

    def test_external_recheck_catches_a_failing_sat_assignment(self, monkeypatch, capsys):
        # the first SAT answer carries an assignment that falsifies clause 1
        real_solve = harness.solve_sat
        forged = []

        def forging_solve(formula, **kwargs):
            run = real_solve(formula, **kwargs)
            if run.verdict.status != "SAT" or forged:
                return run
            forged.append(formula)
            assignment = [True] * formula.num_vars
            for lit in formula.clauses[0]:
                assignment[abs(lit) - 1] = lit < 0
            return run._replace(verdict=Sat(tuple(assignment)))

        monkeypatch.setattr(harness, "solve_sat", forging_solve)
        report = differential_run(FuzzConfig(seed=5, num_instances=8, var_range=(2, 6)))
        assert len(forged) == 1
        assert [e["detail"] for e in report.engine_errors] == [
            "external recheck: Sat assignment fails evaluate"
        ]
        assert report.engine_errors[0]["instance"] == emit_dimacs(forged[0])
        assert report.gate_failures == 1 and report.violation
        forged.clear()
        assert main(["fuzz", "--seed", "5", "--count", "8", "--vars", "2..6"]) == 3
        assert json.loads(capsys.readouterr().out)["gate_failures"] == 1

    def test_disagreements_ship_minimized_instances(self):
        # a corpus region known to contain engine incompleteness
        cfg = FuzzConfig(seed=11, num_instances=600, var_range=(1, 20), clause_range=(1, 120))
        report = differential_run(cfg, brute_limit=20)
        assert report.disagreements, "expected at least one disagreement in this corpus"
        for item in report.disagreements:
            assert "minimized" in item
            mini, _ = parse_dimacs(item["minimized"])
            from satcover import Sat, Unsat, solve_sat

            run = solve_sat(mini)
            engine = "SAT" if isinstance(run.verdict, Sat) else "UNSAT"
            assert engine == item["engine"]
            assert oracle_status(mini) == item["oracle"]


class TestShrink:
    def test_shrinks_to_minimal_core(self):
        formula = formula_of("p cnf 3 4\n1 2 0\n-1 0\n3 0\n-3 0\n")

        def has_complementary_units(f):
            units = {c[0] for c in f.clauses if len(c) == 1}
            return any(-u in units for u in units)

        small = shrink_disagreement(formula, has_complementary_units)
        assert sorted(small.clauses) == [[-1], [1]]
        # dense renumbering happened: only one variable left
        assert small.num_vars == 1

    def test_preserves_the_exact_status_pair(self):
        # frozen counterexample from the exhaustive sweep: engine UNSAT, really SAT
        formula = formula_of("p cnf 3 4\n1 0\n2 3 0\n-2 -3 0\n-1 -3 0\n")
        from satcover import Sat, solve_sat

        def still_disagrees(f):
            run = solve_sat(f)
            if isinstance(run.verdict, Sat):
                return False
            return oracle_status(f) == "SAT"

        assert still_disagrees(formula)
        small = shrink_disagreement(formula, still_disagrees)
        assert still_disagrees(small)
        assert sum(len(c) for c in small.clauses) <= sum(len(c) for c in formula.clauses)

    def test_no_shrink_when_core_is_everything(self):
        formula = formula_of("p cnf 1 2\n1 0\n-1 0\n")

        def exact(f):
            return sorted(map(tuple, f.clauses)) == [(-1,), (1,)]

        assert shrink_disagreement(formula, exact).clauses == formula.clauses


# sha256 of the minimized DIMACS texts of the 316 n = 4 disagreements,
# concatenated in report order
N4_MINIMIZED_SHA256 = "4503e50960f94b2b02a2282999808d6573847cfa06b16c0d785696f15d8ae864"


class TestDiffExhaustive:
    def test_tiny_space_clean(self):
        report = diff_exhaustive(2, 2, 2)
        assert report.gate_failures == 0
        assert report.extra["reduction_check_passed"]
        assert report.total == 44

    def test_engine_incompleteness_is_reported_not_fatal(self):
        # the (3, 4, 2)-bounded space holds false negatives such as
        # (x2)(x1 v x3)(-x1 v -x3)(-x2 v -x3), which the (3, 3, 3) space does
        # not: they land in disagreements, each with a minimized instance that
        # still disagrees, while the gate stays clean
        report = diff_exhaustive(3, 4, 2)
        assert report.disagreements
        for item in report.disagreements:
            assert (item["engine"], item["oracle"]) == ("UNSAT", "SAT")
            mini, _ = parse_dimacs(item["minimized"])
            assert isinstance(solve_sat(mini).verdict, Unsat)
            assert oracle_status(mini) == "SAT"
        assert report.total == report.agreements + len(report.disagreements)
        assert report.gate_failures == 0
        assert report.extra["reduction_check_passed"]

    def test_failed_reduction_check_is_a_violation(self, monkeypatch):
        # a covering oracle that finds nothing disagrees with brute_sat on
        # every satisfiable formula of the space
        monkeypatch.setattr(harness, "brute_covering", lambda pair: (False, None))
        report = diff_exhaustive(1, 2, 1)
        assert report.gate_failures == 0
        assert report.extra["reduction_check_passed"] is False
        assert report.violation

    def test_one_failed_formula_fails_the_check(self, monkeypatch):
        # the first formula, (x1), is satisfiable: a covering oracle that
        # finds nothing on it alone fails the whole one-shard sweep
        split_into(monkeypatch, 1)
        real_brute_covering = harness.brute_covering
        answers = iter([(False, None)])
        monkeypatch.setattr(
            harness, "brute_covering", lambda pair: next(answers, None) or real_brute_covering(pair)
        )
        assert diff_exhaustive(1, 2, 1).extra["reduction_check_passed"] is False

    def test_walks_the_space_once(self, monkeypatch):
        calls = []
        real_enumerate = harness.enumerate_formulas
        monkeypatch.setattr(
            harness,
            "enumerate_formulas",
            lambda *b, **k: calls.append(b) or real_enumerate(*b, **k),
        )
        assert diff_exhaustive(2, 2, 2).extra["reduction_check_passed"]
        assert calls == [(2, 2, 2)]

    def test_one_oracle_call_per_formula(self, monkeypatch):
        # the reduction check is given the oracle's verdict instead of
        # running brute_sat again: the 44 formulas make 44 calls, not 88
        split_into(monkeypatch, 1)
        calls = []
        real_brute_sat = harness.brute_sat
        monkeypatch.setattr(
            harness, "brute_sat", lambda *a, **k: calls.append(a) or real_brute_sat(*a, **k)
        )
        report = diff_exhaustive(2, 2, 2)
        assert report.extra["reduction_check_passed"]
        assert (report.generated, len(calls)) == (44, 44)

    def test_n4_counterexamples_replay(self):
        # the minimized false negatives of the n = 4 space, recorded from
        # ``satcover diff-exhaustive --max-n 4 --json`` with the engine's
        # reason on each; the exhaustive-n4 CI job sweeps the space and
        # checks the same digest of their concatenation
        doc = json.loads((Path(__file__).parent / "n4_counterexamples.json").read_text())
        items = doc["counterexamples"]
        assert len(items) == 316
        minimized = "".join(item["minimized"] for item in items).encode("ascii")
        assert hashlib.sha256(minimized).hexdigest() == N4_MINIMIZED_SHA256
        for item in items:
            formula, removed = parse_dimacs(item["minimized"])
            assert removed == () and formula.num_vars <= 4 and len(formula.clauses) <= 4
            verdict = solve_sat(formula).verdict
            assert verdict.status == item["engine"]
            assert typed(verdict) == typed(Unsat(Reason(*item["reason"])))
            assert oracle_status(formula) == "SAT"

    @pytest.mark.parametrize("bounds", [(5, 2, 1), (0, 2, 1), (2, 0, 1), (2, 2, 0)])
    def test_bad_bounds_refused_before_any_solve(self, bounds, monkeypatch):
        solves = []
        real_solve = harness.solve_sat
        monkeypatch.setattr(
            harness, "solve_sat", lambda *a, **k: solves.append(a) or real_solve(*a, **k)
        )
        with pytest.raises(ValueError):
            diff_exhaustive(*bounds)
        assert solves == []

    @pytest.mark.parametrize(
        "bounds, named",
        [
            ((3.0, 2, 2), "max-n"),
            ((2, "2", 2), "max-m"),
            ((2, 2, 2.5), "max-width"),
            ((True, True, True), "max-n"),
        ],
    )
    def test_bound_that_is_not_an_int_refused(self, bounds, named, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a refused space"))
        with pytest.raises(ValueError, match=f"^{named} must be an int, got "):
            diff_exhaustive(*bounds)


# every whole-number argument of the harness and the CLI: the name its
# refusal gives, its range lo..hi (hi None: no upper end), and the library
# call and the command line that take it (None where there is none)
WHOLE_NUMBER_ARGUMENTS = [
    ("seed", 0, None, lambda v: FuzzConfig(seed=v), ["fuzz", "--seed"]),
    ("num_instances", 0, 2**32, lambda v: FuzzConfig(1, num_instances=v), None),
    ("count", 1, 2**32, None, ["fuzz", "--seed", "1", "--count"]),
    ("index", 0, 2**32 - 1, lambda v: random_cnf(FuzzConfig(seed=1), v), None),
    ("max-n", 1, 4, lambda v: diff_exhaustive(v, 1, 1), ["diff-exhaustive", "--max-n"]),
    ("max-m", 1, 2**32, lambda v: diff_exhaustive(1, v, 1), ["diff-exhaustive", "--max-m"]),
    ("max-width", 1, None, lambda v: diff_exhaustive(1, 1, v), ["diff-exhaustive", "--max-width"]),
    ("width", 1, None, lambda v: complexity_probe([50], width=v), ["probe", "--sizes", "50", "--width"]),
    (
        "instances-per-size",
        1,
        2**32,
        lambda v: complexity_probe([50], instances_per_size=v),
        ["probe", "--sizes", "50", "--instances-per-size"],
    ),
]


def whole_number_refusals(surface):
    """For each argument ``surface`` (``"library"`` or ``"cli"``) takes: a
    bool, a whole float, a value below its range and one above it, each with
    the refusal's message."""
    for name, lo, hi, call, argv in WHOLE_NUMBER_ARGUMENTS:
        target = call if surface == "library" else argv
        if target is None:
            continue
        cases = [("bool", True, "an int"), ("float", float(lo), "an int")]
        cases.append(("below", lo - 1, f"at least {lo}"))
        if hi is not None:
            cases.append(("above", hi + 1, f"at most {hi}"))
        for kind, value, rule in cases:
            message = f"{name} must be {rule}, got {value!r}"
            yield pytest.param(target, name, value, message, id=f"{name}-{kind}")


class TestWholeNumberArguments:
    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for a refused argument"))
        monkeypatch.setattr(harness, "solve_sat", lambda *a, **k: pytest.fail("solved"))

    @pytest.mark.parametrize("call, name, value, message", whole_number_refusals("library"))
    def test_library_refusal(self, call, name, value, message):
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == message

    @pytest.mark.parametrize("argv, name, value, message", whole_number_refusals("cli"))
    def test_cli_refusal(self, argv, name, value, message, capsys):
        try:
            code = main([*argv, str(value)])
        except SystemExit as exc:  # argparse refuses "True" and "1.0" as no int
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and name in errors[0]
        if type(value) is int:
            assert captured.err == f"error: {message}\n"


SHARDED = FuzzConfig(seed=11, num_instances=9, var_range=(1, 8), clause_range=(1, 20))


def split_into(monkeypatch, cpus):
    """Make a harness run use ``cpus`` shards of at least one item each."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(shards, "MIN_SHARD_ITEMS", 1)


def sharded_reports():
    return differential_run(SHARDED).as_dict(), diff_exhaustive(2, 2, 2).as_dict()


class TestSharding:
    @pytest.fixture(autouse=True)
    def no_child_outlives_the_call(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def serial(self, monkeypatch):
        with monkeypatch.context() as m:
            split_into(m, 1)
            return sharded_reports()

    @pytest.fixture
    def forks(self, monkeypatch):
        calls = []
        real_fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real_fork())
        return calls

    def test_shards_merge_to_the_serial_report(self, serial, forks, monkeypatch):
        if sys.platform.startswith("linux"):
            # no other thread (a native library's worker pool, say) runs
            # beside the fork, which copies only the calling thread
            assert len(os.listdir("/proc/self/task")) == 1
        split_into(monkeypatch, 3)
        assert sharded_reports() == serial
        assert len(forks) == 4  # two children per call

    def test_two_cpus_fork_from_128_items(self, forks, monkeypatch):
        # two shards of at least MIN_SHARD_ITEMS items each, as README states
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        for count, forked in [(127, 0), (128, 1)]:
            forks.clear()
            results = shards.run(lambda lo, hi: (lo, hi), count)
            assert [lo for lo, _ in results] == [0] + [hi for _, hi in results[:-1]]
            assert results[-1][1] == count
            assert len(forks) == forked

    def test_one_cpu_runs_in_process(self, serial, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one usable CPU"))
        split_into(monkeypatch, 1)
        assert sharded_reports() == serial

    def test_no_affinity_call_runs_in_process(self, serial, monkeypatch):
        split_into(monkeypatch, 3)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked without sched_getaffinity"))
        assert sharded_reports() == serial

    def test_a_live_thread_prevents_the_fork(self, serial, monkeypatch):
        split_into(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with a second thread alive"))
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            assert sharded_reports() == serial
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()

    def test_a_refused_fork_runs_in_process(self, serial, monkeypatch):
        # the second fork of each call fails: its first child is killed and
        # reaped, and the whole range runs here
        split_into(monkeypatch, 3)
        real_fork = os.fork
        calls = []

        def second_refused():
            calls.append(1)
            if len(calls) % 2 == 0:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real_fork()

        monkeypatch.setattr(os, "fork", second_refused)
        assert sharded_reports() == serial
        assert len(calls) == 4

    def test_chunks_finishing_out_of_order_merge_in_order(self, serial, monkeypatch):
        # whichever process takes chunk 0 finishes it last
        with monkeypatch.context() as m:
            split_into(m, 1)
            serial_sweep = diff_exhaustive(3, 4, 2).as_dict()  # 8 disagreements
        split_into(monkeypatch, 3)

        def work(lo, hi):
            if lo == 0:
                time.sleep(0.3)
            return lo, hi, os.getpid()

        results = shards.run(work, 100)
        assert len(results) == 3 * shards.CHUNKS_PER_SHARD
        assert [lo for lo, _, _ in results] == [0] + [hi for _, hi, _ in results[:-1]]
        assert results[-1][1] == 100
        assert len({pid for _, _, pid in results}) > 1
        real_random_cnf, real_enumerate = harness.random_cnf, harness.enumerate_formulas

        def late_fuzz(cfg, index):
            if index == 0:
                time.sleep(0.3)
            return real_random_cnf(cfg, index)

        def late_sweep(*bounds, start, stop):
            if start == 0:
                time.sleep(0.3)
            return real_enumerate(*bounds, start=start, stop=stop)

        monkeypatch.setattr(harness, "random_cnf", late_fuzz)
        monkeypatch.setattr(harness, "enumerate_formulas", late_sweep)
        assert sharded_reports() == serial
        assert diff_exhaustive(3, 4, 2).as_dict() == serial_sweep

    @pytest.mark.parametrize("error", [ValueError, MemoryError])
    def test_an_error_in_a_child_is_raised_with_its_type(self, error, tmp_path, monkeypatch):
        # every chunk a child takes fails; this process takes no item before
        # a child has failed, so a child surely takes one
        split_into(monkeypatch, 3)
        caller = os.getpid()
        failed = tmp_path / "failed"
        real_random_cnf = harness.random_cnf

        def failing_in_children(cfg, index):
            if os.getpid() != caller:
                failed.touch()
                raise error(f"index {index} in a child")
            wait_for(failed)
            return real_random_cnf(cfg, index)

        monkeypatch.setattr(harness, "random_cnf", failing_in_children)
        with pytest.raises(error, match="in a child"):
            differential_run(SHARDED)

    def test_a_killed_child_is_an_input_error(self, tmp_path, monkeypatch, capsys):
        # shard 2 dies in the first chunk it takes (of one item), and the
        # other two shards take no item before that, so shard 2 takes one
        split_into(monkeypatch, 3)
        forks, shard = [], [1]  # shard[0]: the shard this process runs
        real_fork = os.fork

        def numbered_fork():
            forks.append(1)
            pid = real_fork()
            if pid == 0:  # each call forks shards 2 and 3, in that order
                shard[0] = (len(forks) - 1) % 2 + 2
            return pid

        taken = tmp_path / "taken"
        real_random_cnf = harness.random_cnf

        def killed_in_shard_2(cfg, index):
            if shard[0] == 2:
                taken.write_text(str(index))
                os.kill(os.getpid(), signal.SIGKILL)
            wait_for(taken)
            return real_random_cnf(cfg, index)

        monkeypatch.setattr(os, "fork", numbered_fork)
        monkeypatch.setattr(harness, "random_cnf", killed_in_shard_2)
        with pytest.raises(ChildProcessError) as raised:
            differential_run(SHARDED)
        assert str(raised.value) == (
            f"harness shard 2 of 3 was killed by signal 9 ({signal.strsignal(9)}) before "
            f"sending its result (items {taken.read_text()} never came back)"
        )
        taken.unlink()
        capsys.readouterr()
        argv = ["fuzz", "--seed", "11", "--count", "9", "--vars", "1..8", "--clauses", "1..20"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: harness shard 2 of 3") and "Traceback" not in err
        assert len(forks) == 4

    def test_an_error_here_kills_the_children(self, monkeypatch):
        # the children sleep for a minute in the first chunk each takes, and
        # the others are left to this process: its error must not wait for them
        split_into(monkeypatch, 3)
        caller = os.getpid()
        real_random_cnf = harness.random_cnf

        def slow_children(cfg, index):
            if os.getpid() == caller:
                raise ValueError(f"index {index} here")
            time.sleep(60)
            return real_random_cnf(cfg, index)

        monkeypatch.setattr(harness, "random_cnf", slow_children)
        start = time.monotonic()
        with pytest.raises(ValueError, match="here"):
            differential_run(SHARDED)
        assert time.monotonic() - start < 30


def wait_for(path: Path) -> None:
    """Poll until ``path`` exists, for at most 10 s."""
    deadline = time.monotonic() + 10
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.005)


class TestProbe:
    def test_shape(self):
        assert probe_shape(100) == (10, 33)
        assert probe_shape(9) == (3, 3)

    def test_rows_and_stats(self):
        doc = complexity_probe([60, 120], seed=5, instances_per_size=2)
        assert [row["target"] for row in doc["rows"]] == [60, 60, 120, 120]
        for row in doc["rows"]:
            assert row["op_total"] > 0
            assert row["verdict"] in ("SAT", "UNSAT", "ERROR")
        assert doc["op_stats"]["max_ratio_cubic"] > 0
        assert doc["op_stats"]["fitted_exponent"] is not None
        assert doc["gate_failures"] == 0

    @pytest.mark.parametrize(
        "sizes, kwargs, named",
        [
            ([100], {"width": 0}, "width"),
            ([100], {"width": -2}, "width"),
            ([-5], {}, "sizes"),
            ([0], {}, "sizes"),
            ([100, 0], {}, "sizes"),
            ([], {}, "sizes"),
            ([100], {"instances_per_size": 0}, "instances-per-size"),
            ([100], {"instances_per_size": 2**32 + 1}, "instances-per-size"),
            ([100], {"seed": -1}, "seed"),
            ([150.7], {}, "sizes"),
            (["100"], {}, "sizes"),
            ([100, float("nan")], {}, "sizes"),
            ([100], {"width": 2.5}, "width"),
            ([100], {"instances_per_size": 2.0}, "instances-per-size"),
            ([True], {}, "sizes"),
            ([100], {"width": True}, "width"),
            ([100], {"instances_per_size": True}, "instances-per-size"),
            ([100], {"seed": True}, "seed"),
        ],
        ids=[
            "zero-width",
            "negative-width",
            "negative-size",
            "zero-size",
            "zero-size-after-a-good-one",
            "no-sizes",
            "no-instances",
            "too-many-instances",
            "negative-seed",
            "fractional-size",
            "size-as-text",
            "nan-size",
            "fractional-width",
            "float-instances",
            "bool-size",
            "bool-width",
            "bool-instances",
            "bool-seed",
        ],
    )
    def test_bad_arguments_refused_before_any_solve(self, sizes, kwargs, named, monkeypatch):
        solves = []
        real_solve = harness.solve_sat
        monkeypatch.setattr(
            harness, "solve_sat", lambda *a, **k: solves.append(a) or real_solve(*a, **k)
        )
        with pytest.raises(ValueError, match=f"^{named} "):
            complexity_probe(sizes, **kwargs)
        assert solves == []

    def test_whole_float_sizes_accepted(self):
        # the CLI reads 1e2 as a float; the report names the int
        doc = complexity_probe([1e2, 60], instances_per_size=1)
        assert doc["sizes"] == [100, 60]
        assert [row["target"] for row in doc["rows"]] == [100, 60]

    def test_rows_are_pinned(self):
        # the probe keeps no trace events; its rows are those of a kept solve
        keys = ("target", "input_length", "n", "m", "verdict", "op_total", "extensions")
        rows = complexity_probe([60, 120], seed=5)["rows"]
        assert all(set(row) == {*keys, "elapsed_ms"} for row in rows)
        assert [tuple(row[k] for k in keys) for row in rows] == [
            (60, 60, 8, 20, "UNSAT", 631, 0),
            (60, 60, 8, 20, "UNSAT", 649, 0),
            (120, 120, 11, 40, "UNSAT", 1105, 0),
            (120, 120, 11, 40, "UNSAT", 1110, 0),
        ]

    def test_deterministic(self):
        first = complexity_probe([50, 100], seed=6, instances_per_size=1)
        second = complexity_probe([50, 100], seed=6, instances_per_size=1)
        assert [r["op_total"] for r in first["rows"]] == [
            r["op_total"] for r in second["rows"]
        ]


# Solve and adjudicate 2,400 small formulas (n and m in 1..19, so every
# tuple size a CPython free list keeps) in a fresh interpreter, two warm-up
# batches of 300 and then six more, and print how many memory blocks the
# six added.  No gc.collect(): a full collection empties the free lists.
DRIFT_SCRIPT = """
import sys

from satcover import solve_sat
from satcover.harness import FuzzConfig, oracle_status, random_cnf

cfg = FuzzConfig(seed=7, num_instances=2400, var_range=(1, 19), clause_range=(1, 19))
indices = iter(range(cfg.num_instances))


def batch():
    for _, index in zip(range(300), indices):
        formula = random_cnf(cfg, index)
        solve_sat(formula, count_ops=True, invariant_checks=True)
        oracle_status(formula)


batch()
batch()
before = sys.getallocatedblocks()
for _ in range(6):
    batch()
print(sys.getallocatedblocks() - before)
"""


@pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.getallocatedblocks() == 0,
    reason="counts CPython's allocated memory blocks",
)
def test_harness_solves_leave_no_memory_behind():
    # a tuple built by resizing is freed onto the free list of its final
    # size, so a run that keeps building them parks up to 2,000 per size:
    # about 14,500 blocks here, against under 200 when every tuple is built
    # at its final size
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", DRIFT_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 1_000
