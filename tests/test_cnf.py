"""DIMACS parsing, canonical emission, and the matrix reduction."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satcover import (
    CnfFormula,
    OpCounter,
    ParseError,
    StructuralError,
    assignment_from_swaps,
    emit_dimacs,
    evaluate,
    parse_dimacs,
    restrict_to_used,
    to_decomposition,
    to_matrix,
)
from satcover.cnf import used_variables
from satcover.decomposition import validate

from conftest import formulas, naive_input_length
from satcover import input_length


class TestParse:
    def test_basic(self):
        formula, report = parse_dimacs("p cnf 2 2\n-1 2 0\n1 0\n")
        assert formula.num_vars == 2
        assert formula.clauses == [[-1, 2], [1]]
        assert report.removed_tautologies == ()

    def test_comments_and_blank_lines(self):
        text = "c a comment\n\np cnf 2 1\nc another\n1 -2 0\n"
        formula, _ = parse_dimacs(text)
        assert formula.clauses == [[1, -2]]

    def test_clause_spanning_lines(self):
        formula, _ = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert formula.clauses == [[1, 2, 3]]

    def test_multiple_clauses_on_one_line(self):
        formula, _ = parse_dimacs("p cnf 2 2\n1 0 -2 0\n")
        assert formula.clauses == [[1], [-2]]

    def test_tautology_removed(self):
        formula, report = parse_dimacs("p cnf 1 1\n1 -1 0\n")
        assert formula.clauses == []
        assert report.removed_tautologies == (1,)

    def test_duplicate_literal_deduped(self):
        formula, _ = parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
        assert formula.clauses == [[1, -2]]

    def test_empty_clause_retained(self):
        formula, _ = parse_dimacs("p cnf 1 2\n1 0\n0\n")
        assert formula.clauses == [[1], []]

    def test_unterminated_final_clause_accepted(self):
        formula, _ = parse_dimacs("p cnf 2 2\n1 0\n-1 2\n")
        assert formula.clauses == [[1], [-1, 2]]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1 0\n",
            "p cnf\n",
            "p cnf 1\n",
            "p dnf 1 1\n1 0\n",
            "p cnf 1 1\np cnf 1 1\n1 0\n",
            "p cnf 1 1\n2 0\n",
            "p cnf 1 2\n1 0\n",
            "p cnf 1 1\n1 0\n-1 0\n",
            "p cnf 1 1\nx 0\n",
            "p cnf 0 1\n1 0\n",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_dimacs(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_dimacs("p cnf 1 1\n2 0\n")
        assert info.value.line == 2
        assert "line 2" in str(info.value)


class TestFormula:
    def test_literal_zero_rejected(self):
        with pytest.raises(StructuralError):
            CnfFormula(1, [[0]])

    def test_literal_out_of_range_rejected(self):
        with pytest.raises(StructuralError):
            CnfFormula(1, [[2]])


class TestEmit:
    def test_canonical_order(self):
        formula = CnfFormula(3, [[3, -1, 2]])
        assert emit_dimacs(formula) == "p cnf 3 1\n-1 2 3 0\n"

    def test_negative_after_positive_same_var(self):
        formula = CnfFormula(2, [[-1, 2], [1]])
        assert emit_dimacs(formula) == "p cnf 2 2\n-1 2 0\n1 0\n"

    def test_empty_clause(self):
        assert emit_dimacs(CnfFormula(1, [[]])) == "p cnf 1 1\n0\n"

    @given(formulas())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_fixpoint(self, formula):
        first = emit_dimacs(formula)
        reparsed, _ = parse_dimacs(first)
        assert emit_dimacs(reparsed) == first


class TestUsedVariables:
    def test_used_and_unused(self):
        formula = CnfFormula(5, [[-4, 2]])
        assert used_variables(formula) == [2, 4]

    def test_restrict_to_used(self):
        formula = CnfFormula(5, [[-4, 2]])
        sub, used = restrict_to_used(formula)
        assert used == [2, 4]
        assert sub.num_vars == 2
        assert sub.clauses == [[-2, 1]]

    def test_restrict_identity_when_all_used(self, e1):
        sub, used = restrict_to_used(e1)
        assert used == [1, 2]
        assert sub.clauses == e1.clauses


class TestMatrix:
    def test_e1_matrix(self, e1):
        matrix = to_matrix(e1)
        assert matrix.shape == (2, 2)
        assert matrix.dtype == np.int8
        assert matrix.tolist() == [[-1, 1], [1, 0]]
        assert np.count_nonzero(matrix) == 3
        with pytest.raises(ValueError):
            matrix[0, 0] = 0

    def test_tautology_must_be_preprocessed_upstream(self):
        # a raw x1-and-not-x1 clause collapses to one cell of the matrix
        assert to_matrix(CnfFormula(2, [[1, -1]])).tolist() == [[-1, 0]]
        # x1 keeps the sign of its last literal, leaving x2 unused; the
        # reduction refuses the formula
        with pytest.raises(StructuralError):
            to_decomposition(CnfFormula(2, [[1, -1]]))


@st.composite
def raw_formulas(draw):
    """Non-empty formulas of non-empty clauses whose literals are drawn with
    replacement, so a clause may repeat a literal or hold both signs."""
    n = draw(st.integers(1, 6))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clause = st.lists(literal, min_size=1, max_size=6)
    return CnfFormula(n, draw(st.lists(clause, min_size=1, max_size=8)))


class TestToDecomposition:
    @given(raw_formulas())
    @settings(max_examples=200, deadline=None)
    def test_output_is_a_valid_decomposition(self, formula):
        # solve_sat relies on this and does not validate the pair it builds
        sub, _ = restrict_to_used(formula)
        for alpha in ("neg", "pos"):
            assert validate(to_decomposition(sub, alpha=alpha)).ok

    def test_neg_orientation(self, e1):
        pair = to_decomposition(e1)
        assert pair.alpha_rows == ((0,), ())
        assert pair.bar_rows == ((1,), (0,))

    def test_pos_orientation(self, e1):
        pair = to_decomposition(e1, alpha="pos")
        assert pair.alpha_rows == ((1,), (0,))
        assert pair.bar_rows == ((0,), ())

    def test_unknown_orientation_rejected(self, e1):
        with pytest.raises(ValueError):
            to_decomposition(e1, alpha="both")

    def test_empty_clause_row_rejected(self):
        with pytest.raises(StructuralError) as info:
            to_decomposition(CnfFormula(1, [[1], []]))
        assert "2" in str(info.value)

    def test_unused_variable_column_rejected(self):
        with pytest.raises(StructuralError) as info:
            to_decomposition(CnfFormula(2, [[1]]))
        assert "2" in str(info.value)

    def test_operation_charges(self, e1):
        ops = OpCounter()
        to_decomposition(e1, ops=ops)
        m, n = len(e1.clauses), e1.num_vars
        assert ops.comparisons == m * n
        assert ops.assignments == 2 * m * n

    @given(formulas())
    @settings(max_examples=60, deadline=None)
    def test_nonzeros_equal_input_length(self, formula):
        sub, _ = restrict_to_used(formula)
        matrix = to_matrix(sub)
        pair = to_decomposition(sub)
        assert np.count_nonzero(matrix) == input_length(pair)
        # the occurrence lists agree with the signed matrix cell by cell
        for i in range(pair.n):
            assert list(pair.alpha_rows[i]) == np.flatnonzero(matrix[:, i] == -1).tolist()
            assert list(pair.bar_rows[i]) == np.flatnonzero(matrix[:, i] == 1).tolist()
        assert input_length(pair) == naive_input_length(pair)


class TestEvaluate:
    def test_truth_table(self, e1):
        assert evaluate(e1, (True, True))
        assert not evaluate(e1, (False, True))
        assert not evaluate(e1, (False, False))
        assert evaluate(e1, (True, False)) is False  # clause 1 fails

    def test_empty_clause_never_satisfied(self):
        assert not evaluate(CnfFormula(1, [[]]), (True,))

    def test_no_clauses_always_satisfied(self):
        assert evaluate(CnfFormula(1, []), (False,))

    def test_length_mismatch_rejected(self, e1):
        with pytest.raises(ValueError):
            evaluate(e1, (True,))


class TestAssignmentFromSwaps:
    def test_basic(self):
        assert assignment_from_swaps({1}, [1, 2, 3], 3, "neg") == (True, False, False)
        assert assignment_from_swaps(set(), [1, 2], 2, "neg") == (False, False)

    def test_rows_map_through_used_variables(self):
        # rows 1 and 2 stand for x2 and x4; x1, x3 and x5 stay false
        assert assignment_from_swaps({2}, [2, 4], 5, "neg") == (False, False, False, True, False)
        assert assignment_from_swaps({2}, [2, 4], 5, "pos") == (False, True, False, False, False)

    def test_out_of_range_rejected(self):
        with pytest.raises(StructuralError):
            assignment_from_swaps({4}, [1, 2, 3], 3, "neg")
        with pytest.raises(StructuralError):
            assignment_from_swaps({0}, [1, 2, 3], 3, "neg")
