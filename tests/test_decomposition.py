"""Decomposition pair model: validation, counts, swaps, covering check."""
import numpy as np
import pytest
from hypothesis import given, settings

from satcover import (
    ColumnCounts,
    DecompositionPair,
    OpCounter,
    StructuralError,
    apply_swaps,
    column_counts,
    input_length,
    is_alpha_covering,
    validate,
)
from satcover.decomposition import Violation

from conftest import decomposition_pairs, naive_column_counts, naive_input_length


def make(alpha, bar):
    return DecompositionPair(
        sm_alpha=np.array(alpha, dtype=np.uint8),
        sm_alpha_bar=np.array(bar, dtype=np.uint8),
    )


class TestConstruction:
    def test_shapes_and_sizes(self, e1_pair):
        assert (e1_pair.n, e1_pair.m) == (2, 2)
        assert e1_pair.sm_alpha.tolist() == [[1, 0], [0, 0]]
        assert e1_pair.sm_alpha_bar.tolist() == [[0, 1], [1, 0]]

    def test_matrices_are_read_only(self, e1_pair):
        with pytest.raises(ValueError):
            e1_pair.sm_alpha[0, 0] = 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            make([[1, 0]], [[1], [0]])

    def test_non_binary_entries_rejected(self):
        with pytest.raises(StructuralError):
            make([[2, 0]], [[0, 1]])
        # passed uncast, so -1, 0.5 and nan reach the check as they are
        for bad in (-1, 0.5, np.nan):
            with pytest.raises(StructuralError):
                DecompositionPair(sm_alpha=[[bad, 0]], sm_alpha_bar=[[0, 1]])
            with pytest.raises(StructuralError):
                DecompositionPair(sm_alpha=[[0, 0]], sm_alpha_bar=[[0, bad]])

    def test_non_2d_rejected(self):
        with pytest.raises(StructuralError):
            DecompositionPair(
                sm_alpha=np.zeros(3, dtype=np.uint8),
                sm_alpha_bar=np.zeros(3, dtype=np.uint8),
            )

    def test_empty_rejected(self):
        with pytest.raises(StructuralError):
            make(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_equality_is_by_contents(self, e1_pair):
        clone = make([[1, 0], [0, 0]], [[0, 1], [1, 0]])
        assert clone == e1_pair
        assert make([[1, 0], [0, 0]], [[0, 1], [0, 1]]) != e1_pair


class TestValidate:
    def test_valid_pair(self, e1_pair):
        report = validate(e1_pair)
        assert report.ok
        assert report.violations == ()

    def test_all_violations_reported(self):
        pair = make([[1, 1], [0, 0]], [[1, 0], [0, 0]])
        report = validate(pair)
        assert not report.ok
        assert report.violations == (
            Violation(condition="disjointness", row=1, column=1),
            Violation(condition="pair-nonempty", row=2, column=None),
        )

    def test_coverage_violation(self):
        pair = make([[1, 0]], [[0, 0]])
        report = validate(pair)
        assert Violation(condition="coverage", row=None, column=2) in report.violations

    @given(decomposition_pairs())
    @settings(max_examples=60, deadline=None)
    def test_generated_pairs_validate(self, pair):
        assert validate(pair).ok


class TestColumnCounts:
    def test_e1_counts(self, e1_pair):
        counts = column_counts(e1_pair)
        assert counts.m_alpha.tolist() == [1, 0]
        assert counts.m_alpha_bar.tolist() == [1, 1]

    def test_e3_counts(self, e3_pair):
        counts = column_counts(e3_pair)
        assert counts.m_alpha.tolist() == [2, 0, 0]
        assert counts.m_alpha_bar.tolist() == [0, 1, 1]

    def test_counts_are_read_only(self, e1_pair):
        counts = column_counts(e1_pair)
        with pytest.raises(ValueError):
            counts.m_alpha[0] = 9

    @given(decomposition_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, pair):
        counts = column_counts(pair)
        a, b = naive_column_counts(pair)
        assert counts.m_alpha.tolist() == a
        assert counts.m_alpha_bar.tolist() == b

    def test_operation_charges(self, e1_pair):
        ops = OpCounter()
        column_counts(e1_pair, ops=ops)
        n, m = e1_pair.n, e1_pair.m
        assert ops.comparisons == 2 * n * m
        assert ops.arithmetic == naive_input_length(e1_pair)
        assert ops.assignments == 2 * m


class TestSwaps:
    def test_apply_swaps_exchanges_rows(self, e1_pair):
        swapped = apply_swaps(e1_pair, {1})
        assert swapped.sm_alpha.tolist() == [[0, 1], [0, 0]]
        assert swapped.sm_alpha_bar.tolist() == [[1, 0], [1, 0]]
        # a repeated index counts once: it does not swap the row back
        assert apply_swaps(e1_pair, [1, 1]) == swapped

    def test_empty_swap_is_identity(self, e1_pair):
        assert apply_swaps(e1_pair, set()) == e1_pair

    def test_out_of_range_swap_rejected(self, e1_pair):
        with pytest.raises(StructuralError):
            apply_swaps(e1_pair, {3})
        with pytest.raises(StructuralError):
            apply_swaps(e1_pair, {0})

    @given(decomposition_pairs())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, pair):
        swaps = set(range(1, pair.n + 1, 2))
        assert apply_swaps(apply_swaps(pair, swaps), swaps) == pair


class TestCoveringCheck:
    def test_e1_not_covering_raw(self, e1_pair):
        assert not is_alpha_covering(e1_pair)

    def test_e1_covering_after_full_swap(self, e1_pair):
        assert is_alpha_covering(apply_swaps(e1_pair, {1, 2}))

    def test_single_row_covering(self):
        assert is_alpha_covering(make([[1, 1, 1]], [[0, 0, 0]]))

    @given(decomposition_pairs(max_rows=4, max_cols=4))
    @settings(max_examples=60, deadline=None)
    def test_covering_means_every_column_hit(self, pair):
        result = is_alpha_covering(pair)
        expected = all(pair.sm_alpha[:, j].any() for j in range(pair.m))
        assert result == expected


class TestInputLength:
    def test_e1(self, e1_pair):
        assert input_length(e1_pair) == 3

    def test_e3(self, e3_pair):
        assert input_length(e3_pair) == 4

    @given(decomposition_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, pair):
        assert input_length(pair) == naive_input_length(pair)
