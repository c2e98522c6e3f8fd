"""Decomposition pair model: validation, counts, swaps, covering check, and
the one whole-number rule of the engine's sizes and indices."""
import copy
from enum import IntEnum

import pytest
from hypothesis import given, settings

from satcover import (
    CnfFormula,
    DecompositionPair,
    StructuralError,
    apply_swaps,
    column_counts,
    input_length,
    is_alpha_covering,
    validate,
)
from satcover import harness
from satcover.decomposition import Violation, check_int
from satcover.graph import find_main_vertices
from satcover.instrument import OpCounter, Trace
from satcover.procedures import ExtensionPlan, extend, removal_procedure

from conftest import (
    IntLike,
    decomposition_pairs,
    naive_cell,
    naive_column_counts,
    naive_input_length,
    pair_of,
)


def make(alpha, bar):
    """A pair from two dense 0/1 tables, for readable fixtures."""
    def rows(table):
        return [[j for j, bit in enumerate(row) if bit] for row in table]

    return DecompositionPair(len(alpha), len(alpha[0]), rows(alpha), rows(bar))


class TestConstruction:
    def test_shapes_and_sizes(self, e1_pair):
        assert (e1_pair.n, e1_pair.m) == (2, 2)
        assert e1_pair.alpha_rows == ((0,), ())
        assert e1_pair.bar_rows == ((1,), (0,))
        assert e1_pair.alpha_cols == ((0,), ())
        assert e1_pair.bar_cols == ((1,), (0,))

    def test_matrices_are_read_only(self):
        # the pair freezes its occurrence lists, so neither the caller's
        # lists nor the pair's own can change it after the check
        alpha, bar = [[0], []], [[1], [0]]
        pair = DecompositionPair(2, 2, alpha, bar)
        alpha[1].append(1)
        bar[0].clear()
        assert pair.alpha_rows == ((0,), ())
        assert pair.bar_rows == ((1,), (0,))
        for lists in (pair.alpha_rows, pair.bar_rows, pair.alpha_cols, pair.bar_cols):
            with pytest.raises(TypeError):
                lists[0][0] = 1
            with pytest.raises(AttributeError):
                lists[1].append(0)

    def test_shape_mismatch_rejected(self):
        # n row lists per side: one too few or one too many is refused
        with pytest.raises(StructuralError, match="alpha has 1 rows, expected 2"):
            DecompositionPair(2, 2, [[0]], [[1], [0]])
        with pytest.raises(StructuralError, match="alpha-bar has 3 rows"):
            DecompositionPair(2, 2, [[0], []], [[1], [0], []])
        # a flat list of columns where a list of rows belongs
        with pytest.raises(StructuralError, match="alpha has 3 rows, expected 1"):
            DecompositionPair(1, 3, [0, 1, 2], [[1]])

    def test_non_2d_rejected(self):
        # a flat list of columns of the right length, rows nested one level
        # too deep, and entries that are not column indices
        with pytest.raises(StructuralError, match="alpha must be a list of rows"):
            DecompositionPair(3, 3, [0, 1, 2], [[1], [0], [2]])
        with pytest.raises(StructuralError, match="alpha-bar must be a list of rows"):
            DecompositionPair(2, 2, [[0], []], [[1], 0])
        with pytest.raises(StructuralError, match="alpha row 1: column \\[0\\] is not an integer"):
            DecompositionPair(1, 2, [[[0]]], [[1]])
        for bad in (0.5, 1.0, "1", None):
            with pytest.raises(StructuralError, match="is not an integer"):
                DecompositionPair(1, 2, [[bad]], [[]])
            with pytest.raises(StructuralError, match="is not an integer"):
                DecompositionPair(1, 2, [[]], [[0, bad]])

    def test_empty_rejected(self):
        for n, m in ((0, 2), (2, 0), (0, 0), (-1, 2)):
            with pytest.raises(StructuralError):
                DecompositionPair(n, m, [[]] * max(n, 0), [[]] * max(n, 0))

    def test_out_of_range_column_rejected(self):
        with pytest.raises(StructuralError, match="alpha row 2: column 2"):
            DecompositionPair(2, 2, [[0], [2]], [[1], [0]])
        with pytest.raises(StructuralError, match="alpha-bar row 1: column 5"):
            DecompositionPair(2, 2, [[0], []], [[1, 5], [0]])

    def test_negative_column_rejected(self):
        with pytest.raises(StructuralError, match="column -1"):
            DecompositionPair(2, 2, [[-1], []], [[1], [0]])

    def test_descending_or_repeated_column_rejected(self):
        with pytest.raises(StructuralError, match="column 0 is not strictly ascending"):
            DecompositionPair(1, 3, [[2, 0]], [[1]])
        with pytest.raises(StructuralError, match="column 1 is not strictly ascending"):
            DecompositionPair(1, 3, [[0]], [[1, 1, 2]])

    def test_equality_is_by_contents(self, e1_pair):
        clone = make([[1, 0], [0, 0]], [[0, 1], [1, 0]])
        assert clone == e1_pair
        assert make([[1, 0], [0, 0]], [[0, 1], [0, 1]]) != e1_pair
        assert repr(e1_pair) == "DecompositionPair(n=2, m=2)"
        # __eq__ leaves a non-pair to the other operand, so they differ
        assert e1_pair.__eq__((2, 2)) is NotImplemented
        assert e1_pair != (2, 2)


class TestValidate:
    def test_valid_pair(self, e1_pair):
        assert validate(e1_pair) == ()

    def test_all_violations_reported(self):
        pair = make([[1, 1], [0, 0]], [[1, 0], [0, 0]])
        assert validate(pair) == (
            Violation(condition="disjointness", row=1, column=1),
            Violation(condition="pair-nonempty", row=2, column=None),
        )

    def test_coverage_violation(self):
        pair = make([[1, 0]], [[0, 0]])
        assert Violation(condition="coverage", row=None, column=2) in validate(pair)

    @given(decomposition_pairs())
    @settings(max_examples=60, deadline=None)
    def test_generated_pairs_validate(self, pair):
        assert validate(pair) == ()


class TestColumnCounts:
    def test_e1_counts(self, e1_pair):
        counts = column_counts(e1_pair)
        assert counts.m_alpha == (1, 0)
        assert counts.m_alpha_bar == (1, 1)

    def test_e3_counts(self, e3_pair):
        counts = column_counts(e3_pair)
        assert counts.m_alpha == (2, 0, 0)
        assert counts.m_alpha_bar == (0, 1, 1)

    def test_counts_are_read_only(self, e1_pair):
        counts = column_counts(e1_pair)
        with pytest.raises(TypeError):
            counts.m_alpha[0] = 9

    @given(decomposition_pairs())
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, pair):
        counts = column_counts(pair)
        a, b = naive_column_counts(pair)
        assert counts.m_alpha == tuple(a)
        assert counts.m_alpha_bar == tuple(b)

    def test_operation_charges(self, e1_pair):
        ops = OpCounter()
        column_counts(e1_pair, ops=ops)
        # one length read and one count written per column of each matrix
        m = e1_pair.m
        assert (ops.assignments, ops.arithmetic, ops.comparisons) == (2 * m, 0, 2 * m)


class TestSwaps:
    def test_apply_swaps_exchanges_rows(self, e1_pair):
        swapped = apply_swaps(e1_pair, {1})
        assert swapped == make([[0, 1], [0, 0]], [[1, 0], [1, 0]])
        # a repeated index counts once: it does not swap the row back
        assert apply_swaps(e1_pair, [1, 1]) == swapped

    def test_empty_swap_is_identity(self, e1_pair):
        assert apply_swaps(e1_pair, set()) == e1_pair

    def test_out_of_range_swap_rejected(self, e1_pair):
        with pytest.raises(StructuralError):
            apply_swaps(e1_pair, {3})
        with pytest.raises(StructuralError):
            apply_swaps(e1_pair, {0})

    @pytest.mark.parametrize("index", [1.9, 1.0, "2", "x", None])
    def test_non_integer_swap_rejected(self, e1_pair, index):
        # no truncation of 1.9 to row 1, no parsing of "2" as row 2
        with pytest.raises(StructuralError, match="must be integers"):
            apply_swaps(e1_pair, [index])

    def test_int_like_swap_accepted(self, e1_pair):
        assert apply_swaps(e1_pair, [IntLike(2)]) == apply_swaps(e1_pair, [2])

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
        expected = all(
            any(naive_cell(pair, "alpha", i, j) for i in range(pair.n))
            for j in range(pair.m)
        )
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


# rows 1 and 2 are main vertices (column 1); row 3 is unformed and holds
# only column 2 on its second side
PLAN_TEXT = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"

INT_LIKE = IntLike(1)


class Column(IntEnum):
    ONE = 1


# (call on a fresh graph of PLAN_TEXT, exact refusal); the graph is unused
# by the constructors
WHOLE_NUMBER_REFUSALS = {
    # the calls whose own comparisons let a bool or a float through
    "pair-n-float": (lambda g: DecompositionPair(2.0, 1, [[0], [0]], [[], []]), "n must be an int, got 2.0"),
    "pair-n-bool": (lambda g: DecompositionPair(True, 1, [[0]], [[]]), "n must be an int, got True"),
    "pair-m-float": (lambda g: DecompositionPair(1, 2.0, [[0]], [[1]]), "m must be an int, got 2.0"),
    "removal-float": (lambda g: removal_procedure(g, 1.0), "start_vertex must be an int, got 1.0"),
    "extend-row-float": (lambda g: extend(g, ExtensionPlan([2.5], [1])), "plan row must be an int, got 2.5"),
    "removal-bool": (lambda g: removal_procedure(g, True), "start_vertex must be an int, got True"),
    # the sizes, each by bool, float and a value below its range
    "formula-bool": (lambda g: CnfFormula(True, [[1]]), "num_vars must be an int, got True"),
    "formula-float": (lambda g: CnfFormula(1.0, [[1]]), "num_vars must be an int, got 1.0"),
    "formula-below": (lambda g: CnfFormula(-1, []), "num_vars must be at least 0, got -1"),
    "pair-n-below": (lambda g: DecompositionPair(0, 1, [], []), "n must be at least 1, got 0"),
    "pair-m-bool": (lambda g: DecompositionPair(1, True, [[0]], [[]]), "m must be an int, got True"),
    "pair-m-below": (lambda g: DecompositionPair(1, 0, [[]], [[]]), "m must be at least 1, got 0"),
    # the indices: out of range, or a bool or a float a step would write
    "removal-below": (lambda g: removal_procedure(g, 0), "start_vertex must be at least 1, got 0"),
    "removal-above": (lambda g: removal_procedure(g, 4), "start_vertex must be at most 3, got 4"),
    "extend-row-bool": (lambda g: extend(g, ExtensionPlan([True], [2])), "plan row must be an int, got True"),
    "extend-row-below": (lambda g: extend(g, ExtensionPlan([0], [2])), "plan row must be at least 1, got 0"),
    "extend-row-above": (lambda g: extend(g, ExtensionPlan([4], [2])), "plan row must be at most 3, got 4"),
    "extend-column-float": (
        lambda g: extend(g, ExtensionPlan([3], [2.0])), "plan column must be an int, got 2.0"
    ),
    # the entries of the pair and of a plan: only an exact int is a column or
    # a row; an int subclass compares, hashes and indexes as one, as a numpy
    # integer does, and a list cannot be a dict key
    "pair-entry-bool": (
        lambda g: DecompositionPair(1, 2, [[True]], [[0]]), "alpha row 1: column True is not an integer"
    ),
    "pair-entry-int-like": (
        lambda g: DecompositionPair(1, 2, [[0]], [[INT_LIKE]]),
        f"alpha-bar row 1: column {INT_LIKE!r} is not an integer",
    ),
    "pair-entry-int-subclass": (
        lambda g: DecompositionPair(1, 2, [[Column.ONE]], [[0]]),
        f"alpha row 1: column {Column.ONE!r} is not an integer",
    ),
    "extend-row-list": (lambda g: extend(g, ExtensionPlan([[2]], [2])), "plan row must be an int, got [2]"),
    "extend-column-list": (
        lambda g: extend(g, ExtensionPlan([3], [[2]])), "plan column must be an int, got [2]"
    ),
}


def graph_state(graph):
    """Everything a refused call must leave as it was: the graph's fields,
    the trace's events and the op total."""
    fields = {k: v for k, v in vars(graph).items() if k != "trace"}
    return copy.deepcopy(fields), graph.trace.serialize(), graph.trace.ops.total


class TestWholeNumberRule:
    def test_check_int(self):
        int_like = IntLike(2)
        assert check_int("k", 3, 1, 3) == 3
        assert check_int("k", 10**30, 0) == 10**30  # no upper end
        for value, message in [
            (True, "k must be an int, got True"),
            (3.0, "k must be an int, got 3.0"),
            (int_like, f"k must be an int, got {int_like!r}"),
            (0, "k must be at least 1, got 0"),
            (4, "k must be at most 3, got 4"),
        ]:
            with pytest.raises(StructuralError) as info:
                check_int("k", value, 1, 3)
            assert str(info.value) == message and info.value.clause is None
        # the harness's callers catch ValueError and import the one rule
        assert issubclass(StructuralError, ValueError)
        assert harness.check_int is check_int

    @pytest.mark.parametrize("call, message", WHOLE_NUMBER_REFUSALS.values(), ids=WHOLE_NUMBER_REFUSALS)
    def test_refused_naming_the_argument_before_any_write(self, call, message):
        pair = pair_of(PLAN_TEXT)
        graph = find_main_vertices(pair, column_counts(pair), Trace(OpCounter()))
        before = graph_state(graph)
        with pytest.raises(StructuralError) as info:
            call(graph)
        assert str(info.value) == message
        assert graph_state(graph) == before
