"""Pointing graph: main vertex discovery and edge construction."""
import pytest
from hypothesis import given, settings

from satcover import DecompositionPair, StructuralError, column_counts, to_decomposition
from satcover.graph import (
    LIVE,
    REMOVED,
    UNFORMED,
    USELESS,
    PointingGraph,
    construct,
    find_forced_conflict_row,
    find_main_vertices,
)
from satcover.harness import FuzzConfig, random_cnf
from satcover.instrument import OpCounter, Trace
from satcover.procedures import StateSnapshot, clean, eliminate_incompatibilities, removal_procedure
from satcover.solver import _check_graph_invariants

from conftest import (
    E5_TEXT,
    decomposition_pairs,
    formulas,
    live_edges,
    naive_single_columns,
    pair_of,
    reference_in_edges,
    single_sources,
)


def single_columns(pair: DecompositionPair, i: int):
    """Row i's single columns as the graph reads them, 1-based."""
    graph = PointingGraph(pair, column_counts(pair), Trace())
    return [j0 + 1 for j0 in graph.single_columns(i - 1)]


def build(text: str, trace=None):
    pair = pair_of(text)
    return find_main_vertices(pair, column_counts(pair), trace or Trace())


def final_marked(trace):
    """The vertices ``construct`` marked final, in the order it did."""
    events = trace.events_without_readings()
    return [payload[0] for kind, payload in events if kind == "final-marked"]


class TestFindMainVertices:
    def test_e1_single_main(self, e1_pair):
        counts = column_counts(e1_pair)
        graph = find_main_vertices(e1_pair, counts, Trace())
        assert graph.vertex_order == [1]
        assert graph.main_columns == [[2], []]  # main exactly where non-empty
        assert graph.multiplicity == [0, 1]

    def test_e3_two_mains(self, e3_pair):
        counts = column_counts(e3_pair)
        graph = find_main_vertices(e3_pair, counts, Trace())
        assert graph.vertex_order == [1, 2]
        assert graph.main_columns == [[2], [3]]
        assert graph.multiplicity == [0, 1, 1]

    def test_covering_already_returns_none(self):
        pair = pair_of("p cnf 2 2\n-1 -2 0\n-1 0\n")
        trace = Trace(OpCounter())
        graph = find_main_vertices(pair, column_counts(pair), trace)
        assert graph is None
        assert trace.kinds() == ["covering-already"]

    def test_multi_column_main_vertex(self):
        # x1 is the only positive literal of both all-positive clauses
        graph = build("p cnf 2 3\n1 0\n1 0\n-1 -2 0\n")
        assert graph.main_columns[0] == [1, 2]
        assert graph.multiplicity == [1, 1, 0]

    def test_formation_order_is_by_column_then_row(self):
        trace = Trace(OpCounter())
        build("p cnf 3 2\n2 3 0\n1 2 0\n", trace)
        formed = [e for e in trace.events_without_readings() if e[0] == "vertex-formed"]
        # column 1 forms rows 2 then 3; column 2 adds row 1
        assert formed == [
            ("vertex-formed", (2, 1)),
            ("vertex-formed", (3, 1)),
            ("vertex-formed", (1, 1)),
        ]


class TestSingleColumns:
    def test_e1(self, e1_pair):
        assert single_columns(e1_pair, 1) == naive_single_columns(e1_pair, 1) == [1]
        assert single_columns(e1_pair, 2) == naive_single_columns(e1_pair, 2) == []

    def test_not_single_when_column_has_two(self, e3_pair):
        assert single_columns(e3_pair, 1) == naive_single_columns(e3_pair, 1) == []
        assert single_columns(e3_pair, 2) == naive_single_columns(e3_pair, 2) == []

    @given(formulas(max_vars=5, max_clauses=6))
    @settings(max_examples=80, deadline=None)
    def test_matches_a_naive_count(self, formula):
        pair, _ = to_decomposition(formula)
        for i in range(1, pair.n + 1):
            assert single_columns(pair, i) == naive_single_columns(pair, i)


def assert_edges_read_from_the_pair(pair: DecompositionPair) -> None:
    """Every row's out-edge labels are its naive single columns, and its
    in-edges are those of a layout built in one pass over the columns."""
    graph = PointingGraph(pair, column_counts(pair), Trace())
    expected = reference_in_edges(graph)
    for v0 in range(pair.n):
        assert [j0 + 1 for j0 in graph.single_columns(v0)] == naive_single_columns(pair, v0 + 1)
        assert graph.in_edges(v0) == expected[v0]


class TestEdgesReadFromThePair:
    @given(decomposition_pairs(max_rows=8))
    @settings(max_examples=150, deadline=None)
    def test_pairs(self, pair):
        assert_edges_read_from_the_pair(pair)

    @given(formulas(max_vars=7, max_clauses=10))
    @settings(max_examples=150, deadline=None)
    def test_reduced_formulas(self, formula):
        assert_edges_read_from_the_pair(to_decomposition(formula)[0])

    def test_wide_single_columns(self):
        # columns 1 and 3 are single (rows 1 and 8), with 7 and 5 rows on
        # the second side, so a byte lies up to 6 places past its column's
        # base, and column 3's bytes follow those of columns 1 and 2
        alpha = [[0], [1], [1], [], [], [], [], [2]]
        bar = [[], [0], [0, 2], [0, 2], [0, 2], [0, 2], [0, 1, 2], [0, 1]]
        pair = DecompositionPair(8, 3, alpha, bar)
        graph = PointingGraph(pair, column_counts(pair), Trace())
        assert graph.edge_base == [0, 7, 9, 14]
        assert graph.in_edges(6) == [(0, 5), (2, 13)]
        assert graph.in_edges(7) == [(0, 6)]
        assert_edges_read_from_the_pair(pair)


class TestConstruct:
    def test_e1_conjunctive_edge(self, e1_pair):
        trace = Trace(OpCounter())
        graph = build("p cnf 2 2\n-1 2 0\n1 0\n", trace)
        construct(graph)
        assert live_edges(graph) == [(1, 2, 1)]
        assert graph.bar_count[0] == 1  # conjunctive: one row can re-cover column 1
        assert graph.indegree == [0, 1]
        assert list(graph.status) == [LIVE, LIVE]
        assert final_marked(trace) == [2]
        assert graph.live_targets == [1, 0]

    def test_e5_disjunctive_fan_out(self):
        trace = Trace(OpCounter())
        graph = build(E5_TEXT, trace)
        construct(graph)
        assert live_edges(graph) == [(1, 2, 2), (1, 3, 2)]
        assert graph.bar_count[1] == 2  # disjunctive: two rows can re-cover column 2
        assert graph.live_targets == [0, 2]
        assert graph.indegree == [0, 1, 1]
        # row 3 was formed by the edge, not as a main vertex
        assert list(graph.status) == [LIVE] * 3
        assert graph.main_columns[2] == []
        assert final_marked(trace) == [2, 3]

    def test_e2_useless_vertex(self, e2_pair):
        graph = build("p cnf 1 2\n1 0\n-1 0\n")
        construct(graph)
        assert list(graph.status) == [USELESS]
        assert live_edges(graph) == []

    def test_vertices_examined_once(self):
        graph = build(E5_TEXT, Trace(OpCounter()))
        added = construct(graph)
        examined = [e for e in graph.trace.kinds() if e == "vertex-examined"]
        assert len(examined) == 3
        # a second pass finds nothing new and examines nobody again
        graph.trace = Trace(graph.trace.ops)
        added2 = construct(graph)
        assert not added2
        assert "vertex-examined" not in graph.trace.kinds()

    def test_open_snapshot_refused(self):
        # the walk never goes back over a removed vertex, and a restore could
        # bring one back, so construct waits for the snapshot to close
        graph = build(E5_TEXT, Trace(OpCounter()))
        construct(graph)
        snap = StateSnapshot.capture(graph)
        removal_procedure(graph, 2)
        with pytest.raises(StructuralError, match="^construct needs an empty undo trail: a snapshot"):
            construct(graph)
        snap.restore(graph)
        graph.trace = Trace(graph.trace.ops)
        assert not construct(graph)
        assert "vertex-examined" not in graph.trace.kinds()

    def test_a_removed_vertex_is_skipped(self):
        # rows 1 and 2 are both main on column 1, so a cascade can take row 1
        # out before the first construct; its single column 2 would otherwise
        # give it an edge to row 3
        pair = DecompositionPair(3, 2, [[1], [], []], [[0], [0], [1]])
        graph = find_main_vertices(pair, column_counts(pair), Trace(OpCounter()))
        snap = StateSnapshot.capture(graph)
        assert removal_procedure(graph, 1).removable
        snap.commit(graph)
        graph.trace = Trace(graph.trace.ops)
        assert not construct(graph)
        events = graph.trace.events_without_readings()
        assert [payload for kind, payload in events if kind == "vertex-examined"] == [(2,)]
        assert live_edges(graph) == []
        assert list(graph.status) == [REMOVED, LIVE, UNFORMED]

    def test_outgoing_columns(self):
        graph = build(E5_TEXT)
        construct(graph)
        # 0-based labels of the edges each row could create: its single
        # columns that the second matrix can re-cover
        out_cols = [
            [j0 for j0 in graph.single_columns(v0) if graph.targets[j0]] for v0 in range(graph.n)
        ]
        assert out_cols == [[1], [], []]

    @given(formulas(max_vars=5, max_clauses=6))
    @settings(max_examples=80, deadline=None)
    def test_construct_preserves_invariants(self, formula):
        if any(not c for c in formula.clauses):
            return
        pair, _ = to_decomposition(formula)
        counts = column_counts(pair)
        graph = find_main_vertices(pair, counts, Trace())
        if graph is None:
            return
        construct(graph)
        _check_graph_invariants(graph, single_sources(graph.pair))
        # every live edge leaves a column-single vertex and lands on a
        # row whose complement side holds that column
        for src, tgt, col in live_edges(graph):
            assert col in naive_single_columns(pair, src)
            assert col - 1 in pair.bar_rows[tgt - 1]


class TestShortcuts:
    def test_forced_conflict_row(self, e1_pair, e2_pair, e3_pair):
        assert find_forced_conflict_row(e1_pair, column_counts(e1_pair)) is None
        assert find_forced_conflict_row(e2_pair, column_counts(e2_pair)) == 1
        assert find_forced_conflict_row(e3_pair, column_counts(e3_pair)) is None

    def test_forced_conflict_needs_both_halves(self, e1_pair):
        # E1 row 1 is alone on column 1's alpha side and on column 2's
        # second side, yet E1 has a covering: singleness alone forces nothing
        counts = column_counts(e1_pair)
        assert single_columns(e1_pair, 1) == [1]
        assert e1_pair.bar_cols[1] == (0,)
        assert find_forced_conflict_row(e1_pair, counts) is None
        # row 1 alone covers column 1 (nothing can re-cover it) and alone
        # can cover column 2 (nothing covers it unswapped)
        both = DecompositionPair(2, 3, [[0], [2]], [[1], []])
        assert find_forced_conflict_row(both, column_counts(both)) == 1
        # once row 2 covers column 2 on the alpha side, row 1 need not swap
        stay_only = DecompositionPair(2, 3, [[0], [1, 2]], [[1], []])
        assert find_forced_conflict_row(stay_only, column_counts(stay_only)) is None
        # once row 2 can re-cover column 1, row 1 may swap
        swap_only = DecompositionPair(2, 3, [[0], [2]], [[1], [0]])
        assert find_forced_conflict_row(swap_only, column_counts(swap_only)) is None


def _cells(value) -> int:
    """Entries held by a field, nested containers (value classes are
    NamedTuples) included."""
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, (list, tuple, set)):
        return len(value) + sum(_cells(item) for item in value)
    return 1


class TestStateSize:
    def test_no_field_is_n_by_n_or_n_by_m(self):
        # every field holds O(n + m + N) entries, far below n * n = 40,000
        cfg = FuzzConfig(
            seed=7, num_instances=1, var_range=(200, 200), clause_range=(800, 800),
            width_range=(3, 3),
        )
        pair, _ = to_decomposition(random_cnf(cfg, 0))
        n, m = pair.n, pair.m
        assert (n, m) == (200, 800)
        graph = find_main_vertices(pair, column_counts(pair), Trace())
        construct(graph)
        if clean(graph) is None:
            eliminate_incompatibilities(graph)
        assert live_edges(graph)
        sizes = {name: _cells(value) for name, value in vars(graph).items()}
        assert max(sizes.values()) < n * n, sizes
