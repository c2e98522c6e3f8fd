"""Removal, cleaning, incompatibility elimination, and graph extension."""
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satcover import StructuralError, apply_swaps, column_counts, solve_sat, to_decomposition
from satcover import procedures
from satcover.graph import (
    LIVE,
    REMOVED,
    UNFORMED,
    USELESS,
    PointingGraph,
    construct,
    find_main_vertices,
)
from satcover.harness import FuzzConfig, random_cnf
from satcover.instrument import OpCounter, Trace
from satcover.procedures import (
    ExtensionPlan,
    StateSnapshot,
    Unreachable,
    clean,
    eliminate_incompatibilities,
    extend,
    removal_procedure,
    swapped_alpha_counts,
)
from satcover.solver import _check_graph_invariants

from conftest import (
    E4_TEXT,
    E5_TEXT,
    clean_in_order,
    decomposition_pairs,
    formulas,
    live_edges,
    pair_of,
    reference_swapped_alpha_counts,
)


def built(text: str):
    pair = pair_of(text)
    graph = find_main_vertices(pair, column_counts(pair), Trace())
    construct(graph)
    return graph


class TestSnapshot:
    def test_capture_restore_round_trip(self):
        graph = built(E5_TEXT)
        snap = StateSnapshot.capture(graph)
        removal_procedure(graph, 2)
        assert REMOVED in graph.status
        snap.restore(graph)
        assert REMOVED not in graph.status
        assert live_edges(graph) == [(1, 2, 2), (1, 3, 2)]
        assert graph.multiplicity == [2, 0]
        assert graph.indegree == [0, 1, 1]

    def test_restore_is_independent_of_later_mutation(self):
        graph = built(E5_TEXT)
        snap = StateSnapshot.capture(graph)
        before = {
            "order": list(graph.vertex_order),
            "edges": live_edges(graph),
        }
        removal_procedure(graph, 3)
        snap.restore(graph)
        assert graph.vertex_order == before["order"]
        assert live_edges(graph) == before["edges"]

    def test_restore_empties_the_trail_and_commit_drops_it(self):
        graph = built(E5_TEXT)
        snap = StateSnapshot.capture(graph)
        removal_procedure(graph, 2)
        assert graph.trail
        snap.restore(graph)
        assert graph.trail == []
        snap = StateSnapshot.capture(graph)
        removal_procedure(graph, 2)
        snap.commit(graph)
        assert graph.trail == []
        assert graph.live_vertices() == [1, 3]

    def test_capture_refuses_a_non_empty_trail(self):
        # snapshots never nest, and a cascade run outside one leaves its
        # writes on the trail: the next capture says so instead of the next
        # construct
        why = "needs an empty undo trail: a snapshot is still open, or a cascade ran outside one"
        graph = built(E5_TEXT)
        removal_procedure(graph, 2)
        assert len(graph.trail) == 5
        with pytest.raises(StructuralError, match=f"^a snapshot {why}$"):
            StateSnapshot.capture(graph)
        graph = built(E5_TEXT)
        StateSnapshot.capture(graph)
        removal_procedure(graph, 3)
        with pytest.raises(StructuralError, match=f"^a snapshot {why}$"):
            StateSnapshot.capture(graph)

    def test_cell_count_is_the_last_charge(self):
        # capture and commit charge nothing; a restore charges one
        # assignment per trail entry it undoes, and cell_count() reads it
        pair = pair_of(E5_TEXT)
        graph = find_main_vertices(pair, column_counts(pair), Trace(OpCounter()))
        construct(graph)
        ops = graph.trace.ops
        charged = ops.total
        snap = StateSnapshot.capture(graph)
        assert snap.cell_count() == 0 and ops.total == charged
        removal_procedure(graph, 2)
        written = len(graph.trail)
        assert written > 0
        charged = ops.total
        snap.restore(graph)
        assert snap.cell_count() == written
        assert ops.total == charged + written
        snap = StateSnapshot.capture(graph)
        removal_procedure(graph, 2)
        charged = ops.total
        snap.commit(graph)
        assert snap.cell_count() == 0 and ops.total == charged


class TestRemovalProcedure:
    def test_blocked_by_last_main_vertex(self):
        graph = built("p cnf 2 2\n-1 2 0\n1 0\n")
        outcome = removal_procedure(graph, 2)
        assert not outcome.removable
        # the conjunctive ancestor chain reached the main vertex before failing
        assert outcome.removed_vertices == (2, 1)

    def test_removal_with_disjunctive_siblings_succeeds(self):
        graph = built(E5_TEXT)
        outcome = removal_procedure(graph, 2)
        assert outcome.removable
        assert outcome.removed_vertices == (2,)
        assert live_edges(graph) == [(1, 3, 2)]
        assert graph.live_targets == [0, 1]
        assert graph.multiplicity == [1, 0]

    def test_last_disjunctive_edge_recruits_ancestor(self):
        # removing vertex 3 leaves vertex 1 with one disjunctive edge on the
        # column, so removing 2 afterwards must cascade into vertex 1
        graph = built(E5_TEXT)
        removal_procedure(graph, 3)
        outcome = removal_procedure(graph, 2)
        assert not outcome.removable  # cascade hits main vertex 1 then 2' mult
        assert 1 in outcome.removed_vertices

    def test_generation_removal_on_indegree_zero(self):
        # main v1 points at v3 conjunctively; v3 has no other support, so
        # removing v1 sweeps v3 in the generation phase
        graph = built("p cnf 3 2\n1 2 0\n-1 3 0\n")
        outcome = removal_procedure(graph, 1)
        assert outcome.removable
        assert outcome.removed_vertices == (1, 3)
        assert live_edges(graph) == []

    def test_dead_start_vertex_rejected(self):
        graph = built(E5_TEXT)
        removal_procedure(graph, 3)
        with pytest.raises(StructuralError):
            removal_procedure(graph, 3)

    def test_no_vertex_removed_twice(self):
        graph = built(E4_TEXT)
        graph.trace = trace = Trace(OpCounter())
        removal_procedure(graph, 1)
        removed = [e[1][0] for e in trace.events_without_readings() if e[0] == "vertex-removed"]
        assert len(removed) == len(set(removed))


def undone_state(graph) -> dict:
    """Every graph field a restore must bring back: all but the trace, which
    keeps the attempt's events, and ``tried``, which keeps elimination's
    marks across restores."""
    return {k: v for k, v in vars(graph).items() if k not in ("trace", "tried")}


class TestUndoTrail:
    @given(formulas(max_vars=8, max_clauses=16), st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_cascades_restore_or_commit_exactly(self, formula, data):
        pair = to_decomposition(formula)[0]
        graph = find_main_vertices(pair, column_counts(pair), Trace())
        if graph is None:
            return
        construct(graph)
        for _ in range(data.draw(st.integers(1, 8), label="steps")):
            live = graph.live_vertices()
            if not live:
                break
            before = copy.deepcopy(undone_state(graph))
            snap = StateSnapshot.capture(graph)
            outcome = removal_procedure(graph, data.draw(st.sampled_from(live), label="vertex"))
            if outcome.removable and data.draw(st.booleans(), label="commit"):
                snap.commit(graph)
                _check_graph_invariants(graph)
                assert all(graph.status[v - 1] == REMOVED for v in outcome.removed_vertices)
            else:
                snap.restore(graph)
                assert undone_state(graph) == before
            assert graph.trail == []


class TestClean:
    def test_e2_blocked(self):
        graph = built("p cnf 1 2\n1 0\n-1 0\n")
        blocking = clean(graph)
        assert blocking == 1
        # failed attempt restored: the vertex is still live
        assert graph.live_vertices() == [1]

    def test_no_useless_vertices_is_a_no_op(self):
        graph = built(E5_TEXT)
        assert clean(graph) is None
        assert graph.live_vertices() == [1, 2, 3]

    def test_removes_useless_vertex(self):
        # v2 is useless (negative unit on x2) and removable (column 1 keeps v1)
        graph = built("p cnf 2 2\n1 2 0\n-2 0\n")
        assert list(graph.status) == [LIVE, USELESS]
        blocking = clean(graph)
        assert blocking is None
        assert graph.live_vertices() == [1]

    def test_order_independence_on_two_useless(self):
        # the reference loop in ascending order is clean itself; in either
        # order it ends with the same live vertices
        text = "p cnf 3 3\n1 2 3 0\n-1 0\n-2 0\n"
        graph = built(text)
        assert list(graph.status) == [USELESS, USELESS, LIVE]
        results = [(clean(graph), graph.live_vertices())]
        for order in ([1, 2], [2, 1]):
            graph = built(text)
            blocking = clean_in_order(graph, order)
            results.append((blocking, graph.live_vertices()))
        assert results == [(None, [3])] * 3


class TestSwappedCounts:
    def test_e3_counts(self):
        graph = built("p cnf 2 3\n-1 -2 0\n1 0\n2 0\n")
        assert swapped_alpha_counts(graph) == [0, 1, 1]

    def test_apply_swaps_on_live_vertices(self):
        graph = built("p cnf 2 3\n-1 -2 0\n1 0\n2 0\n")
        swapped = apply_swaps(graph.pair, graph.live_vertices())
        assert swapped.alpha_rows == ((1,), (2,))
        counts = [sum(j in row for row in swapped.alpha_rows) for j in range(swapped.m)]
        assert swapped_alpha_counts(graph) == counts

    @settings(max_examples=300, deadline=None)
    @given(decomposition_pairs(max_rows=9, max_cols=8), st.booleans(), st.data())
    def test_counts_match_a_recount_from_either_side(self, pair, swapped_side, data):
        # the counts start from alpha's when at most half the rows are live
        # and from the second side's otherwise; draw a live set on the side
        # asked for, each row of it live or useless, and make each other row
        # unformed or removed
        n = pair.n
        if swapped_side:
            live_count = data.draw(st.integers(n // 2 + 1, n), label="live rows")
        else:
            live_count = data.draw(st.integers(0, n // 2), label="live rows")
        order = data.draw(st.permutations(range(n)), label="row order")
        graph = PointingGraph(pair, column_counts(pair), Trace(OpCounter()))
        for position, i in enumerate(order):
            if position < live_count:
                graph.status[i] = data.draw(st.sampled_from([LIVE, USELESS]), label="live")
            elif data.draw(st.booleans(), label="removed"):
                graph.status[i] = REMOVED
        live = set(order[:live_count])
        swapped = live if not swapped_side else set(range(n)) - live
        before = graph.trace.ops.as_dict()
        assert swapped_alpha_counts(graph) == reference_swapped_alpha_counts(graph)
        after = graph.trace.ops.as_dict()
        # one arithmetic op per count changed: the entries of the rows swapped
        entries = sum(len(pair.alpha_rows[i]) + len(pair.bar_rows[i]) for i in swapped)
        assert after["arithmetic"] - before["arithmetic"] == entries
        assert after["comparisons"] - before["comparisons"] == n
        assert after["assignments"] - before["assignments"] == pair.m

    def test_kept_counts_match_fresh_counts_after_every_commit(self, monkeypatch):
        # eliminate computes the swapped counts and the heap of their zero
        # columns once and updates both after each committed cascade; hold
        # on to them and compare them with a fresh count at every
        # incompat-eliminated event
        fresh = swapped_alpha_counts
        fresh_heap = procedures.zero_columns
        kept = []
        heaps = []
        checks = []
        stale = []

        def recording(graph):
            kept.append(fresh(graph))
            return kept[-1]

        def recording_heap(counts):
            heaps.append(fresh_heap(counts))
            return heaps[-1]

        class CheckingTrace(Trace):
            def __init__(self, graph):
                super().__init__()
                self.graph = graph

            def emit(self, kind, *payload):
                if kind == "incompat-eliminated":
                    counts, heap = kept[-1], heaps[-1]
                    now = fresh(self.graph)
                    live = sorted({j for j in heap if counts[j] == 0})
                    checks.append(counts == now)
                    checks.append(live == [j for j, c in enumerate(now) if c == 0])
                    # a column reaches 0 at most once per call, so the heap
                    # holds stale entries but never a duplicate
                    checks.append(len(heap) == len(set(heap)))
                    stale.append(sum(1 for j in heap if counts[j]))
                super().emit(kind, *payload)

        monkeypatch.setattr(procedures, "swapped_alpha_counts", recording)
        monkeypatch.setattr(procedures, "zero_columns", recording_heap)
        cfg = FuzzConfig(
            seed=20260830,
            num_instances=400,
            var_range=(4, 14),
            clause_range=(4, 40),
            width_range=(2, 3),
        )
        for i in range(cfg.num_instances):
            formula = random_cnf(cfg, i)
            if not formula.clauses or any(not c for c in formula.clauses):
                continue
            pair, _ = to_decomposition(formula)
            graph = find_main_vertices(pair, column_counts(pair), Trace())
            if graph is None:
                continue
            construct(graph)
            if clean(graph) is None:
                graph.trace = CheckingTrace(graph)
                eliminate_incompatibilities(graph)
        assert len(checks) >= 3 * 400
        assert all(checks)
        assert sum(stale) > 0  # the pops really skip stale entries


class TestEliminate:
    def test_e3_unreachable(self):
        graph = built("p cnf 2 3\n-1 -2 0\n1 0\n2 0\n")
        graph.trace = trace = Trace()
        result = eliminate_incompatibilities(graph)
        assert result == Unreachable(1)
        # column 1 is uncovered with both live vertices 1 and 2 blocking it
        found = [p for k, p in trace.events_without_readings() if k == "incompat-found"]
        assert found == [(1, 2)]
        removed = [p for k, p in trace.events_without_readings() if k == "rp-start"]
        assert removed == [(1,), (2,)]

    def test_no_incompatibilities(self):
        graph = built(E5_TEXT)
        assert eliminate_incompatibilities(graph) is None

    def test_extension_plan_collected(self):
        graph = built(E4_TEXT)
        result = eliminate_incompatibilities(graph)
        assert result == ExtensionPlan([3], [3])

    def test_failed_attempts_restore_state(self):
        graph = built(E4_TEXT)
        before_edges = live_edges(graph)
        before_live = graph.live_vertices()
        eliminate_incompatibilities(graph)
        assert live_edges(graph) == before_edges
        assert graph.live_vertices() == before_live

    def test_tried_marks_persist(self):
        graph = built(E4_TEXT)
        eliminate_incompatibilities(graph)
        assert graph.tried == {1, 2}
        graph.trace = trace = Trace(OpCounter())
        result = eliminate_incompatibilities(graph)
        assert isinstance(result, ExtensionPlan)
        assert "rp-start" not in trace.kinds()

    def test_successful_removal_commits_and_rescans(self):
        # two all-positive unit-ish clauses make v1, v2 mains on their own
        # columns; clause 3's column goes uncovered once both swap, and
        # removing one member fixes it
        graph = built("p cnf 2 3\n1 2 0\n1 2 0\n-1 -2 0\n")
        assert eliminate_incompatibilities(graph) is None
        assert graph.live_vertices() == [2]

    @pytest.mark.parametrize("alpha", ["neg", "pos"])
    def test_no_pair_planned_twice_between_commits(self, alpha):
        # a pass pops each column once and a column's candidates are distinct
        # rows, so the plan never repeats a (row, column) pair and needs no
        # guard against one
        cfg = FuzzConfig(
            seed=20260830,
            num_instances=2000,
            var_range=(1, 14),
            clause_range=(1, 40),
            width_range=(1, 3),
        )
        planned = 0
        for i in range(cfg.num_instances):
            run = solve_sat(random_cnf(cfg, i), alpha=alpha)
            since_commit = set()
            for kind, payload in run.trace.events_without_readings():
                if kind == "incompat-eliminated":
                    since_commit.clear()
                elif kind == "extension-planned":
                    assert payload not in since_commit, (i, payload)
                    since_commit.add(payload)
                    planned += 1
        assert planned >= 10  # the corpus really plans extensions


class TestExtend:
    def test_extends_with_new_main_vertices(self):
        graph = built(E4_TEXT)
        extend(graph, eliminate_incompatibilities(graph))
        assert UNFORMED not in graph.status
        assert all(graph.main_columns)  # every vertex is main
        assert graph.main_columns[2] == [3]
        assert graph.multiplicity == [1, 1, 1]
        assert graph.vertex_order == [1, 2, 3]

    def test_empty_plan_rejected(self):
        graph = built(E4_TEXT)
        with pytest.raises(StructuralError):
            extend(graph, ExtensionPlan([], []))

    def test_formed_row_rejected(self):
        graph = built(E4_TEXT)
        with pytest.raises(StructuralError):
            extend(graph, ExtensionPlan([1], [3]))

    def test_out_of_range_row_rejected(self):
        graph = built(E4_TEXT)
        with pytest.raises(StructuralError):
            extend(graph, ExtensionPlan([9], [3]))

    # (x1 v x2)(-x1 v x3)(-x2 v -x3): rows 1 and 2 are main on column 1, row 3
    # is unformed and holds only column 2 on its second side
    PLAN_TEXT = "p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"

    def unextended(self):
        pair = pair_of(self.PLAN_TEXT)
        graph = find_main_vertices(pair, column_counts(pair), Trace())
        assert graph.main_columns == [[1], [1], []] and not graph.status[2]
        return graph

    @pytest.mark.parametrize("column", [0, 8])
    def test_out_of_range_column_rejected(self, column):
        graph = self.unextended()
        with pytest.raises(StructuralError, match=f"plan column {column} outside 1..3"):
            extend(graph, ExtensionPlan([3], [column]))
        assert graph.main_columns == [[1], [1], []] and not graph.status[2]

    def test_row_holding_no_planned_column_rejected(self):
        graph = self.unextended()
        with pytest.raises(StructuralError, match="plan row 3 holds none of the plan's columns"):
            extend(graph, ExtensionPlan([3], [1]))
        assert graph.main_columns == [[1], [1], []] and not graph.status[2]
        extend(graph, ExtensionPlan([3], [2]))
        assert graph.main_columns == [[1], [1], [2]]

    def test_plan_deduplicated(self):
        graph = built(E4_TEXT)
        extend(graph, ExtensionPlan([3, 3], [3, 3]))
        assert graph.main_columns[2] == [3]
        assert graph.multiplicity == [1, 1, 1]


class TestOneInstrument:
    def test_every_step_charges_the_counter_of_the_graph_trace(self):
        # x2 is useless (unit -2) and removable; elimination then gets stuck
        # on clause 4 and plans an extension, so all four steps do work
        pair = pair_of("p cnf 4 5\n1 0\n4 2 0\n-2 0\n3 -1 -4 0\n-2 1 3 0\n")
        graph = find_main_vertices(pair, column_counts(pair), Trace(OpCounter()))
        readings = [graph.trace.ops.total]

        def charged():
            total = graph.trace.ops.total
            assert graph.trace.events[-1][2] == total
            readings.append(total)

        construct(graph)
        charged()
        assert clean(graph) is None
        charged()
        plan = eliminate_incompatibilities(graph)
        assert isinstance(plan, ExtensionPlan)
        charged()
        extend(graph, plan)
        charged()
        assert all(a < b for a, b in zip(readings, readings[1:])), readings


def driven(formula, alpha: str):
    """Yield the graph after each of the covering loop's steps, run the way
    ``solver._run_covering`` runs them with invariant checks; nothing when
    the pair needs no graph."""
    pair, _ = to_decomposition(formula)
    if alpha == "pos":
        pair = apply_swaps(pair, range(1, pair.n + 1))
    graph = find_main_vertices(pair, column_counts(pair), Trace())
    if graph is None:
        return
    while True:
        construct(graph)
        _check_graph_invariants(graph)
        yield graph
        blocking = clean(graph)
        _check_graph_invariants(graph)
        yield graph
        if blocking is not None:
            return
        result = eliminate_incompatibilities(graph)
        _check_graph_invariants(graph)
        yield graph
        if not isinstance(result, ExtensionPlan):
            return
        extend(graph, result)
        yield graph


def kept_removals(events) -> set:
    """The vertices a trace leaves removed: every ``vertex-removed`` after a
    ``snapshot``, unless the ``restore`` that follows undid it."""
    kept, pending = set(), set()
    for kind, payload in events:
        if kind == "snapshot":
            kept |= pending
            pending = set()
        elif kind == "vertex-removed":
            pending.add(payload[0])
        elif kind == "restore":
            pending = set()
    return kept | pending


class TestGraphFacts:
    """The facts the graph state rests on instead of storing them: a vertex
    is main exactly when it has columns, ``construct`` examines a vertex once
    per solve, and a cascade removes a vertex once.  After every step a
    vertex's status is UNFORMED exactly when it is not in the formation
    order, USELESS exactly when it was marked useless and is not removed,
    and REMOVED exactly when a cascade removed it and no restore undid
    that: only a restore brings a removed vertex back."""

    @pytest.mark.parametrize("alpha", ["neg", "pos"])
    def test_facts_hold_over_fuzz_shaped_formulas(self, alpha):
        # small fuzz-shaped formulas, where elimination gets stuck and
        # extends the graph most often
        cfg = FuzzConfig(
            seed=20261020,
            num_instances=3000,
            var_range=(4, 12),
            clause_range=(4, 30),
            width_range=(1, 3),
        )
        extensions = cascades = 0
        for i in range(cfg.num_instances):
            graph = None
            for graph in driven(random_cnf(cfg, i), alpha):
                unformed, removed, useless = (
                    {v0 + 1 for v0, s in enumerate(graph.status) if s == which}
                    for which in (UNFORMED, REMOVED, USELESS)
                )
                events = graph.trace.events_without_readings()
                marked = {payload[0] for kind, payload in events if kind == "useless-marked"}
                assert set(range(1, graph.n + 1)) - unformed == set(graph.vertex_order), i
                assert useless == marked - removed, i
                assert removed == kept_removals(events), i
            if graph is None:
                continue
            events = graph.trace.events_without_readings()
            formed = [payload for kind, payload in events if kind == "vertex-formed"]
            assert len({v for v, _ in formed}) == len(formed), i
            assert sorted(v for v, _ in formed) == sorted(graph.vertex_order), i
            for v, main in formed:
                assert bool(graph.main_columns[v - 1]) == (main == 1), (i, v)
            assert not any(graph.main_columns[v0] for v0 in range(graph.n) if not graph.status[v0])
            examined = [payload[0] for kind, payload in events if kind == "vertex-examined"]
            assert len(set(examined)) == len(examined), i
            taken = set()
            for kind, payload in events:
                if kind == "rp-start":
                    taken = set()
                    cascades += 1
                elif kind == "vertex-removed":
                    assert payload[0] not in taken, (i, payload)
                    taken.add(payload[0])
            extensions += sum(kind == "extend" for kind, _ in events)
        # the corpus really extends graphs and runs cascades
        assert extensions >= 20 and cascades >= 1000, (extensions, cascades)
