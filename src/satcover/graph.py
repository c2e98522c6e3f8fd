"""The pointing graph: replacement steps and the dependencies between them.

Vertices are decomposition rows whose swap is under consideration.  The roots
("main" vertices) come from columns that the alpha matrix leaves uncovered:
every row whose second component contains such a column is formed as a main
vertex.  When a formed row q holds the only alpha-side 1 of some column j,
swapping q vacates j, so an edge runs from q to every row whose second
component can re-cover j.  The edge is conjunctive when that row is the only
candidate for j, disjunctive otherwise.  A vertex with a vacated column that
no row can re-cover is useless; a vertex with no single columns is final.

Every edge labelled j leaves the same row, the single alpha-side owner of j,
and lands on a row of ``pair.bar_cols[j]``.  So an edge is a nonzero of the
second matrix, and the graph state is a live bit per such nonzero plus
counters: O(N) for N ones, never n x n or n x m.

Singleness is always judged against the original pair and its counts; the
pair itself never changes during a solve.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, islice
from typing import List, Optional, Set

from .decomposition import ColumnCounts, DecompositionPair, StructuralError
from .instrument import Trace

# a vertex's status: formed vertices are never UNFORMED again, and only a
# restore brings a REMOVED one back to LIVE or USELESS
UNFORMED, REMOVED, LIVE, USELESS = 0, 1, 2, 3
# why a snapshot or ``construct`` refuses a graph whose undo trail is not empty
TRAIL_IN_USE = "needs an empty undo trail: a snapshot is still open, or a cascade ran outside one"


class PointingGraph:
    """All bookkeeping for one solve over a fixed decomposition pair.

    ``pair`` and ``counts`` are the pair and its column counts, ``trace``
    the solve's event log and ``trace.ops`` its op counter; every procedure
    reads them from here.  ``tried`` holds the vertices whose removal
    elimination has attempted, once per whole solve.

    Mutable state, all plain Python lists and bytearrays (vertex ids
    1-based, stored 0-based internally):
      vertex_order   formation order of vertices (rows), append-only
      examined       how far ``construct`` has walked ``vertex_order``:
                     every vertex before it is examined or was removed
      status         one byte per vertex: UNFORMED until it is formed, then
                     LIVE, USELESS once ``construct`` marks it useless (still
                     live), REMOVED once a cascade takes it out
      main_columns   per-vertex associated columns, non-empty on main vertices
      indegree       per-vertex int list: count of live incoming edges
      multiplicity   per-column int list: count of live main vertices
                     associated with the column
      edge_live      one byte per nonzero of alpha-bar, column-major:
                     1 while the edge into that row labelled that column is
                     live; column j's bytes start at ``edge_base[j]``
      live_targets   per-column int list: count of live edges labelled with
                     the column

    Static, precomputed once from the pair and its counts (0-based):
      targets        ``pair.bar_cols``: the rows an edge labelled j can reach
      bar_count      per-column count of the second matrix: the counts' tuple
      edge_base      per-column offset into ``edge_live`` (m + 1 entries):
                     the edge labelled j into row r is byte ``edge_base[j]``
                     plus r's rank in ``targets[j]``

    No table restates the pair per row: ``single_columns`` and ``in_edges``
    read a row's possible out- and in-edges from its alpha and second-side
    columns, keeping those whose alpha count is 1.

    ``trail`` is the undo log of removal cascades: (array, index, old value)
    per write, appended before the write, so undoing it restores the state
    it was empty in (see ``procedures.StateSnapshot``).
    """

    def __init__(self, pair: DecompositionPair, counts: ColumnCounts, trace: Trace):
        n, m = pair.n, pair.m
        self.n = n
        self.m = m
        self.pair = pair
        self.counts = counts
        self.trace = trace
        self.tried: Set[int] = set()
        self.vertex_order: List[int] = []
        self.status = bytearray(n)
        self.examined = 0
        self.main_columns: List[List[int]] = [[] for _ in range(n)]
        self.indegree: List[int] = [0] * n
        self.multiplicity: List[int] = [0] * m
        self.trail: List[tuple] = []

        self.targets = pair.bar_cols
        self.bar_count = counts.m_alpha_bar
        self.edge_base: List[int] = list(accumulate(self.bar_count, initial=0))
        self.edge_live = bytearray(self.edge_base[m])
        self.live_targets: List[int] = [0] * m
        trace.ops.assign(m + 1)  # the edge offsets

    # -- read helpers -----------------------------------------------------

    def live_vertices(self) -> List[int]:
        """Formed and not removed vertices, ascending: the rows to swap."""
        return [i + 1 for i, s in enumerate(self.status) if s >= LIVE]

    def single_columns(self, v0: int) -> List[int]:
        """Row ``v0``'s out-edge labels, ascending; charges the counts read."""
        row, m_alpha = self.pair.alpha_rows[v0], self.counts.m_alpha
        self.trace.ops.cmp(len(row))
        return [j0 for j0 in row if m_alpha[j0] == 1]

    def in_edges(self, v0: int) -> List[tuple]:
        """Row ``v0``'s possible in-edges as (column, edge byte), ascending;
        charges the counts read.  Bisection finds a byte in O(log k)."""
        row, m_alpha = self.pair.bar_rows[v0], self.counts.m_alpha
        base, targets = self.edge_base, self.targets
        self.trace.ops.cmp(len(row))
        return [(j0, base[j0] + bisect_left(targets[j0], v0)) for j0 in row if m_alpha[j0] == 1]


# ---------------------------------------------------------------------------
# pure queries
# ---------------------------------------------------------------------------

def find_forced_conflict_row(pair: DecompositionPair, counts: ColumnCounts) -> Optional[int]:
    """Find a row that provably must be swapped and must not be swapped.

    Row i qualifies when (a) some column is covered only by row i on the
    alpha side and by nothing on the other side (so swapping i can never be
    repaired), and (b) some column is covered by nothing on the alpha side
    and only by row i on the other side (so not swapping i leaves it bare).
    Such a row rules out every covering.  Returns the smallest such row, or
    None.
    """
    must_stay = [a == 1 and b == 0 for a, b in zip(counts.m_alpha, counts.m_alpha_bar)]
    must_swap = [a == 0 and b == 1 for a, b in zip(counts.m_alpha, counts.m_alpha_bar)]
    for i, (alpha, bar) in enumerate(zip(pair.alpha_rows, pair.bar_rows)):
        if any(must_stay[j] for j in alpha) and any(must_swap[j] for j in bar):
            return i + 1
    return None


# ---------------------------------------------------------------------------
# graph building
# ---------------------------------------------------------------------------

def find_main_vertices(
    pair: DecompositionPair, counts: ColumnCounts, trace: Trace
) -> Optional[PointingGraph]:
    """Form the root vertices from the uncovered columns of alpha.

    Returns None when no column is uncovered (the pair is already a covering
    as it stands); otherwise the initialized graph, holding ``trace`` for
    every later step.  Vertices are appended in ascending (column, row)
    order of first appearance.
    """
    ops = trace.ops
    ops.cmp(pair.m)
    zero_cols = [j for j, c in enumerate(counts.m_alpha) if not c]
    if not zero_cols:
        trace.emit("covering-already")
        return None
    graph = PointingGraph(pair, counts, trace)
    status, main_columns = graph.status, graph.main_columns
    for j0 in zero_cols:
        rows = pair.bar_cols[j0]
        fresh = [r0 for r0 in rows if not status[r0]]
        # the statuses; two writes per new vertex, a column entry per row, the multiplicity
        ops.cmp(len(rows))
        ops.assign(2 * len(fresh) + len(rows) + 1)
        for r0 in fresh:
            status[r0] = LIVE
            graph.vertex_order.append(r0 + 1)
            trace.emit("vertex-formed", r0 + 1, 1)
        for r0 in rows:
            main_columns[r0].append(j0 + 1)
        graph.multiplicity[j0] = len(rows)
    return graph


def construct(graph: PointingGraph) -> bool:
    """Explore formed vertices once each, creating edges and new vertices.

    Walks the formation order on from ``graph.examined``, where the last call
    stopped, skipping removed vertices.  Only a restore brings a removed
    vertex back, so a graph with a non-empty ``trail`` (an open snapshot, or
    a cascade run outside one) is refused.  For each single column of the
    vertex under examination: if no row can re-cover it the vertex is
    marked useless and its remaining columns are skipped; otherwise an edge
    is created to every live candidate row (useless ones included), forming
    rows not yet in the graph.  Previously removed rows are never re-formed
    and never receive edges.  Returns True iff any vertex or edge was added.
    The work, and the charge, is O(degree) per examined vertex.
    """
    g = graph
    if g.trail:
        raise StructuralError(f"construct {TRAIL_IN_USE}")
    status, indegree = g.status, g.indegree
    order, targets, bar_count = g.vertex_order, g.targets, g.bar_count
    edge_base, edge_live, live_targets = g.edge_base, g.edge_live, g.live_targets
    ops, emit = g.trace.ops, g.trace.emit
    added = False
    start = g.examined
    for q in islice(order, start, None):  # grows while it is walked
        q0 = q - 1
        if status[q0] == REMOVED:
            continue
        emit("vertex-examined", q)
        singles = g.single_columns(q0)
        if not singles:
            emit("final-marked", q)
            continue
        reads = edges = writes = 0
        for j0 in singles:
            reads += 1
            if bar_count[j0] == 0:
                status[q0] = USELESS
                writes += 1
                emit("useless-marked", q, j0 + 1)
                break  # remaining columns of q are not processed
            conjunctive = 1 if bar_count[j0] == 1 else 0
            j = j0 + 1
            reads += len(targets[j0])
            for edge, r0 in enumerate(targets[j0], edge_base[j0]):
                was = status[r0]
                if was == REMOVED:
                    continue
                r = r0 + 1
                if not was:
                    status[r0] = LIVE
                    order.append(r)
                    writes += 2
                    emit("vertex-formed", r, 0)
                edge_live[edge] = 1
                live_targets[j0] += 1
                indegree[r0] += 1
                edges += 1
                emit("edge-formed", q, r, j, conjunctive)
        # the columns and rows read; per edge its byte, live-target count and
        # indegree; a useless mark, two writes per new vertex
        ops.cmp(reads)
        ops.arith(2 * edges)
        ops.assign(edges + writes)
        added = added or edges > 0  # a vertex is only formed with an edge into it
    g.examined = len(order)
    ops.cmp(g.examined - start)  # each vertex's status, once per solve
    ops.assign(1)  # the cursor
    emit("construct-result", 1 if added else 0)
    return added
