"""The pointing graph: replacement steps and the dependencies between them.

Vertices are decomposition rows whose swap is under consideration.  The roots
("main" vertices) come from columns that the alpha matrix leaves uncovered:
every row whose second component contains such a column is formed as a main
vertex.  When a formed row q holds the only alpha-side 1 of some column j,
swapping q vacates j, so an edge runs from q to every row whose second
component can re-cover j.  The edge is conjunctive when that row is the only
candidate for j, disjunctive otherwise.  A vertex with a vacated column that
no row can re-cover is useless; a vertex with no single columns is final.

Singleness is always judged against the original pair and its counts; the
matrices themselves never change during a solve.
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np

from .decomposition import (
    ColumnCounts,
    DecompositionPair,
    StructuralError,
    column_counts,
)
from .instrument import DISABLED_OPS, NO_TRACE


class PointingGraph:
    """All bookkeeping for one solve over a fixed decomposition pair.

    Arrays (all 1-based ids, stored 0-based internally):
      vertex_order   formation order of vertices (rows), append-only
      formed/removed/main/useless/examined/final   per-vertex flags
      main_columns   per-vertex list of associated columns (main vertices)
      indegree       per-vertex count of live incoming edges
      multiplicity   per-column count of live main vertices associated with it
      graph_edges    n x n parallel-edge counts between vertex pairs
      edge_in        m x n: edge_in[j][i] = source row of the live edge into
                     vertex i labeled with column j (0 = none)
      dis_edges      n x m count of live disjunctive edges out of a vertex,
                     per label column

    ``main_column_total`` counts the entries of ``main_columns``.  ``trail``
    is the undo log of removal cascades: (array, index, old value) per write,
    appended before the write, so popping it back to a mark restores the
    state the mark was taken in (see ``procedures.StateSnapshot``).
    """

    def __init__(self, pair: DecompositionPair, counts: Optional[ColumnCounts] = None):
        n, m = pair.n, pair.m
        self.n = n
        self.m = m
        self.counts = counts if counts is not None else column_counts(pair)
        self.vertex_order: List[int] = []
        self.formed = np.zeros(n, dtype=bool)
        self.removed = np.zeros(n, dtype=bool)
        self.main = np.zeros(n, dtype=bool)
        self.useless = np.zeros(n, dtype=bool)
        self.examined = np.zeros(n, dtype=bool)
        self.final = np.zeros(n, dtype=bool)
        self.main_columns: List[List[int]] = [[] for _ in range(n)]
        self.main_column_total = 0
        self.indegree = np.zeros(n, dtype=np.int64)
        self.multiplicity = np.zeros(m, dtype=np.int64)
        self.graph_edges = np.zeros((n, n), dtype=np.int32)
        self.edge_in = np.zeros((m, n), dtype=np.int32)
        self.dis_edges = np.zeros((n, m), dtype=np.int32)
        self.trail: List[tuple] = []
        # static: the unique alpha-side row per single column (0 = not single)
        single = self.counts.m_alpha == 1
        self._col_single_row = np.where(
            single, pair.sm_alpha.argmax(axis=0) + 1, 0
        ).astype(np.int32)

    # -- read helpers -----------------------------------------------------

    def edge_is_conjunctive(self, column: int) -> bool:
        """Edges labeled with this column are conjunctive iff it has exactly
        one 1 in the second matrix."""
        return int(self.counts.m_alpha_bar[column - 1]) == 1

    def live(self, vertex: int) -> bool:
        return bool(self.formed[vertex - 1] and not self.removed[vertex - 1])

    def live_vertices(self) -> List[int]:
        mask = self.formed & ~self.removed
        return [int(i) + 1 for i in np.nonzero(mask)[0]]

    def live_edge_count(self) -> int:
        return int(self.graph_edges.sum())

    def live_edges(self) -> List[tuple]:
        """All live edges as (source, target, column), sorted."""
        out = []
        cols, targets = np.nonzero(self.edge_in)
        for j0, i0 in zip(cols, targets):
            out.append((int(self.edge_in[j0, i0]), int(i0) + 1, int(j0) + 1))
        out.sort()
        return out

    def outgoing_columns(self, vertex: int) -> List[int]:
        """Columns this vertex could have created edges for (static)."""
        cols = np.nonzero(self._col_single_row == vertex)[0]
        return [int(j) + 1 for j in cols if self.counts.m_alpha_bar[j] > 0]


# ---------------------------------------------------------------------------
# pure queries
# ---------------------------------------------------------------------------

def single_columns(pair: DecompositionPair, counts: ColumnCounts, i: int) -> List[int]:
    """Columns whose only alpha-side 1 sits in row i, ascending."""
    if not 1 <= i <= pair.n:
        raise StructuralError(f"row {i} outside 1..{pair.n}")
    mask = (pair.sm_alpha[i - 1] == 1) & (counts.m_alpha == 1)
    return [int(j) + 1 for j in np.nonzero(mask)[0]]


def both_single_shortcut(
    pair: DecompositionPair, i: int, counts: Optional[ColumnCounts] = None
) -> bool:
    """True iff row i is single on the alpha side for some column and its
    second component is single on the other side for some column.

    Advisory only: the condition can hold on instances that do have a
    covering, so the driver never concludes anything from this predicate
    alone (see ``find_forced_conflict_row`` for the strengthening it uses).
    """
    if counts is None:
        counts = column_counts(pair)
    if not 1 <= i <= pair.n:
        raise StructuralError(f"row {i} outside 1..{pair.n}")
    alpha_single = bool(((pair.sm_alpha[i - 1] == 1) & (counts.m_alpha == 1)).any())
    bar_single = bool(
        ((pair.sm_alpha_bar[i - 1] == 1) & (counts.m_alpha_bar == 1)).any()
    )
    return alpha_single and bar_single


def find_forced_conflict_row(
    pair: DecompositionPair, counts: Optional[ColumnCounts] = None
) -> Optional[int]:
    """Find a row that provably must be swapped and must not be swapped.

    Row i qualifies when (a) some column is covered only by row i on the
    alpha side and by nothing on the other side (so swapping i can never be
    repaired), and (b) some column is covered by nothing on the alpha side
    and only by row i on the other side (so not swapping i leaves it bare).
    Such a row rules out every covering.  Returns the smallest such row, or
    None.
    """
    if counts is None:
        counts = column_counts(pair)
    must_stay = (counts.m_alpha == 1) & (counts.m_alpha_bar == 0)
    must_swap = (counts.m_alpha == 0) & (counts.m_alpha_bar == 1)
    for i in range(1, pair.n + 1):
        stay = bool((pair.sm_alpha[i - 1][must_stay] == 1).any()) if must_stay.any() else False
        swap = bool((pair.sm_alpha_bar[i - 1][must_swap] == 1).any()) if must_swap.any() else False
        if stay and swap:
            return i
    return None


# ---------------------------------------------------------------------------
# graph building
# ---------------------------------------------------------------------------

def find_main_vertices(
    pair: DecompositionPair,
    counts: Optional[ColumnCounts] = None,
    *,
    ops=DISABLED_OPS,
    trace=NO_TRACE,
) -> Optional[PointingGraph]:
    """Form the root vertices from the uncovered columns of ``sm_alpha``.

    Returns None when no column is uncovered (the pair is already a covering
    as it stands); otherwise the initialized graph.  Vertices are appended in
    ascending (column, row) order of first appearance.
    """
    if counts is None:
        counts = column_counts(pair)
    ops.cmp(pair.m)
    zero_cols = np.nonzero(counts.m_alpha == 0)[0]
    if zero_cols.size == 0:
        trace.emit("covering-already")
        return None
    graph = PointingGraph(pair, counts)
    for j0 in zero_cols:
        rows = np.nonzero(pair.sm_alpha_bar[:, j0])[0]
        ops.cmp(pair.n)
        for r0 in rows:
            r = int(r0) + 1
            if not graph.formed[r0]:
                graph.formed[r0] = True
                graph.main[r0] = True
                graph.vertex_order.append(r)
                ops.assign(3)
                trace.emit("vertex-formed", r, 1)
            graph.main_columns[r0].append(int(j0) + 1)
            graph.main_column_total += 1
            graph.multiplicity[j0] += 1
            ops.arith(1)
            ops.assign(1)
    return graph


def construct(
    graph: PointingGraph,
    pair: DecompositionPair,
    *,
    ops=DISABLED_OPS,
    trace=NO_TRACE,
) -> bool:
    """Explore formed vertices once each, creating edges and new vertices.

    Walks the formation order, skipping vertices already examined or removed.
    For each single column of the vertex under examination: if no row can
    re-cover it the vertex is marked useless and its remaining columns are
    skipped; otherwise an edge is created to every live candidate row,
    forming rows not yet in the graph.  Previously removed rows are never
    re-formed and never receive edges.  Returns True iff any vertex or edge
    was added.
    """
    counts = graph.counts
    added = False
    idx = 0
    while idx < len(graph.vertex_order):
        q = graph.vertex_order[idx]
        idx += 1
        q0 = q - 1
        ops.cmp(1)
        if graph.examined[q0] or graph.removed[q0]:
            continue
        graph.examined[q0] = True
        ops.assign(1)
        trace.emit("vertex-examined", q)
        singles = single_columns(pair, counts, q)
        ops.cmp(pair.m)
        if not singles:
            graph.final[q0] = True
            ops.assign(1)
            trace.emit("final-marked", q)
            continue
        for j in singles:
            j0 = j - 1
            ops.cmp(1)
            if counts.m_alpha_bar[j0] == 0:
                graph.useless[q0] = True
                ops.assign(1)
                trace.emit("useless-marked", q, j)
                break  # remaining columns of q are not processed
            conjunctive = graph.edge_is_conjunctive(j)
            targets = np.nonzero(pair.sm_alpha_bar[:, j0])[0]
            ops.cmp(pair.n)
            for r0 in targets:
                r = int(r0) + 1
                ops.cmp(1)
                if graph.removed[r0]:
                    continue
                if not graph.formed[r0]:
                    graph.formed[r0] = True
                    graph.vertex_order.append(r)
                    ops.assign(2)
                    trace.emit("vertex-formed", r, 0)
                graph.graph_edges[q0, r0] += 1
                graph.indegree[r0] += 1
                graph.edge_in[j0, r0] = q
                ops.arith(2)
                ops.assign(1)
                if not conjunctive:
                    graph.dis_edges[q0, j0] += 1
                    ops.arith(1)
                trace.emit("edge-formed", q, r, j, 1 if conjunctive else 0)
                added = True
    trace.emit("construct-result", 1 if added else 0)
    return added
