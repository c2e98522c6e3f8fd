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

from itertools import accumulate
from typing import List, Optional, Set

import numpy as np

from .decomposition import ColumnCounts, DecompositionPair, StructuralError
from .instrument import DISABLED_OPS, NO_TRACE


class PointingGraph:
    """All bookkeeping for one solve over a fixed decomposition pair.

    ``pair`` and ``counts`` are the pair and its column counts; every
    procedure reads them from here.  ``tried`` holds the vertices whose
    removal elimination has attempted, once per whole solve.

    Mutable state (vertex ids 1-based, stored 0-based internally):
      vertex_order   formation order of vertices (rows), append-only
      formed/removed/main/useless/examined/final   per-vertex flags
      main_columns   per-vertex list of associated columns (main vertices)
      indegree       per-vertex count of live incoming edges
      multiplicity   per-column count of live main vertices associated with it
      edge_live      one byte per nonzero of alpha-bar, column-major:
                     1 while the edge into that row labelled that column is
                     live; column j's bytes start at ``edge_base[j]``
      live_targets   per-column count of live edges labelled with it

    Static, precomputed once from the pair and its counts (0-based):
      targets        ``pair.bar_cols``: the rows an edge labelled j can reach
      bar_count      per-column count of the second matrix, as a list
      edge_base      per-column offset into ``edge_live`` (m + 1 entries)
      col_single_row the unique alpha-side row per single column, 1-based
                     (0 = not single)
      single_cols    per-row ascending single columns
      out_cols       per-row single columns that the second matrix can
                     re-cover: the labels of the row's possible out-edges
      in_slots       per-row (column, edge byte) of every possible in-edge,
                     ascending by column

    ``main_column_total`` counts the entries of ``main_columns``.  ``trail``
    is the undo log of removal cascades: (array, index, old value) per write,
    appended before the write, so popping it back to a mark restores the
    state the mark was taken in (see ``procedures.StateSnapshot``).
    """

    def __init__(self, pair: DecompositionPair, counts: ColumnCounts):
        n, m = pair.n, pair.m
        self.n = n
        self.m = m
        self.pair = pair
        self.counts = counts
        self.tried: Set[int] = set()
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
        self.trail: List[tuple] = []

        self.targets = pair.bar_cols
        self.bar_count: List[int] = self.counts.m_alpha_bar.tolist()
        self.edge_base: List[int] = list(accumulate(map(len, self.targets), initial=0))
        self.edge_live = bytearray(self.edge_base[m])
        self.live_targets: List[int] = [0] * m
        self.col_single_row: List[int] = [0] * m
        self.single_cols: List[List[int]] = [[] for _ in range(n)]
        self.out_cols: List[List[int]] = [[] for _ in range(n)]
        self.in_slots: List[List[tuple]] = [[] for _ in range(n)]
        for j0 in np.flatnonzero(self.counts.m_alpha == 1).tolist():
            q0 = pair.alpha_cols[j0][0]
            self.col_single_row[j0] = q0 + 1
            self.single_cols[q0].append(j0)
            if self.targets[j0]:
                self.out_cols[q0].append(j0)
                base = self.edge_base[j0]
                for k, r0 in enumerate(self.targets[j0]):
                    self.in_slots[r0].append((j0, base + k))

    # -- read helpers -----------------------------------------------------

    def live(self, vertex: int) -> bool:
        return bool(self.formed[vertex - 1] and not self.removed[vertex - 1])

    def live_vertices(self) -> List[int]:
        mask = self.formed & ~self.removed
        return [int(i) + 1 for i in np.nonzero(mask)[0]]

    def live_edges(self) -> List[tuple]:
        """All live edges as (source, target, column), sorted."""
        out = []
        for j0, source in enumerate(self.col_single_row):
            if source:
                base = self.edge_base[j0]
                for k, t0 in enumerate(self.targets[j0]):
                    if self.edge_live[base + k]:
                        out.append((source, t0 + 1, j0 + 1))
        out.sort()
        return out


# ---------------------------------------------------------------------------
# pure queries
# ---------------------------------------------------------------------------

def single_columns(pair: DecompositionPair, counts: ColumnCounts, i: int) -> List[int]:
    """Columns whose only alpha-side 1 sits in row i, ascending."""
    if not 1 <= i <= pair.n:
        raise StructuralError(f"row {i} outside 1..{pair.n}")
    return [j + 1 for j in pair.alpha_rows[i - 1] if counts.m_alpha[j] == 1]


def find_forced_conflict_row(pair: DecompositionPair, counts: ColumnCounts) -> Optional[int]:
    """Find a row that provably must be swapped and must not be swapped.

    Row i qualifies when (a) some column is covered only by row i on the
    alpha side and by nothing on the other side (so swapping i can never be
    repaired), and (b) some column is covered by nothing on the alpha side
    and only by row i on the other side (so not swapping i leaves it bare).
    Such a row rules out every covering.  Returns the smallest such row, or
    None.
    """
    must_stay = ((counts.m_alpha == 1) & (counts.m_alpha_bar == 0)).tolist()
    must_swap = ((counts.m_alpha == 0) & (counts.m_alpha_bar == 1)).tolist()
    for i, (alpha, bar) in enumerate(zip(pair.alpha_rows, pair.bar_rows)):
        if any(must_stay[j] for j in alpha) and any(must_swap[j] for j in bar):
            return i + 1
    return None


# ---------------------------------------------------------------------------
# graph building
# ---------------------------------------------------------------------------

def find_main_vertices(
    pair: DecompositionPair,
    counts: ColumnCounts,
    *,
    ops=DISABLED_OPS,
    trace=NO_TRACE,
) -> Optional[PointingGraph]:
    """Form the root vertices from the uncovered columns of alpha.

    Returns None when no column is uncovered (the pair is already a covering
    as it stands); otherwise the initialized graph.  Vertices are appended in
    ascending (column, row) order of first appearance.
    """
    ops.cmp(pair.m)
    zero_cols = np.flatnonzero(counts.m_alpha == 0).tolist()
    if not zero_cols:
        trace.emit("covering-already")
        return None
    graph = PointingGraph(pair, counts)
    for j0 in zero_cols:
        ops.cmp(pair.n)
        for r0 in pair.bar_cols[j0]:
            if not graph.formed[r0]:
                graph.formed[r0] = True
                graph.main[r0] = True
                graph.vertex_order.append(r0 + 1)
                ops.assign(3)
                trace.emit("vertex-formed", r0 + 1, 1)
            graph.main_columns[r0].append(j0 + 1)
            graph.main_column_total += 1
            graph.multiplicity[j0] += 1
            ops.arith(1)
            ops.assign(1)
    return graph


def construct(graph: PointingGraph, *, ops=DISABLED_OPS, trace=NO_TRACE) -> bool:
    """Explore formed vertices once each, creating edges and new vertices.

    Walks the formation order, skipping vertices already examined or removed.
    For each single column of the vertex under examination: if no row can
    re-cover it the vertex is marked useless and its remaining columns are
    skipped; otherwise an edge is created to every live candidate row,
    forming rows not yet in the graph.  Previously removed rows are never
    re-formed and never receive edges.  Returns True iff any vertex or edge
    was added.  The work is O(degree) per examined vertex; the op charges
    are those of the dense scans (m cells per singleness check, n per
    candidate column).
    """
    g = graph
    formed, removed, indegree = g.formed, g.removed, g.indegree
    added = False
    idx = 0
    while idx < len(g.vertex_order):
        q = g.vertex_order[idx]
        idx += 1
        q0 = q - 1
        ops.cmp(1)
        if g.examined[q0] or removed[q0]:
            continue
        g.examined[q0] = True
        ops.assign(1)
        trace.emit("vertex-examined", q)
        singles = g.single_cols[q0]
        ops.cmp(g.m)
        if not singles:
            g.final[q0] = True
            ops.assign(1)
            trace.emit("final-marked", q)
            continue
        for j0 in singles:
            ops.cmp(1)
            if g.bar_count[j0] == 0:
                g.useless[q0] = True
                ops.assign(1)
                trace.emit("useless-marked", q, j0 + 1)
                break  # remaining columns of q are not processed
            conjunctive = g.bar_count[j0] == 1
            base = g.edge_base[j0]
            ops.cmp(g.n)
            for k, r0 in enumerate(g.targets[j0]):
                r = r0 + 1
                ops.cmp(1)
                if removed[r0]:
                    continue
                if not formed[r0]:
                    formed[r0] = True
                    g.vertex_order.append(r)
                    ops.assign(2)
                    trace.emit("vertex-formed", r, 0)
                g.edge_live[base + k] = 1
                g.live_targets[j0] += 1
                indegree[r0] += 1
                ops.arith(2)
                ops.assign(1)
                if not conjunctive:
                    ops.arith(1)
                trace.emit("edge-formed", q, r, j0 + 1, 1 if conjunctive else 0)
                added = True
    trace.emit("construct-result", 1 if added else 0)
    return added
