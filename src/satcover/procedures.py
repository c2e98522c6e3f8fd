"""Graph mutation procedures: removal cascades, cleaning, incompatibility
elimination, and extension.

Removing a vertex means deciding its row will not be swapped.  The cascade
walks backwards over incoming edges (a source loses an obligatory or last
remaining follow-up and must go too: an "ancestor") and forwards over
outgoing edges (a non-root vertex whose live indegree drops to zero has lost
every justification: a "generation").  Removing the last live main vertex of
a column would leave that column uncoverable, so the whole cascade aborts as
non-removable instead.

Elimination scans uncovered columns of the swapped matrix in ascending
order, tries the cascade on each blocking vertex under a snapshot (each
vertex at most once per whole solve), and when nothing is removable collects
never-formed rows that could cover the column on the second side into an
extension plan.  It keeps the swapped column counts across commits and takes
the uncovered columns from a lazy min-heap, the way MiniSat keeps its
variable order (Een & Sorensson, "An Extensible SAT-solver", SAT 2003): a
commit pushes the columns it brings to 0, and a pop skips stale entries,
columns whose count has risen since.  Each pass still sees the columns that
were 0 when it began, in ascending order, so the scan order and trace
events are those of a full rescan of the m counts, without its O(m) cost
per commit.

A snapshot is the graph's undo trail, as in the same solver: the cascade
logs every cell it writes, so undoing a failed attempt costs what the
attempt wrote, not a copy of the whole state.
"""
from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress
from typing import Dict, List, NamedTuple, Optional, Set, Union

from .decomposition import DecompositionPair, StructuralError, check_int
from .graph import LIVE, REMOVED, TRAIL_IN_USE, USELESS, PointingGraph


class RemovalOutcome(NamedTuple):
    removable: bool
    removed_vertices: tuple  # in removal order


class ExtensionPlan(NamedTuple):
    """Rows to form as additional main vertices, with justifying columns."""

    new_main_vertices: List[int]
    columns: List[int]  # parallel to new_main_vertices


class Unreachable(NamedTuple):
    column: int


class StateSnapshot:
    """The graph's undo trail, taken empty before a removal cascade.

    Snapshots never nest: ``capture`` refuses a non-empty trail, which
    means a snapshot is still open or a cascade ran outside one.
    ``restore`` undoes the whole trail, every write the cascade made,
    whether or not it was removable; ``commit`` keeps the writes and
    empties their log.  Only removal cascades write through the trail, so
    a restore brings back the graph as it was when captured as long as
    nothing but cascades ran in between.  ``capture`` and ``restore`` emit
    a ``snapshot`` or ``restore`` trace event.  Only ``restore`` charges:
    one assignment per trail entry it undoes, kept in ``restored`` for
    ``cell_count()``.
    """

    __slots__ = ("restored",)

    def __init__(self):
        self.restored = 0

    @classmethod
    def capture(cls, graph: PointingGraph) -> "StateSnapshot":
        if graph.trail:
            raise StructuralError(f"a snapshot {TRAIL_IN_USE}")
        graph.trace.emit("snapshot")
        return cls()

    def restore(self, graph: PointingGraph) -> None:
        trail = graph.trail
        for state, index, old in reversed(trail):
            state[index] = old
        self.restored = len(trail)
        trail.clear()
        graph.trace.ops.assign(self.restored)
        graph.trace.emit("restore")

    def commit(self, graph: PointingGraph) -> None:
        graph.trail.clear()

    def cell_count(self) -> int:
        """The op charge of the snapshot's last restore, or 0 before one."""
        return self.restored


# ---------------------------------------------------------------------------
# removal cascade
# ---------------------------------------------------------------------------

def removal_procedure(graph: PointingGraph, start_vertex: int) -> RemovalOutcome:
    """Try to remove a live vertex together with its dependent cascade.

    Ancestors (sources of conjunctive or last-live-disjunctive incoming
    edges) get both their incoming and outgoing edges processed; generations
    (vertices whose live indegree reached zero) only cascade their outgoing
    edges.  Removing a main vertex while any of its associated columns has
    multiplicity 1 aborts with removable=False; the caller restores state
    when it needs the pre-call graph back.  No vertex is processed twice.
    Every write is logged on ``graph.trail`` before it is made.  A
    ``start_vertex`` that ``check_int`` refuses (1..n) or that is not live
    raises StructuralError first.

    The work is O(degree) per removed vertex (times log k per in-edge in a
    column of k targets), and the charge is O(degree): the alpha counts,
    statuses, multiplicities and edge bytes read, the counters changed and
    the cells written.
    """
    g = graph
    log = g.trail.append
    ops, emit = g.trace.ops, g.trace.emit
    live = g.edge_live
    live_targets, alpha_cols = g.live_targets, g.pair.alpha_cols
    indegree, status, main_columns, bar_count = g.indegree, g.status, g.main_columns, g.bar_count
    s0 = check_int("start_vertex", start_vertex, 1, g.n) - 1
    if status[s0] < LIVE:
        raise StructuralError(f"vertex {start_vertex} is not a live graph vertex")
    emit("rp-start", start_vertex)

    anc: List[int] = [start_vertex]
    anc_marked: Set[int] = {start_vertex}
    gen: List[int] = []  # a target's indegree reaches 0 once, so no vertex is queued twice
    removed_order: List[int] = []

    def drop_edges(source: int, target: int, edges: List[tuple]) -> None:
        """Drop the live edges, (column, edge byte) pairs, from ``source``
        to ``target``: their bytes, their columns' live-target counts and
        the target's indegree."""
        t0 = target - 1
        log((indegree, t0, indegree[t0]))
        indegree[t0] -= len(edges)
        for j0, edge in edges:
            log((live, edge, 1))
            live[edge] = 0
            log((live_targets, j0, live_targets[j0]))
            live_targets[j0] -= 1
            emit("edge-removed", source, target, j0 + 1)
        ops.assign(len(edges))
        ops.arith(len(edges) + 1)

    def remove_outgoing(p: int) -> None:
        # live out-edges grouped by target: (column, byte)
        by_target: Dict[int, List[tuple]] = {}
        visited = 0
        for j0 in g.single_columns(p - 1):  # a column with no targets visits nothing
            visited += len(g.targets[j0])
            for edge, t0 in enumerate(g.targets[j0], g.edge_base[j0]):
                if live[edge]:
                    by_target.setdefault(t0, []).append((j0, edge))
        ops.cmp(visited + len(by_target))  # the edge bytes, and each target's test below
        for t0 in sorted(by_target):
            t = t0 + 1
            drop_edges(p, t, by_target[t0])
            if indegree[t0] == 0 and not main_columns[t0] and status[t0] != REMOVED:
                gen.append(t)
                ops.assign(1)

    def take(v: int, kind: int) -> bool:
        """Remove ``v`` (1 = ancestor, 2 = generation) unless a cascade
        step has already removed it; True when it was taken."""
        ops.cmp(1)
        old = status[v - 1]
        if old == REMOVED:
            return False
        log((status, v - 1, old))
        status[v - 1] = REMOVED
        removed_order.append(v)
        ops.assign(2)
        emit("vertex-removed", v, kind)
        return True

    for p in anc:  # grows while it is walked; only its own take removes p
        take(p, 1)
        p0 = p - 1
        cols = main_columns[p0]
        if cols:
            multiplicity = g.multiplicity
            ops.cmp(len(cols))
            if any(multiplicity[c - 1] == 1 for c in cols):
                emit("rp-result", start_vertex, 0)
                return RemovalOutcome(False, tuple(removed_order))
            for c in cols:
                log((multiplicity, c - 1, multiplicity[c - 1]))
                multiplicity[c - 1] -= 1
            ops.arith(len(cols))
        # live in-edges grouped by source row, ascending
        slots = g.in_edges(p0)
        ops.cmp(len(slots))  # the edge bytes
        bundles: Dict[int, List[tuple]] = {}
        for j0, edge in slots:
            if live[edge]:
                bundles.setdefault(alpha_cols[j0][0] + 1, []).append((j0, edge))
        for r in sorted(bundles):
            edges = bundles[r]
            # the source must go too when it loses an obligatory edge or
            # the last live one of a column
            trigger = any(bar_count[j0] == 1 or live_targets[j0] <= 1 for j0, _ in edges)
            ops.cmp(len(edges) + 1)  # the edges' columns, and the source test below
            drop_edges(r, p, edges)
            if trigger and r not in anc_marked and status[r - 1] != REMOVED:
                anc_marked.add(r)
                anc.append(r)
                ops.assign(1)
        remove_outgoing(p)

    for q in gen:  # grows while it is walked
        if take(q, 2):
            remove_outgoing(q)

    emit("rp-result", start_vertex, 1)
    return RemovalOutcome(True, tuple(removed_order))


# ---------------------------------------------------------------------------
# cleaning
# ---------------------------------------------------------------------------

def clean(graph: PointingGraph) -> Optional[int]:
    """Remove every live useless vertex; return the blocking vertex on failure.

    The USELESS vertices, one status read each, are attempted in ascending
    index order; ones already taken out by an earlier cascade are skipped.  A non-removable useless vertex stops
    the procedure: the snapshot taken just before that attempt is restored
    so the caller can inspect the intact graph, and the vertex index is
    returned.  Returns None when the graph is clean.
    """
    trace, ops, status = graph.trace, graph.trace.ops, graph.status
    candidates = [i + 1 for i, s in enumerate(status) if s == USELESS]
    ops.cmp(graph.n)  # each vertex's status
    for v in candidates:
        ops.cmp(1)
        if status[v - 1] == REMOVED:
            continue
        snap = StateSnapshot.capture(graph)
        outcome = removal_procedure(graph, v)
        if not outcome.removable:
            snap.restore(graph)
            trace.emit("clean-result", 0, v)
            return v
        snap.commit(graph)
    trace.emit("clean-result", 1, 0)
    return None


# ---------------------------------------------------------------------------
# the swapped view and incompatibilities
# ---------------------------------------------------------------------------

def _swap_rows(
    counts: List[int], pair: DecompositionPair, rows, sign: int, zeros: List[int]
) -> int:
    """Add ``sign`` times the effect of swapping the given 0-based rows to
    alpha column counts: their alpha ones leave, their second ones arrive.
    Every column whose count reaches 0 is pushed on the min-heap ``zeros``.
    Returns the number of counts changed."""
    changed = 0
    for i in rows:
        alpha, bar = pair.alpha_rows[i], pair.bar_rows[i]
        for j in alpha:
            counts[j] -= sign
            if not counts[j]:
                heappush(zeros, j)
        for j in bar:
            counts[j] += sign
            if not counts[j]:
                heappush(zeros, j)
        changed += len(alpha) + len(bar)
    return changed


def swapped_alpha_counts(graph: PointingGraph) -> List[int]:
    """Column counts of alpha after swapping every live vertex row.

    The counts start from whichever side has fewer rows to swap: alpha's
    own counts with the live rows swapped, or the second side's counts
    (alpha with every row swapped) with the other rows swapped back.
    """
    ops = graph.trace.ops
    live = [s >= LIVE for s in graph.status]
    ops.cmp(graph.n)  # each vertex's status
    if 2 * sum(live) <= graph.n:
        counts, sign, swap = list(graph.counts.m_alpha), 1, live
    else:
        counts, sign, swap = list(graph.counts.m_alpha_bar), -1, [not keep for keep in live]
    # the zeros of a fresh count come from ``zero_columns``, not the pushes
    ops.arith(_swap_rows(counts, graph.pair, compress(range(graph.n), swap), sign, []))
    ops.assign(graph.m)  # the copied counts
    return counts


def zero_columns(counts: List[int]) -> List[int]:
    """The 0-based columns whose count is 0, ascending, which is already a
    valid min-heap."""
    return [j for j, c in enumerate(counts) if not c]


def eliminate_incompatibilities(graph: PointingGraph) -> Union[None, Unreachable, ExtensionPlan]:
    """Scan columns ascending and resolve each incompatible set in turn.

    For the members of a set, the removal cascade is attempted under a
    snapshot, each vertex at most once per whole solve (the marks in
    ``graph.tried`` persist across restores and across calls).
    The first removable member commits its cascade and the scan restarts from
    the first column with a cleared extension plan.  When no member is
    removable, the snapshot is restored and never-formed rows able to cover
    the column on the second side are recorded in the plan; absent any such
    row the column is unreachable and no covering exists, and
    ``Unreachable(column)`` is returned.  Otherwise the first pass that
    commits nothing ends the call: it returns None when that pass found no
    uncovered column, else the ``ExtensionPlan`` the pass gathered.  A pass
    pops each column at most once and a column's candidates are distinct
    rows, so no (row, column) pair is planned twice.

    The swapped column counts are computed once and then kept up to date:
    a committed cascade's removed vertices are the only live vertices that
    stop being swapped, so their alpha rows come back and their second rows
    go.  The uncovered columns come from a lazy min-heap, not from a scan of
    all m counts per pass.  It holds an entry for every column whose count
    is 0, plus stale entries: columns whose count has risen above 0 since
    they were pushed, which a pop skips.  Within a pass only a commit
    changes a count, and a commit ends the pass, so a pass pops exactly the
    columns that were 0 when it began, in ascending order: the columns a
    scan of all m counts would visit, in the same order, with the same
    events.  A pass is charged the columns it pops.  A commit pushes every
    column its cascade brings to 0, and the columns the pass popped go back
    on the heap for the next pass.

    No column is ever on the heap twice.  Live vertices only go during a
    call, so once a column's count is 0 no live vertex holds it on the
    second side and the count can only rise: a column reaches 0 at most
    once per call, and a popped column that is pushed back was not pushed
    by the commit.
    """
    pair, tried, trace, ops = graph.pair, graph.tried, graph.trace, graph.trace.ops
    swapped = swapped_alpha_counts(graph)
    zeros = zero_columns(swapped)
    ops.cmp(graph.m)  # the swapped counts scanned
    ops.assign(len(zeros))  # the heap they fill
    status = graph.status
    while True:
        visited: List[int] = []
        plan_rows: List[int] = []
        plan_cols: List[int] = []
        popped = 0  # columns popped and not yet charged
        while zeros:
            j0 = heappop(zeros)
            popped += 1
            if swapped[j0]:
                continue  # stale
            visited.append(j0)
            j = j0 + 1
            # a swapped count of 0 means every alpha row of the column is live
            members = [r0 + 1 for r0 in pair.alpha_cols[j0]]
            ops.cmp(popped + len(members))  # the pops, and each member's tried mark
            popped = 0
            trace.emit("incompat-found", j, len(members))
            snap = None
            committed = 0
            for r in members:
                if r in tried:
                    continue
                tried.add(r)
                ops.assign(1)
                if snap is None:
                    snap = StateSnapshot.capture(graph)
                outcome = removal_procedure(graph, r)
                if outcome.removable:
                    snap.commit(graph)
                    committed = r
                    break
                snap.restore(graph)
            if committed:
                heap_size = len(zeros)
                gone = [v - 1 for v in outcome.removed_vertices]
                ops.arith(_swap_rows(swapped, pair, gone, -1, zeros))
                for v in visited:
                    heappush(zeros, v)
                ops.assign(len(zeros) - heap_size)
                trace.emit("incompat-eliminated", j, committed)
                break  # restart the scan with an empty plan
            # nothing removable: plan an extension for this column
            candidates = [p0 + 1 for p0 in pair.bar_cols[j0] if not status[p0]]
            ops.cmp(len(pair.bar_cols[j0]))
            ops.assign(2 * len(candidates))
            if not candidates:
                trace.emit("unreachable-column", j)
                return Unreachable(j)
            for p in candidates:
                plan_rows.append(p)
                plan_cols.append(j)
                trace.emit("extension-planned", p, j)
        else:  # a full pass committed nothing
            ops.cmp(popped)
            return ExtensionPlan(plan_rows, plan_cols) if plan_rows else None


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def extend(graph: PointingGraph, plan: ExtensionPlan) -> None:
    """Form the planned rows as additional main vertices.

    Every planned row must pass ``check_int`` (1..n) and be unformed
    (removed rows never come back), every planned column pass it (1..m),
    and every row's second component hold one of the planned columns, else
    StructuralError is raised before anything is written.  A new main vertex
    is associated with, and bumps the multiplicity of, every planned column
    where its second-component row has a 1.
    """
    rows = list(dict.fromkeys(plan.new_main_vertices))  # first occurrences, in order
    cols = list(dict.fromkeys(plan.columns))
    if not rows:
        raise StructuralError("extension plan is empty")
    for c in cols:
        check_int("plan column", c, 1, graph.m)
    assocs = []
    for p in rows:
        if graph.status[check_int("plan row", p, 1, graph.n) - 1]:
            raise StructuralError(f"plan row {p} is already part of the graph")
        second = set(graph.pair.bar_rows[p - 1])
        assocs.append([c for c in cols if c - 1 in second])
        if not assocs[-1]:
            raise StructuralError(f"plan row {p} holds none of the plan's columns on its second side")
    trace, ops = graph.trace, graph.trace.ops
    for p, assoc in zip(rows, assocs):
        p0 = p - 1
        graph.status[p0] = LIVE
        graph.vertex_order.append(p)
        for c in assoc:
            graph.main_columns[p0].append(c)
            graph.multiplicity[c - 1] += 1
        # the row's second side and the planned columns read; the
        # multiplicities; the status, the order and the column entries
        ops.cmp(len(graph.pair.bar_rows[p0]) + len(cols))
        ops.arith(len(assoc))
        ops.assign(2 + len(assoc))
        trace.emit("vertex-formed", p, 1)
    trace.emit("extend", len(rows))
