"""Paired set decompositions stored as occurrence lists.

A decomposition over a ground set of m elements is a list of n ordered pairs
of disjoint subsets.  Pair i is row i of two n x m bit matrices, alpha for
the first component and alpha-bar for the second.  A swap replaces selected
rows of alpha with the corresponding rows of alpha-bar; the solver searches
for a swap set after which alpha alone covers every column.

Key choices:
  * the pair is held only as four occurrence lists (each row's columns and
    each column's rows, for both sides), so every scan costs the number of
    ones it visits and the whole pair costs O(N) for N ones, not O(n*m);
  * the one constructor takes the row lists and checks their structure once,
    while transposing them into the column lists, and freezes all four into
    tuples so no caller can change a pair after the check;
  * all public row/column indices are 1-based to match the report formats,
    while the occurrence lists hold 0-based indices; conversion happens at
    function boundaries only;
  * a tuple is built from a list, whose length is known, never from a map
    or a generator: ``tuple()`` of an iterator takes a 10-slot tuple and
    resizes it, which moves it off CPython's size-10 free list onto the
    list of its final size, where up to 2,000 freed tuples of each size
    then stay parked, so a long harness run's memory would grow with the
    instances it has run.
"""
from __future__ import annotations

from operator import index
from typing import Iterable, List, NamedTuple, Optional, Set, Tuple

from .instrument import DISABLED_OPS, OpCounter


class StructuralError(ValueError):
    """Raised for a refused argument: matrices, rows, indices or sizes that
    break the structural contract, or any whole number ``check_int`` refuses.

    ``clause`` is the 1-based index of the clause a ``CnfFormula`` refused,
    and None for every other refusal."""

    def __init__(self, message: str, clause: Optional[int] = None):
        super().__init__(message)
        self.clause = clause


def check_int(name: str, value, lo: int, hi: Optional[int] = None) -> int:
    """``value`` if it is an int (a bool is not one) in ``lo..hi`` (no upper end
    when ``hi`` is None); else StructuralError naming ``name`` and ``value``."""
    if type(value) is not int:
        raise StructuralError(f"{name} must be an int, got {value!r}")
    if value < lo:
        raise StructuralError(f"{name} must be at least {lo}, got {value!r}")
    if hi is not None and value > hi:
        raise StructuralError(f"{name} must be at most {hi}, got {value!r}")
    return value


def _occurrences(rows: List[List[int]], n: int, m: int, side: str):
    """Freeze row lists into tuples and transpose them into the ascending row
    indices of every column, checking that there are n rows of strictly
    ascending exact int columns in 0..m-1."""
    if len(rows) != n:
        raise StructuralError(f"{side} has {len(rows)} rows, expected {n}")
    try:
        frozen = tuple(list(map(tuple, rows)))
    except TypeError:
        raise StructuralError(f"{side} must be a list of rows of column indices") from None
    cols: List[List[int]] = [[] for _ in range(m)]
    for i, row in enumerate(frozen):
        last = -1
        for j in row:
            if type(j) is not int:
                raise StructuralError(f"{side} row {i + 1}: column {j!r} is not an integer")
            if not last < j < m:
                raise StructuralError(
                    f"{side} row {i + 1}: column {j} is not strictly ascending inside 0..{m - 1}"
                )
            cols[j].append(i)
            last = j
    return frozen, tuple(list(map(tuple, cols)))


class DecompositionPair:
    """n ordered pairs of disjoint element subsets over m elements.

    Occurrence lists, 0-based tuples of tuples, so they cannot be mutated:
      alpha_rows[i]  ascending columns of row i's first component
      bar_rows[i]    ascending columns of row i's second component
      alpha_cols[j]  ascending rows whose first component holds column j
      bar_cols[j]    ascending rows whose second component holds column j

    ``DecompositionPair(n, m, alpha_rows, bar_rows)`` takes the row lists
    and raises StructuralError unless n, m pass ``check_int`` (lo 1) and
    each side holds n strictly ascending lists of exact int columns (a bool
    is not one) in 0..m-1; ``validate`` checks the decomposition conditions.
    """

    def __init__(self, n: int, m: int, alpha_rows: List[List[int]], bar_rows: List[List[int]]):
        self.n = check_int("n", n, 1)
        self.m = check_int("m", m, 1)
        self.alpha_rows, self.alpha_cols = _occurrences(alpha_rows, n, m, "alpha")
        self.bar_rows, self.bar_cols = _occurrences(bar_rows, n, m, "alpha-bar")

    def __eq__(self, other):
        if not isinstance(other, DecompositionPair):
            return NotImplemented
        mine = (self.n, self.m, self.alpha_rows, self.bar_rows)
        return mine == (other.n, other.m, other.alpha_rows, other.bar_rows)

    def __repr__(self):
        return f"DecompositionPair(n={self.n}, m={self.m})"


class Violation(NamedTuple):
    """One violated decomposition condition, with 1-based witnesses."""

    condition: str  # "disjointness" | "pair-nonempty" | "coverage"
    row: Optional[int] = None
    column: Optional[int] = None


class ColumnCounts(NamedTuple):
    """Per-column 1-counts of both matrices as tuples (recomputable)."""

    m_alpha: Tuple[int, ...]
    m_alpha_bar: Tuple[int, ...]


def validate(pair: DecompositionPair) -> Tuple[Violation, ...]:
    """Check the three decomposition conditions and return every violation,
    none for a valid decomposition.

    Disjointness of each pair, nonemptiness of each pair, and column coverage
    of the ground set are all checked; nothing short-circuits.
    """
    violations: List[Violation] = []
    for i, (alpha, bar) in enumerate(zip(pair.alpha_rows, pair.bar_rows)):
        for j in sorted(set(alpha).intersection(bar)):
            violations.append(Violation("disjointness", row=i + 1, column=j + 1))
    for i, (alpha, bar) in enumerate(zip(pair.alpha_rows, pair.bar_rows)):
        if not alpha and not bar:
            violations.append(Violation("pair-nonempty", row=i + 1))
    for j, (alpha, bar) in enumerate(zip(pair.alpha_cols, pair.bar_cols)):
        if not alpha and not bar:
            violations.append(Violation("coverage", column=j + 1))
    return tuple(violations)


def column_counts(pair: DecompositionPair, *, ops: OpCounter = DISABLED_OPS) -> ColumnCounts:
    """Count the 1s of every column of both matrices."""
    m_alpha = tuple(list(map(len, pair.alpha_cols)))
    m_alpha_bar = tuple(list(map(len, pair.bar_cols)))
    # a column's count is the length of its occurrence list: 2m reads and
    # 2m writes
    ops.cmp(2 * pair.m)
    ops.assign(2 * pair.m)
    return ColumnCounts(m_alpha=m_alpha, m_alpha_bar=m_alpha_bar)


def swap_set(swaps: Iterable[int], n: int) -> Set[int]:
    """The distinct 1-based rows of a swap set.  An index that is not an
    integer by ``operator.index`` (no truncation, no parsing) or lies
    outside 1..n raises StructuralError."""
    try:
        rows = set(map(index, swaps))
    except TypeError as exc:
        raise StructuralError(f"swap indices must be integers: {exc}") from None
    for row in rows:
        if not 1 <= row <= n:
            raise StructuralError(f"swap index {row} outside 1..{n}")
    return rows


def apply_swaps(pair: DecompositionPair, swaps: Iterable[int]) -> DecompositionPair:
    """Exchange the selected rows (1-based; a repeated index counts once)
    between the two matrices.

    Applying the same swap set twice returns the original pair.  Swapping
    every row exchanges the two sides: on a reduced pair it is the mirrored
    orientation, the reduction of the formula with every literal negated
    (``solve_sat``'s ``alpha="pos"``).
    """
    alpha = list(pair.alpha_rows)
    bar = list(pair.bar_rows)
    for i in swap_set(swaps, pair.n):
        alpha[i - 1], bar[i - 1] = bar[i - 1], alpha[i - 1]
    return DecompositionPair(pair.n, pair.m, alpha, bar)


def is_alpha_covering(pair: DecompositionPair) -> bool:
    """True iff every column of alpha contains at least one 1."""
    return all(pair.alpha_cols)


def input_length(pair: DecompositionPair) -> int:
    """Total count of 1s across both matrices (the instance size N)."""
    return sum(map(len, pair.alpha_rows)) + sum(map(len, pair.bar_rows))
