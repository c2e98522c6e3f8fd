"""Paired set decompositions stored as occurrence lists.

A decomposition over a ground set of m elements is a list of n ordered pairs
of disjoint subsets.  Pair i is row i of two n x m bit matrices: ``sm_alpha``
holds the first component, ``sm_alpha_bar`` the second.  A swap replaces
selected rows of ``sm_alpha`` with the corresponding rows of
``sm_alpha_bar``; the solver searches for a swap set after which the first
matrix alone covers every column.

Key choices:
  * the pair is held as four occurrence lists (each row's columns and each
    column's rows, for both sides), so every scan costs the number of ones
    it visits and the whole pair costs O(N) for N ones, not O(n*m);
  * the dense matrices are numpy uint8 arrays built from those lists on
    first access and marked read-only, for callers that want them;
  * input is validated once, in the public constructor; ``from_rows`` is
    the trusted constructor for callers that built valid lists themselves;
  * all public row/column indices are 1-based to match the report formats,
    while the occurrence lists hold 0-based indices; conversion happens at
    function boundaries only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np


class StructuralError(ValueError):
    """Raised when matrices, rows, or indices break the structural contract."""


def _as_bit_matrix(rows, name: str) -> np.ndarray:
    arr = np.array(rows, copy=True)
    if arr.ndim != 2 or arr.size == 0:
        raise StructuralError(f"{name} must be a non-empty 2-D matrix")
    if not ((arr == 0) | (arr == 1)).all():
        raise StructuralError(f"{name} entries must all be 0 or 1")
    out = np.ascontiguousarray(arr, dtype=np.uint8)
    out.setflags(write=False)
    return out


def _row_lists(bits: np.ndarray) -> List[List[int]]:
    """The ascending column indices of the ones of every row."""
    return [np.flatnonzero(row).tolist() for row in bits]


def _column_lists(rows: List[List[int]], m: int) -> List[List[int]]:
    """Transpose row lists: the ascending row indices of every column."""
    cols: List[List[int]] = [[] for _ in range(m)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].append(i)
    return cols


def _scatter(rows: List[List[int]], n: int, m: int) -> np.ndarray:
    """The read-only n x m bit matrix with ones where the row lists say."""
    bits = np.zeros((n, m), dtype=np.uint8)
    for i, row in enumerate(rows):
        bits[i, row] = 1
    bits.setflags(write=False)
    return bits


class DecompositionPair:
    """n ordered pairs of disjoint element subsets over m elements.

    Occurrence lists, 0-based and never mutated:
      alpha_rows[i]  ascending columns of row i's first component
      bar_rows[i]    ascending columns of row i's second component
      alpha_cols[j]  ascending rows whose first component holds column j
      bar_cols[j]    ascending rows whose second component holds column j

    ``DecompositionPair(sm_alpha, sm_alpha_bar)`` validates two 0/1
    matrices of one shape; ``sm_alpha`` and ``sm_alpha_bar`` give them back
    as read-only arrays.
    """

    def __init__(self, sm_alpha, sm_alpha_bar):
        alpha = _as_bit_matrix(sm_alpha, "sm_alpha")
        bar = _as_bit_matrix(sm_alpha_bar, "sm_alpha_bar")
        if alpha.shape != bar.shape:
            raise StructuralError(
                "sm_alpha and sm_alpha_bar must have the same shape, got "
                f"{alpha.shape} and {bar.shape}"
            )
        self._set_rows(alpha.shape[0], alpha.shape[1], _row_lists(alpha), _row_lists(bar))
        self._dense = (alpha, bar)

    @classmethod
    def from_rows(
        cls, n: int, m: int, alpha_rows: List[List[int]], bar_rows: List[List[int]]
    ) -> "DecompositionPair":
        """Trusted constructor: n row lists per side, each holding ascending
        0-based columns below m.  Nothing is checked."""
        pair = cls.__new__(cls)
        pair._set_rows(n, m, alpha_rows, bar_rows)
        return pair

    def _set_rows(self, n, m, alpha_rows, bar_rows) -> None:
        self.n = n
        self.m = m
        self.alpha_rows = alpha_rows
        self.bar_rows = bar_rows
        self.alpha_cols = _column_lists(alpha_rows, m)
        self.bar_cols = _column_lists(bar_rows, m)
        self._dense = None

    def _matrices(self):
        if self._dense is None:
            self._dense = (
                _scatter(self.alpha_rows, self.n, self.m),
                _scatter(self.bar_rows, self.n, self.m),
            )
        return self._dense

    @property
    def sm_alpha(self) -> np.ndarray:
        return self._matrices()[0]

    @property
    def sm_alpha_bar(self) -> np.ndarray:
        return self._matrices()[1]

    def __eq__(self, other):
        if not isinstance(other, DecompositionPair):
            return NotImplemented
        mine = (self.n, self.m, self.alpha_rows, self.bar_rows)
        return mine == (other.n, other.m, other.alpha_rows, other.bar_rows)

    def __repr__(self):
        return f"DecompositionPair(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Violation:
    """One violated decomposition condition, with 1-based witnesses."""

    condition: str  # "disjointness" | "pair-nonempty" | "coverage"
    row: Optional[int] = None
    column: Optional[int] = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple


@dataclass(frozen=True)
class ColumnCounts:
    """Per-column 1-counts of both matrices (recomputable at any time)."""

    m_alpha: np.ndarray
    m_alpha_bar: np.ndarray


def validate(pair: DecompositionPair) -> ValidationReport:
    """Check the three decomposition conditions, reporting every violation.

    Disjointness of each pair, nonemptiness of each pair, and column coverage
    of the ground set are all checked; nothing short-circuits.
    """
    violations: List[Violation] = []
    for i, (alpha, bar) in enumerate(zip(pair.alpha_rows, pair.bar_rows)):
        if alpha and bar:
            for j in sorted(set(alpha).intersection(bar)):
                violations.append(Violation("disjointness", row=i + 1, column=j + 1))
    for i, (alpha, bar) in enumerate(zip(pair.alpha_rows, pair.bar_rows)):
        if not alpha and not bar:
            violations.append(Violation("pair-nonempty", row=i + 1))
    for j, (alpha, bar) in enumerate(zip(pair.alpha_cols, pair.bar_cols)):
        if not alpha and not bar:
            violations.append(Violation("coverage", column=j + 1))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def column_counts(pair: DecompositionPair, *, ops=None) -> ColumnCounts:
    """Count the 1s of every column of both matrices."""
    m_alpha = np.array([len(rows) for rows in pair.alpha_cols], dtype=np.int64)
    m_alpha_bar = np.array([len(rows) for rows in pair.bar_cols], dtype=np.int64)
    if ops is not None:
        # charged as the dense scan: one read-compare per cell, one
        # increment per 1, init per column
        ops.cmp(2 * pair.n * pair.m)
        ops.arith(int(m_alpha.sum()) + int(m_alpha_bar.sum()))
        ops.assign(2 * pair.m)
    m_alpha.setflags(write=False)
    m_alpha_bar.setflags(write=False)
    return ColumnCounts(m_alpha=m_alpha, m_alpha_bar=m_alpha_bar)


def apply_swaps(pair: DecompositionPair, swaps: Iterable[int]) -> DecompositionPair:
    """Exchange the selected rows (1-based; a repeated index counts once)
    between the two matrices.

    Applying the same swap set twice returns the original pair.
    """
    swap_set = {int(i) for i in swaps}
    for i in swap_set:
        if not 1 <= i <= pair.n:
            raise StructuralError(f"swap index {i} outside 1..{pair.n}")
    alpha = list(pair.alpha_rows)
    bar = list(pair.bar_rows)
    for i in swap_set:
        alpha[i - 1], bar[i - 1] = bar[i - 1], alpha[i - 1]
    return DecompositionPair.from_rows(pair.n, pair.m, alpha, bar)


def is_alpha_covering(pair: DecompositionPair) -> bool:
    """True iff every column of ``sm_alpha`` contains at least one 1."""
    return all(pair.alpha_cols)


def input_length(pair: DecompositionPair) -> int:
    """Total count of 1s across both matrices (the instance size N)."""
    return sum(map(len, pair.alpha_rows)) + sum(map(len, pair.bar_rows))
