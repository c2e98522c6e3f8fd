"""Paired set decompositions stored as 0/1 matrices.

A decomposition over a ground set of m elements is a list of n ordered pairs
of disjoint subsets.  Pair i is stored as row i of two n x m bit matrices:
``sm_alpha`` holds the first component, ``sm_alpha_bar`` the second.  A swap
replaces selected rows of ``sm_alpha`` with the corresponding rows of
``sm_alpha_bar``; the solver searches for a swap set after which the first
matrix alone covers every column.

Key choices:
  * matrices are numpy uint8 arrays, marked read-only after construction, so
    both row scans and column scans are cheap and accidental mutation fails
    loudly;
  * all public row/column indices are 1-based to match the report formats,
    conversion happens at function boundaries only.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

SwapSet = frozenset  # set of 1-based row indices


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


@dataclass(eq=False)
class DecompositionPair:
    """n ordered pairs of disjoint element subsets over m elements."""

    sm_alpha: np.ndarray
    sm_alpha_bar: np.ndarray
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        self.sm_alpha = _as_bit_matrix(self.sm_alpha, "sm_alpha")
        self.sm_alpha_bar = _as_bit_matrix(self.sm_alpha_bar, "sm_alpha_bar")
        if self.sm_alpha.shape != self.sm_alpha_bar.shape:
            raise StructuralError(
                "sm_alpha and sm_alpha_bar must have the same shape, got "
                f"{self.sm_alpha.shape} and {self.sm_alpha_bar.shape}"
            )
        self.n, self.m = self.sm_alpha.shape

    def __eq__(self, other):
        if not isinstance(other, DecompositionPair):
            return NotImplemented
        return np.array_equal(self.sm_alpha, other.sm_alpha) and np.array_equal(
            self.sm_alpha_bar, other.sm_alpha_bar
        )

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
    overlap = (pair.sm_alpha & pair.sm_alpha_bar).astype(bool)
    for i, j in zip(*np.nonzero(overlap)):
        violations.append(Violation("disjointness", row=int(i) + 1, column=int(j) + 1))
    row_weight = pair.sm_alpha.sum(axis=1) + pair.sm_alpha_bar.sum(axis=1)
    for i in np.nonzero(row_weight == 0)[0]:
        violations.append(Violation("pair-nonempty", row=int(i) + 1))
    col_weight = pair.sm_alpha.sum(axis=0) + pair.sm_alpha_bar.sum(axis=0)
    for j in np.nonzero(col_weight == 0)[0]:
        violations.append(Violation("coverage", column=int(j) + 1))
    return ValidationReport(ok=not violations, violations=tuple(violations))


def column_counts(pair: DecompositionPair, *, ops=None) -> ColumnCounts:
    """Count the 1s of every column of both matrices."""
    m_alpha = pair.sm_alpha.sum(axis=0, dtype=np.int64)
    m_alpha_bar = pair.sm_alpha_bar.sum(axis=0, dtype=np.int64)
    if ops is not None:
        # one read-compare per cell, one increment per 1, init per column
        ops.cmp(2 * pair.n * pair.m)
        ops.arith(int(m_alpha.sum()) + int(m_alpha_bar.sum()))
        ops.assign(2 * pair.m)
    m_alpha.setflags(write=False)
    m_alpha_bar.setflags(write=False)
    return ColumnCounts(m_alpha=m_alpha, m_alpha_bar=m_alpha_bar)


def as_swap_set(indices: Iterable[int]) -> SwapSet:
    return frozenset(int(i) for i in indices)


def apply_swaps(pair: DecompositionPair, swaps: Iterable[int]) -> DecompositionPair:
    """Exchange the selected rows between the two matrices.

    Applying the same swap set twice returns the original pair.
    """
    swap_set = as_swap_set(swaps)
    for i in swap_set:
        if not 1 <= i <= pair.n:
            raise StructuralError(f"swap index {i} outside 1..{pair.n}")
    idx = sorted(i - 1 for i in swap_set)
    alpha = pair.sm_alpha.copy()
    bar = pair.sm_alpha_bar.copy()
    alpha[idx] = pair.sm_alpha_bar[idx]
    bar[idx] = pair.sm_alpha[idx]
    return DecompositionPair(alpha, bar)


def is_alpha_covering(pair: DecompositionPair) -> bool:
    """True iff every column of ``sm_alpha`` contains at least one 1."""
    return bool(pair.sm_alpha.any(axis=0).all())


def input_length(pair: DecompositionPair) -> int:
    """Total count of 1s across both matrices (the instance size N)."""
    return int(pair.sm_alpha.sum()) + int(pair.sm_alpha_bar.sum())
