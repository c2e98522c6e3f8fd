"""Shared fixtures: canonical worked instances, naive cross-check helpers,
and hypothesis strategies.

The four canonical instances exercise every driver exit:
  E1 satisfiable through the plain construct/clean path,
  E2 unsatisfiable through a non-removable useless vertex,
  E3 unsatisfiable through an unreachable stuck column,
  E4 satisfiable only after a graph extension.
E5 adds two main vertices and one disjunctive fan-out of two edges.

Every helper is plain Python: the suite needs only pytest and hypothesis.
numpy is an extra of the benchmark (``perfbench/``) alone.
"""
from __future__ import annotations

import functools
import itertools
import random
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import strategies as st

from satcover import CnfFormula, DecompositionPair, parse_dimacs, to_decomposition
from satcover.graph import LIVE, REMOVED
from satcover.harness import FuzzConfig, random_cnf
from satcover.procedures import StateSnapshot, removal_procedure

E1_TEXT = "p cnf 2 2\n-1 2 0\n1 0\n"
E2_TEXT = "p cnf 1 2\n1 0\n-1 0\n"
E3_TEXT = "p cnf 2 3\n-1 -2 0\n1 0\n2 0\n"
E4_TEXT = "p cnf 3 3\n1 0\n2 0\n-1 -2 3 0\n"
E5_TEXT = "p cnf 3 2\n1 2 0\n-1 2 3 0\n"


def formula_of(text: str) -> CnfFormula:
    formula, _ = parse_dimacs(text)
    return formula


def pair_of(text: str) -> DecompositionPair:
    return to_decomposition(formula_of(text))[0]


def negated(formula: CnfFormula) -> CnfFormula:
    """The formula with every literal negated: its reduction is the pair
    ``solve_sat(formula, alpha="pos")`` gets by swapping every row, and the
    tests keep it as that pair's independent reference."""
    return CnfFormula(formula.num_vars, [[-lit for lit in c] for c in formula.clauses])


@pytest.fixture
def e1() -> CnfFormula:
    return formula_of(E1_TEXT)


@pytest.fixture
def e2() -> CnfFormula:
    return formula_of(E2_TEXT)


@pytest.fixture
def e3() -> CnfFormula:
    return formula_of(E3_TEXT)


@pytest.fixture
def e4() -> CnfFormula:
    return formula_of(E4_TEXT)


@pytest.fixture
def e1_pair() -> DecompositionPair:
    return pair_of(E1_TEXT)


@pytest.fixture
def e2_pair() -> DecompositionPair:
    return pair_of(E2_TEXT)


@pytest.fixture
def e3_pair() -> DecompositionPair:
    return pair_of(E3_TEXT)


def typed(value):
    """`value` with the class of every NamedTuple in it spelled out.

    NamedTuples compare as plain tuples, so `Unsat(r) == NoCovering(r)`;
    compare `typed(a) == typed(b)` to tell the verdict classes apart.
    """
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return (type(value).__name__, tuple(typed(v) for v in value))
    return value


class IntLike:
    """An int-like value that is not an int: it converts only through
    ``__index__``."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


# ---------------------------------------------------------------------------
# naive reference computations (independent of the library internals)
# ---------------------------------------------------------------------------

def naive_cell(pair: DecompositionPair, side: str, i: int, j: int) -> int:
    """Cell (i, j) of the alpha or the alpha-bar matrix, 0-based, read from
    the row lists by membership only."""
    rows = pair.alpha_rows if side == "alpha" else pair.bar_rows
    return 1 if j in rows[i] else 0


def naive_column_counts(pair: DecompositionPair) -> Tuple[List[int], List[int]]:
    a = [sum(naive_cell(pair, "alpha", i, j) for i in range(pair.n)) for j in range(pair.m)]
    b = [sum(naive_cell(pair, "bar", i, j) for i in range(pair.n)) for j in range(pair.m)]
    return a, b


def naive_single_columns(pair: DecompositionPair, i: int) -> List[int]:
    """The 1-based columns whose only alpha-side 1 sits in row i (1-based),
    ascending."""
    alpha_counts, _ = naive_column_counts(pair)
    return [j + 1 for j in range(pair.m) if naive_cell(pair, "alpha", i - 1, j) and alpha_counts[j] == 1]


def naive_is_covering(pair: DecompositionPair, swaps) -> bool:
    for j in range(pair.m):
        hit = False
        for i in range(pair.n):
            side = "bar" if (i + 1) in swaps else "alpha"
            if naive_cell(pair, side, i, j):
                hit = True
                break
        if not hit:
            return False
    return True


def naive_covering_exists(pair: DecompositionPair) -> bool:
    for bits in itertools.product((False, True), repeat=pair.n):
        swaps = {i + 1 for i in range(pair.n) if bits[i]}
        if naive_is_covering(pair, swaps):
            return True
    return False


def naive_input_length(pair: DecompositionPair) -> int:
    return sum(
        naive_cell(pair, side, i, j)
        for side in ("alpha", "bar")
        for i in range(pair.n)
        for j in range(pair.m)
    )


def reference_swapped_alpha_counts(graph) -> List[int]:
    """Column counts of alpha after swapping every live vertex row, recounted
    from alpha's own counts: each live row's alpha ones leave and its second
    ones arrive."""
    counts = list(graph.counts.m_alpha)
    for i in range(graph.n):
        if graph.status[i] >= LIVE:
            for j in graph.pair.alpha_rows[i]:
                counts[j] -= 1
            for j in graph.pair.bar_rows[i]:
                counts[j] += 1
    return counts


def clean_in_order(graph, order: Sequence[int]) -> Optional[int]:
    """Reference cleaning loop over the vertices of ``order``: each one not
    yet removed is tried under a snapshot; the first non-removable one is
    restored and returned, every removable one committed.  None when every
    attempt commits."""
    for v in order:
        if graph.status[v - 1] == REMOVED:
            continue
        snap = StateSnapshot.capture(graph)
        if not removal_procedure(graph, v).removable:
            snap.restore(graph)
            return v
        snap.commit(graph)
    return None


def live_edges(graph) -> List[tuple]:
    """All live edges of a pointing graph as (source, target, column),
    sorted."""
    out = []
    for s0, columns in enumerate(graph.single_cols):
        for j0 in columns:
            base = graph.edge_base[j0]
            for k, t0 in enumerate(graph.targets[j0]):
                if graph.edge_live[base + k]:
                    out.append((s0 + 1, t0 + 1, j0 + 1))
    out.sort()
    return out


def naive_sat(formula: CnfFormula) -> bool:
    if any(not clause for clause in formula.clauses):
        return False
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        ok = True
        for clause in formula.clauses:
            if not any((lit > 0) == bits[abs(lit) - 1] for lit in clause):
                ok = False
                break
        if ok:
            return True
    return False


@functools.lru_cache(maxsize=None)
def chunk_patterns(width: int) -> Tuple[int, ...]:
    """Bit a of entry i is bit i of a, for a < 2^width: 2^i ones then 2^i
    zeros, repeated, read as a binary string (its last digit is bit 0)."""
    return tuple(
        int(("1" * (1 << i) + "0" * (1 << i)) * (1 << (width - 1 - i)), 2)
        for i in range(width)
    )


def reference_brute_sat(formula: CnfFormula):
    """The oracle ``brute_sat`` replaced, kept as its reference: assignments
    in ascending bitmask order, 2^16 at a time, each chunk's assignments the
    bits of one int.  It takes none of ``brute_sat``'s shortcuts: a chunk
    tests the clauses in order until none of its assignments is left."""
    n = formula.num_vars
    if any(len(clause) == 0 for clause in formula.clauses):
        return False, None
    if not formula.clauses:
        return True, tuple(False for _ in range(n))
    width = min(16, n)
    full = (1 << (1 << width)) - 1
    for start in range(0, 1 << n, 1 << width):
        # bit a of value[i] is x_(i+1) in assignment start + a
        value = chunk_patterns(width) + tuple(full if start >> i & 1 else 0 for i in range(width, n))
        alive = full
        for clause in formula.clauses:
            hit = 0
            for lit in clause:
                hit |= value[lit - 1] if lit > 0 else full ^ value[-lit - 1]
            alive &= hit
            if not alive:
                break
        if alive:
            a = start + (alive & -alive).bit_length() - 1
            return True, tuple(bool((a >> i) & 1) for i in range(n))
    return False, None


def reference_random_cnf(cfg: FuzzConfig, index: int) -> CnfFormula:
    """The ``randint``/``sample`` generator ``random_cnf`` replaced, kept as
    its reference: ``random_cnf`` must give the same formula for every
    (config, index)."""
    if index < 0:
        raise ValueError("index must be non-negative")
    if cfg.satisfiable_bias not in ("none", "planted"):
        raise ValueError(f"unknown satisfiable_bias {cfg.satisfiable_bias!r}")
    rng = random.Random(cfg.seed * (2**32) + index)
    n = rng.randint(*cfg.var_range)
    m = rng.randint(*cfg.clause_range)
    planted = cfg.satisfiable_bias == "planted"
    hidden = [rng.random() < 0.5 for _ in range(n)] if planted else None
    clauses: List[List[int]] = []
    for _ in range(m):
        w = rng.randint(*cfg.width_range)
        w = max(1, min(w, n))
        variables = rng.sample(range(1, n + 1), w)
        clause = [v if rng.random() < 0.5 else -v for v in variables]
        if planted and not any((lit > 0) == hidden[abs(lit) - 1] for lit in clause):
            k = rng.randrange(w)
            v = abs(clause[k])
            clause[k] = v if hidden[v - 1] else -v
        clauses.append(clause)
    return CnfFormula(num_vars=n, clauses=clauses)


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

@st.composite
def clauses_strategy(draw, num_vars: int, max_clauses: int = 8, max_width: int = 3):
    m = draw(st.integers(1, max_clauses))
    clauses = []
    for _ in range(m):
        width = draw(st.integers(1, min(max_width, num_vars)))
        variables = draw(
            st.lists(
                st.integers(1, num_vars),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        clauses.append([v if s else -v for v, s in zip(variables, signs)])
    return clauses


@st.composite
def formulas(draw, max_vars: int = 6, max_clauses: int = 8, max_width: int = 3):
    """Preprocessed-shape formulas: no duplicate variables inside a clause."""
    n = draw(st.integers(1, max_vars))
    return CnfFormula(n, draw(clauses_strategy(n, max_clauses, max_width)))


@st.composite
def decomposition_pairs(draw, max_rows: int = 6, max_cols: int = 6):
    """Valid pairs built cellwise, then repaired to meet every condition."""
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    cells = draw(
        st.lists(st.integers(0, 2), min_size=n * m, max_size=n * m)
    )
    # cells[i * m + j]: 0 empty, 1 on the alpha side, 2 on the alpha-bar side
    sides = [set(), set()]
    for i in range(n):
        for j in range(m):
            value = cells[i * m + j]
            if value:
                sides[value - 1].add((i, j))
    # repair: every row pair nonempty
    for i in range(n):
        if not any(i == r for side in sides for r, _ in side):
            j = draw(st.integers(0, m - 1))
            sides[draw(st.integers(0, 1))].add((i, j))
    # repair: every column covered
    for j in range(m):
        if not any(j == c for side in sides for _, c in side):
            i = draw(st.integers(0, n - 1))
            sides[draw(st.integers(0, 1))].add((i, j))
    alpha, bar = (
        [sorted(j for r, j in side if r == i) for i in range(n)] for side in sides
    )
    return DecompositionPair(n, m, alpha, bar)


def seeded_corpus(seed: int, count: int, **overrides) -> List[CnfFormula]:
    params = {
        "var_range": (1, 10),
        "clause_range": (1, 25),
        "width_range": (1, 3),
    }
    params.update(overrides)
    cfg = FuzzConfig(seed=seed, num_instances=count, **params)
    return [random_cnf(cfg, i) for i in range(count)]


# ---------------------------------------------------------------------------
# acceptance summary lines
# ---------------------------------------------------------------------------

ACCEPTANCE_RESULTS: List[Tuple[str, bool, str]] = []


def record_criterion(name: str, passed: bool, note: str) -> None:
    ACCEPTANCE_RESULTS.append((name, passed, note))
    print(f"{name}: {'PASS' if passed else 'FAIL'} - {note}")
    assert passed, f"{name}: {note}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, note in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(
            f"{name}: {'PASS' if passed else 'FAIL'} - {note}"
        )
