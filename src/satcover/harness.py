"""Verification harness: oracles, generators, differential runs, probes.

The engine's verdicts are treated as hypotheses.  Brute-force enumeration
and a budgeted DPLL solver act as independent oracles; seeded generators
produce deterministic corpora; disagreements are archived with a shrunken
re-runnable instance.  The exhaustive sweep walks its space once and judges
each formula there by the oracle-vs-oracle reduction check too, from the
oracle's one verdict on it.  A run keeps its op-count points as counts of
the distinct (N, op_total) pairs.
Disagreement with the oracle is a reportable finding, not a harness failure:
only soundness-gate and invariant violations are fatal.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
import time
from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .cnf import (
    CnfFormula,
    assignment_from_swaps,
    emit_dimacs,
    evaluate,
    restrict_to_used,
    to_decomposition,
)
from .cnf import to_matrix  # noqa: F401  not called; perfbench/tracer.py patches it here
from .decomposition import DecompositionPair
from .instrument import collector_paused
from . import shards
from .solver import SolveRun, solve_sat

BRUTE_VAR_LIMIT = 25
DEFAULT_DPLL_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _literal_tables(k: int) -> Dict[int, int]:
    """The truth tables of the literals of x_1..x_k as 2^k-bit ints, keyed by
    literal: bit a of x_i's table is bit i - 1 of a, and -i's table is its
    complement.  x_i's table is one period, 2^(i-1) zeros under 2^(i-1)
    ones, doubled by shift and OR until it spans 2^k bits.  Cached per k,
    and rebuilt by a forked shard whose parent had not built it."""
    size = 1 << k
    full = (1 << size) - 1
    tables = {}
    for i in range(k):
        width = 2 << i
        table = ((1 << (1 << i)) - 1) << (1 << i)
        while width < size:
            table |= table << width
            width *= 2
        tables[i + 1], tables[-i - 1] = table, full ^ table
    return tables


def brute_sat(
    formula: CnfFormula, *, limit_vars: int = BRUTE_VAR_LIMIT
) -> Tuple[bool, Optional[Tuple[bool, ...]]]:
    """Exhaustive satisfiability check by enumerating all assignments.

    Assignments are scanned in ascending bitmask order (bit i-1 holds x_i),
    so the witness is deterministic.  The low k = min(n, 16, max(12, n - 4))
    variables are evaluated at once as 2^k-bit truth tables over Python ints
    (broadword evaluation, Knuth TAOCP 4A 7.1.3): a clause's low table is
    the OR of its low literals' tables, and a block of 2^k assignments
    sharing the high bits ``high`` survives where the AND of the clauses
    ``high`` leaves open is set.  A clause with no high literal leaves the
    same table open in every block, so those clauses are ANDed once, and a
    formula whose fixed table is 0 is unsatisfiable before any block is
    walked; each block then ANDs only the clauses with a high literal.
    Refuses formulas above the variable limit.

    Each clause's low table is built and ANDed at 2^k bits.  On fuzz-shaped
    formulas (m up to 120) narrower tables were faster up to n = 20; above
    that the 2^(n - k) passes over the clauses cost more than they saved.
    """
    n = formula.num_vars
    if n > limit_vars:
        raise ValueError(f"brute_sat refuses n={n} > {limit_vars}")
    if any(len(clause) == 0 for clause in formula.clauses):
        return False, None
    k = min(n, 16, max(12, n - 4))
    tables = _literal_tables(k)
    fixed = -1  # all ones: the AND of the clauses with no high literal
    parts = []  # per other clause: (low table, high bits true in it, high bits false in it)
    for clause in formula.clauses:
        low = pos = neg = 0
        for lit in clause:
            table = tables.get(lit)
            if table is not None:
                low |= table
            elif lit > 0:
                pos |= 1 << (lit - 1 - k)
            else:
                neg |= 1 << (-lit - 1 - k)
        if pos or neg:
            parts.append((low, pos, neg))
        else:
            fixed &= low
            if not fixed:
                return False, None
    for high in range(1 << (n - k)):
        live = fixed
        for low, pos, neg in parts:
            if not (high & pos or ~high & neg):
                live &= low
                if not live:
                    break
        if live:
            a = (high << k) | ((live & -live).bit_length() - 1)
            return True, tuple([bool((a >> i) & 1) for i in range(n)])
    return False, None


def brute_covering(pair: DecompositionPair) -> Tuple[bool, Optional[frozenset]]:
    """Exhaustive covering check by enumerating all swap sets.

    Swap sets are scanned in ascending bitmask order (bit i-1 swaps row i),
    so the witness is deterministic (the empty set comes first).  Refuses
    pairs of more than ``BRUTE_VAR_LIMIT`` rows.
    """
    if pair.n > BRUTE_VAR_LIMIT:
        raise ValueError(f"brute_covering refuses n={pair.n} > {BRUTE_VAR_LIMIT}")
    alpha_masks = [sum(1 << j for j in row) for row in pair.alpha_rows]
    bar_masks = [sum(1 << j for j in row) for row in pair.bar_rows]
    full = (1 << pair.m) - 1
    for s in range(1 << pair.n):
        cover = 0
        for i in range(pair.n):
            cover |= bar_masks[i] if (s >> i) & 1 else alpha_masks[i]
        if cover == full:
            return True, frozenset(i + 1 for i in range(pair.n) if (s >> i) & 1)
    return False, None


def _dpll_simplify(clauses: List[List[int]], lit: int) -> Optional[List[List[int]]]:
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            reduced = [l for l in clause if l != -lit]
            if not reduced:
                return None  # empty clause: conflict
            out.append(reduced)
        else:
            out.append(clause)
    return out


def dpll(
    formula: CnfFormula, *, step_budget: int = DEFAULT_DPLL_BUDGET
) -> Tuple[Optional[bool], Optional[Tuple[bool, ...]]]:
    """Backtracking satisfiability with unit propagation and a step budget.

    Returns (True, witness), (False, None), or (None, None) when the budget
    runs out.  Branching picks the smallest unassigned variable, true first,
    so the witness is deterministic; unassigned variables read False.  Each
    pass of the propagation loop costs one step.

    The search is iterative (Davis, Logemann & Loveland 1962): a stack holds
    the untried branches, each as the clauses it starts from, the literal it
    assumes and the literals set on the path to it (a linked ``(lit,
    parent)`` tuple), so the depth of the search is not bounded by Python's
    recursion limit.  A branch's literal is set like the units after it.
    """
    if any(len(clause) == 0 for clause in formula.clauses):
        return False, None
    budget = step_budget
    # (clauses, literal assumed or None at the root, path)
    stack: List[tuple] = [([list(c) for c in formula.clauses], None, None)]
    while stack:
        clauses, lit, path = stack.pop()
        while True:
            if lit is not None:
                path = (lit, path)
                clauses = _dpll_simplify(clauses, lit)
                if clauses is None:
                    break  # conflict: this branch is unsatisfiable
            budget -= 1
            if budget <= 0:
                return None, None
            if not clauses:
                witness = [False] * formula.num_vars
                while path is not None:
                    lit, path = path
                    witness[abs(lit) - 1] = lit > 0
                return True, tuple(witness)
            lit = next((c[0] for c in clauses if len(c) == 1), None)
            if lit is None:
                var = min(abs(l) for clause in clauses for l in clause)
                stack.append((clauses, -var, path))
                stack.append((clauses, var, path))  # popped first: true before false
                break
    return False, None


def oracle_status(
    formula: CnfFormula,
    *,
    brute_limit: int = BRUTE_VAR_LIMIT,
) -> str:
    """Adjudicate with brute force when small enough, budgeted DPLL above."""
    if formula.num_vars <= brute_limit:
        sat, _ = brute_sat(formula, limit_vars=brute_limit)
        return "SAT" if sat else "UNSAT"
    result, _ = dpll(formula)
    if result is None:
        return "UNKNOWN"
    return "SAT" if result else "UNSAT"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class _FuzzConfigFields(NamedTuple):
    seed: int
    num_instances: int = 100
    var_range: Tuple[int, int] = (1, 12)
    clause_range: Tuple[int, int] = (1, 30)
    width_range: Tuple[int, int] = (1, 3)
    satisfiable_bias: str = "none"  # "none" | "planted"


class FuzzConfig(_FuzzConfigFields):
    """Deterministic corpus description; instance i depends only on (seed, i).

    ``seed`` is an int ``>= 0``, each range is a tuple ``(lo, hi)`` of ints
    with ``1 <= lo <= hi``, ``num_instances`` is an int in ``0..2**32`` and
    ``satisfiable_bias`` is ``"none"`` or ``"planted"``, where a bool is no
    int; any other config raises ``ValueError`` when it is built, so the
    generator's rejection loops always end and no two (seed, index) pairs
    share an instance.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "FuzzConfig":
        self = super().__new__(cls, *args, **kwargs)
        # random.Random seeds from abs(), so a negative seed would repeat a
        # corpus; seed * 2**32 + index is one-to-one for index < 2**32
        if not (type(self.seed) is int and self.seed >= 0):
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")
        for name in ("var_range", "clause_range", "width_range"):
            bounds = getattr(self, name)
            if not (
                isinstance(bounds, tuple)
                and len(bounds) == 2
                and all(type(b) is int for b in bounds)
                and 1 <= bounds[0] <= bounds[1]
            ):
                raise ValueError(f"{name} must be a pair of ints 1 <= lo <= hi, got {bounds!r}")
        if not (type(self.num_instances) is int and 0 <= self.num_instances <= 2**32):
            raise ValueError(f"num_instances must be in 0..2**32, got {self.num_instances!r}")
        if self.satisfiable_bias not in ("none", "planted"):
            raise ValueError(f"unknown satisfiable_bias {self.satisfiable_bias!r}")
        return self


def random_cnf(cfg: FuzzConfig, index: int) -> CnfFormula:
    """Instance ``index`` of the corpus: a pure function of (seed, index).

    In planted mode a hidden assignment is drawn first and every clause gets
    one literal sign flipped if needed so the hidden assignment satisfies it.

    Every draw is made straight from ``getrandbits`` and ``random``, in the
    order and with the rejection rule of CPython's ``randint``, ``sample``
    and ``randrange`` (3.10 to 3.13), so a corpus depends only on MT19937's
    output and not on those methods' pure-Python internals.
    """
    if not 0 <= index < 2**32:
        raise ValueError(f"index must be in 0 <= index < 2**32, got {index}")
    rng = random.Random(cfg.seed * (2**32) + index)
    bits, coin = rng.getrandbits, rng.random

    def below(n: int) -> int:
        # uniform in [0, n): n.bit_length() bits, drawn again while >= n
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    (n_lo, n_hi), (m_lo, m_hi), (w_lo, w_hi) = cfg.var_range, cfg.clause_range, cfg.width_range
    n = n_lo + below(n_hi - n_lo + 1)
    m = m_lo + below(m_hi - m_lo + 1)
    planted = cfg.satisfiable_bias == "planted"
    hidden = [coin() < 0.5 for _ in range(n)] if planted else None
    base = list(range(1, n + 1))
    lengths = [k.bit_length() for k in range(n + 1)]
    w_span = w_hi - w_lo + 1
    w_bits = w_span.bit_length()
    clauses: List[List[int]] = []
    for _ in range(m):
        r = bits(w_bits)
        while r >= w_span:
            r = bits(w_bits)
        w = w_lo + r
        if w > n:
            w = n
        # sample(range(1, n + 1), w): a shrinking pool while a list of n is
        # smaller than a set of w, else redraws past the indices taken
        if n <= 21 or (w > 5 and n <= 21 + 4 ** math.ceil(math.log(w * 3, 4))):
            pool = base[:]
            variables = []
            for top in range(n - 1, n - 1 - w, -1):
                k = lengths[top + 1]
                j = bits(k)
                while j > top:
                    j = bits(k)
                variables.append(pool[j])
                pool[j] = pool[top]
        else:
            k = lengths[n]
            taken = set()
            variables = []
            for _ in range(w):
                j = bits(k)
                while j >= n or j in taken:
                    j = bits(k)
                taken.add(j)
                variables.append(j + 1)
        clause = [v if coin() < 0.5 else -v for v in variables]
        if planted and not any((lit > 0) == hidden[abs(lit) - 1] for lit in clause):
            k = below(w)
            v = abs(clause[k])
            clause[k] = v if hidden[v - 1] else -v
        clauses.append(clause)
    return CnfFormula(num_vars=n, clauses=clauses)


def enumerate_clause_universe(max_n: int, max_width: int) -> List[List[int]]:
    """Every clause over vars 1..max_n with 1..max_width distinct variables,
    no duplicate literals, no tautologies; canonical order."""
    universe: List[List[int]] = []
    for size in range(1, min(max_width, max_n) + 1):
        for combo in itertools.combinations(range(1, max_n + 1), size):
            for signs in itertools.product((1, -1), repeat=size):
                universe.append([s * v for s, v in zip(signs, combo)])
    return universe


def enumerate_formulas(
    max_n: int, max_m: int, max_width: int, *, start: int = 0, stop: Optional[int] = None
) -> Iterator[CnfFormula]:
    """Every formula (clause multiset, 1..max_m clauses) over the universe,
    or only those at positions ``start..stop - 1`` of that order: the
    formulas before ``start`` are skipped as index tuples, never built."""
    universe = enumerate_clause_universe(max_n, max_width)
    combos = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(len(universe)), m)
        for m in range(1, max_m + 1)
    )
    for combo in itertools.islice(combos, start, stop):
        yield CnfFormula(max_n, [list(universe[k]) for k in combo])


# ---------------------------------------------------------------------------
# differential adjudication
# ---------------------------------------------------------------------------

class DifferentialReport(NamedTuple):
    """Outcome tallies; total = agreements + disagreements + gate_failures.

    A disagreement's ``minimized`` is the shrink of the generated formula
    its ``label`` names (``random_cnf`` at that index, or that position of
    ``enumerate_formulas``); its ``instance`` is that formula's canonical
    DIMACS, whose sorted literals can shrink to another counterexample.
    ``extra`` holds the run-specific fields ``as_dict`` adds at top level.
    """

    config: dict
    generated: int
    total: int
    agreements: int
    disagreements: List[dict]
    gate_failures: int
    engine_errors: List[dict]
    unknown: int
    op_stats: dict
    extra: dict

    def as_dict(self) -> dict:
        doc = self._asdict()
        extra = doc.pop("extra")
        return {**doc, **extra}

    @property
    def violation(self) -> bool:
        """A gate failure, or a failed oracle-vs-oracle reduction check."""
        return self.gate_failures > 0 or self.extra.get("reduction_check_passed") is False


def _op_stats(points: Counter) -> dict:
    """Max op_total / N^3 ratio and the fitted log-log exponent over the
    op-count points with N > 0 and op_total > 0.

    ``points`` counts each distinct (N, op_total) pair, so its size is the
    number of distinct pairs (635 of the 27,404 formulas of the 3/4/3
    space), not of formulas.  The fit is least squares over the distinct
    (log10 N, log10 op_total) points weighted by their counts, summed with
    ``math.fsum``.
    """
    usable = [(N, ops, k) for (N, ops), k in points.items() if N > 0 and ops > 0]
    count = sum(k for _, _, k in usable)
    stats: dict = {"points": count, "max_ratio_cubic": None, "fitted_exponent": None}
    if usable:
        stats["max_ratio_cubic"] = max(ops / N**3 for N, ops, _ in usable)
    if len({N for N, _, _ in usable}) >= 2:
        logs = [(math.log10(N), math.log10(ops), k) for N, ops, k in usable]
        x_bar = math.fsum(k * x for x, _, k in logs) / count
        y_bar = math.fsum(k * y for _, y, k in logs) / count
        sxy = math.fsum(k * (x - x_bar) * (y - y_bar) for x, y, k in logs)
        sxx = math.fsum(k * (x - x_bar) ** 2 for x, _, k in logs)
        stats["fitted_exponent"] = round(sxy / sxx, 4)
    return stats


def _one_smaller(formula: CnfFormula) -> Iterator[CnfFormula]:
    """Every formula one step smaller, built lazily: each one-clause removal,
    then each one-literal removal in (clause, literal) order."""
    clauses = formula.clauses
    for i in range(len(clauses)):
        yield CnfFormula(formula.num_vars, [list(c) for k, c in enumerate(clauses) if k != i])
    for ci, clause in enumerate(clauses):
        for li in range(len(clause)):
            smaller = [list(c) for c in clauses]
            del smaller[ci][li]
            yield CnfFormula(formula.num_vars, smaller)


def shrink_disagreement(
    formula: CnfFormula, check: Callable[[CnfFormula], bool]
) -> CnfFormula:
    """Greedy minimization preserving ``check``: move to the first one-step
    smaller formula that passes (``_one_smaller``) until none does, then
    renumber variables densely.  Every step re-validates."""
    current = formula
    while True:
        smaller = next((c for c in _one_smaller(current) if check(c)), None)
        if smaller is None:
            break
        current = smaller
    dense, _ = restrict_to_used(current)
    if dense.num_vars != current.num_vars and check(dense):
        current = dense
    return current


class _Tally(NamedTuple):
    """What one chunk of a differential run's items found, in index order."""

    generated: int
    agreements: int
    unknown: int
    disagreements: List[dict]
    engine_errors: List[dict]
    points: Counter  # (N, op_total) of each solve, counted, for _op_stats
    reduction_holds: bool  # True unless a checked formula failed _reduction_holds


def _tally(
    labeled_formulas: Iterable[Tuple[str, CnfFormula]],
    brute_limit: int = BRUTE_VAR_LIMIT,
    check_reduction: bool = False,
) -> _Tally:
    """Engine (ops counted, invariant checks on, no trace events kept)
    against the oracle on every formula; each disagreement is archived with
    a minimized instance.  With ``check_reduction`` the oracle's verdict on
    each formula also feeds ``_reduction_holds``, until a formula fails it."""
    agreements = 0
    disagreements: List[dict] = []
    engine_errors: List[dict] = []
    unknown = 0
    generated = 0
    points: Counter = Counter()
    holds = True

    def engine_of(f: CnfFormula) -> Tuple[str, SolveRun]:
        run = solve_sat(f, count_ops=True, invariant_checks=True, keep_trace=False)
        return run.verdict.status, run

    def oracle_of(f: CnfFormula) -> str:
        return oracle_status(f, brute_limit=brute_limit)

    for label, formula in labeled_formulas:
        generated += 1
        status, run = engine_of(formula)
        points[sum(len(c) for c in formula.clauses), run.ops.total] += 1
        oracle = oracle_of(formula)
        if check_reduction:
            holds = holds and _reduction_holds(formula, oracle == "SAT")
        if status == "ERROR":
            detail = run.verdict.detail
        elif status == "SAT" and not evaluate(formula, run.verdict.assignment):
            # the engine's internal gate should make this unreachable
            detail = "external recheck: Sat assignment fails evaluate"
        else:
            detail = None
        if detail is not None:
            engine_errors.append(
                {"label": label, "instance": emit_dimacs(formula), "detail": detail}
            )
            continue
        if oracle == "UNKNOWN":
            unknown += 1
            continue
        if oracle == status:
            agreements += 1
            continue

        def still_disagrees(f: CnfFormula) -> bool:
            st, _ = engine_of(f)
            if st != status:
                return False
            return oracle_of(f) == oracle

        disagreements.append(
            {
                "label": label,
                "instance": emit_dimacs(formula),
                "engine": status,
                "oracle": oracle,
                "minimized": emit_dimacs(shrink_disagreement(formula, still_disagrees)),
            }
        )
    return _Tally(generated, agreements, unknown, disagreements, engine_errors, points, holds)


def _merge(tallies: List[_Tally], config: dict) -> DifferentialReport:
    """One report from the tallies of consecutive chunks: counts and op-count
    points summed, lists joined in chunk order, ``op_stats`` fitted once."""
    first, *rest = tallies
    disagreements, engine_errors, points = first.disagreements, first.engine_errors, first.points
    for tally in rest:
        disagreements += tally.disagreements
        engine_errors += tally.engine_errors
        points.update(tally.points)
    agreements = sum(tally.agreements for tally in tallies)
    gate_failures = len(engine_errors)
    return DifferentialReport(
        config=config,
        generated=sum(tally.generated for tally in tallies),
        total=agreements + len(disagreements) + gate_failures,
        agreements=agreements,
        disagreements=disagreements,
        gate_failures=gate_failures,
        engine_errors=engine_errors,
        unknown=sum(tally.unknown for tally in tallies),
        op_stats=_op_stats(points),
        extra={},
    )


def differential_run(cfg: FuzzConfig, *, brute_limit: int = BRUTE_VAR_LIMIT) -> DifferentialReport:
    """Engine vs oracle over the seeded corpus described by ``cfg``, sharded
    over instance indices (``shards.run``)."""

    def work(lo: int, hi: int) -> _Tally:
        corpus = ((f"seed-{cfg.seed}-{i}", random_cnf(cfg, i)) for i in range(lo, hi))
        return _tally(corpus, brute_limit)

    return _merge(shards.run(work, cfg.num_instances), {"mode": "fuzz", **cfg._asdict()})


def _check_space(max_n: int, max_m: int, max_width: int) -> int:
    """The number of formulas in a bounded formula space; refuses a space
    that is empty or too large to sweep: more than 2**32 formulas, the
    index range of a fuzz corpus."""
    for name, bound in (("max-n", max_n), ("max-m", max_m), ("max-width", max_width)):
        if type(bound) is not int:
            raise ValueError(f"{name} must be an int, got {bound!r}")
    if not 1 <= max_n <= 4:
        raise ValueError(f"max-n must be in 1..4, got {max_n}")
    if max_m < 1 or max_width < 1:
        raise ValueError(f"max-m and max-width must be positive, got {max_m} and {max_width}")
    if max_m > 2**32:  # too many formulas in any universe, and a count too long to print
        raise ValueError(f"max-m must be at most 2**32, got {max_m}")
    u = len(enumerate_clause_universe(max_n, max_width))
    size = math.comb(u + max_m, max_m) - 1  # multisets of 1..max_m of the u clauses
    if size > 2**32:
        raise ValueError(f"the space holds {size:,} formulas, more than the 2**32 a sweep takes")
    return size


def _reduction_holds(formula: CnfFormula, sat: bool) -> bool:
    """Oracle-vs-oracle equivalence on one formula whose satisfiability the
    oracle gave as ``sat``: it equals exhaustive covering existence of the
    reduced pair, and a covering witness maps to a satisfying assignment."""
    pair, used = to_decomposition(formula)
    covered, swaps = brute_covering(pair)
    if not covered:
        return not sat
    return sat and evaluate(formula, assignment_from_swaps(swaps, used, formula.num_vars))


def diff_exhaustive(max_n: int = 3, max_m: int = 4, max_width: int = 3) -> DifferentialReport:
    """Engine vs brute force over the full bounded formula space, walked
    once and sharded over formula positions (``shards.run``): the oracle's
    verdict on each formula also feeds ``_reduction_holds``, the
    oracle-vs-oracle reduction check.  The bounds are checked before
    anything is solved."""
    size = _check_space(max_n, max_m, max_width)

    def work(lo: int, hi: int) -> _Tally:
        formulas = enumerate_formulas(max_n, max_m, max_width, start=lo, stop=hi)
        return _tally(
            ((f"exhaustive-{i}", formula) for i, formula in enumerate(formulas, lo)),
            check_reduction=True,
        )

    tallies = shards.run(work, size)
    report = _merge(
        tallies, {"mode": "exhaustive", "max_n": max_n, "max_m": max_m, "max_width": max_width}
    )
    report.extra["reduction_check_passed"] = all(tally.reduction_holds for tally in tallies)
    return report


# ---------------------------------------------------------------------------
# the operation-growth probe
# ---------------------------------------------------------------------------

def probe_shape(target_length: int, width: int = 3) -> Tuple[int, int]:
    """Instance shape for a target total literal count: (num_vars, num_clauses).

    Variables grow like the square root of the target, so each variable
    occurs in about that many clauses while the clause count carries the
    growth.
    """
    n = max(width, round(math.sqrt(target_length)))
    m = max(1, round(target_length / width))
    return n, m


def complexity_probe(
    sizes: List[int],
    *,
    seed: int = 2024,
    instances_per_size: int = 2,
    width: int = 3,
) -> dict:
    """Solve planted instances of increasing total length, counting operations.

    Reports one row per instance plus the fitted log-log exponent and the
    maximum op_total / N^3 ratio.  This measures and reports; it asserts
    nothing about the growth.  No sizes, a size that is not a whole number
    (an int, or a float such as ``1e2`` that holds one) or is below 1, a
    ``width`` or ``instances_per_size`` that is not an int, a ``width``
    below 1, or an ``instances_per_size`` outside ``1..2**32`` raise
    ValueError before anything is solved.  Each instance is generated and
    solved with the cyclic garbage collector paused (``collector_paused``),
    keeping no trace events.
    """
    for size in sizes:
        if not (type(size) is int or isinstance(size, float) and size.is_integer()):
            raise ValueError(f"sizes must be whole numbers, got {size!r}")
    targets = [int(size) for size in sizes]
    if not targets or min(targets) < 1:
        raise ValueError(f"sizes must be a non-empty list of positive sizes, got {list(sizes)}")
    for name, bound in (("width", width), ("instances-per-size", instances_per_size)):
        if type(bound) is not int:
            raise ValueError(f"{name} must be an int, got {bound!r}")
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    if instances_per_size < 1:
        raise ValueError(f"instances-per-size must be positive, got {instances_per_size}")
    if instances_per_size > 2**32:
        raise ValueError(f"instances-per-size must be at most 2**32, got {instances_per_size}")
    rows: List[dict] = []
    points: Counter = Counter()  # the rows' (input_length, op_total), for _op_stats
    for target in targets:
        n, m = probe_shape(target, width)
        cfg = FuzzConfig(
            seed=seed,
            num_instances=instances_per_size,
            var_range=(n, n),
            clause_range=(m, m),
            width_range=(width, width),
            satisfiable_bias="planted",
        )
        for index in range(instances_per_size):
            with collector_paused():
                formula = random_cnf(cfg, index)
                start = time.perf_counter()
                run = solve_sat(formula, count_ops=True, keep_trace=False)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
            nnz = sum(len(c) for c in formula.clauses)
            points[nnz, run.ops.total] += 1
            rows.append(
                {
                    "target": target,
                    "input_length": nnz,
                    "n": formula.num_vars,
                    "m": len(formula.clauses),
                    "verdict": run.verdict.status,
                    "op_total": run.ops.total,
                    "extensions": run.extensions,
                    "elapsed_ms": round(elapsed_ms, 3),
                }
            )
    stats = _op_stats(points)
    gate_failures = sum(1 for row in rows if row["verdict"] == "ERROR")
    return {
        "mode": "probe",
        "seed": seed,
        "sizes": targets,
        "instances_per_size": instances_per_size,
        "width": width,
        "rows": rows,
        "op_stats": stats,
        "gate_failures": gate_failures,
    }
