"""Verification harness: oracles, generators, differential runs, probes.

The engine's verdicts are treated as hypotheses.  Brute-force enumeration
and a budgeted DPLL solver act as independent oracles; seeded generators
produce deterministic corpora; disagreements are archived with a shrunken
re-runnable instance.  The exhaustive sweep walks its space once and judges
each formula there by the oracle-vs-oracle reduction check too.
Disagreement with the oracle is a reportable finding, not a harness failure:
only soundness-gate and invariant violations are fatal.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import pickle
import random
import signal
import statistics
import threading
import time
from array import array
from typing import (
    BinaryIO, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, TypeVar,
)

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
from .solver import SolveRun, solve_sat

BRUTE_VAR_LIMIT = 25
DEFAULT_DPLL_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _truth_tables(k: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The truth tables of x_1..x_k and of their negations as 2^k-bit ints:
    bit a of table i is bit i of a.  Cached per k: at k = 16 the divisions
    cost more than evaluating a typical formula."""
    full = (1 << (1 << k)) - 1
    tables = tuple(
        full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i)) for i in range(k)
    )
    return tables, tuple(full ^ t for t in tables)


def brute_sat(
    formula: CnfFormula, *, limit_vars: int = BRUTE_VAR_LIMIT
) -> Tuple[bool, Optional[Tuple[bool, ...]]]:
    """Exhaustive satisfiability check by enumerating all assignments.

    Assignments are scanned in ascending bitmask order (bit i-1 holds x_i),
    so the witness is deterministic.  The low k = min(n, 16) variables are
    evaluated at once as 2^k-bit truth tables over Python ints (broadword
    evaluation, Knuth TAOCP 4A 7.1.3): bit a of table i is bit i of a, a
    clause is the OR of its low literals' tables, and a block of 2^k
    assignments sharing the high bits ``high`` survives where the AND of
    the clauses ``high`` leaves open is set.  Refuses formulas above the
    variable limit.
    """
    n = formula.num_vars
    if n > limit_vars:
        raise ValueError(f"brute_sat refuses n={n} > {limit_vars}")
    if any(len(clause) == 0 for clause in formula.clauses):
        return False, None
    k = min(n, 16)
    tables, negated = _truth_tables(k)
    parts = []  # per clause: (low table, high bits true in it, high bits false in it)
    for clause in formula.clauses:
        low = pos = neg = 0
        for lit in clause:
            v = abs(lit) - 1
            if v < k:
                low |= tables[v] if lit > 0 else negated[v]
            elif lit > 0:
                pos |= 1 << (v - k)
            else:
                neg |= 1 << (v - k)
        parts.append((low, pos, neg))
    for high in range(1 << (n - k)):
        live = -1  # all ones: every low assignment is open
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
    so the witness is deterministic.  Each pass of the propagation loop costs
    one step.

    The search is iterative (Davis, Logemann & Loveland 1962): a stack holds
    one frame per open decision, and one assignment dict with a trail of the
    variables set since each decision replaces per-node copies, so the depth
    of the search is not bounded by Python's recursion limit.
    """
    if any(len(clause) == 0 for clause in formula.clauses):
        return False, None
    budget = step_budget
    assignment: Dict[int, bool] = {}
    trail: List[int] = []
    # open decisions: [clauses before the decision, variable, next value
    # index into (True, False), trail length before the decision]
    stack: List[list] = []
    clauses: Optional[List[List[int]]] = [list(c) for c in formula.clauses]
    while True:
        if clauses is not None:  # a new node: propagate, then branch
            while True:
                budget -= 1
                if budget <= 0:
                    return None, None
                if not clauses:
                    n = formula.num_vars
                    return True, tuple([assignment.get(v, False) for v in range(1, n + 1)])
                unit = next((c[0] for c in clauses if len(c) == 1), None)
                if unit is None:
                    var = min(abs(l) for clause in clauses for l in clause)
                    stack.append([clauses, var, 0, len(trail)])
                    break
                assignment[abs(unit)] = unit > 0
                trail.append(abs(unit))
                clauses = _dpll_simplify(clauses, unit)
                if clauses is None:
                    break  # conflict: this node is unsatisfiable
        # take the next untried branch of the innermost open decision
        clauses = None
        while stack and clauses is None:
            frame = stack[-1]
            parent, var, k, mark = frame
            if k == 2:
                stack.pop()
                continue
            frame[2] = k + 1
            while len(trail) > mark:
                del assignment[trail.pop()]
            value = k == 0
            clauses = _dpll_simplify(parent, var if value else -var)
            if clauses is not None:
                assignment[var] = value
                trail.append(var)
        if clauses is None:
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
    ``satisfiable_bias`` is ``"none"`` or ``"planted"``; any other config
    raises ``ValueError`` when it is built, so the generator's rejection
    loops always end and no two (seed, index) pairs share an instance.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "FuzzConfig":
        self = super().__new__(cls, *args, **kwargs)
        # random.Random seeds from abs(), so a negative seed would repeat a
        # corpus; seed * 2**32 + index is one-to-one for index < 2**32
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be an int >= 0, got {self.seed!r}")
        for name in ("var_range", "clause_range", "width_range"):
            bounds = getattr(self, name)
            if not (
                isinstance(bounds, tuple)
                and len(bounds) == 2
                and all(isinstance(b, int) for b in bounds)
                and 1 <= bounds[0] <= bounds[1]
            ):
                raise ValueError(f"{name} must be a pair of ints 1 <= lo <= hi, got {bounds!r}")
        if not (isinstance(self.num_instances, int) and 0 <= self.num_instances <= 2**32):
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
# sharding
# ---------------------------------------------------------------------------

# Fewest items a shard is given.  On a 2-core x86-64 VM a second shard's
# fork, pipe and merge cost about 6 ms, against 0.09-0.16 ms per formula of
# a small exhaustive space and 0.7-0.8 ms per fuzz instance: two shards broke
# even at about 160 exhaustive formulas and 20 fuzz instances.
MIN_SHARD_ITEMS = 64

_T = TypeVar("_T")


def _shard_count(count: int) -> int:
    """One shard per usable CPU, each with at least ``MIN_SHARD_ITEMS``
    items; 1 (run in this process) off Linux or while another Python
    thread is alive, since a fork copies only the calling thread."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), count // MIN_SHARD_ITEMS))


def _fork_shard(work: Callable[[int, int], _T], lo: int, hi: int) -> Tuple[int, BinaryIO]:
    """Fork a child that pickles ``(True, work(lo, hi))``, or ``(False,
    exception)``, into a pipe and leaves by ``os._exit``: no atexit handler
    runs and no inherited buffer is flushed.  Returns (pid, pipe reader)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                result = (True, work(lo, hi))
            except Exception as exc:  # sent to the parent, which raises it
                result = (False, exc)
            with open(write_fd, "wb") as fh:
                pickle.dump(result, fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _stop(children: List[Tuple[int, BinaryIO]]) -> None:
    """Kill and reap every listed child."""
    while children:
        pid, reader = children.pop()
        reader.close()
        os.kill(pid, signal.SIGKILL)  # a child that has exited is a zombie until reaped
        os.waitpid(pid, 0)


def _sharded(work: Callable[[int, int], _T], count: int) -> List[_T]:
    """``work(lo, hi)`` over contiguous ranges that cover ``0..count - 1``,
    the results in range order.

    The ranges are one per shard (``_shard_count``).  This process runs the
    first and forked children the others, each sending its result back
    through a pipe.  With one shard, or when a fork or a pipe is refused,
    ``work(0, count)`` runs here alone.  An exception in a child is raised
    here again with its type (its traceback stays in the child: a run under
    ``taskset -c 0`` shows it); a child that ends without a result, killed
    by a signal for one, raises ``ChildProcessError``.  No child outlives
    the call.
    """
    shards = _shard_count(count)
    if shards == 1:
        return [work(0, count)]
    bounds = [count * s // shards for s in range(shards + 1)]
    children: List[Tuple[int, BinaryIO]] = []  # of shards 2..K, in order
    try:
        try:
            for s in range(1, shards):
                children.append(_fork_shard(work, bounds[s], bounds[s + 1]))
        except OSError:  # no process or pipe to spare
            _stop(children)
            return [work(0, count)]
        results = [work(bounds[0], bounds[1])]
        for s in range(1, shards):
            pid, reader = children[0]
            with reader:  # read as it arrives: the bytes are never held whole
                try:
                    sent = pickle.load(reader)
                except (EOFError, pickle.UnpicklingError):  # cut short: the child died
                    sent = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code != 0:
                how = (
                    f"was killed by signal {-code} ({signal.strsignal(-code)})"
                    if code < 0
                    else f"exited with status {code}"
                )
                raise ChildProcessError(
                    f"harness shard {s + 1} of {shards} (items {bounds[s]}..{bounds[s + 1] - 1}) "
                    f"{how} before sending its result"
                )
            ok, value = sent
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        _stop(children)


# ---------------------------------------------------------------------------
# differential adjudication
# ---------------------------------------------------------------------------

class _DifferentialReportFields(NamedTuple):
    config: dict
    generated: int
    total: int
    agreements: int
    disagreements: List[dict]
    gate_failures: int
    engine_errors: List[dict]
    unknown: int
    op_stats: dict
    extra: Optional[dict] = None  # a fresh dict per report when not given


class DifferentialReport(_DifferentialReportFields):
    """Outcome tallies; total = agreements + disagreements + gate_failures.

    A disagreement's ``minimized`` is the shrink of the generated formula
    its ``label`` names (``random_cnf`` at that index, or that position of
    ``enumerate_formulas``); its ``instance`` is that formula's canonical
    DIMACS, whose sorted literals can shrink to another counterexample.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "DifferentialReport":
        self = super().__new__(cls, *args, **kwargs)
        return self if self.extra is not None else self._replace(extra={})

    def as_dict(self) -> dict:
        doc = self._asdict()
        extra = doc.pop("extra")
        return {**doc, **extra}

    @property
    def violation(self) -> bool:
        """A gate failure, or a failed oracle-vs-oracle reduction check."""
        return self.gate_failures > 0 or self.extra.get("reduction_check_passed") is False


def _op_stats(lengths: array, totals: array) -> dict:
    """Max op_total / N^3 ratio and the fitted log-log exponent over the
    points (N = lengths[i], op_total = totals[i]) with N > 0 and op_total > 0.

    A sweep keeps one point per formula (814,384 at max-n 4), so the points
    are two int64 arrays and each log10 list refers to one float per
    distinct value; a tuple and two fresh floats per point took about 175 MB
    there.  The lists' elements equal those of fresh floats, so the stats do.
    """
    log_n: Dict[int, float] = {}
    log_ops: Dict[int, float] = {}
    xs: List[float] = []
    ys: List[float] = []
    for N, ops in zip(lengths, totals):
        if N > 0 and ops > 0:
            xs.append(log_n.setdefault(N, math.log10(N)))
            ys.append(log_ops.setdefault(ops, math.log10(ops)))
    stats: dict = {"points": len(xs), "max_ratio_cubic": None, "fitted_exponent": None}
    if xs:
        stats["max_ratio_cubic"] = max(
            ops / N**3 for N, ops in zip(lengths, totals) if N > 0 and ops > 0
        )
    if len(log_n) >= 2:
        slope, _ = statistics.linear_regression(xs, ys)
        stats["fitted_exponent"] = round(slope, 4)
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
    """What one contiguous range of a differential run found, in index order."""

    generated: int
    agreements: int
    unknown: int
    disagreements: List[dict]
    engine_errors: List[dict]
    lengths: array  # N and op_total of each solve, for _op_stats
    totals: array


def _tally(
    labeled_formulas: Iterable[Tuple[str, CnfFormula]], brute_limit: int = BRUTE_VAR_LIMIT
) -> _Tally:
    """Engine (ops counted, invariant checks on) against the oracle on every
    formula; each disagreement is archived with a minimized instance."""
    agreements = 0
    disagreements: List[dict] = []
    engine_errors: List[dict] = []
    unknown = 0
    generated = 0
    lengths = array("q")
    totals = array("q")

    def engine_of(f: CnfFormula) -> Tuple[str, SolveRun]:
        run = solve_sat(f, count_ops=True, invariant_checks=True)
        return run.verdict.status, run

    def oracle_of(f: CnfFormula) -> str:
        return oracle_status(f, brute_limit=brute_limit)

    for label, formula in labeled_formulas:
        generated += 1
        status, run = engine_of(formula)
        lengths.append(sum(len(c) for c in formula.clauses))
        totals.append(run.ops.total)
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
        oracle = oracle_of(formula)
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
    return _Tally(generated, agreements, unknown, disagreements, engine_errors, lengths, totals)


def _merge(tallies: List[_Tally], config: dict) -> DifferentialReport:
    """One report from the tallies of consecutive ranges: counts summed, lists
    and op-count points joined in range order, ``op_stats`` fitted once.

    The first tally's lists and arrays take the others' items, whose points
    are emptied as they are joined, so every point is held once."""
    first, *rest = tallies
    disagreements, engine_errors = first.disagreements, first.engine_errors
    lengths, totals = first.lengths, first.totals
    for tally in rest:
        disagreements += tally.disagreements
        engine_errors += tally.engine_errors
        lengths += tally.lengths
        totals += tally.totals
        del tally.lengths[:], tally.totals[:]
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
        op_stats=_op_stats(lengths, totals),
    )


def differential_run(cfg: FuzzConfig, *, brute_limit: int = BRUTE_VAR_LIMIT) -> DifferentialReport:
    """Engine vs oracle over the seeded corpus described by ``cfg``, sharded
    over instance indices (``_sharded``)."""

    def work(lo: int, hi: int) -> _Tally:
        corpus = ((f"seed-{cfg.seed}-{i}", random_cnf(cfg, i)) for i in range(lo, hi))
        return _tally(corpus, brute_limit)

    return _merge(_sharded(work, cfg.num_instances), {"mode": "fuzz", **cfg._asdict()})


def _check_space(max_n: int, max_m: int, max_width: int) -> int:
    """The number of formulas in a bounded formula space; refuses a space
    that is empty or too large to sweep."""
    if not 1 <= max_n <= 4:
        raise ValueError(f"max-n must be in 1..4, got {max_n}")
    if max_m < 1 or max_width < 1:
        raise ValueError(f"max-m and max-width must be positive, got {max_m} and {max_width}")
    u = len(enumerate_clause_universe(max_n, max_width))
    return sum(math.comb(u + m - 1, m) for m in range(1, max_m + 1))


def _reduction_holds(formula: CnfFormula) -> bool:
    """Oracle-vs-oracle equivalence on one formula: exhaustive satisfiability
    equals exhaustive covering existence of the reduced pair, and a covering
    witness maps to a satisfying assignment."""
    sat, _ = brute_sat(formula)
    pair, used = to_decomposition(formula)
    covered, swaps = brute_covering(pair)
    if not covered:
        return not sat
    return sat and evaluate(formula, assignment_from_swaps(swaps, used, formula.num_vars, "neg"))


def exhaustive_reduction_check(max_n: int = 3, max_m: int = 4, max_width: int = 3) -> bool:
    """Oracle-vs-oracle reduction check over the full bounded formula space:
    True iff ``_reduction_holds`` on every formula."""
    _check_space(max_n, max_m, max_width)
    return all(map(_reduction_holds, enumerate_formulas(max_n, max_m, max_width)))


def diff_exhaustive(max_n: int = 3, max_m: int = 4, max_width: int = 3) -> DifferentialReport:
    """Engine vs brute force over the full bounded formula space, walked
    once and sharded over formula positions (``_sharded``): each formula is
    also judged by ``_reduction_holds``, the oracle-vs-oracle reduction
    check.  The bounds are checked before anything is solved."""
    size = _check_space(max_n, max_m, max_width)

    def work(lo: int, hi: int) -> Tuple[_Tally, bool]:
        holds = True

        def corpus() -> Iterator[Tuple[str, CnfFormula]]:
            nonlocal holds
            formulas = enumerate_formulas(max_n, max_m, max_width, start=lo, stop=hi)
            for i, formula in enumerate(formulas, lo):
                holds = holds and _reduction_holds(formula)
                yield f"exhaustive-{i}", formula

        tally = _tally(corpus())
        return tally, holds

    shards = _sharded(work, size)
    report = _merge(
        [tally for tally, _ in shards],
        {"mode": "exhaustive", "max_n": max_n, "max_m": max_m, "max_width": max_width},
    )
    report.extra["reduction_check_passed"] = all(holds for _, holds in shards)
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
    nothing about the growth.  No sizes, or a size, ``width`` or
    ``instances_per_size`` below 1, raise ValueError before anything is
    solved.  Each instance is generated and solved with the cyclic garbage
    collector paused (``collector_paused``).
    """
    if not sizes or any(int(size) < 1 for size in sizes):
        raise ValueError(f"sizes must be a non-empty list of positive sizes, got {list(sizes)}")
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    if instances_per_size < 1:
        raise ValueError(f"instances-per-size must be positive, got {instances_per_size}")
    rows: List[dict] = []
    lengths = array("q")  # the rows' input_length and op_total, for _op_stats
    totals = array("q")
    for target in sizes:
        n, m = probe_shape(int(target), width)
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
                run = solve_sat(formula, count_ops=True)
                elapsed_ms = (time.perf_counter() - start) * 1000.0
            nnz = sum(len(c) for c in formula.clauses)
            lengths.append(nnz)
            totals.append(run.ops.total)
            rows.append(
                {
                    "target": int(target),
                    "input_length": nnz,
                    "n": formula.num_vars,
                    "m": len(formula.clauses),
                    "verdict": run.verdict.status,
                    "op_total": run.ops.total,
                    "extensions": run.extensions,
                    "elapsed_ms": round(elapsed_ms, 3),
                }
            )
    stats = _op_stats(lengths, totals)
    gate_failures = sum(1 for row in rows if row["verdict"] == "ERROR")
    return {
        "mode": "probe",
        "seed": seed,
        "sizes": [int(s) for s in sizes],
        "instances_per_size": instances_per_size,
        "width": width,
        "rows": rows,
        "op_stats": stats,
        "gate_failures": gate_failures,
    }
