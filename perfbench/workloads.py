"""Workload definitions, the benchmark's own instance generator and checks.

Everything here is stdlib only and imports nothing from ``satcover``, so a
change to the package's generators (``random_cnf``, ``probe_shape``) cannot
change the threshold-3sat and probe inputs, and the clause check below is
independent of ``satcover.cnf.evaluate``.

Inputs come from fixed pools.  Pool entry ``k`` of a workload is a pure
function of (workload, size, k); a run's ``--seed`` picks the pool entry its
first round starts at, and round ``r`` uses entry ``(start + r) % pool``.
Every pool entry has a recorded contract reference, so any seed can be
checked.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

Clause = List[int]

# acceptance-suite fuzz corpus seeds; pool entry k offsets them by 1000 * k,
# so entry 0 is a prefix of the acceptance corpora
FUZZ_LOW_SEED = 20260823
FUZZ_HIGH_SEED = 20260824
FUZZ_BRUTE_LIMIT = 20


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at one scale.

    ``kind`` is "solve" (one ``satcover solve`` per instance) or "harness"
    (one harness call per batch).  A round is one pass over ``sizes`` for
    solve workloads, one harness batch set for harness workloads.
    ``round_s`` is the nominal time of one round, measured on a 2-core
    x86-64 box near the calibration's nominal speed; a run of S seconds does
    round(S / round_s) rounds, so every commit is measured on the same work.
    The pool holds at least twice the rounds of a 35-second run.
    """

    name: str
    kind: str
    round_s: float
    pool: int
    trace_rounds: int
    sizes: Tuple[int, ...] = ()
    count_ops: bool = False
    exhaustive: Tuple[int, int, int] = (0, 0, 0)
    fuzz_low: Tuple[int, int, int] = (0, 0, 0)  # instances, max vars, max clauses
    fuzz_high: Tuple[int, int, int, int] = (0, 0, 0, 0)  # instances, vars lo..hi, max clauses


FULL = {
    w.name: w
    for w in (
        # m = 4.26 n: the dense graph state and its snapshots dominate.  The
        # middle size appears three times a round so the median latency,
        # which falls in it, rests on many samples.  n = 1000 (about 4 s a
        # solve) leaves too few samples in a run to be steady.
        Workload(
            "threshold-3sat",
            "solve",
            round_s=2.3,
            pool=48,
            trace_rounds=1,
            sizes=(300, 500, 500, 500, 700),
        ),
        # the paper's probe shape n ~ sqrt(N), m = N/3, planted, op counting
        # on; N = 1e4 five times a round for the median latency
        Workload(
            "probe",
            "solve",
            round_s=2.9,
            pool=16,
            trace_rounds=1,
            sizes=(1_000, 3_000) + (10_000,) * 5 + (30_000, 100_000),
            count_ops=True,
        ),
        Workload("exhaustive", "harness", round_s=20.0, pool=1, trace_rounds=1, exhaustive=(3, 4, 3)),
        # 3:2 mix of the acceptance corpora shapes (n <= 20 brute, n 26..30 DPLL)
        Workload(
            "fuzz",
            "harness",
            round_s=1.65,
            pool=48,
            trace_rounds=3,
            fuzz_low=(300, 20, 120),
            fuzz_high=(200, 26, 30, 120),
        ),
    )
}

TINY = {
    w.name: w
    for w in (
        Workload("threshold-3sat", "solve", round_s=0.1, pool=2, trace_rounds=1, sizes=(20, 30, 40)),
        Workload(
            "probe", "solve", round_s=0.1, pool=2, trace_rounds=1, sizes=(100, 300, 1_000), count_ops=True
        ),
        Workload("exhaustive", "harness", round_s=0.1, pool=1, trace_rounds=1, exhaustive=(2, 2, 2)),
        Workload(
            "fuzz",
            "harness",
            round_s=0.1,
            pool=2,
            trace_rounds=1,
            fuzz_low=(20, 8, 30),
            fuzz_high=(5, 26, 27, 30),
        ),
    )
}

WORKLOAD_NAMES = tuple(FULL)


def workload(name: str, tiny: bool) -> Workload:
    return (TINY if tiny else FULL)[name]


def start_entry(seed: int, pool: int) -> int:
    """Pool entry of a run's first round; the same seed gives the same start."""
    return random.Random(seed).randrange(pool)


def rounds_for(w: Workload, seconds: float) -> int:
    return max(1, round(seconds / w.round_s))


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def random_3sat(num_vars: int, num_clauses: int, rng: random.Random, planted: bool) -> List[Clause]:
    """Uniform 3-SAT clauses over distinct variables.  In planted mode a hidden
    assignment is drawn first and a clause it falsifies gets one sign flipped."""
    hidden = [rng.random() < 0.5 for _ in range(num_vars)] if planted else None
    variables = range(1, num_vars + 1)
    clauses: List[Clause] = []
    for _ in range(num_clauses):
        clause = [v if rng.random() < 0.5 else -v for v in rng.sample(variables, 3)]
        if hidden is not None and not any((lit > 0) == hidden[abs(lit) - 1] for lit in clause):
            k = rng.randrange(3)
            v = abs(clause[k])
            clause[k] = v if hidden[v - 1] else -v
        clauses.append(clause)
    return clauses


def solve_instance(w: Workload, entry: int, position: int) -> Tuple[str, int, List[Clause]]:
    """(instance id, num_vars, clauses) at ``position`` of pool ``entry``'s round.

    threshold-3sat: ``size`` is n and m = round(4.26 n).  probe: ``size`` is
    the literal count N, with n = max(3, round(sqrt N)) and m = round(N / 3),
    planted so verdicts mix SAT and UNSAT.
    """
    size = w.sizes[position]
    instance_id = f"{w.name}/{size}/{entry}/{position}"
    rng = random.Random(instance_id)
    if w.name == "threshold-3sat":
        n = size
        return instance_id, n, random_3sat(n, round(4.26 * n), rng, planted=False)
    n = max(3, round(math.sqrt(size)))
    return instance_id, n, random_3sat(n, max(1, round(size / 3)), rng, planted=True)


def dimacs(num_vars: int, clauses: Sequence[Clause]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"


WARMUP_DIMACS = "p cnf 2 2\n1 2 0\n-1 2 0\n"


def fuzz_batches(w: Workload, entry: int) -> List[Tuple[str, dict]]:
    """The two ``FuzzConfig`` keyword sets of fuzz pool ``entry``."""
    low_count, low_vars, low_clauses = w.fuzz_low
    high_count, high_lo, high_hi, high_clauses = w.fuzz_high
    return [
        (
            f"fuzz/low/{entry}",
            dict(
                seed=FUZZ_LOW_SEED + 1000 * entry,
                num_instances=low_count,
                var_range=(1, low_vars),
                clause_range=(1, low_clauses),
                width_range=(1, 3),
            ),
        ),
        (
            f"fuzz/high/{entry}",
            dict(
                seed=FUZZ_HIGH_SEED + 1000 * entry,
                num_instances=high_count,
                var_range=(high_lo, high_hi),
                clause_range=(1, high_clauses),
                width_range=(1, 3),
            ),
        ),
    ]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def satisfies(clauses: Sequence[Clause], num_vars: int, literals: Sequence[int]) -> bool:
    """True iff ``literals`` is a total assignment over 1..num_vars (one signed
    literal per variable) that makes every clause true."""
    if sorted(abs(lit) for lit in literals) != list(range(1, num_vars + 1)):
        return False
    true = set(literals)
    return all(any(lit in true for lit in clause) for clause in clauses)


def trace_digest(events) -> str:
    """sha256 of the trace's kinds and payloads, op-counter readings left out."""
    doc = [[kind, [int(p) for p in payload]] for kind, payload in events]
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode("ascii")).hexdigest()


CONTRACT_KEYS = {
    "solve": ("verdict", "reason", "trace"),
    "harness": (
        "generated",
        "agreements",
        "unknown",
        "gate_failures",
        "engine_errors",
        "disagreements",
        "reduction_check_passed",
    ),
}


def contract(record: dict, kind: str) -> dict:
    """The behaviour-contract part of an operation record."""
    return {key: record[key] for key in CONTRACT_KEYS[kind]}


def failures(record: dict, kind: str, reference: Optional[dict]) -> int:
    """Failed operations in one record, judged against its reference.

    A solve record is one operation.  A harness record covers ``generated``
    instances; gate failures, engine errors and every disagreement, unknown
    or agreement that differs from the reference count as failed.
    """
    if kind == "solve":
        if record["problems"] or reference is None:
            return 1
        return int(contract(record, kind) != reference)
    if record["problems"] or reference is None:
        return max(1, record.get("generated", 0))
    failed = record["gate_failures"] + record["engine_errors"]
    mine = {tuple(d) for d in record["disagreements"]}
    theirs = {tuple(d) for d in reference["disagreements"]}
    failed += len(mine ^ theirs)
    failed += abs(record["unknown"] - reference["unknown"])
    if record["reduction_check_passed"] != reference["reduction_check_passed"]:
        failed += 1
    if failed == 0 and contract(record, kind) != reference:
        failed = max(1, abs(record["agreements"] - reference["agreements"]))
    return min(failed, max(1, record["generated"]))


def summarize_report(report) -> dict:
    """Contract fields of a ``DifferentialReport``."""
    return {
        "generated": report.generated,
        "agreements": report.agreements,
        "unknown": report.unknown,
        "gate_failures": report.gate_failures,
        "engine_errors": len(report.engine_errors),
        "disagreements": sorted(
            [d["label"], d["engine"], d["oracle"], d.get("minimized")]
            for d in report.disagreements
        ),
        "reduction_check_passed": report.extra.get("reduction_check_passed"),
    }
