"""CNF frontend: DIMACS parsing, the signed clause matrix, and the reduction.

A formula with n variables and m clauses can be viewed as an m x n matrix
with entries in {-1, 0, +1} (one row per clause, one column per variable);
``to_matrix`` builds it, but the reduction does not need it.  The reduction
to a decomposition pair puts, for each variable, the clauses holding its
negative literal on the alpha side and the clauses holding its positive
literal on the other side; a row swap then corresponds to assigning the
variable true.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .decomposition import DecompositionPair, StructuralError

Clause = List[int]
Assignment = Tuple[bool, ...]


class ParseError(ValueError):
    """DIMACS syntax or consistency error, carrying the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class CnfFormula:
    """A CNF formula as a clause list over variables 1..num_vars.

    Clauses are kept exactly as preprocessing left them; an empty clause is
    retained (it makes the formula unsatisfiable) so every consumer sees the
    same semantics.
    """

    num_vars: int
    clauses: List[Clause]

    def __post_init__(self):
        for idx, clause in enumerate(self.clauses, start=1):
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise StructuralError(
                        f"clause {idx}: literal {lit} outside +/-1..{self.num_vars}"
                    )


@dataclass(frozen=True)
class PreprocessReport:
    """What parsing normalized away, in original 1-based clause numbering."""

    removed_tautologies: tuple


# ---------------------------------------------------------------------------
# parsing and emission
# ---------------------------------------------------------------------------

def _preprocess_clause(raw: Clause) -> Optional[Clause]:
    """Dedupe literals; None for a tautology.  Literal order of first
    occurrence is preserved."""
    seen = set()
    out: Clause = []
    for lit in raw:
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    for lit in out:
        if -lit in seen:
            return None
    return out


def parse_dimacs(text: str) -> Tuple[CnfFormula, PreprocessReport]:
    """Parse DIMACS CNF text into a preprocessed formula plus a report.

    Comment lines start with 'c'; the header is ``p cnf <vars> <clauses>``;
    clauses are 0-terminated integer runs (the final terminator and newline
    are optional).  Errors carry 1-based line numbers.
    """
    num_vars = None
    declared_clauses = None
    header_line = 0
    tokens: List[Tuple[int, int]] = []  # (literal, line)
    last_line = 1
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        last_line = lineno
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if num_vars is not None:
                raise ParseError("duplicate header", lineno)
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise ParseError(f"malformed header {stripped!r}", lineno)
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header {stripped!r}", lineno) from None
            if num_vars < 0 or declared_clauses < 0:
                raise ParseError("header counts must be non-negative", lineno)
            header_line = lineno
            continue
        if num_vars is None:
            raise ParseError("clause data before header", lineno)
        for tok in stripped.split():
            try:
                val = int(tok)
            except ValueError:
                raise ParseError(f"non-integer token {tok!r}", lineno) from None
            tokens.append((val, lineno))
    if num_vars is None:
        raise ParseError("missing 'p cnf' header", header_line or last_line)

    raw_clauses: List[Clause] = []
    current: Clause = []
    for val, lineno in tokens:
        if val == 0:
            raw_clauses.append(current)
            current = []
            continue
        if abs(val) > num_vars:
            raise ParseError(f"literal {val} outside declared range 1..{num_vars}", lineno)
        current.append(val)
    if current:
        raw_clauses.append(current)  # unterminated final clause
    if len(raw_clauses) != declared_clauses:
        raise ParseError(
            f"header declares {declared_clauses} clauses, found {len(raw_clauses)}",
            last_line,
        )

    clauses: List[Clause] = []
    removed_tautologies: List[int] = []
    for idx, raw in enumerate(raw_clauses, start=1):
        clause = _preprocess_clause(raw)
        if clause is None:
            removed_tautologies.append(idx)
        else:
            clauses.append(clause)
    formula = CnfFormula(num_vars=num_vars, clauses=clauses)
    return formula, PreprocessReport(removed_tautologies=tuple(removed_tautologies))


def _canonical_clause(clause: Clause) -> Clause:
    return sorted(clause, key=lambda lit: (abs(lit), lit < 0))


def emit_dimacs(formula: CnfFormula) -> str:
    """Serialize to canonical DIMACS (sorted literals, one clause per line)."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lits = _canonical_clause(clause)
        lines.append(" ".join(str(l) for l in lits + [0]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# variable bookkeeping
# ---------------------------------------------------------------------------

def used_variables(formula: CnfFormula) -> List[int]:
    """Variables occurring in at least one clause, ascending."""
    return sorted({abs(lit) for clause in formula.clauses for lit in clause})


def restrict_to_used(formula: CnfFormula) -> Tuple[CnfFormula, List[int]]:
    """Renumber onto the used variables only.

    Returns the renumbered formula and the ascending list mapping new index
    position -> original variable (1-based on both sides).
    """
    used = used_variables(formula)
    # keyed by the used literals only: the header's num_vars sizes nothing
    remap = {}
    for k, v in enumerate(used, start=1):
        remap[v] = k
        remap[-v] = -k
    clauses = [[remap[lit] for lit in clause] for clause in formula.clauses]
    return CnfFormula(num_vars=len(used), clauses=clauses), used


# ---------------------------------------------------------------------------
# the reduction
# ---------------------------------------------------------------------------

def to_matrix(formula: CnfFormula) -> np.ndarray:
    """The read-only m x n int8 signed matrix; entry (j, i) is the sign of
    x_i in clause j, 0 when x_i does not occur."""
    entries = np.zeros((len(formula.clauses), formula.num_vars), dtype=np.int8)
    for j, clause in enumerate(formula.clauses):
        for lit in clause:
            entries[j, abs(lit) - 1] = 1 if lit > 0 else -1
    entries.setflags(write=False)
    return entries


def to_decomposition(formula: CnfFormula, *, alpha: str = "neg", ops=None) -> DecompositionPair:
    """Turn the formula into a decomposition pair, one row per variable and
    one column per clause.

    With ``alpha="neg"`` (default) the alpha side of variable row i holds the
    clauses containing the negative literal of x_i; ``alpha="pos"`` mirrors
    the orientation.  Requires every clause and every variable to occur
    (empty clauses and unused variables must be handled upstream).  The
    occurrence lists are filled straight from the clauses in one pass; a
    variable repeated inside a clause keeps the sign of its last literal,
    as in the signed matrix.
    """
    if alpha not in ("neg", "pos"):
        raise StructuralError(f"alpha must be 'neg' or 'pos', got {alpha!r}")
    n = formula.num_vars
    m = len(formula.clauses)
    if m == 0:
        raise StructuralError("formula has no clauses")
    # occ[lit] lists the clauses holding literal lit, ascending; a negative
    # literal indexes from the end, so occ[-v] is x_v's negative list
    occ: List[List[int]] = [[] for _ in range(2 * n + 1)]
    for j, clause in enumerate(formula.clauses):
        if not clause:
            raise StructuralError(f"clause {j + 1} is empty")
        for lit in clause:
            row = occ[lit]
            if row and row[-1] == j:
                continue
            other = occ[-lit]
            if other and other[-1] == j:
                other.pop()
            row.append(j)
    pos_rows = occ[1 : n + 1]
    neg_rows = occ[: n : -1]
    for i in range(n):
        if not neg_rows[i] and not pos_rows[i]:
            raise StructuralError(f"variable {i + 1} occurs in no clause")
    if ops is not None:
        # charged as the dense reduction: classify each cell of the signed
        # matrix once, write both matrices
        ops.cmp(m * n)
        ops.assign(2 * m * n)
    if alpha == "neg":
        return DecompositionPair(n, m, neg_rows, pos_rows)
    return DecompositionPair(n, m, pos_rows, neg_rows)


def assignment_from_swaps(swaps, used: List[int], num_vars: int, alpha: str) -> Assignment:
    """The assignment a swap set of the reduced pair encodes.

    Row r of the pair built by ``to_decomposition(restrict_to_used(f)[0],
    alpha=alpha)`` stands for variable ``used[r - 1]`` of f.  With
    ``alpha="neg"`` a swapped row's variable is true, with ``"pos"`` an
    unswapped one's; variables outside ``used`` are false.
    """
    swap_set = set(swaps)
    for r in swap_set:
        if not 1 <= r <= len(used):
            raise StructuralError(f"swap index {r} outside 1..{len(used)}")
    true_when_swapped = alpha == "neg"
    value = {v: (r in swap_set) == true_when_swapped for r, v in enumerate(used, start=1)}
    return tuple(value.get(v, False) for v in range(1, num_vars + 1))


def evaluate(formula: CnfFormula, assignment: Sequence[bool]) -> bool:
    """Evaluate the formula under a total assignment (index i-1 holds x_i)."""
    if len(assignment) != formula.num_vars:
        raise StructuralError(
            f"assignment length {len(assignment)} != num_vars {formula.num_vars}"
        )
    for clause in formula.clauses:
        satisfied = False
        for lit in clause:
            value = assignment[abs(lit) - 1]
            if (lit > 0) == bool(value):
                satisfied = True
                break
        if not satisfied:
            return False
    return True
