"""CNF frontend: DIMACS parsing, the signed clause matrix, and the reduction.

``parse_dimacs`` checks the grammar and the range, ``CnfFormula`` that no
clause repeats a variable; the reader repairs clauses only when it refuses.
A formula with n variables and m clauses can be viewed as an m x n matrix
with entries in {-1, 0, +1} (one row per clause, one column per variable);
``to_matrix`` builds it for the tests, and stays in the package because the
benchmark's tracer patches it where ``solver`` and ``harness`` import it.
The reduction to a decomposition pair puts, for each variable that occurs,
the clauses holding its negative literal on the alpha side and the clauses
holding its positive literal on the other side; a row swap then corresponds
to assigning the variable true.  The mirrored orientation (``solve_sat``'s
``alpha="pos"``) is this reduction of the formula with every literal negated.
"""
from __future__ import annotations

import re
from collections import Counter, defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .decomposition import DecompositionPair, StructuralError, swap_set
from .instrument import DISABLED_OPS, OpCounter

Clause = List[int]
Assignment = Tuple[bool, ...]


class ParseError(ValueError):
    """DIMACS syntax or consistency error, carrying the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _CnfFormulaFields(NamedTuple):
    num_vars: int
    clauses: List[Clause]


class CnfFormula(_CnfFormulaFields):
    """A CNF formula as a clause list over variables 1..num_vars.

    A clause names each variable at most once: a repeated literal or a
    tautology (x and not x) is refused, which the reduction needs to be
    sound.  ``parse_dimacs`` checks the grammar and the range only, and
    repairs the clauses when this refuses them.  Clauses are otherwise kept
    as given; an empty clause is retained (it makes the formula
    unsatisfiable) so every consumer sees the same semantics.
    """

    __slots__ = ()

    def __new__(cls, num_vars: int, clauses: List[Clause]) -> "CnfFormula":
        for idx, clause in enumerate(clauses, start=1):
            variables = set()
            for lit in clause:
                v = abs(lit)
                if not 0 < v <= num_vars:
                    raise StructuralError(
                        f"clause {idx}: literal {lit} outside +/-1..{num_vars}", clause=idx
                    )
                variables.add(v)
            if len(variables) < len(clause):
                v = next(v for v, k in Counter(map(abs, clause)).items() if k > 1)
                raise StructuralError(f"clause {idx}: variable {v} occurs twice", clause=idx)
        return super().__new__(cls, num_vars, clauses)


# ---------------------------------------------------------------------------
# parsing and emission
# ---------------------------------------------------------------------------

# a literal is -?[0-9]+ in ASCII digits, never a negative zero; a count is
# plain ASCII digits (int() would also read 1_0, +1, -0 and other scripts'
# digits, and refuses a run over sys.get_int_max_str_digits())
_LITERAL = re.compile(r"-?0*[1-9][0-9]*|0+")
_COUNTS = re.compile(r"([0-9]+)\s+([0-9]+)")
# clause data read a block at a time: a block holding a character outside
# the literal alphabet or a negative zero is refused before int() reads it
_NON_LITERAL_CHAR = re.compile(r"[^\s0-9-]")
_NEGATIVE_ZERO = re.compile(r"-0+(?![0-9])")
BLOCK_LINES = 4096


def read_counts(text: str) -> Optional[Tuple[int, int]]:
    """The two counts of a header's stripped ``text``, or None."""
    counts = _COUNTS.fullmatch(text)
    try:
        return (int(counts[1]), int(counts[2])) if counts else None
    except ValueError:  # too many digits
        return None


def parse_dimacs(text: str) -> Tuple[CnfFormula, Tuple[int, ...]]:
    """Parse DIMACS CNF text into a preprocessed formula and the 1-based
    file positions of the clauses dropped as tautologies.

    Comment lines start with 'c'; the header is ``p cnf <vars> <clauses>``;
    clauses are 0-terminated literal runs (the final terminator and newline
    are optional).  The reader checks the grammar and the range, and
    ``CnfFormula`` that no clause repeats a variable: only when it refuses
    the clauses as cut is each clause from the refused one on deduplicated
    (first occurrences kept, in order) or dropped as a tautology, and the
    formula built again over every clause.

    The header and the lines before it are read one by one.  The clause data
    after it is read ``BLOCK_LINES`` lines at a time, with every per-token
    step in C: a block's lines are joined (comment lines dropped when the
    block holds a 'c'), two regex searches refuse any character other than
    whitespace, ASCII digits and '-' and any negative zero, so a token
    ``int()`` then reads is a literal of ``_LITERAL``'s grammar; one
    ``max``/``min`` checks the range, and the literals are cut into clauses
    at their zeros, an unfinished clause carrying into the next block.

    A block refused for any reason (a character or token outside the
    grammar, a literal outside the declared range) and a clause count that
    differs from the header's send the text to ``_body_error``, which walks
    the clause data line by line and raises the error with its 1-based line:
    a syntax error first wherever it is, then the first literal outside the
    declared range, then the clause count.
    """
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if not stripped.startswith("p"):
            raise ParseError("clause data before header", lineno)
        parts = stripped.split(None, 2)
        counts = read_counts(parts[2]) if parts[:2] == ["p", "cnf"] and parts[2:] else None
        if counts is None:
            raise ParseError(f"malformed header {stripped!r}", lineno)
        num_vars, declared_clauses = counts
        body_start = lineno
        break
    else:
        raise ParseError("missing 'p cnf' header", max(len(lines), 1))

    clauses: List[Clause] = []
    carry: List[int] = []  # the unfinished clause of the previous block
    for first in range(body_start, len(lines), BLOCK_LINES):
        block = lines[first:first + BLOCK_LINES]
        body = "\n".join(block)
        if "c" in body:
            body = "\n".join(line for line in block if not line.lstrip().startswith("c"))
        if _NON_LITERAL_CHAR.search(body) or _NEGATIVE_ZERO.search(body):
            raise _body_error(lines, body_start, num_vars, declared_clauses)
        try:
            literals = carry + list(map(int, body.split()))
        except ValueError:  # a misplaced '-', or too many digits
            raise _body_error(lines, body_start, num_vars, declared_clauses) from None
        if literals and (max(literals) > num_vars or -min(literals) > num_vars):
            raise _body_error(lines, body_start, num_vars, declared_clauses)
        start = 0
        for _ in range(literals.count(0)):
            end = literals.index(0, start)
            clauses.append(literals[start:end])
            start = end + 1
        carry = literals[start:]
    if carry:
        clauses.append(carry)  # unterminated final clause
    if len(clauses) != declared_clauses:
        raise _body_error(lines, body_start, num_vars, declared_clauses)
    try:
        return CnfFormula(num_vars=num_vars, clauses=clauses), ()
    except StructuralError as refused:  # the range is checked, so a variable repeats
        first = refused.clause - 1  # the clauses before the refused one stay as cut
    kept = clauses[:first]
    removed_tautologies: List[int] = []
    for position, clause in enumerate(clauses[first:], start=first + 1):
        distinct = len(set(map(abs, clause)))
        if distinct < len(clause):
            clause = list(dict.fromkeys(clause))  # first occurrences, in order
        if distinct == len(clause):
            kept.append(clause)
        else:  # x and not x
            removed_tautologies.append(position)
    return CnfFormula(num_vars=num_vars, clauses=kept), tuple(removed_tautologies)


def _body_error(
    lines: List[str], body_start: int, num_vars: int, declared_clauses: int
) -> ParseError:
    """The error of clause data ``parse_dimacs`` refused, found by walking
    the lines after the header (``lines[body_start:]``) one by one."""
    out_of_range: Optional[ParseError] = None
    found = 0
    open_clause = False  # a literal read since the last terminator
    for lineno, line in enumerate(lines[body_start:], start=body_start + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            return ParseError("duplicate header", lineno)
        for tok in stripped.split():
            try:
                lit = int(tok) if _LITERAL.fullmatch(tok) else None
            except ValueError:  # too many digits
                lit = None
            if lit is None:
                return ParseError(f"non-integer token {tok!r}", lineno)
            if not lit:
                found += 1
            elif abs(lit) > num_vars and out_of_range is None:
                out_of_range = ParseError(
                    f"literal {lit} outside declared range 1..{num_vars}", lineno
                )
            open_clause = lit != 0
    if out_of_range is not None:
        return out_of_range
    found += open_clause
    return ParseError(f"header declares {declared_clauses} clauses, found {found}", max(len(lines), 1))


def _canonical_clause(clause: Clause) -> Clause:
    return sorted(clause, key=lambda lit: (abs(lit), lit < 0))


def emit_dimacs(formula: CnfFormula) -> str:
    """Serialize to canonical DIMACS (sorted literals, one clause per line)."""
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(map(str, _canonical_clause(clause) + [0])))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# variable bookkeeping
# ---------------------------------------------------------------------------

def restrict_to_used(formula: CnfFormula) -> Tuple[CnfFormula, List[int]]:
    """Renumber onto the used variables only.

    Returns the renumbered formula and the ascending list mapping new index
    position -> original variable (1-based on both sides).
    """
    used = sorted({abs(lit) for clause in formula.clauses for lit in clause})
    # keyed by the used literals only: the header's num_vars sizes nothing
    remap = {sign * v: sign * k for k, v in enumerate(used, start=1) for sign in (1, -1)}
    clauses = [[remap[lit] for lit in clause] for clause in formula.clauses]
    return CnfFormula(num_vars=len(used), clauses=clauses), used


# ---------------------------------------------------------------------------
# the reduction
# ---------------------------------------------------------------------------

def to_matrix(formula: CnfFormula) -> List[List[int]]:
    """The m x n signed matrix as row lists; entry [j][i] is the sign of
    x_i in clause j, 0 when x_i does not occur."""
    rows = [[0] * formula.num_vars for _ in formula.clauses]
    for row, clause in zip(rows, formula.clauses):
        for lit in clause:
            row[abs(lit) - 1] = 1 if lit > 0 else -1
    return rows


def to_decomposition(
    formula: CnfFormula, *, ops: OpCounter = DISABLED_OPS
) -> Tuple[DecompositionPair, List[int]]:
    """Turn the formula into a decomposition pair, one row per used variable
    and one column per clause; return it with ``used``.

    ``used`` lists the variables that occur, ascending, and row r of the
    pair stands for variable ``used[r - 1]``: a variable that occurs in no
    clause gets no row, and the header's num_vars sizes nothing.  The alpha
    side of a variable's row holds the clauses containing its negative
    literal, the other side those containing its positive literal.  An empty
    clause is refused.  The occurrence lists are filled in one pass, keyed
    by literal: a clause names each variable once, so every row is strictly
    ascending and its two sides are disjoint.
    """
    m = len(formula.clauses)
    if m == 0:
        raise StructuralError("formula has no clauses")
    # occ[lit] lists the clauses holding literal lit, ascending
    occ: Dict[int, List[int]] = defaultdict(list)
    for j, clause in enumerate(formula.clauses):
        if not clause:
            raise StructuralError(f"clause {j + 1} is empty")
        for lit in clause:
            occ[lit].append(j)
    used = sorted({abs(lit) for lit in occ})
    pos_rows = [occ.get(v, ()) for v in used]
    neg_rows = [occ.get(-v, ()) for v in used]
    filed = sum(map(len, occ.values()))  # N: each literal read and filed once
    ops.cmp(filed)
    ops.assign(filed)
    return DecompositionPair(len(used), m, neg_rows, pos_rows), used


def assignment_from_swaps(swaps, used: List[int], num_vars: int) -> Assignment:
    """The assignment a swap set of the reduced pair encodes.

    Row r of the pair ``to_decomposition(f)`` returns stands for variable
    ``used[r - 1]`` of f, ``used`` being the list it returns alongside.  A
    swapped row's variable is true; variables outside ``used`` are false.
    """
    swapped = swap_set(swaps, len(used))
    assignment = [False] * num_vars
    for r, v in enumerate(used, start=1):
        assignment[v - 1] = r in swapped
    return tuple(assignment)


def evaluate(formula: CnfFormula, assignment: Sequence[bool]) -> bool:
    """Evaluate the formula under a total assignment (index i-1 holds x_i)."""
    if len(assignment) != formula.num_vars:
        raise StructuralError(
            f"assignment length {len(assignment)} != num_vars {formula.num_vars}"
        )
    for clause in formula.clauses:
        for lit in clause:
            if (lit > 0) == bool(assignment[abs(lit) - 1]):
                break
        else:
            return False
    return True
