"""DIMACS parsing, canonical emission, and the matrix reduction."""
import re
from typing import List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satcover import (
    CnfFormula,
    OpCounter,
    ParseError,
    StructuralError,
    assignment_from_swaps,
    emit_dimacs,
    evaluate,
    parse_dimacs,
    restrict_to_used,
    to_decomposition,
)
from satcover import cnf
from satcover.cnf import to_matrix
from satcover.decomposition import validate

from conftest import formulas, naive_input_length, negated
from satcover import input_length


def _preprocess_clause(raw):
    """Dedupe literals; None for a tautology.  Literal order of first
    occurrence is preserved."""
    seen = set()
    out = []
    for lit in raw:
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    for lit in out:
        if -lit in seen:
            return None
    return out


def reference_parse_dimacs(text):
    """The three-pass reader ``parse_dimacs`` replaced, kept as its
    reference: integers are read with ``int()``, so it also takes ``1_0``,
    ``+1``, ``-0`` and non-ASCII digits."""
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

    raw_clauses = []
    current = []
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

    clauses = []
    removed_tautologies = []
    for idx, raw in enumerate(raw_clauses, start=1):
        clause = _preprocess_clause(raw)
        if clause is None:
            removed_tautologies.append(idx)
        else:
            clauses.append(clause)
    return CnfFormula(num_vars=num_vars, clauses=clauses), tuple(removed_tautologies)


TOO_LONG = "1" * 4301  # one digit over int()'s default limit

# tokens int() reads that the grammar refuses: header counts are [0-9]+,
# literals -?[0-9]+ without a negative zero
COUNT = re.compile(r"[0-9]+")
LITERAL = re.compile(r"0+|-?0*[1-9][0-9]*")


def reads_as_int(tok: str) -> bool:
    try:
        int(tok)
    except ValueError:
        return False
    return True


def has_refused_token(text: str) -> bool:
    for line in text.splitlines():
        if line.strip().startswith("c"):
            continue  # a comment line is never read
        grammar = COUNT if line.strip().startswith("p") else LITERAL
        if any(reads_as_int(tok) and not grammar.fullmatch(tok) for tok in line.split()):
            return True
    return False


ODD_TOKEN = st.sampled_from(
    [
        "x", "--1", "-", "1-2", "+1", "1_0", "-0", "-00", "00", "007", "01", "-007", "\u0661",
        "+0", "1e3", "-9", "-01", "0-1", "1-",
    ]
)
# str.split() and str.strip() treat \x1f and the Unicode spaces as blanks;
# \x0b, \x0c, \x1c, \x85 and \u2028 also end a line for str.splitlines()
SEPARATOR = st.sampled_from(
    [
        " ", "  ", "\t", "\n", "\r\n", "\n\n", "\nc note\n", "\xa0", "\x0b", "\x0c", "\x1c",
        "\x1f", "\x85", "\u2028", "\nc 1 -0 x\n", "\n\tc 2 x\n",
    ]
)


@st.composite
def dimacs_texts(draw):
    """DIMACS-like texts: a clause list's tokens laid out over random lines,
    with the final terminator sometimes left off, empty and tautological
    clauses, literals past the declared range, mismatched or odd header
    counts, stray or doubled headers and a few odd tokens mixed in."""
    num_vars = draw(st.integers(0, 6))
    literal = st.integers(-max(num_vars, 1), max(num_vars, 1)).filter(bool)
    clauses = draw(st.lists(st.lists(literal, max_size=5), max_size=6))
    tokens = [str(lit) for clause in clauses for lit in clause + [0]]
    if tokens and draw(st.booleans()):
        tokens.pop()
    if draw(st.integers(0, 3)) == 0:
        for _ in range(draw(st.integers(1, 2))):
            tokens.insert(draw(st.integers(0, len(tokens))), draw(ODD_TOKEN))
    count = st.one_of(st.integers(0, 8).map(str), ODD_TOKEN, st.just("-1"))
    declared = len(clauses) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    proper = f"p cnf {num_vars} {declared}"
    odd = [f"p cnf {draw(count)} {draw(count)}", "p cnf 3", "p dnf 1 1", ""]
    header = proper if draw(st.integers(0, 3)) else draw(st.sampled_from(odd))
    if draw(st.integers(0, 3)) == 0:
        line = draw(st.sampled_from(["p cnf 1 1", "c p", "cnf"]))
        tokens.insert(draw(st.integers(0, len(tokens))), f"\n{line}\n")
    body = "".join(tok + draw(SEPARATOR) for tok in tokens)
    return draw(st.sampled_from(["", "c head\n"])) + header + "\n" + body


def assert_reads_as_the_reference(text):
    """Same formula, tautology report and error text and line as the
    reference, except on a token the strict grammar refuses, which the
    reader must refuse."""
    expected = outcome(reference_parse_dimacs, text)
    got = outcome(parse_dimacs, text)
    if has_refused_token(text):
        assert got[0] == "error", (text, expected, got)
    else:
        assert got == expected, (text, expected, got)


def outcome(reader, text):
    try:
        formula, removed = reader(text)
    except ParseError as exc:
        return "error", str(exc), exc.line
    return formula.num_vars, formula.clauses, removed


class TestParse:
    def test_basic(self):
        formula, removed = parse_dimacs("p cnf 2 2\n-1 2 0\n1 0\n")
        assert formula.num_vars == 2
        assert formula.clauses == [[-1, 2], [1]]
        assert removed == ()

    def test_comments_and_blank_lines(self):
        text = "c a comment\n\np cnf 2 1\nc another\n1 -2 0\n"
        formula, _ = parse_dimacs(text)
        assert formula.clauses == [[1, -2]]

    def test_clause_spanning_lines(self):
        formula, _ = parse_dimacs("p cnf 3 1\n1 2\n3 0\n")
        assert formula.clauses == [[1, 2, 3]]

    def test_multiple_clauses_on_one_line(self):
        formula, _ = parse_dimacs("p cnf 2 2\n1 0 -2 0\n")
        assert formula.clauses == [[1], [-2]]

    def test_tautology_removed(self):
        formula, removed = parse_dimacs("p cnf 1 1\n1 -1 0\n")
        assert formula.clauses == []
        assert removed == (1,)

    def test_duplicate_literal_deduped(self):
        formula, _ = parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
        assert formula.clauses == [[1, -2]]

    def test_empty_clause_retained(self):
        formula, _ = parse_dimacs("p cnf 1 2\n1 0\n0\n")
        assert formula.clauses == [[1], []]

    def test_unterminated_final_clause_accepted(self):
        formula, _ = parse_dimacs("p cnf 2 2\n1 0\n-1 2\n")
        assert formula.clauses == [[1], [-1, 2]]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "1 0\n",
            "p cnf\n",
            "p cnf 1\n",
            "p dnf 1 1\n1 0\n",
            "p cnf 1 1\np cnf 1 1\n1 0\n",
            "p cnf 1 1\n2 0\n",
            "p cnf 1 2\n1 0\n",
            "p cnf 1 1\n1 0\n-1 0\n",
            "p cnf 1 1\nx 0\n",
            "p cnf 0 1\n1 0\n",
            "p cnf 1_0 1\n",
            "p cnf +1 1\n",
            "p cnf 1 1\n+1 0\n",
            "p cnf 10 1\n1_0 0\n",
            "p cnf 1 1\n-0 1 0\n",
            "p cnf 1 1\n--1 0\n",
            "p cnf 1 1\n\u0661 0\n",
            f"p cnf {TOO_LONG} 2\n1 0\n",
            f"p cnf 1 1\n{TOO_LONG} 0\n",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_dimacs(text)

    @pytest.mark.parametrize(
        "text",
        [
            f"p cnf {TOO_LONG} 1\n1 0\n",
            f"p cnf 1 {TOO_LONG}\n1 0\n",
            f"p cnf 1 1\n{TOO_LONG} 0\n",
            f"p cnf 1 1\n-{TOO_LONG} 0\n",
            f"p cnf 1 1\n{'0' * len(TOO_LONG)} 0\n",
            f"p cnf 1 1\n1 {TOO_LONG} x 0\n",
        ],
    )
    def test_too_many_digits_read_as_the_reference(self, text):
        # the grammar takes any digit run, and int() refuses one over its
        # digit limit: the same error text and line as the reference
        assert outcome(parse_dimacs, text) == outcome(reference_parse_dimacs, text)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_dimacs("p cnf 1 1\n2 0\n")
        assert info.value.line == 2
        assert "line 2" in str(info.value)

    @given(dimacs_texts())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_reader(self, text):
        assert_reads_as_the_reference(text)

    @pytest.mark.parametrize("block_lines", [1, 2, 3])
    @given(text=dimacs_texts())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_reader_in_small_blocks(self, block_lines, text):
        # the texts above fit in one block; blocks of a few lines carry
        # clauses, comments and errors across block boundaries
        with mock.patch.object(cnf, "BLOCK_LINES", block_lines):
            assert_reads_as_the_reference(text)

    @pytest.mark.parametrize(
        "edits, error",
        [
            ({}, None),
            ({4500: "1 7 0"}, "line 4500: literal 7 outside declared range 1..6"),
            ({4500: "1 7 0", 4800: "2 --1 0"}, "line 4800: non-integer token '--1'"),
            ({4500: "c 1 -0 x", 4800: "p cnf 6 1"}, "line 4800: duplicate header"),
            ({4800: "2 -1 -00"}, "line 4800: non-integer token '-00'"),
            # a clause to repair that holds an out-of-range literal is
            # refused: the range is checked before any clause is repaired
            ({4500: "1 -1 7 0"}, "line 4500: literal 7 outside declared range 1..6"),
            ({4500: "2 2 7 0"}, "line 4500: literal 7 outside declared range 1..6"),
        ],
        ids=[
            "valid", "out-of-range", "refused-token-first", "duplicate-header", "negative-zero",
            "tautology-out-of-range", "repeat-out-of-range",
        ],
    )
    def test_text_longer_than_a_block(self, edits, error):
        # 5,000 lines; the first block is lines 2-4097, and the clause on
        # lines 4096-4098 spans its end and repeats a literal across it.
        # Each edit replaces a one-clause line past the first block.
        lines = [f"{k % 6 + 1} -{(k + 1) % 6 + 1} 0" for k in range(4094)]
        lines += ["3 -4", "5 3", "3 0"]
        lines += [f"-{k % 6 + 1} {(k + 3) % 6 + 1} 0" for k in range(5000 - 1 - len(lines))]
        lines.insert(0, f"p cnf 6 {len(lines) - 2}")
        for lineno, line in edits.items():
            lines[lineno - 1] = line
        text = "\n".join(lines) + "\n"
        assert len(lines) == 5000 and cnf.BLOCK_LINES == 4096
        got = outcome(parse_dimacs, text)
        if error is None:
            assert got[1][4094] == [3, -4, 5]
        else:
            assert got[:2] == ("error", error)
        assert_reads_as_the_reference(text)

    @pytest.mark.parametrize(
        "edits, removed",
        [
            ({1: "2 5 -2 0"}, (1,)),
            ({2500: "2 5 -2 0"}, (2500,)),
            ({5000: "2 5 -2 0"}, (5000,)),
            ({2500: "2 5 -2 0", 4999: "3 3 -4 0"}, (2500,)),
        ],
        ids=["first", "middle", "last", "middle-and-a-repeat-after-it"],
    )
    def test_repair_from_the_refused_clause(self, edits, removed):
        # 5,000 one-line clauses, over a block; the repair starts at the
        # clause the formula refuses and keeps the clauses before it as cut
        lines = [f"{k % 6 + 1} -{(k + 1) % 6 + 1} 0" for k in range(5000)]
        for position, line in edits.items():
            lines[position - 1] = line
        text = "p cnf 6 5000\n" + "\n".join(lines) + "\n"
        formula, got_removed = parse_dimacs(text)
        assert got_removed == removed
        assert len(formula.clauses) == 4999
        assert (formula, got_removed) == reference_parse_dimacs(text)


class TestFormula:
    def test_literal_zero_rejected(self):
        with pytest.raises(StructuralError):
            CnfFormula(1, [[0]])

    def test_literal_out_of_range_rejected(self):
        with pytest.raises(StructuralError):
            CnfFormula(1, [[2]])

    @pytest.mark.parametrize(
        "num_vars, clauses, message",
        [
            (1, [[1, -1], [1]], "clause 1: variable 1 occurs twice"),
            (2, [[1, 1]], "clause 1: variable 1 occurs twice"),
            (3, [[1, 2], [-3, 2, 3]], "clause 2: variable 3 occurs twice"),
            # the range check comes first within a clause
            (1, [[1, 1, 2]], "clause 1: literal 2 outside +/-1..1"),
        ],
    )
    def test_variable_named_twice_rejected(self, num_vars, clauses, message):
        with pytest.raises(StructuralError) as info:
            CnfFormula(num_vars, clauses)
        assert str(info.value) == message
        # the refusal names its clause, 1-based, for the reader's repair
        assert info.value.clause == int(message.split()[1].rstrip(":"))


class TestEmit:
    def test_canonical_order(self):
        formula = CnfFormula(3, [[3, -1, 2]])
        assert emit_dimacs(formula) == "p cnf 3 1\n-1 2 3 0\n"

    def test_negative_after_positive_same_var(self):
        formula = CnfFormula(2, [[-1, 2], [1]])
        assert emit_dimacs(formula) == "p cnf 2 2\n-1 2 0\n1 0\n"

    def test_empty_clause(self):
        assert emit_dimacs(CnfFormula(1, [[]])) == "p cnf 1 1\n0\n"

    @given(formulas())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_fixpoint(self, formula):
        first = emit_dimacs(formula)
        reparsed, _ = parse_dimacs(first)
        assert emit_dimacs(reparsed) == first


class TestUsedVariables:
    def test_used_and_unused(self):
        formula = CnfFormula(5, [[-4, 2]])
        assert restrict_to_used(formula)[1] == [2, 4]

    def test_restrict_to_used(self):
        formula = CnfFormula(5, [[-4, 2]])
        sub, used = restrict_to_used(formula)
        assert used == [2, 4]
        assert sub.num_vars == 2
        assert sub.clauses == [[-2, 1]]

    def test_restrict_identity_when_all_used(self, e1):
        sub, used = restrict_to_used(e1)
        assert used == [1, 2]
        assert sub.clauses == e1.clauses


def rows_with_sign(matrix, sign: int, n: int):
    """Per column of the signed matrix, the rows whose entry is ``sign``."""
    return tuple(tuple(j for j, row in enumerate(matrix) if row[i] == sign) for i in range(n))


class TestMatrix:
    def test_e1_matrix(self, e1):
        assert to_matrix(e1) == [[-1, 1], [1, 0]]

    def test_tautology_must_be_preprocessed_upstream(self):
        # the reduction is unsound on a clause that names x1 twice: the
        # formula refuses it, and the reader drops it as a tautology
        with pytest.raises(StructuralError, match="^clause 1: variable 1 occurs twice$"):
            CnfFormula(2, [[1, -1]])
        formula, removed = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0\n")
        assert (formula.clauses, removed) == ([[2]], (1,))


@st.composite
def raw_formulas(draw):
    """Non-empty formulas of non-empty clauses, each naming a variable at
    most once, in any order and with any signs, over a variable range that
    may leave some variables unused."""
    n = draw(st.integers(1, 6))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clause = st.lists(literal, min_size=1, max_size=6, unique_by=abs)
    return CnfFormula(n + draw(st.integers(0, 3)), draw(st.lists(clause, min_size=1, max_size=8)))


class TestToDecomposition:
    @given(raw_formulas())
    @settings(max_examples=200, deadline=None)
    def test_output_is_a_valid_decomposition(self, formula):
        # solve_sat relies on this and does not validate the pair it builds;
        # alpha="pos" reduces the negated formula
        for reduced in (formula, negated(formula)):
            assert validate(to_decomposition(reduced)[0]) == ()

    @given(raw_formulas())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_renumbered_signed_matrix(self, formula):
        # row i's alpha side is the clauses with -1 in column i of the
        # renumbered formula's signed matrix, and the negated formula's
        # alpha side the clauses with +1
        sub, used = restrict_to_used(formula)
        matrix = to_matrix(sub)
        neg_rows = rows_with_sign(matrix, -1, sub.num_vars)
        pos_rows = rows_with_sign(matrix, 1, sub.num_vars)
        mirrored = (negated(formula), (pos_rows, neg_rows))
        for reduced, sides in ((formula, (neg_rows, pos_rows)), mirrored):
            pair, got_used = to_decomposition(reduced)
            assert got_used == used
            assert (pair.n, pair.m) == (sub.num_vars, len(matrix))
            assert (pair.alpha_rows, pair.bar_rows) == sides

    def test_neg_orientation(self, e1):
        pair, used = to_decomposition(e1)
        assert used == [1, 2]
        assert pair.alpha_rows == ((0,), ())
        assert pair.bar_rows == ((1,), (0,))

    def test_pos_orientation(self, e1):
        # the negated formula's pair mirrors e1's
        pair, _ = to_decomposition(negated(e1))
        assert pair.alpha_rows == ((1,), (0,))
        assert pair.bar_rows == ((0,), ())

    def test_empty_clause_row_rejected(self):
        with pytest.raises(StructuralError) as info:
            to_decomposition(CnfFormula(1, [[1], []]))
        assert "2" in str(info.value)

    def test_unused_variable_gets_no_row(self):
        # x1 and x3 occur in no clause; rows stand for x2 and x4
        pair, used = to_decomposition(CnfFormula(5, [[-4, 2], [2]]))
        assert used == [2, 4]
        assert pair.alpha_rows == ((), (0,))
        assert pair.bar_rows == ((0, 1), ())

    def test_operation_charges(self, e1):
        ops = OpCounter()
        to_decomposition(e1, ops=ops)
        # one read and one filed occurrence entry per literal
        literals = sum(map(len, e1.clauses))
        assert (ops.assignments, ops.arithmetic, ops.comparisons) == (literals, 0, literals)

    @given(formulas())
    @settings(max_examples=60, deadline=None)
    def test_nonzeros_equal_input_length(self, formula):
        matrix = to_matrix(restrict_to_used(formula)[0])
        pair, _ = to_decomposition(formula)
        assert sum(entry != 0 for row in matrix for entry in row) == input_length(pair)
        # the occurrence lists agree with the signed matrix cell by cell
        assert pair.alpha_rows == rows_with_sign(matrix, -1, pair.n)
        assert pair.bar_rows == rows_with_sign(matrix, 1, pair.n)
        assert input_length(pair) == naive_input_length(pair)


class TestEvaluate:
    def test_truth_table(self, e1):
        assert evaluate(e1, (True, True))
        assert not evaluate(e1, (False, True))
        assert not evaluate(e1, (False, False))
        assert evaluate(e1, (True, False)) is False  # clause 1 fails

    def test_empty_clause_never_satisfied(self):
        assert not evaluate(CnfFormula(1, [[]]), (True,))

    def test_no_clauses_always_satisfied(self):
        assert evaluate(CnfFormula(1, []), (False,))

    def test_length_mismatch_rejected(self, e1):
        with pytest.raises(ValueError):
            evaluate(e1, (True,))


class TestAssignmentFromSwaps:
    def test_basic(self):
        assert assignment_from_swaps({1}, [1, 2, 3], 3) == (True, False, False)
        assert assignment_from_swaps(set(), [1, 2], 2) == (False, False)

    def test_rows_map_through_used_variables(self):
        # rows 1 and 2 stand for x2 and x4; x1, x3 and x5 stay false
        assert assignment_from_swaps({2}, [2, 4], 5) == (False, False, False, True, False)
        assert assignment_from_swaps({1}, [2, 4], 5) == (False, True, False, False, False)

    def test_out_of_range_rejected(self):
        with pytest.raises(StructuralError):
            assignment_from_swaps({4}, [1, 2, 3], 3)
        with pytest.raises(StructuralError):
            assignment_from_swaps({0}, [1, 2, 3], 3)

    @pytest.mark.parametrize("index", [1.5, "1"])
    def test_non_integer_rejected(self, index):
        # 1.5 used to be dropped silently, "1" to fail a bare comparison
        with pytest.raises(StructuralError, match="must be integers"):
            assignment_from_swaps({index}, [1, 2], 2)
