"""Command line front end.

Subcommands: ``solve`` (DIMACS CNF), ``covering`` (raw decomposition file),
``fuzz`` / ``diff-exhaustive`` (differential verification runs), ``probe``
(operation-count growth measurement).

Exit codes follow the SAT-competition convention for ``solve`` and
``covering``: 10 = positive verdict, 20 = negative verdict, 1 = engine
error, 2 = input error.  Harness subcommands exit 0 normally and 3 when a
soundness-gate or invariant violation occurred, or ``diff-exhaustive``'s
reduction check failed.  Running out of memory,
a size past the index range, or a stdout closed by its reader exits 2
with an ``error:`` line in every subcommand.

``solve`` and ``covering`` pause Python's cyclic garbage collector from
reading the file to writing the answer, and ``probe`` for each instance's
generation and solve, then restore the state they found: everything one
input builds is acyclic and freed by reference counting, so the collector
would only walk it.  ``fuzz`` and ``diff-exhaustive`` leave it as it is:
there it costs nothing measurable.

``solve`` and ``covering`` load only the engine: the harness subcommands
import ``satcover.harness`` (and ``decimal``) when they run.

``fuzz`` and ``diff-exhaustive`` run one shard per usable CPU, with at
least ``shards.MIN_SHARD_ITEMS`` items each (``shards.run``): this process
and forked children pull small chunks of the instances from one queue
until none is left, and the report is the same bytes for every shard count
and every order the chunks finish in.  They run in one process on one usable CPU
(``taskset -c 0``), off Linux, or while another thread is alive.  A shard
that dies without a result (a signal, the OOM killer) exits 2 with an
``error:`` line.  ``probe`` always runs in one process: contention would
distort its per-row ``elapsed_ms``.  Neither the harness nor the probe
keeps trace events; ``solve`` and ``covering`` keep them for
``trace_hash`` and ``--trace``.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import List, Optional, Tuple

from .cnf import ParseError, parse_dimacs, read_counts
from .decomposition import DecompositionPair, StructuralError
from .instrument import collector_paused
from .solver import (
    build_covering_report,
    build_sat_report,
    report_json,
    solve_covering,
    solve_sat,
)

EXIT_POSITIVE = 10
EXIT_NEGATIVE = 20
EXIT_ENGINE_ERROR = 1
EXIT_INPUT_ERROR = 2
EXIT_VIOLATION = 3


def _fail_input(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _read_input(path: str) -> str:
    """The input file's text; ValueError when it cannot be read as ASCII."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: non-ASCII byte at offset {exc.start}") from None
    except OSError as exc:
        raise ValueError(str(exc)) from None


# report verdict -> (s line, exit code)
_ANSWERS = {
    "SAT": ("s SATISFIABLE", EXIT_POSITIVE),
    "COVERING": ("s COVERING", EXIT_POSITIVE),
    "UNSAT": ("s UNSATISFIABLE", EXIT_NEGATIVE),
    "NO_COVERING": ("s NO-COVERING", EXIT_NEGATIVE),
    "ERROR": ("s UNKNOWN", EXIT_ENGINE_ERROR),
}


def _answer(args, report: dict, trace_bytes: Optional[bytes]) -> int:
    """Write the requested report and trace files, print the answer lines of
    ``solve`` and ``covering`` and return the exit code.  ``trace_bytes`` is
    the serialized trace under ``--trace``, the bytes ``trace_hash`` digests."""
    try:
        if args.json:
            with open(args.json, "w", encoding="ascii") as fh:
                fh.write(report_json(report) + "\n")
        if args.trace:
            with open(args.trace, "wb") as fh:
                fh.write(trace_bytes)
    except OSError as exc:
        return _fail_input(f"cannot write output: {exc}")

    status_line, code = _ANSWERS[report["verdict"]]
    if code == EXIT_POSITIVE:
        values = report["assignment"] if report["assignment"] is not None else report["swaps"]
        text = " ".join(map(str, values))  # before any output
        print(status_line)
        print(f"v {text} 0" if text else "v 0")
    elif code == EXIT_NEGATIVE:
        reason = report["reason"]
        print(status_line)
        print(f"c reason {reason['kind']} index {reason['index']}")
    else:
        print(status_line)
        print(f"error: engine: {report['error_detail']}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _clause_labels(num_clauses: int, removed: Tuple[int, ...]) -> Optional[List[int]]:
    """Original file positions of the retained clauses, or None when nothing
    was dropped during preprocessing."""
    if not removed:
        return None
    gone = set(removed)
    total = num_clauses + len(removed)
    return [i for i in range(1, total + 1) if i not in gone]


@collector_paused()
def _cmd_solve(args) -> int:
    try:
        formula, removed_tautologies = parse_dimacs(_read_input(args.file))
    except ValueError as exc:  # unreadable file or ParseError
        return _fail_input(str(exc))

    labels = _clause_labels(len(formula.clauses), removed_tautologies)
    start = time.perf_counter()
    run = solve_sat(
        formula,
        count_ops=args.count_ops,
        shortcut=args.shortcut_43,
        alpha=args.alpha,
        clause_labels=labels,
    )
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
    trace_bytes = run.trace.serialize() if args.trace else None
    report = build_sat_report(
        args.file, formula, run, elapsed_ms=elapsed_ms, trace_bytes=trace_bytes
    )
    return _answer(args, report, trace_bytes)


# ---------------------------------------------------------------------------
# covering
# ---------------------------------------------------------------------------

def parse_decomp(text: str) -> DecompositionPair:
    """Raw decomposition file: "n m" header in plain ASCII digits, n rows of
    m chars in {0,1} for the alpha matrix, one blank line, n rows for the
    complement matrix.

    Only the rows the file holds are read, so the work and memory follow the
    file's size, not the header's n and m.  A missing line reads as empty.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file", 1)
    counts = read_counts(lines[0].strip())
    if counts is None:
        raise ParseError("expected header 'n m' of two integers in plain digits", 1)
    n, m = counts
    if n < 1 or m < 1:
        raise ParseError("n and m must be positive", 1)

    def line(lineno: int) -> str:
        return lines[lineno - 1].strip() if lineno <= len(lines) else ""

    def read_block(first_line: int) -> List[List[int]]:
        rows = []
        for lineno in range(first_line, first_line + n):
            row = line(lineno)
            if len(row) != m:
                raise ParseError(f"expected {m} characters, got {len(row)}", lineno)
            for ch in row:
                if ch not in "01":
                    raise ParseError(f"invalid character {ch!r}", lineno)
            rows.append([j for j, ch in enumerate(row) if ch == "1"])
        return rows

    alpha_rows = read_block(2)
    blank_line = 2 + n
    if line(blank_line):
        raise ParseError("expected a blank separator line", blank_line)
    bar_rows = read_block(blank_line + 1)
    for lineno in range(blank_line + n + 1, len(lines) + 1):
        if line(lineno):
            raise ParseError("unexpected trailing content", lineno)
    return DecompositionPair(n, m, alpha_rows, bar_rows)


def emit_decomp(pair: DecompositionPair) -> str:
    def row_text(columns: List[int]) -> str:
        cells = ["0"] * pair.m
        for j in columns:
            cells[j] = "1"
        return "".join(cells)

    lines = [f"{pair.n} {pair.m}"]
    lines.extend(map(row_text, pair.alpha_rows))
    lines.append("")
    lines.extend(map(row_text, pair.bar_rows))
    return "\n".join(lines) + "\n"


@collector_paused()
def _cmd_covering(args) -> int:
    try:
        pair = parse_decomp(_read_input(args.file))
    except ValueError as exc:  # unreadable file, ParseError or StructuralError
        return _fail_input(str(exc))

    start = time.perf_counter()
    try:
        run = solve_covering(
            pair, count_ops=args.count_ops, shortcut=args.shortcut_43
        )
    except StructuralError as exc:
        return _fail_input(str(exc))
    elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
    trace_bytes = run.trace.serialize() if args.trace else None
    report = build_covering_report(
        args.file, pair, run, elapsed_ms=elapsed_ms, trace_bytes=trace_bytes
    )
    return _answer(args, report, trace_bytes)


# ---------------------------------------------------------------------------
# harness subcommands
# ---------------------------------------------------------------------------

def _parse_range(text: str, flag: str) -> Tuple[int, int]:
    """``a..b`` or ``a`` as ``(a, b)`` with ``1 <= a <= b``; an error names ``flag``."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError:
        raise ValueError(f"bad range {text!r}") from None
    if not 1 <= lo <= hi:
        raise ValueError(f"{flag} must be lo..hi with 1 <= lo <= hi, got {text}")
    return lo, hi


def _parse_sizes(text: str) -> List[int]:
    """Comma-separated whole sizes, ``1e4`` and ``1.5e3`` notation allowed;
    ``complexity_probe`` holds the rule for their values."""
    from decimal import Decimal

    sizes = []
    for part in filter(str.strip, text.split(",")):
        try:
            value = float(part)
            # the text's exact value: 150.0000000000000001 and 2**53 + 1 read as whole floats
            whole = value.is_integer() and Decimal(part) == value
        except (ValueError, ArithmeticError):  # not a number
            whole = False
        if not whole:  # also nan and 1e400, which no float holds
            raise ValueError(
                f"bad sizes {text!r}: {part.strip()!r} is not a whole number a float holds exactly"
            )
        sizes.append(int(value))
    return sizes


def _emit_report(args, doc: dict, violated: bool) -> int:
    """Print the report, write it to ``--json`` and return the exit code:
    2 when the file cannot be written, 3 on a violation, 0 otherwise."""
    text = json.dumps(doc, sort_keys=True, indent=2)
    print(text)
    if args.json:
        try:
            with open(args.json, "w", encoding="ascii") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _fail_input(f"cannot write output: {exc}")
    return EXIT_VIOLATION if violated else 0


def _cmd_fuzz(args) -> int:
    from .harness import INDEX_BOUND, FuzzConfig, check_int, differential_run

    try:
        cfg = FuzzConfig(
            seed=args.seed,
            num_instances=check_int("count", args.count, 1, INDEX_BOUND),
            var_range=_parse_range(args.vars, "vars"),
            clause_range=_parse_range(args.clauses, "clauses"),
            width_range=_parse_range(args.width, "width"),
            satisfiable_bias="planted" if args.planted else "none",
        )
    except ValueError as exc:
        return _fail_input(str(exc))
    report = differential_run(cfg)
    return _emit_report(args, report.as_dict(), report.violation)


def _cmd_diff_exhaustive(args) -> int:
    from .harness import diff_exhaustive

    try:
        report = diff_exhaustive(args.max_n, args.max_m, args.max_width)
    except ValueError as exc:  # bounds outside the sweepable space
        return _fail_input(str(exc))
    return _emit_report(args, report.as_dict(), report.violation)


def _cmd_probe(args) -> int:
    from .harness import complexity_probe

    try:
        doc = complexity_probe(
            _parse_sizes(args.sizes),
            seed=args.seed,
            instances_per_size=args.instances_per_size,
            width=args.width,
        )
    except ValueError as exc:  # text that is no sizes, or arguments the probe refuses
        return _fail_input(str(exc))
    return _emit_report(args, doc, doc["gate_failures"] > 0)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``satcover`` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="satcover",
        description="Covering-search SAT engine with a differential verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # what solve and covering share: the input file and the answer's options
    answer = argparse.ArgumentParser(add_help=False)
    answer.add_argument("file")
    answer.add_argument("--json", metavar="OUT", help="write the JSON report here")
    answer.add_argument("--trace", metavar="OUT", help="write the serialized trace here")
    answer.add_argument("--count-ops", action="store_true", help="count elementary operations")
    answer.add_argument(
        "--shortcut-43", action="store_true", help="enable the advisory forced-conflict early exit"
    )

    solve = sub.add_parser("solve", parents=[answer], help="solve a DIMACS CNF file")
    solve.add_argument(
        "--alpha",
        choices=("neg", "pos"),
        default="neg",
        help="pos swaps every row of the reduced pair: a variable whose row stays unswapped is true",
    )
    solve.set_defaults(func=_cmd_solve)

    covering = sub.add_parser("covering", parents=[answer], help="solve a raw decomposition file")
    covering.set_defaults(func=_cmd_covering)

    fuzz = sub.add_parser("fuzz", help="seeded random differential run")
    fuzz.add_argument("--seed", type=int, required=True)
    fuzz.add_argument("--count", type=int, default=100)
    fuzz.add_argument("--vars", default="1..12", help="range a..b")
    fuzz.add_argument("--clauses", default="1..30", help="range a..b")
    fuzz.add_argument("--width", default="1..3", help="range a..b")
    fuzz.add_argument("--planted", action="store_true")
    fuzz.add_argument("--json", metavar="OUT")
    fuzz.set_defaults(func=_cmd_fuzz)

    diff = sub.add_parser(
        "diff-exhaustive", help="differential run over the bounded formula space"
    )
    diff.add_argument("--max-n", type=int, default=3)
    diff.add_argument("--max-m", type=int, default=4)
    diff.add_argument("--max-width", type=int, default=3)
    diff.add_argument("--json", metavar="OUT")
    diff.set_defaults(func=_cmd_diff_exhaustive)

    probe = sub.add_parser("probe", help="operation-count growth measurement")
    probe.add_argument("--sizes", default="1e2,1e3,1e4", help="comma-separated, 1e_ ok")
    probe.add_argument("--seed", type=int, default=2024)
    probe.add_argument("--instances-per-size", type=int, default=2)
    probe.add_argument("--width", type=int, default=3)
    probe.add_argument("--json", metavar="OUT")
    probe.set_defaults(func=_cmd_probe)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # e.g. piped to `head -c 1`
        # the interpreter flushes stdout again at exit: let that go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _fail_input("cannot write output: broken pipe")
    except MemoryError:  # e.g. a SAT answer's v line, O(num_vars) by format
        return _fail_input("out of memory")
    except OverflowError:  # a SAT answer for a header past the index range
        return _fail_input("declared size too large")
    except ChildProcessError as exc:  # a harness shard killed, e.g. by the OOM killer
        return _fail_input(str(exc))


if __name__ == "__main__":
    sys.exit(main())
