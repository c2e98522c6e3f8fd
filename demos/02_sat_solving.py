"""Solve CNF formulas through the covering reduction.

Each clause becomes a column and each variable a row: a negative literal
puts a 1 in the first matrix, a positive literal in the second.  Swapping
row i corresponds to assigning variable i true, so a covering of the first
matrix is exactly a satisfying assignment.
"""
from satcover import (
    Sat,
    Unsat,
    build_sat_report,
    parse_dimacs,
    report_json,
    solve_sat,
)

SATISFIABLE = """\
p cnf 2 2
-1 2 0
1 0
"""

UNSATISFIABLE = """\
p cnf 2 3
-1 -2 0
1 0
2 0
"""

for label, text in (("satisfiable", SATISFIABLE), ("unsatisfiable", UNSATISFIABLE)):
    formula, _ = parse_dimacs(text)
    run = solve_sat(formula, count_ops=True)
    print(f"--- {label} instance ---")
    if isinstance(run.verdict, Sat):
        print("verdict: SAT, assignment:", run.verdict.assignment)
    elif isinstance(run.verdict, Unsat):
        print("verdict: UNSAT, reason:", run.verdict.reason.as_dict())
    print("operations:", run.ops.as_dict())
    # the trace records every structural step with an operation-counter
    # reading, so runs can be compared event by event
    print("trace milestones:", run.trace.kinds())
    print("trace hash:", run.trace.sha256()[:16], "...")
    report = build_sat_report(f"demo-{label}", formula, run, elapsed_ms=None)
    print("report:", report_json(report))
    print()
