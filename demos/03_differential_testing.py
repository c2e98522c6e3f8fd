"""Differentially test the covering engine against independent oracles.

Small instances are adjudicated by exhaustive assignment enumeration,
larger ones by a budgeted backtracking solver.  A SAT verdict whose
assignment fails to satisfy the formula, or an UNSAT verdict the oracle
refutes on the covering side, counts as a gate failure; plain
engine/oracle disagreements are archived as findings with a minimized
reproduction, because the covering search is a greedy procedure and is
not expected to be complete.
"""
from satcover.harness import FuzzConfig, differential_run, enumerate_formulas

cfg = FuzzConfig(
    seed=11,
    num_instances=600,
    var_range=(1, 20),
    clause_range=(1, 120),
    width_range=(1, 3),
)
report = differential_run(cfg, brute_limit=20)
print("generated:", report.generated)
print("adjudicated:", report.total, " agreements:", report.agreements)
print("gate failures:", report.gate_failures)
print("disagreements:", len(report.disagreements))
for item in report.disagreements:
    print("  engine said", item["engine"], "/ oracle said", item["oracle"])
    print("  minimized reproduction:")
    for line in item["minimized"].splitlines():
        print("   ", line)

# the same machinery runs over a complete enumeration of a small formula
# space; the canonical false negative lives in the 3-variable space
space = sum(1 for _ in enumerate_formulas(3, 4, 3))
print("\nexhaustive space size (3 vars, 4 clauses, width 3):", space)
print("run `satcover diff-exhaustive --max-n 3 --max-m 4 --max-width 3`")
print("to sweep it; expect agreements plus a small archived disagreement set.")
