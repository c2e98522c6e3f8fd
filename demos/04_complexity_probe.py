"""Measure how the operation count grows with instance size.

Every comparison, arithmetic step and assignment inside the engine is
tallied.  The probe solves planted random instances at a ladder of target
input lengths, fits a log-log line through (input length, operations),
and reports the exponent together with the largest ratio of operations to
the cube of the input length.  The numbers are reported, not judged.
"""
from satcover.harness import complexity_probe

doc = complexity_probe([100, 1000, 10000], instances_per_size=2)

print(f"{'target':>8} {'length':>8} {'n':>5} {'m':>6} {'verdict':>8} {'ops':>12}")
for row in doc["rows"]:
    print(
        f"{row['target']:>8} {row['input_length']:>8} {row['n']:>5} "
        f"{row['m']:>6} {row['verdict']:>8} {row['op_total']:>12}"
    )

stats = doc["op_stats"]
print("\nfitted log-log exponent:", round(stats["fitted_exponent"], 3))
print("max operations / length^3:", f"{stats['max_ratio_cubic']:.3e}")
print("gate failures during the probe:", doc["gate_failures"])

# large planted instances often come back UNSAT: the greedy covering
# search gives up early, which also keeps the measured growth shallow
verdicts = {row["verdict"] for row in doc["rows"]}
print("verdicts seen:", sorted(verdicts))
