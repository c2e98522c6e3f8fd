"""Benchmark of the satcover engine and its verification harness.

Usage (from the repository root):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record          # rewrite perfbench/reference.json

Each workload runs in its own fresh child process (``worker.py``), one after
another, with one thread.  Set-up time is also taken from a few extra fresh
processes that only import ``satcover`` and solve a 2-clause formula.  Every
operation is checked: exit code, report and stdout agree, SAT assignments
pass the benchmark's own clause check, and verdict, reason and trace digest
(or, for harness batches, agreements, disagreements with their minimized
counterexamples, gate failures and the reduction check) equal the recorded
reference.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, their timings scaled to a nominal host speed by a
calibration task timed in the same processes (``calibration.py``); with ``--trace 1`` it carries the per-layer metrics, taken
from a traced pass over the same inputs as an untraced one.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 6  # extra fresh processes timed for setup_s
# the load is one thread: with its default thread pool, OpenBLAS start-up
# alone made numpy's import vary between 0.05 and 0.14 s on a 2-core box
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
TIME_LIMIT_S = 170.0  # a single-workload run must finish inside 180 s
DEFAULT_REFERENCE = HERE / "reference.json"


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def run_child(job: dict, workdir: Path, deadline: Optional[float]) -> dict:
    job_path = workdir / f"job-{job['mode']}.json"
    out_path = workdir / f"out-{job['mode']}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(out_path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
            cwd=str(ROOT),
            env=CHILD_ENV,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{job['workload']}: worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{job['workload']}: worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def run_workload(name: str, args, deadline: Optional[float]) -> dict:
    """Set-up probes, then the workload child; returns the child's output plus
    the probes' set-up times."""
    w = workloads.workload(name, args.tiny)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        (workdir / "warmup.cnf").write_text(workloads.WARMUP_DIMACS, encoding="ascii")
        job = {
            "workload": name,
            "tiny": args.tiny,
            "src": str(ROOT / "src"),
            "workdir": str(workdir),
            "mode": "setup",
        }
        probes = 0 if args.record or args.trace else SETUP_PROBES
        setups = [scaled_setup(run_child(job, workdir, deadline)) for _ in range(probes)]
        if args.record:
            job.update(mode="run", start=0, rounds=w.pool)
        else:
            start = workloads.start_entry(args.seed, w.pool)
            if args.trace:
                job.update(mode="trace", start=start, rounds=w.trace_rounds)
            else:
                job.update(mode="run", start=start, rounds=workloads.rounds_for(w, args.seconds))
        out = run_child(job, workdir, deadline)
        out["setups"] = setups + [scaled_setup(out)]
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def scaled_setup(out: dict) -> float:
    """A child's set-up time in seconds of the nominal box (see calibration.py)."""
    return out["setup_s"] / calibration.slowdown(out["calibration"])


def judge(records: List[dict], kind: str, reference: Dict[str, dict]) -> int:
    return sum(workloads.failures(rec, kind, reference.get(rec["id"])) for rec in records)


def end_to_end(out: dict, kind: str) -> Tuple[Dict[str, float], List[float]]:
    """End-to-end metrics, timings in seconds of the nominal box, and the
    unscaled latency samples."""
    records = out["records"]
    instances = sum(rec["instances"] for rec in records)
    seconds = sum(rec["seconds"] for rec in records)
    if kind == "solve":
        latencies = [rec["seconds"] for rec in records]
    else:
        # per-instance mean of each round: a harness call adjudicates a batch
        latencies = [round_s / count for round_s, count in out["rounds"]]
    slowdown = calibration.slowdown(out["calibration"])
    return {
        "setup_s": statistics.median(out["setups"]),
        "instances_per_s": instances / seconds * slowdown,
        "latency_s_p50": statistics.median(latencies) / slowdown,
        "peak_rss_mb": out["peak_rss_mb"],
    }, latencies


def highest_percentile(samples: int) -> Optional[int]:
    """Highest of p99/p90/p75 with at least ten samples beyond it, if any."""
    for p in (99, 90, 75):
        if samples * (100 - p) / 100.0 >= 10:
            return p
    return None


def describe(name: str, out: dict, kind: str, attempted: int, failed: int, latencies) -> List[str]:
    records = out["records"]
    lines = [
        f"# {name}: {len(out['rounds'])} rounds, {sum(r['instances'] for r in records)} instances, "
        f"{sum(r['seconds'] for r in records):.2f} s timed",
        f"#   failed_frac {failed / attempted:.6f} ({failed}/{attempted})",
    ]
    p = highest_percentile(len(latencies))
    tail = (
        f", p{p} {statistics.quantiles(latencies, n=100)[p - 1]:.6f} s"
        if p
        else "; no higher percentile (fewer than ten samples beyond p75)"
    )
    lines.append(f"#   latency over {len(latencies)} samples: p50 {statistics.median(latencies):.6f} s{tail}")
    calib = out["calibration"]
    lines.append(
        f"#   host slowdown {calibration.slowdown(calib):.4f} (calibration task mean "
        f"{statistics.fmean(calib):.4f} s over {len(calib)} rounds, nominal {calibration.NOMINAL_S} s); "
        "the timings on these lines are unscaled"
    )
    if kind == "solve":
        verdicts = [rec["verdict"] for rec in records]
        lines.append(f"#   verdicts SAT {verdicts.count('SAT')}, UNSAT {verdicts.count('UNSAT')}")
    else:
        distinct = {tuple(d) for r in records for d in r.get("disagreements", ())}
        lines.append(
            "#   agreements {}, disagreements {} ({} distinct), gate_failures {}, unknown {}, "
            "reduction_check {}".format(
                sum(r.get("agreements", 0) for r in records),
                sum(len(r.get("disagreements", ())) for r in records),
                len(distinct),
                sum(r.get("gate_failures", 0) for r in records),
                sum(r.get("unknown", 0) for r in records),
                {r.get("reduction_check_passed") for r in records},
            )
        )
    for rec in records:
        for problem in rec["problems"]:
            lines.append(f"#   FAILED {rec['id']}: {problem}")
    return lines


def record_reference(names: List[str], args) -> None:
    doc = json.loads(args.reference.read_text(encoding="utf-8")) if args.reference.exists() else {}
    for name in names:
        kind = workloads.workload(name, args.tiny).kind
        out = run_workload(name, args, None)
        bad = [rec for rec in out["records"] if rec["problems"]]
        if bad:
            raise BenchError(f"{name}: cannot record a reference from failing operations: {bad[0]}")
        doc[name] = {rec["id"]: workloads.contract(rec, kind) for rec in out["records"]}
        print(f"# recorded {len(doc[name])} {name} references", flush=True)
    args.reference.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own test")
    parser.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE)
    parser.add_argument("--record", action="store_true", help="record the contract reference and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "satcover" / "cli.py").is_file():
        print(f"error: no satcover package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    try:
        if args.record:
            record_reference(names, args)
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        reference_doc = json.loads(args.reference.read_text(encoding="utf-8"))
        results = {}
        for name in names:
            deadline = time.monotonic() + TIME_LIMIT_S
            out = run_workload(name, args, deadline)
            kind = workloads.workload(name, args.tiny).kind
            reference = reference_doc.get(name, {})
            records = out["records"]
            failed = judge(records, kind, reference)
            values, latencies = end_to_end(out, kind)
            if args.trace:
                traced = out["traced_records"]
                failed += judge(traced, kind, reference)
                # the traced pass must see exactly the untraced pass's contract
                failed += sum(
                    int(workloads.contract(a, kind) != workloads.contract(b, kind))
                    for a, b in zip(records, traced)
                    if not a["problems"] and not b["problems"]
                )
                records = records + traced
                values = out["layers"]
            attempted = sum(rec["instances"] for rec in records)
            print("\n".join(describe(name, out, kind, attempted, failed, latencies)), flush=True)
            results[name] = (values, attempted, failed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r[1] for r in results.values())
    failed = sum(r[2] for r in results.values())
    metrics = {}
    for name, (values, _, _) in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        for metric in wanted:
            metrics[prefix + metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
