"""One workload in one fresh process: set-up, timed rounds, optional traced pass.

Usage: worker.py JOB.json OUT.json

The job names the workload, the package source directory, the work
directory and the rounds to run.  The worker times set-up (importing
``satcover`` and one warm-up ``satcover solve``), runs rounds with the
host-speed calibration task (``calibration.py``) timed before each, and
writes one record per operation with its timing and contract fields, the
calibration times and its own peak RSS.  Only stdlib and numpy are used; ``satcover`` is driven through its
public entry points.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time

import workloads


def main(job_path: str, out_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    workdir = job["workdir"]

    start = time.perf_counter()
    from satcover import cli

    warm = os.path.join(workdir, "warmup.cnf")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["solve", warm, "--json", os.path.join(workdir, "warmup.json")])
    setup_s = time.perf_counter() - start
    if code != 10:
        raise SystemExit(f"warm-up solve of a satisfiable formula exited {code}")
    import calibration  # after set-up is timed: it imports numpy

    calibration.task_s()  # warm-up: first-touch page faults
    if job["mode"] == "setup":
        return _write(out_path, {"setup_s": setup_s, "calibration": [calibration.task_s() for _ in range(3)]})

    w = workloads.workload(job["workload"], job["tiny"])
    runner = SolveRunner(w, cli, workdir) if w.kind == "solve" else HarnessRunner(w)
    entries = [(job["start"] + r) % w.pool for r in range(job["rounds"])]

    records, rounds, calib = [], [], []
    timed = 0.0
    for entry in entries:
        calib.append(calibration.task_s())
        batch = runner.round(entry)
        records.extend(batch)
        round_s = sum(rec["seconds"] for rec in batch)
        rounds.append([round_s, sum(rec["instances"] for rec in batch)])
        timed += round_s
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
        "rounds": rounds,
        "calibration": calib,
    }

    if job["mode"] == "trace":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
        if w.kind == "solve":
            runner.entry_point = tracer.wrap(cli.main, "cli.solve")
        try:
            traced = [rec for entry in entries for rec in runner.round(entry)]
        finally:
            tracer.restore()
        layers = tracer_mod.layer_metrics(tracer, w.kind == "harness")
        traced_s = sum(rec["seconds"] for rec in traced)
        layers["trace_overhead_frac"] = traced_s / timed - 1.0
        out["traced_records"] = traced
        out["layers"] = layers
    return _write(out_path, out)


def _write(path: str, doc: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


class SolveRunner:
    """``satcover solve FILE --json OUT`` in-process, one instance at a time.

    ``satcover.cli.build_sat_report`` is replaced by a pass-through that keeps
    the ``SolveRun`` it is given, so the trace digest can be taken after the
    timed call without asking the CLI to write the trace.
    """

    def __init__(self, w, cli, workdir):
        self.w = w
        self.entry_point = cli.main
        self.workdir = workdir
        self.kept = []
        build = cli.build_sat_report

        def keep_run(instance, formula, run, **kwargs):
            self.kept.append(run)
            return build(instance, formula, run, **kwargs)

        cli.build_sat_report = keep_run

    def round(self, entry):
        return [self.solve(entry, position) for position in range(len(self.w.sizes))]

    def solve(self, entry, position):
        instance_id, n, clauses = workloads.solve_instance(self.w, entry, position)
        path = os.path.join(self.workdir, "instance.cnf")
        report_path = os.path.join(self.workdir, "instance.json")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(workloads.dimacs(n, clauses))
        argv = ["solve", path, "--json", report_path]
        if self.w.count_ops:
            argv.append("--count-ops")
        self.kept.clear()
        problems = []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.entry_point(argv)
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                code = None
                problems.append(f"exception {type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
        record = {
            "id": instance_id,
            "instances": 1,
            "seconds": seconds,
            "exit": code,
            "verdict": None,
            "reason": None,
            "trace": None,
            "problems": problems,
        }
        if problems:
            return record
        expected = {10: ("SAT", "s SATISFIABLE"), 20: ("UNSAT", "s UNSATISFIABLE")}
        if code not in expected:
            problems.append(f"exit code {code}: {err.getvalue().strip()[:200]}")
            return record
        with open(report_path, encoding="ascii") as fh:
            report = json.load(fh)
        verdict, status_line = expected[code]
        lines = out.getvalue().splitlines()
        if report["verdict"] != verdict or not lines or lines[0] != status_line:
            problems.append(f"exit {code} disagrees with report {report['verdict']} / {lines[:1]}")
        if verdict == "SAT":
            literals = report["assignment"] or []
            if not workloads.satisfies(clauses, n, literals):
                problems.append("SAT assignment fails the benchmark's clause check")
            if lines[1:2] != [" ".join(["v"] + [str(x) for x in literals] + ["0"])]:
                problems.append("v line differs from the report's assignment")
        reason = report["reason"]
        record["verdict"] = report["verdict"]
        record["reason"] = [reason["kind"], reason["index"]] if reason else None
        if len(self.kept) != 1:
            problems.append(f"expected one solve, saw {len(self.kept)}")
        else:
            record["trace"] = workloads.trace_digest(self.kept[0].trace.events_without_readings())
        self.kept.clear()
        return record


class HarnessRunner:
    """``diff_exhaustive`` or ``differential_run`` batches."""

    def __init__(self, w):
        from satcover import harness

        self.w = w
        self.harness = harness

    def round(self, entry):
        if self.w.exhaustive[0]:
            label = "exhaustive/" + "-".join(map(str, self.w.exhaustive))
            return [self.batch(label, self.harness.diff_exhaustive, *self.w.exhaustive)]
        return [
            self.batch(
                label,
                self.harness.differential_run,
                self.harness.FuzzConfig(**cfg),
                brute_limit=workloads.FUZZ_BRUTE_LIMIT,
            )
            for label, cfg in workloads.fuzz_batches(self.w, entry)
        ]

    def batch(self, label, entry_point, *args, **kwargs):
        start = time.perf_counter()
        try:
            report = entry_point(*args, **kwargs)
        except Exception as exc:  # a crash fails the batch, not the benchmark
            seconds = time.perf_counter() - start
            return {
                "id": label,
                "instances": 1,
                "seconds": seconds,
                "problems": [f"exception {type(exc).__name__}: {exc}"],
            }
        seconds = time.perf_counter() - start
        record = {"id": label, "seconds": seconds, "problems": []}
        record.update(workloads.summarize_report(report))
        record["instances"] = record["generated"]
        return record


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
