"""Command line surface: exit codes, output formats, file round-trips."""
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satcover import FuzzConfig, ParseError, emit_dimacs, random_cnf, to_decomposition
from satcover import cli, harness
from satcover import solver as solver_mod
from satcover.cli import emit_decomp, main, parse_decomp
from satcover.solver import solve_covering, solve_sat

from conftest import E1_TEXT, E2_TEXT, E3_TEXT, E4_TEXT, E5_TEXT, decomposition_pairs, formulas

SRC = str(Path(__file__).resolve().parents[1] / "src")
E1_DECOMP = "2 2\n10\n00\n\n01\n10\n"
E3_DECOMP = "2 3\n100\n100\n\n010\n001\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_capped(script, path):
    """Run the script on the path in a child process capped at 1.5 GB of
    address space, where an allocation sized by a huge header fails fast
    instead of taking gigabytes."""
    cap = 1_500_000_000

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", script, path],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit_memory,
        timeout=60,
    )


class TestSolve:
    def test_sat_exit_and_output(self, tmp_path, capsys):
        path = write(tmp_path, "e1.cnf", E1_TEXT)
        assert main(["solve", path]) == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert "v 1 2 0" in out

    def test_unsat_exit(self, tmp_path, capsys):
        path = write(tmp_path, "e2.cnf", E2_TEXT)
        assert main(["solve", path]) == 20
        out = capsys.readouterr().out
        assert "s UNSATISFIABLE" in out
        assert "non-removable-useless-vertex" in out

    def test_parse_error_exit(self, tmp_path, capsys):
        path = write(tmp_path, "bad.cnf", "p cnf 1 1\n2 0\n")
        assert main(["solve", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.cnf")]) == 2
        capsys.readouterr()

    def test_json_report_written(self, tmp_path, capsys):
        path = write(tmp_path, "e1.cnf", E1_TEXT)
        out_path = tmp_path / "report.json"
        assert main(["solve", path, "--json", str(out_path), "--count-ops"]) == 10
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["verdict"] == "SAT"
        assert report["assignment"] == [1, 2]
        assert report["input_length"] == 3
        assert report["op_total"] > 0
        assert report["instance"] == path

    def test_trace_written(self, tmp_path, capsys):
        path = write(tmp_path, "e1.cnf", E1_TEXT)
        trace_path = tmp_path / "run.trace"
        assert main(["solve", path, "--trace", str(trace_path)]) == 10
        capsys.readouterr()
        events = json.loads(trace_path.read_text())
        assert events[-1][0] == "verdict"

    @pytest.mark.parametrize("name", ["E1", "E2", "E3", "E4", "E5", "threshold"])
    def test_trace_file_matches_the_report_hash(self, name, tmp_path, capsys):
        # the --trace file is the byte string the report's trace_hash digests
        if name == "threshold":
            n, m = 300, 1278  # random 3-SAT at the threshold ratio m = 4.26 n
            cfg = FuzzConfig(seed=33, var_range=(n, n), clause_range=(m, m), width_range=(3, 3))
            text = emit_dimacs(random_cnf(cfg, 0))
        else:
            text = {"E1": E1_TEXT, "E2": E2_TEXT, "E3": E3_TEXT, "E4": E4_TEXT, "E5": E5_TEXT}[name]
        path = write(tmp_path, "in.cnf", text)
        trace_path, report_path = tmp_path / "run.trace", tmp_path / "report.json"
        argv = ["solve", path, "--count-ops", "--trace", str(trace_path), "--json", str(report_path)]
        assert main(argv) in (10, 20)
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == report["trace_hash"]
        assert json.loads(trace_path.read_bytes())[-1][0] == "verdict"

    def test_shortcut_flag(self, tmp_path, capsys):
        path = write(tmp_path, "e2.cnf", E2_TEXT)
        out_path = tmp_path / "report.json"
        assert main(["solve", path, "--shortcut-43", "--json", str(out_path)]) == 20
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["reason"]["kind"] == "both-components-single"

    def test_alpha_pos(self, tmp_path, capsys):
        path = write(tmp_path, "e1.cnf", E1_TEXT)
        assert main(["solve", path, "--alpha", "pos"]) == 10
        capsys.readouterr()

    def test_non_ascii_input_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "accent.cnf"
        path.write_bytes(b"c caf\xc3\xa9\n" + E1_TEXT.encode("ascii"))
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-ASCII" in err

    def test_unwritable_json_is_output_error(self, tmp_path, capsys):
        path = write(tmp_path, "e1.cnf", E1_TEXT)
        out_path = tmp_path / "missing-dir" / "report.json"
        assert main(["solve", path, "--json", str(out_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output")

    def test_tautology_shifts_reason_index(self, tmp_path, capsys):
        # clause 1 is a tautology; the stuck column is original clause 2
        text = "p cnf 2 4\n1 -1 0\n-1 -2 0\n1 0\n2 0\n"
        path = write(tmp_path, "shifted.cnf", text)
        out_path = tmp_path / "report.json"
        assert main(["solve", path, "--json", str(out_path)]) == 20
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["reason"] == {"kind": "unreachable-column", "index": 2}

    def test_repeated_literal_and_tautology_are_preprocessed(self, tmp_path, capsys):
        # clause 1 is dropped, clause 2 read as (x1): x1 and x2 must be true
        path = write(tmp_path, "repeats.cnf", "p cnf 2 3\n1 -1 0\n1 1 0\n-1 2 0\n")
        assert main(["solve", path]) == 10
        assert capsys.readouterr().out.splitlines() == ["s SATISFIABLE", "v 1 2 0"]

    def test_header_does_not_size_the_work(self, tmp_path):
        # the header declares 10^9 variables but only x1 occurs; a remap
        # sized by the header would need 8 GB
        path = write(tmp_path, "huge.cnf", "p cnf 1000000000 2\n1 0\n-1 0\n")
        script = (
            "import sys, tracemalloc\n"
            "from satcover.cli import main\n"
            "tracemalloc.start()\n"
            "code = main(['solve', sys.argv[1]])\n"
            "print('peak', tracemalloc.get_traced_memory()[1])\n"
            "sys.exit(code)\n"
        )
        done = run_capped(script, path)
        assert done.returncode == 20, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "s UNSATISFIABLE"
        assert int(lines[-1].split()[1]) < 1_000_000

    def test_out_of_memory_is_an_input_error(self, tmp_path):
        # a SAT answer names all 10^8 declared variables, which cannot fit
        # in 1.5 GB: the answer is an error line, not a traceback
        path = write(tmp_path, "wide.cnf", "p cnf 100000000 1\n1 0\n")
        script = (
            "import sys\n"
            "from satcover.cli import main\n"
            "sys.exit(main(['solve', sys.argv[1]]))\n"
        )
        done = run_capped(script, path)
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr == "error: out of memory\n"

    @pytest.mark.parametrize(
        "text",
        [
            "p cnf 100000000000000000000 1\n100000000000000000000 0\n",
            "p cnf 100000000000000000000 0\n",
        ],
    )
    def test_header_past_the_index_range_is_an_input_error(self, tmp_path, text):
        # a SAT answer names all declared variables, and 10^20 of them
        # cannot be indexed: the answer is an error line, not a traceback
        path = write(tmp_path, "huge.cnf", text)
        script = (
            "import sys\n"
            "from satcover.cli import main\n"
            "sys.exit(main(['solve', sys.argv[1]]))\n"
        )
        done = run_capped(script, path)
        assert done.returncode == 2, done.stderr
        assert done.stdout == ""
        assert done.stderr == "error: declared size too large\n"

    @pytest.mark.parametrize(
        "text", ["p cnf 1_0 1\n+1_0 0\n", "p cnf 1 1\n+1 0\n", "p cnf 1 1\n-0 1 0\n"]
    )
    def test_literals_are_plain_integers(self, tmp_path, capsys, text):
        # int() reads all of these; DIMACS allows only -?[0-9]+, no -0
        path = write(tmp_path, "odd.cnf", text)
        assert main(["solve", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line ")


class TestCovering:
    def test_covering_found(self, tmp_path, capsys):
        path = write(tmp_path, "e1.decomp", E1_DECOMP)
        assert main(["covering", path]) == 10
        out = capsys.readouterr().out
        assert "s COVERING" in out
        assert "v 1 2 0" in out

    def test_no_covering(self, tmp_path, capsys):
        path = write(tmp_path, "e3.decomp", E3_DECOMP)
        assert main(["covering", path]) == 20
        assert "s NO-COVERING" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        path = write(tmp_path, "e1.decomp", E1_DECOMP)
        out_path = tmp_path / "report.json"
        assert main(["covering", path, "--json", str(out_path), "--count-ops"]) == 10
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["verdict"] == "COVERING"
        assert report["swaps"] == [1, 2]

    def test_non_ascii_input_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "e1.decomp"
        path.write_bytes(E1_DECOMP.encode("ascii") + b"\xff\n")
        assert main(["covering", str(path)]) == 2
        assert "non-ASCII" in capsys.readouterr().err

    def test_unwritable_trace_is_output_error(self, tmp_path, capsys):
        path = write(tmp_path, "e1.decomp", E1_DECOMP)
        trace_path = tmp_path / "missing-dir" / "run.trace"
        assert main(["covering", path, "--trace", str(trace_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output")

    def test_invalid_matrix_is_input_error(self, tmp_path, capsys):
        # row 1 holds a 1 on both sides of column 1
        path = write(tmp_path, "bad.decomp", "1 1\n1\n\n1\n")
        assert main(["covering", path]) == 2
        capsys.readouterr()

    def test_invalid_matrix_error_names_its_witnesses(self, tmp_path, capsys):
        # all zeros: rows 1-3 are empty pairs and columns 1-2 are uncovered;
        # the first violation names a row and no column
        path = write(tmp_path, "zeros.decomp", "3 2\n00\n00\n00\n\n00\n00\n00\n")
        assert main(["covering", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid decomposition: pair-nonempty at row=1 (+4 more)\n"


class TestEngineError:
    @pytest.mark.parametrize(
        "command, name, text",
        [("solve", "e1.cnf", E1_TEXT), ("covering", "e1.decomp", E1_DECOMP)],
        ids=["solve", "covering"],
    )
    def test_broken_gate_is_engine_error(self, command, name, text, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(solver_mod, "is_alpha_covering", lambda pair: False)
        path = write(tmp_path, name, text)
        out_path = tmp_path / "report.json"
        assert main([command, path, "--json", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "s UNKNOWN\n"
        assert captured.err.startswith("error: engine: ")
        assert "Traceback" not in captured.err
        report = json.loads(out_path.read_text())
        assert report["verdict"] == "ERROR"
        assert report["error_detail"] == captured.err[len("error: engine: ") :].rstrip("\n")


class TestDecompFormat:
    def test_parse_fixture(self):
        pair = parse_decomp(E1_DECOMP)
        assert pair.alpha_rows == ((0,), ())
        assert pair.bar_rows == ((1,), (0,))

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n",
            "a b\n10\n00\n\n01\n10\n",
            "0 2\n\n\n",
            "2 2\n10\n0\n\n01\n10\n",
            "2 2\n10\n00\n01\n10\n",
            "2 2\n10\n00\n\n01\n1x\n",
            "2 2\n10\n00\n\n01\n10\nextra\n",
            "+2 2\n10\n00\n\n01\n10\n",
            "2 \u0662\n10\n00\n\n01\n10\n",
            "1" * 4301 + " 1\n1\n\n0\n",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_decomp(text)

    def test_header_does_not_size_the_work(self, tmp_path, capsys):
        # the header promises 10^9 rows that the file does not hold: the
        # parser fails on the first missing row without allocating for n
        text = "1000000000 1\n"
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as info:
                parse_decomp(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.line == 2
        assert peak < 1_000_000
        path = write(tmp_path, "huge.decomp", text)
        assert main(["covering", path]) == 2
        assert capsys.readouterr().err == "error: line 2: expected 1 characters, got 0\n"

    def test_header_counts_are_plain_digits(self, tmp_path, capsys):
        # int() reads 1_0 as 10, and the ten rows per side make a covering
        text = "1_0 1\n" + "1\n" * 10 + "\n" + "0\n" * 10
        with pytest.raises(ParseError) as info:
            parse_decomp(text)
        assert info.value.line == 1
        path = write(tmp_path, "underscore.decomp", text)
        assert main(["covering", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 1: expected header 'n m'")

    def test_emit_fixture(self):
        pair = parse_decomp(E1_DECOMP)
        assert emit_decomp(pair) == E1_DECOMP

    @given(decomposition_pairs())
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, pair):
        assert parse_decomp(emit_decomp(pair)) == pair


class TestClosedStdout:
    @pytest.mark.parametrize(
        "text, args",
        [
            ("p cnf 20000 20000\n" + "".join(f"{v} 0\n" for v in range(1, 20001)), ["solve"]),
            (E1_TEXT, ["solve"]),
            (None, ["fuzz", "--seed", "1", "--count", "3"]),
        ],
        ids=["long-answer", "short-answer", "fuzz"],
    )
    def test_closed_stdout_is_an_output_error(self, tmp_path, text, args):
        # the reader of stdout is gone before the child writes: a long answer
        # fails in print, a short one in the flush before exit, and the
        # interpreter's own flush at exit must not fail again
        if text is not None:
            args = args + [write(tmp_path, "in.cnf", text)]
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as a pipe is by default
        child = subprocess.Popen(
            [sys.executable, "-m", "satcover", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert child.returncode == 2, err
        assert err == "error: cannot write output: broken pipe\n"


class ClosedStdout:
    """A stdout whose reader has gone; its file descriptor is a scratch
    file's, which ``main`` points at the null device."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, *_):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write

    def fileno(self):
        return self.fd


def test_broken_pipe_keeps_no_descriptor_open(tmp_path, monkeypatch):
    # main points the dead stdout at the null device, through a descriptor
    # it must close again: in-process callers would collect one per call
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    monkeypatch.setattr(sys, "stdout", ClosedStdout(fd))
    opened = []
    real_open = cli.os.open

    def recording_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli.os, "open", recording_open)
    try:
        assert main(["solve", write(tmp_path, "in.cnf", E1_TEXT)]) == 2
    finally:
        os.close(fd)
    assert len(opened) == 1
    with pytest.raises(OSError):
        os.fstat(opened[0])


# id: (command, input text, exit code); the id's last word picks the set-up
PAUSE_CASES = {
    "solve-sat": ("solve", E1_TEXT, 10),
    "solve-unsat": ("solve", E2_TEXT, 20),
    "solve-broken-gate": ("solve", E1_TEXT, 1),
    "solve-parse-error": ("solve", "p cnf 1 1\n2 0\n", 2),
    "solve-unwritable-json": ("solve", E1_TEXT, 2),
    "solve-broken-pipe": ("solve", E1_TEXT, 2),
    "covering-found": ("covering", E1_DECOMP, 10),
    "covering-none": ("covering", E3_DECOMP, 20),
    "covering-broken-gate": ("covering", E1_DECOMP, 1),
    "covering-parse-error": ("covering", "2 2\n1x\n", 2),
    "covering-unwritable-json": ("covering", E1_DECOMP, 2),
    "covering-broken-pipe": ("covering", E1_DECOMP, 2),
}


class TestCollectorPause:
    """``solve`` and ``covering`` read, solve and answer with the cyclic
    garbage collector paused, ``probe`` generates and solves each instance
    so, and each puts back the state it found on every exit path."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collector(self, request):
        was_enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was_enabled else gc.disable)()

    def record_collector(self, monkeypatch, module, name, seen):
        """Wrap ``module.name`` so each call notes whether the collector ran."""
        inner = getattr(module, name)

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    @pytest.mark.parametrize("case", list(PAUSE_CASES))
    def test_paused_within_and_restored_after(self, case, collector, tmp_path, capsys, monkeypatch):
        command, text, code = PAUSE_CASES[case]
        argv = [command, write(tmp_path, "input", text)]
        setup = case.rsplit("-", 1)[1]
        if setup == "gate":
            monkeypatch.setattr(solver_mod, "is_alpha_covering", lambda pair: False)
        elif setup == "json":
            argv += ["--json", str(tmp_path / "missing-dir" / "report.json")]
        elif setup == "pipe":
            fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
            monkeypatch.setattr(sys, "stdout", ClosedStdout(fd))
        seen = []
        steps = {"solve": ("parse_dimacs", "solve_sat"), "covering": ("parse_decomp", "solve_covering")}
        for name in steps[command]:
            self.record_collector(monkeypatch, cli, name, seen)

        exit_code = main(argv)
        if setup == "pipe":
            os.close(fd)
        assert exit_code == code
        assert gc.isenabled() is collector
        assert seen == ([False] if setup == "error" else [False, False])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 2:
            assert captured.err.startswith("error: ")

    def test_probe(self, collector, capsys, monkeypatch):
        seen = []
        self.record_collector(monkeypatch, harness, "random_cnf", seen)
        self.record_collector(monkeypatch, harness, "solve_sat", seen)
        assert main(["probe", "--sizes", "50,1e2", "--instances-per-size", "2"]) == 0
        capsys.readouterr()
        assert gc.isenabled() is collector
        assert seen == [False] * 8


class TestNoCyclicGarbage:
    """What the pause rests on: a solve builds no reference cycle, so with the
    collector off it leaves nothing for a later collection to find."""

    def test_solves_leave_no_cyclic_garbage(self):
        n, m = 300, 1278  # random 3-SAT at the threshold ratio m = 4.26 n
        cfg = FuzzConfig(seed=16, var_range=(n, n), clause_range=(m, m), width_range=(3, 3))
        formula = random_cnf(cfg, 0)
        pair, _ = to_decomposition(formula)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            solve_sat(formula, count_ops=True)
            assert gc.collect() == 0
            solve_covering(pair, count_ops=True)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestStdlibOnly:
    def test_every_subcommand_runs_without_numpy(self, tmp_path):
        # numpy is blocked before the first import: the package, both
        # oracles (fuzz n up to 30 reaches brute_sat and dpll) and the
        # probe's exponent fit must do without it
        sat = write(tmp_path, "e1.cnf", E1_TEXT)
        unsat = write(tmp_path, "e2.cnf", E2_TEXT)
        covering = write(tmp_path, "e1.txt", E1_DECOMP)
        script = (
            "import contextlib, io, json, sys\n"
            "sys.modules['numpy'] = None\n"
            "import satcover\n"
            "from satcover.cli import main\n"
            "out = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        code = main(argv)\n"
            "    out.append([code, buf.getvalue()])\n"
            "print(json.dumps(out))\n"
        )
        runs = [
            ["solve", sat],
            ["solve", unsat],
            ["covering", covering],
            ["fuzz", "--seed", "1", "--count", "20", "--vars", "1..30"],
            ["probe", "--sizes", "1e2,1e3"],
            ["diff-exhaustive", "--max-n", "2"],
        ]
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        results = json.loads(done.stdout)
        assert [code for code, _ in results] == [10, 20, 10, 0, 0, 0]
        fuzz, probe = (json.loads(text) for _, text in results[3:5])
        assert fuzz["generated"] == 20
        cfg = FuzzConfig(seed=1, num_instances=20, var_range=(1, 30))
        widths = {random_cnf(cfg, i).num_vars > 25 for i in range(20)}
        assert widths == {False, True}  # brute_sat and dpll both judged
        assert probe["op_stats"]["fitted_exponent"] is not None


class TestColdStart:
    """A solve loads the engine only: not the harness, not the stdlib modules
    a solve has no use for (``statistics``, ``decimal``, ``fractions``), and
    not ``dataclasses`` and its ``inspect``."""

    NOT_ON_SOLVE = ("satcover.harness", "dataclasses", "inspect", "statistics", "decimal", "fractions")

    def fresh(self, *args):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        )

    def test_solve_loads_no_harness_module(self, tmp_path):
        # modules a site hook loaded before the import do not count
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import satcover.cli\n"
            "code = satcover.cli.main(['solve', sys.argv[1]])\n"
            "print(code, *sorted(set(sys.modules) - before))\n"
        )
        done = self.fresh("-c", script, write(tmp_path, "e1.cnf", E1_TEXT))
        assert done.returncode == 0, done.stderr
        *answer, last = done.stdout.splitlines()
        assert answer == ["s SATISFIABLE", "v 1 2 0"]
        code, *loaded = last.split()
        assert code == "10"
        assert "satcover.solver" in loaded
        assert [name for name in self.NOT_ON_SOLVE if name in loaded] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--seed", "2", "--count", "5", "--vars", "1..4"],
            ["probe", "--sizes", "1e2", "--instances-per-size", "1"],
            ["diff-exhaustive", "--max-n", "1", "--max-m", "2"],
        ],
        ids=["fuzz", "probe", "diff-exhaustive"],
    )
    def test_harness_commands_run_in_a_fresh_process(self, argv):
        done = self.fresh("-m", "satcover", *argv)
        assert done.returncode == 0, done.stderr
        doc = json.loads(done.stdout)
        assert doc.get("generated", 1) > 0 and doc.get("gate_failures") == 0


class TestHarnessCommands:
    def test_fuzz_runs_clean(self, tmp_path, capsys):
        out_path = tmp_path / "fuzz.json"
        code = main(
            [
                "fuzz",
                "--seed",
                "7",
                "--count",
                "25",
                "--vars",
                "1..6",
                "--clauses",
                "1..10",
                "--width",
                "1..3",
                "--json",
                str(out_path),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        doc = json.loads(stdout)
        assert doc == json.loads(out_path.read_text())
        assert doc["generated"] == 25
        assert doc["gate_failures"] == 0
        assert doc["config"]["seed"] == 7

    def test_fuzz_planted(self, capsys):
        code = main(
            ["fuzz", "--seed", "3", "--count", "10", "--vars", "2..5", "--planted"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["satisfiable_bias"] == "planted"

    def test_fuzz_bad_range(self, capsys):
        assert main(["fuzz", "--seed", "1", "--vars", "5..2"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--width", "3..2"], "error: width_range must be a pair of ints 1 <= lo <= hi, got (3, 2)"),
            (["--clauses", "0..4"], "error: clause_range must be a pair of ints 1 <= lo <= hi, got (0, 4)"),
            (["--vars", "1..x"], "error: bad range '1..x'"),
        ],
        ids=["width-reversed", "clauses-zero", "not-a-number"],
    )
    def test_fuzz_range_errors_name_the_field(self, argv, message, capsys):
        assert main(["fuzz", "--seed", "1", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1] == message
        assert "Traceback" not in captured.err

    def test_diff_exhaustive_tiny(self, capsys):
        code = main(["diff-exhaustive", "--max-n", "2", "--max-m", "2", "--max-width", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 44
        assert doc["reduction_check_passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--seed", "7", "--count", "3", "--vars", "1..4", "--clauses", "1..5"],
            ["diff-exhaustive", "--max-n", "1", "--max-m", "2", "--max-width", "1"],
            ["probe", "--sizes", "50", "--instances-per-size", "1"],
        ],
        ids=["fuzz", "diff-exhaustive", "probe"],
    )
    def test_unwritable_json_is_output_error(self, argv, tmp_path, capsys):
        out_path = tmp_path / "missing-dir" / "report.json"
        assert main(argv + ["--json", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output")
        assert json.loads(captured.out)  # the report still reaches stdout

    def test_diff_exhaustive_refuses_large_n(self, capsys):
        assert main(["diff-exhaustive", "--max-n", "9"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "bound, value",
        [("--max-n", "5"), ("--max-n", "0"), ("--max-m", "0"), ("--max-width", "-1")],
    )
    def test_diff_exhaustive_bad_bounds_are_input_errors(self, bound, value, capsys):
        assert main(["diff-exhaustive", bound, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--seed", "7", "--count", "5", "--vars", "1..4", "--clauses", "1..5", "--planted"],
            ["probe", "--sizes", "50", "--instances-per-size", "1"],
        ],
        ids=["fuzz", "probe"],
    )
    def test_gate_failure_exits_3(self, argv, tmp_path, capsys, monkeypatch):
        # every covering the engine finds now fails its gate: an engine error
        monkeypatch.setattr(solver_mod, "is_alpha_covering", lambda pair: False)
        out_path = tmp_path / "report.json"
        assert main(argv + ["--json", str(out_path)]) == 3
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc == json.loads(out_path.read_text())
        assert doc["gate_failures"] > 0
        assert captured.err == ""

    def test_failed_reduction_check_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(harness, "brute_covering", lambda pair: (False, None))
        assert main(["diff-exhaustive", "--max-n", "1", "--max-m", "2", "--max-width", "1"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["reduction_check_passed"] is False
        assert doc["gate_failures"] == 0

    def test_probe(self, tmp_path, capsys):
        out_path = tmp_path / "probe.json"
        code = main(
            ["probe", "--sizes", "50,1e2", "--instances-per-size", "1", "--json", str(out_path)]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sizes"] == [50, 100]
        assert len(doc["rows"]) == 2
        assert doc["op_stats"]["fitted_exponent"] is not None

    def test_probe_sizes_in_exponent_notation(self, capsys):
        assert main(["probe", "--sizes", "1.5e1,2e1", "--instances-per-size", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["sizes"] == [15, 20]

    def test_probe_bad_sizes(self, capsys):
        assert main(["probe", "--sizes", "zero"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--sizes", "1e400"],
            ["--width", "0"],
            ["--width", "-2"],
            ["--instances-per-size", "0"],
            ["--seed", "-1"],
            ["--sizes", "150.7"],
            ["--sizes", "0.5"],
            ["--sizes", "1e2,2.5e-1"],
        ],
        ids=[
            "overflowing-size",
            "zero-width",
            "negative-width",
            "no-instances",
            "negative-seed",
            "fractional-size",
            "fraction-below-one",
            "fractional-exponent-size",
        ],
    )
    def test_probe_bad_arguments_are_input_errors(self, argv, capsys):
        assert main(["probe", "--sizes", "50"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_fuzz_negative_seed_is_input_error(self, capsys):
        # random.Random seeds from abs(): seed -1 would repeat seed 1's corpus
        assert main(["fuzz", "--seed", "-1", "--count", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be an int >= 0, got -1\n"
        assert captured.out == ""

    # the messages name --count, not FuzzConfig's num_instances field
    @pytest.mark.parametrize(
        "count, problem",
        [("0", "must be positive"), ("-1", "must be positive"), ("5000000000", "must be at most 2**32")],
        ids=["0", "-1", "5000000000"],
    )
    def test_fuzz_bad_count_is_input_error(self, count, problem, capsys):
        assert main(["fuzz", "--seed", "1", "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: count {problem}, got {count}\n"
        assert captured.out == ""


# inputs the two single-file commands must answer without a traceback; every
# integer stays below 10^4, since a SAT answer's v line is O(num_vars)
SMALL_INT = st.integers(-9999, 9999).map(str)
TOKEN = st.one_of(
    SMALL_INT,
    st.sampled_from(["p", "cnf", "c", "0", "-0", "+1", "1_0", "x", "1e3", "--", "", "01", "10"]),
)
SEPARATOR = st.sampled_from([" ", "\n", "\t", "\r\n", "  "])


@st.composite
def token_soups(draw):
    tokens = draw(st.lists(st.tuples(TOKEN, SEPARATOR), max_size=40))
    body = "".join(tok + sep for tok, sep in tokens)
    if draw(st.booleans()):
        header = draw(st.sampled_from(["p cnf {} {}\n", "{} {}\n"]))
        body = header.format(draw(SMALL_INT), draw(SMALL_INT)) + body
    return body.encode("ascii")


def one_edit(draw, text: str, alphabet: str) -> bytes:
    """The text with at most one character inserted, deleted or replaced, or
    its header line replaced by two small integers."""
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["none", "insert", "delete", "replace", "header"]))
    if edit == "insert":
        text = text[:at] + draw(st.sampled_from(alphabet)) + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1 :]
    elif edit == "replace":
        text = text[:at] + draw(st.sampled_from(alphabet)) + text[at + 1 :]
    elif edit == "header":
        text = f"{draw(SMALL_INT)} {draw(SMALL_INT)}\n{text.split(chr(10), 1)[1]}"
    return text.encode("ascii")


@st.composite
def near_valid_texts(draw):
    """A valid pair's .decomp text or a formula's DIMACS text, edited once."""
    if draw(st.booleans()):
        return one_edit(draw, emit_decomp(draw(decomposition_pairs())), "01 \nx2-")
    return one_edit(draw, emit_dimacs(draw(formulas(max_vars=8))), "0-19 \npcx")


class TestNeverRaises:
    """ROADMAP item 4: the CLI answers 10, 20 or an ``error:`` line with exit
    2 on any input file, never a traceback or the engine-error exit 1."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("never-raises")

    def check(self, workdir, data):
        path = workdir / "input"
        path.write_bytes(data)
        for command in ("solve", "covering"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, str(path)])
            assert code in (10, 20, 2), (command, data, err.getvalue())
            if code == 2:
                assert err.getvalue().startswith("error: "), (command, data)

    @given(data=st.binary(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_bytes(self, workdir, data):
        self.check(workdir, data)

    @given(data=token_soups())
    @settings(max_examples=200, deadline=None)
    def test_token_soups(self, workdir, data):
        self.check(workdir, data)

    @given(data=near_valid_texts())
    @settings(max_examples=300, deadline=None)
    def test_near_valid_texts(self, workdir, data):
        self.check(workdir, data)
