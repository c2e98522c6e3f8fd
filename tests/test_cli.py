"""Command line surface: exit codes, output formats, file round-trips."""
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from satcover import DecompositionPair, ParseError
from satcover.cli import emit_decomp, main, parse_decomp

from conftest import E1_TEXT, E2_TEXT, decomposition_pairs

E1_DECOMP = "2 2\n10\n00\n\n01\n10\n"
E3_DECOMP = "2 3\n100\n100\n\n010\n001\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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


class TestDecompFormat:
    def test_parse_fixture(self):
        pair = parse_decomp(E1_DECOMP)
        assert pair.sm_alpha.tolist() == [[1, 0], [0, 0]]
        assert pair.sm_alpha_bar.tolist() == [[0, 1], [1, 0]]

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

    def test_emit_fixture(self):
        pair = parse_decomp(E1_DECOMP)
        assert emit_decomp(pair) == E1_DECOMP

    @given(decomposition_pairs())
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, pair):
        assert parse_decomp(emit_decomp(pair)) == pair


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
        ],
        ids=["overflowing-size", "zero-width", "negative-width", "no-instances"],
    )
    def test_probe_bad_arguments_are_input_errors(self, argv, capsys):
        assert main(["probe", "--sizes", "50"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
