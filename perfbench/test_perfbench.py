"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE))

from workloads import WORKLOAD_NAMES  # noqa: E402


def bench(*args, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("ref") / "reference.json"
    bench("--tiny", "--record", "--reference", str(path))
    return path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(reference, workload, trace):
    doc = result(
        bench(
            "--tiny", "--reference", str(reference), "--workload", workload,
            "--seed", "5", "--seconds", "0.2", "--trace", str(trace),
        )
    )
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values())


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOAD_NAMES)


def test_a_second_seed_passes_the_contract_check(reference):
    for seed in ("1", "2"):
        doc = result(bench("--tiny", "--reference", str(reference), "--seed", seed, "--seconds", "0.2"))
        assert doc["correct"] is True and doc["failed"] == 0


@pytest.mark.parametrize("workload", ["threshold-3sat", "fuzz"])
def test_a_corrupted_reference_drives_failed_frac_above_zero(reference, tmp_path, workload):
    doc = json.loads(reference.read_text(encoding="utf-8"))
    for entry in doc[workload].values():
        if "trace" in entry:
            entry["trace"] = "0" * 64
        else:
            entry["disagreements"].append(["made-up", "UNSAT", "SAT", "p cnf 1 1\n1 0\n"])
    corrupted = tmp_path / "corrupted.json"
    corrupted.write_text(json.dumps(doc), encoding="utf-8")
    out = result(
        bench("--tiny", "--reference", str(corrupted), "--workload", workload, "--seconds", "0.2")
    )
    assert out["correct"] is False
    assert 0 < out["failed"] <= out["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exhaustive", "--seconds", "1", cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
