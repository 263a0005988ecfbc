"""Smoke checks of the benchmark's own output; no timing is asserted."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def _bench(root: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170)


def test_result_line_matches_schema():
    p = _bench(HERE.parent, "torus-large")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert run.check_schema(result, run.load_spec(), trace=0) == []
    assert result["correct"] and result["failed"] == 0


def test_schema_check_rejects_missing_metric():
    spec = run.load_spec()
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
               for m in spec["end_to_end"]}
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": metrics}
    assert run.check_schema(result, spec, trace=0) == []
    del metrics["setup_s"]
    assert run.check_schema(result, spec, trace=0) != []


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _bench(tmp_path, "reproduce")
    assert p.returncode != 0
    assert p.stdout == ""
