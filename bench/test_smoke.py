"""Smoke test of the benchmark: every workload at its smallest size, in both
modes.  It checks the result schema and fail_ratio only, never a timing.

    python3 -m pytest bench/test_smoke.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 5


def _check_schema(result, trace):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    for metric in result["metrics"].values():
        assert type(metric["value"]) in (int, float)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["family", "soup", "cli"])
def test_workload_at_smallest_size(name, trace):
    result, lines = workloads.run(name, ROOT, SEED, 0, trace, small=True)
    _check_schema(result, trace)
    assert result["correct"]
    assert lines[0].startswith(f"{name} seed={SEED}: attempted ")
    assert result["failed"] == 0


def test_known_defects_are_probed_and_named():
    result, lines = workloads.run("cli", ROOT, SEED, 0, True, small=True)
    present = result["metrics"]["cli.known_defects"]["value"]
    assert 0 <= present <= len(inputs.KNOWN_DEFECTS)
    _, lines = workloads.run("cli", ROOT, SEED, 0, False, small=True)
    report = "\n".join(lines)
    assert f"{present} of {len(inputs.KNOWN_DEFECTS)} still present" in report
    assert report.count(": FAILS") == present


def test_traced_family_counts_every_segment_pair():
    result, _ = workloads.run("family", ROOT, SEED, 0, True, small=True)
    n = 8 * 2 + 1
    metrics = result["metrics"]
    assert metrics["lattice.segment_contact_calls"]["value"] == n * (n - 1) // 2
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_command_prints_result_as_last_line():
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    _check_schema(json.loads(done.stdout.splitlines()[-1]), True)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", "traces"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "soup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "{" not in done.stdout
