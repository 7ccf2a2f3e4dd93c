"""The benchmark's correctness gate: one untimed pass of each workload that
BENCHMARK.json declares, at the contract seed, checked against its oracles
and its recorded stdout digests."""

import json
import subprocess
import sys

import pytest

from conftest import ROOT

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_is_correct_at_the_contract_seed(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = run.stdout.splitlines()
    assert run.returncode == 0, run.stdout + run.stderr
    assert json.loads(lines[-1])["correct"] is True
    assert "digest_checked true" in lines
