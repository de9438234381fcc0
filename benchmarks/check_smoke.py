"""Smoke test of the benchmark: each workload at its smallest size.

    PYTHONPATH=src python -m pytest -q benchmarks/check_smoke.py

The file name keeps it out of the default test collection, because it runs
the benchmark itself (about a minute).  `--seconds 0` fits one problem.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

from groupsparse import experiments as ex

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
SEED = 3


@functools.lru_cache(maxsize=None)
def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    detail, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if trace:
        assert detail["accuracy_identical"] is True


def test_exp1_accuracy_matches_monte_carlo_harness():
    """The benchmark drives the harness's own per-problem sequence."""
    detail, _ = run_bench("exp1", 0)
    rows = [r for r in detail["records"] if r["problem"] == 0]
    cfg = ex.McConfig(experiment="exp1", runs=1, master_seed=SEED,
                      estimators=[r["method"] for r in rows])
    harness = {row["method"]: row
               for row in ex.run_monte_carlo(cfg).per_run}
    for r in rows:
        assert r["pct_error"] == harness[r["method"]]["pct_error"]
        assert r["zero_pattern"] == harness[r["method"]]["zero_pattern"]
