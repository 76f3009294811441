"""The benchmark's own set-up, one job and its output checks, for every
workload that BENCHMARK.json declares, run against this checkout.

perfbench/ is used as it is: its worker fills the program's caches, runs
the job's CLI calls and its checks compare the outputs with
perfbench/reference.json, so a change that breaks set-up, a job or an
output fails here.
"""
import importlib
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """perfbench's worker, workloads and checks modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield tuple(importlib.import_module(name) for name in ("worker", "workloads", "checks"))
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_job_passes_its_output_checks(bench, workload, tmp_path):
    worker, workloads, checks = bench
    modules = worker.import_program()
    worker.warm_up(modules, workload)
    seed = workloads.job_seed(workloads.DEFAULT_SEED, 0)
    calls = workloads.job_calls(workload, seed, str(tmp_path))
    _, problems = worker.run_job(modules["cli"], calls)
    assert problems == []
    assert checks.check_outputs([path for path, _ in calls]) == []
