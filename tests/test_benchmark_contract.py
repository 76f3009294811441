"""The benchmark's own set-up, jobs and output checks, for every workload
that BENCHMARK.json declares, run against this checkout.

perfbench/ is used as it is: its worker fills the program's caches, runs
the job's CLI calls and its checks compare the outputs with
perfbench/reference.json, so a change that breaks set-up, a job or an
output fails here. A traced run alternates untraced jobs with jobs under
perfbench/spans.py's Tracer, which wraps every public function of the
program's modules, all in one process; that is played here too.
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
    """perfbench's worker, workloads, checks and spans modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield tuple(
            importlib.import_module(name) for name in ("worker", "workloads", "checks", "spans")
        )
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_job_passes_its_output_checks(bench, workload, tmp_path):
    worker, workloads, checks, _ = bench
    modules = worker.import_program()
    worker.warm_up(modules, workload)
    seed = workloads.job_seed(workloads.DEFAULT_SEED, 0)
    calls = workloads.job_calls(workload, seed, str(tmp_path))
    _, problems = worker.run_job(modules["cli"], calls)
    assert problems == []
    assert checks.check_outputs([path for path, _ in calls]) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_passes_its_output_checks(bench, workload, tmp_path):
    # jobs 0, 1 and 2 in one process as a traced run plays them: job 1
    # under the tracer, the others after it is installed and removed again
    worker, workloads, checks, spans = bench
    modules = worker.import_program()
    worker.warm_up(modules, workload)
    tracer = spans.Tracer(modules)
    for index in range(3):
        out_dir = tmp_path / str(index)
        out_dir.mkdir()
        seed = workloads.job_seed(workloads.DEFAULT_SEED, index)
        calls = workloads.job_calls(workload, seed, str(out_dir))
        if index == 1:
            tracer.install()
            try:
                _, problems = worker.run_job(modules["cli"], calls)
            finally:
                tracer.remove()
            assert tracer.spans, "the traced job recorded no span"
        else:
            _, problems = worker.run_job(modules["cli"], calls)
        assert problems == [], index
        assert checks.check_outputs([path for path, _ in calls]) == [], index
