"""qparrondo benchmark: times whole CLI jobs and, traced, the layers inside them.

Run from the repository root:

    python3 perfbench/run.py        # every workload, untraced then traced
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0

A workload runs as a closed loop with one client: a child process imports
qparrondo from src/, fills the engine's lazy caches, then runs jobs back to
back until the time budget is spent. A job is one in-process call of
``qparrondo.cli.cli_main`` per CLI command (workloads.py), writing its
output into a temporary directory; every job's output is checked against
reference.json (checks.py), and a job that fails or mismatches counts as
failed.

With ``--trace 0`` the result holds the end-to-end metrics: setup_s (median
over fresh processes of import plus cache warm-up), wall_s (median seconds
per job) and peak_mem_mb (peak RSS of the job process). With ``--trace 1``
untraced and traced jobs alternate and the result holds the per-layer
metrics of the traced jobs (spans.py; medians over jobs), the tracing
overhead (traced over untraced median wall_s) and the share of a job's wall
time that the layers' self times cover.

The last line of standard output is the JSON result. The full record of each
run (manifest, samples, quartiles, throughput, fail_ratio, absent names, any
mismatches) goes to perfbench/out/, with the traced spans; a run of every
workload also writes perfbench/out/results.json.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402

SETUP_SAMPLES = 9
BLAS_THREADS = 1  # jobs run serially; one thread keeps the timings steady
DEADLINE_S = 170  # every run must end within 180 s
# counts that must repeat exactly across jobs and runs of the same code
EXACT_COUNTS = (
    "engine.step_round.calls", "coins.coin_unitary.calls", "sweeps.points",
    "classical.plays", "state.sites_per_round",
)
SELF_SUM_RANGE = (0.99, 1.0 + 1e-9)
COMPUTED = ("state.sites_per_round", "state.bytes_computed")
# work per job, so that throughput = work / wall_s
WORK = {
    "sweep": (len(W.RHO4_GRID) * len(W.SWEEP_SCHEMES), "sweep rows"),
    "deep_walk": (W.RUN_ROUNDS + W.DISC_ROUNDS, "walk rounds"),
    "classical": (W.CLASSICAL_ROUNDS * W.CLASSICAL_TRIALS * W.CLASSICAL_PLAYERS, "plays"),
}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(mode: str, workload: str, *extra: str) -> list[str]:
    return [sys.executable, str(WORKER), mode, "--workload", workload, *extra]


def measure_setup(workload: str, deadline: float) -> list[float]:
    """Seconds for fresh processes to import qparrondo.cli and warm its caches.

    One unmeasured process runs first so that every measured one finds
    compiled bytecode and a warm file cache."""
    times = []
    for k in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        proc = subprocess.Popen(
            worker_cmd("setup", workload), stdout=subprocess.PIPE, env=child_env(), cwd=ROOT
        )
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.wait(timeout=max(1.0, deadline - perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise SystemExit(f"set-up of {workload} failed (exit {proc.returncode})")
        if k:
            times.append(elapsed)
    return times


def run_jobs(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    cmd = worker_cmd(
        "jobs", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--spans", str(OUT / f"spans-{workload}-seed{seed}.json"),
    )
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} job process failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    """HEAD of the repository rooted at ROOT; None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), None)
    except OSError:
        return None


def manifest(seed: int, seconds: float, jobs: dict) -> dict:
    return {
        "git_rev": git_revision(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": jobs["numpy"],
        "openblas": jobs["blas"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "holdout_seed": W.HOLDOUT_SEED,
        "seconds": seconds,
    }


def check_counts(workload: str, runs: list[dict]) -> list[str]:
    """Exact counts must agree across traced jobs and with earlier runs of
    the same source (kept in perfbench/out/)."""
    problems = []
    counts = {name: runs[0][name] for name in EXACT_COUNTS}
    for run in runs[1:]:
        for name in EXACT_COUNTS:
            if run[name] != counts[name]:
                problems.append(f"{name} differs between jobs: {counts[name]} vs {run[name]}")
    store = OUT / f"counts-{workload}.json"
    digest = source_digest()
    previous = json.loads(store.read_text()) if store.exists() else {}
    if digest in previous and previous[digest] != counts:
        problems.append(f"exact counts {counts} differ from an earlier run: {previous[digest]}")
    else:
        previous[digest] = counts
        store.write_text(json.dumps(previous, indent=1))
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + DEADLINE_S
    setup = measure_setup(workload, deadline)
    jobs = run_jobs(workload, seed, seconds, trace, deadline)
    walls = jobs["walls"]
    problems = [f"job {f['job']} (seed {f['seed']}): {p}" for f in jobs["failures"] for p in f["problems"]]
    work, work_unit = WORK[workload]
    median = statistics.median(walls)
    record = {
        "workload": workload,
        "trace": trace,
        "manifest": manifest(seed, seconds, jobs),
        "attempted": jobs["attempted"],
        "failed": len(jobs["failures"]),
        "fail_ratio": len(jobs["failures"]) / jobs["attempted"],
        "setup_s_samples": setup,
        "wall_s_samples": walls,
        "wall_s_quartiles": quartiles(walls),
        "throughput": {"value": work / median, "unit": f"{work_unit}/s"},
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": median,
            "peak_mem_mb": jobs["maxrss_mb"],
        }
    else:
        runs = jobs["layer_runs"]
        metrics = {
            name: (statistics.median_low if isinstance(value, int) else statistics.median)(
                r[name] for r in runs
            )
            for name, value in runs[0].items()
        }
        metrics["trace.overhead"] = statistics.median(jobs["traced_walls"]) / median
        problems += check_counts(workload, runs)
        for r in runs:
            if not SELF_SUM_RANGE[0] <= r["trace.self_sum_ratio"] <= SELF_SUM_RANGE[1]:
                problems.append(f"layer self times sum to {r['trace.self_sum_ratio']:.4f} of wall")
        record["absent"] = jobs["absent"]
        record["traced_wall_s_samples"] = jobs["traced_walls"]
    listed = _bench()["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"BENCHMARK.json names metrics the run does not produce: {missing}")
    record["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed}
    record["problems"] = problems
    record["correct"] = not problems
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    return record


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(record: dict) -> None:
    w = record["workload"]
    q1, q2, q3 = record["wall_s_quartiles"]
    print(f"[{w}] trace={record['trace']} jobs={record['attempted']} "
          f"failed={record['failed']} fail_ratio={record['fail_ratio']:.3g}")
    print(f"[{w}] wall_s quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s over "
          f"{len(record['wall_s_samples'])} untraced jobs; throughput "
          f"{record['throughput']['value']:.4g} {record['throughput']['unit']}")
    for name, m in record["metrics"].items():
        note = " (computed from array sizes)" if name in COMPUTED else ""
        print(f"[{w}] {name:40s} {m['value']:.6g} {m['unit']}{note}")
    if record.get("absent"):
        print(f"[{w}] absent from the program (reported as 0): {', '.join(record['absent'])}")
    for problem in record["problems"][:20]:
        print(f"[{w}] FAIL {problem}", file=sys.stderr)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS), help="default: all")
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], help="default with --workload: 0")
    args = parser.parse_args()
    if not (ROOT / "src" / "qparrondo" / "__init__.py").is_file():
        sys.exit(f"no qparrondo sources under {ROOT / 'src'}; run from a full checkout")
    seconds = args.seconds if args.seconds is not None else _bench()["run_seconds"]

    if args.workload:
        record = run_workload(args.workload, args.seed, seconds, args.trace or 0)
        report(record)
        records = [record]
    else:
        records = []
        for workload in W.WORKLOADS:
            for trace in (0, 1):
                record = run_workload(workload, args.seed, seconds, trace)
                report(record)
                records.append(record)
        (OUT / "results.json").write_text(json.dumps(records, indent=1))
        print(f"results: {OUT / 'results.json'}")
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": records[0]["metrics"] if len(records) == 1 else {
            f"{r['workload']}.{name}": m for r in records for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
