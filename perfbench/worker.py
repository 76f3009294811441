"""Benchmark child process: imports qparrondo from the checkout's src/,
fills the engine's lazy caches, then either reports that set-up is done
(``setup``) or runs timed jobs of one workload in-process and prints one
JSON line with the measurements (``jobs``).

Started by run.py with BLAS threads fixed in its environment; not meant to
be run by hand.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program():
    """The qparrondo modules, which must come from this checkout's src/."""
    sys.path.insert(0, str(ROOT / "src"))
    import qparrondo
    from qparrondo import classical, cli, coins, discriminator, engine, observables, state, sweeps

    origin = Path(qparrondo.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"qparrondo imported from {origin}, not from {ROOT / 'src'}")
    return {
        "cli": cli, "sweeps": sweeps, "engine": engine, "state": state,
        "observables": observables, "coins": coins, "discriminator": discriminator,
        "classical": classical,
    }


def warm_up(modules: dict, workload: str) -> None:
    """Fill the shift-permutation cache and the round-operator LRU cache
    for every lattice size and game parameter set the workload uses. An
    engine without these caches skips this step."""
    shift = getattr(modules["state"], "_shift_permutation", None)
    round_op = getattr(modules["engine"], "_round_coin_operator", None)
    coins = modules["coins"]
    if shift is not None:
        for rounds in W.WARM_ROUNDS[workload]:
            shift(2 * rounds + 1)
    if round_op is not None:
        for rho4 in W.WARM_RHO4[workload]:
            game_b = coins.GameBParams.from_rhos(rho4=rho4)
            for label in ("A", "B"):
                round_op(label, coins.CoinParams(0.5), game_b)


def run_job(cli, calls) -> tuple[float, list[str]]:
    """Wall time of one job's CLI calls and the problems they reported."""
    problems = []
    sink = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for _, argv in calls:
            try:
                code = cli.cli_main(argv)
            except Exception:  # a crash is a failed job, not a failed benchmark
                problems.append(f"{argv[0]} raised:\n{traceback.format_exc()}")
                continue
            if code != 0:
                problems.append(f"{argv[0]} exited {code}: {sink.getvalue()[-500:]}")
    return perf_counter() - start, problems


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "jobs"])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", help="file to write the traced spans to")
    args = parser.parse_args()

    modules = import_program()
    warm_up(modules, args.workload)
    if args.mode == "setup":
        print("ready", flush=True)
        return

    # imported only now, so that they are not part of the set-up time
    from checks import check_outputs
    from spans import Tracer

    tracer = Tracer(modules) if args.trace else None
    walls, traced_walls, layer_runs, span_dump, failures = [], [], [], [], []
    scratch = HERE / "out" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    index = 0
    # Start a job only if one more of the longest seen still ends within the
    # time budget. With tracing, untraced and traced jobs alternate so both
    # see the same load.
    while index < (2 if tracer else 1) or (
        perf_counter() - start + max(walls + traced_walls) <= args.seconds
    ):
        seed = W.job_seed(args.seed, index)
        traced = tracer is not None and index % 2 == 1
        out_dir = tempfile.mkdtemp(dir=scratch)
        try:
            calls = W.job_calls(args.workload, seed, out_dir)
            if traced:
                first = len(tracer.spans)
                tracer.install()
                try:
                    wall, problems = run_job(modules["cli"], calls)
                finally:
                    tracer.remove()
                layer_runs.append(tracer.job_metrics(first, wall))
                span_dump.append({"seed": seed, "wall_s": wall, "spans": tracer.dump(first)})
                traced_walls.append(wall)
            else:
                wall, problems = run_job(modules["cli"], calls)
                walls.append(wall)
            if not problems:
                problems = check_outputs([path for path, _ in calls])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            failures.append({"job": index, "seed": seed, "traced": traced, "problems": problems})
        index += 1

    result = {
        "walls": walls,
        "traced_walls": traced_walls,
        "attempted": index,
        "failures": failures,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__,
        "blas": _blas_version(np),
    }
    if tracer is not None:
        result["absent"] = tracer.absent()
        result["layer_runs"] = layer_runs
        if args.spans:
            Path(args.spans).write_text(json.dumps({"jobs": span_dump}))
    print(json.dumps(result))


def _blas_version(np) -> str:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError, AttributeError):
        return "unknown"


if __name__ == "__main__":
    main()
