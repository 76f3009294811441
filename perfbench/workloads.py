"""Workload definitions shared by the benchmark worker and make_reference.py.

Every job is a list of CLI calls (argv lists for ``qparrondo.cli.cli_main``).
The job seed reaches the program only as ``--seed``; each call writes its
output under a directory the caller chooses with ``--out``.
"""
from __future__ import annotations

import numpy as np

RHO4_GRID = ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9")
SWEEP_SCHEMES = ("a", "b", "periodic:2,2", "mix")
SWEEP_ROUNDS = 16
SWEEP_RUNS = 10

RUN_ROUNDS = 40
RUN_RHO4 = 0.3
DISC_ROUNDS = 28
DISC_SHOTS = 100_000

CLASSICAL_PROBS = {"pa": 0.5, "p1": 0.3, "p2": 0.5, "p3": 0.5, "p4": 0.8}
CLASSICAL_ROUNDS = 10_000
CLASSICAL_TRIALS = 1000
CLASSICAL_PLAYERS = 3  # the CLI default of --players

SWEEP_ARGV = [
    "sweep-rho4", "--initial", "separable", "--values", ",".join(RHO4_GRID),
    "--schemes", ",".join(SWEEP_SCHEMES), "--rounds", str(SWEEP_ROUNDS),
    "--runs", str(SWEEP_RUNS),
]
RUN_ARGV = [
    "run", "--initial", "ghz", "--scheme", "periodic:2,2", "--rho4", str(RUN_RHO4),
    "--rounds", str(RUN_ROUNDS),
]
DISC_ARGV = [
    "discriminate", "--initial", "w", "--mode", "sampled", "--shots", str(DISC_SHOTS),
    "--rounds", str(DISC_ROUNDS),
]
CLASSICAL_ARGV = [
    "classical", "--mode", "cooperative", "--scheme", "mix",
    *[arg for k, v in CLASSICAL_PROBS.items() for arg in (f"--{k}", str(v))],
    "--rounds", str(CLASSICAL_ROUNDS), "--trials", str(CLASSICAL_TRIALS),
]

# workload -> [(output file name, argv without --seed/--out)]
WORKLOADS = {
    "sweep": [("sweep.csv", SWEEP_ARGV)],
    "deep_walk": [("series.csv", RUN_ARGV), ("disc.json", DISC_ARGV)],
    "classical": [("classical.csv", CLASSICAL_ARGV)],
}

# Per workload: the lattice half-extents (rounds) and the (rho4, theta, phi)
# game parameters its walks use, so set-up can fill the engine's lazy caches.
WARM_ROUNDS = {"sweep": (SWEEP_ROUNDS,), "deep_walk": (RUN_ROUNDS, DISC_ROUNDS), "classical": ()}
WARM_RHO4 = {"sweep": tuple(float(v) for v in RHO4_GRID), "deep_walk": (RUN_RHO4,), "classical": ()}

DEFAULT_SEED = 1
HOLDOUT_SEED = 20_261_017


def job_seed(workload_seed: int, job_index: int) -> int:
    """Program seed of one job, derived from the workload seed."""
    return int(np.random.SeedSequence((workload_seed, job_index)).generate_state(1)[0] >> 1)


def job_calls(workload: str, seed: int, out_dir: str) -> list[tuple[str, list[str]]]:
    """(output path, full argv) for every CLI call of one job."""
    return [
        (f"{out_dir}/{name}", [*argv, "--seed", str(seed), "--out", f"{out_dir}/{name}"])
        for name, argv in WORKLOADS[workload]
    ]
