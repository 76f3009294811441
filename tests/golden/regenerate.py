"""Regenerate the pinned CLI outputs that tests/test_golden.py replays.

Run from the repository root:

    python tests/golden/regenerate.py

Each case is one in-process CLI call with ``--out``. Its output file is
written to tests/golden/<name>.csv (or .json), and cases.json records each
case's argv, its standard output with the output path written as {out},
and, for a case whose numbers numpy's generators draw, the standard error
``sigma`` that its lines without a stderr column of their own are compared
within. A change that moves a pinned file names it in CHANGES.md and says
why.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from qparrondo import (  # noqa: E402
    GHZ,
    RANDOM_MIX,
    W,
    SimulationConfig,
    discriminate,
    initial_coin_state,
    run_averaged,
)
from qparrondo.cli import cli_main  # noqa: E402
from qparrondo.sweeps import phase_grid  # noqa: E402

STARTS = {
    "ghz": ["--initial", "ghz"],
    "w": ["--initial", "w"],
    "separable": ["--initial", "separable"],
    "j0.7": ["--initial", "j", "--omega", "0.7"],
}
SCHEMES = {"a": "a", "b": "b", "p22": "periodic:2,2", "mix": "mix"}
# the cooperative ring of demos/classical_baseline.py
RING = ["classical", "--mode", "cooperative", "--pa", "0.5", "--p1", "0.3", "--p2", "0.5",
        "--p3", "0.5", "--p4", "0.8", "--scheme", "mix"]

# name -> argv without --out. The walks outside rho4 sweeps set rho4: at
# the default 0.5 game B is game A, and every scheme plays the same walk.
CASES = {
    **{f"run-{start}-{key}": ["run", *flags, "--scheme", scheme, "--rho4", "0.3"]
       for start, flags in STARTS.items() for key, scheme in SCHEMES.items()},
    "run-separable-mix-t40-theta0.7": [
        "run", "--initial", "separable", "--scheme", "mix", "--rounds", "40", "--theta", "0.7",
        "--rho4", "0.3",
    ],
    # a J start at theta != pi/2 stays complex in the walk's gauge
    "run-j0.7-p22-theta0.7": [
        "run", *STARTS["j0.7"], "--scheme", "periodic:2,2", "--theta", "0.7", "--rho4", "0.3",
    ],
    "sweep-rho4": ["sweep-rho4"],
    "sweep-rho4-w": ["sweep-rho4", "--initial", "w"],
    "sweep-omega": ["sweep-omega", "--rho4", "0.7"],
    "sweep-phase": ["sweep-phase", "--rho4", "0.7"],
    "discriminate-w": ["discriminate", "--initial", "w"],
    "discriminate-w-sampled": ["discriminate", "--initial", "w", "--mode", "sampled"],
    "classical-mix": ["classical", "--scheme", "mix", "--rounds", "2000"],
    "classical-p22": ["classical", "--scheme", "periodic:2,2", "--rounds", "2000"],
    "classical-ring3": [*RING, "--rounds", "200"],
    "classical-ring5": [*RING, "--players", "5", "--rounds", "200"],
    # 8 players and more run Monte Carlo
    "classical-ring8": [*RING, "--players", "8", "--rounds", "50", "--trials", "200"],
}
# the cases whose numbers numpy's generators draw: every quantum random mix,
# the sampled discriminator and the Monte Carlo ring
DRAWN = {
    *(name for name in CASES if name.startswith(("run-", "sweep-")) and "mix" in name),
    "sweep-rho4", "sweep-rho4-w", "sweep-omega", "sweep-phase",
    "discriminate-w-sampled", "classical-ring8",
}


class RecordingRng:
    """Keeps the distribution the sampled discriminator draws from."""

    def multinomial(self, n, pvals):
        self.pvals = np.array(pvals)
        return np.random.default_rng(0).multinomial(n, pvals)


def drawn_sigma(name: str, path: Path) -> float:
    """The standard error of a drawn case's lines that carry no stderr
    column: for the sampled discriminator, the mean of its default 10^5
    draws of 2S - 3T at T=16, from the exact distribution of S; for the
    phase map, the largest final standard error of its GHZ mix over the
    map's theta column (no walk reads phi); else the largest value of the
    case's stderr column."""
    if name == "discriminate-w-sampled":
        rng = RecordingRng()
        discriminate(initial_coin_state(W), 16, "sampled", 100_000, rng)
        sums = 2.0 * np.arange(len(rng.pvals)) - 48
        mean = rng.pvals @ sums
        return float(np.sqrt((rng.pvals @ sums**2 - mean**2) / 100_000))
    if name == "sweep-phase":
        return max(
            run_averaged(SimulationConfig(GHZ, RANDOM_MIX, rho4=0.7, theta=theta)).final_stderr
            for theta in phase_grid()
        )
    with open(path) as fh:
        return max(float(row["stderr"]) for row in csv.DictReader(fh))


def main() -> None:
    manifest = []
    for name, argv in CASES.items():
        path = HERE / f"{name}.{'json' if argv[0] == 'discriminate' else 'csv'}"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main([*argv, "--out", str(path)])
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        manifest.append({
            "name": name,
            "argv": argv,
            "out": path.name,
            "stdout": stdout.getvalue().replace(str(path), "{out}"),
            "sigma": drawn_sigma(name, path) if name in DRAWN else None,
        })
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
