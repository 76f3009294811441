"""Rebuild perfbench/reference.json, the expected outputs of every workload.

Run from the repository root (takes about ten minutes on two cores):

    python3 perfbench/make_reference.py

Deterministic outputs (pure and periodic sweep rows, the ``run`` series,
the discriminator threshold) are taken from one run of the program.
Monte Carlo outputs get a mean and a per-sample standard deviation that
do not depend on the program's estimator:

- random-mix sweep rows: REF_RUNS independent walks with their own seed;
- sampled discriminator statistic: the exact mean and standard deviation
  of x1 + x2 + x3 under the final position distribution;
- classical series: the exact mean and standard deviation of the
  player-averaged gain from the 8-state Markov chain of winner flags.
"""
from __future__ import annotations

import csv
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402
from qparrondo import cli, engine  # noqa: E402
from qparrondo.coins import W as W_STATE  # noqa: E402
from qparrondo.coins import CoinParams, initial_coin_state  # noqa: E402
from qparrondo.discriminator import _final_state  # noqa: E402
from qparrondo.observables import position_distribution  # noqa: E402

Z = 5.0  # check tolerance in standard errors; see checks.py
REF_SEED = 987_654_321
REF_RUNS = 1000
CLASSICAL_CHECK_ROUNDS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10_000)


def _program_outputs(tmp: str) -> dict[str, Path]:
    paths = {}
    for workload in W.WORKLOADS:
        for path, argv in W.job_calls(workload, REF_SEED, tmp):
            if cli.cli_main(argv) != 0:
                raise SystemExit(f"reference call failed: {argv}")
            paths[Path(path).name] = Path(path)
    return paths


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _mix_reference() -> dict[str, dict]:
    out = {}
    for value in W.RHO4_GRID:
        config = cli._sim_config({
            **cli.SHARED_DEFAULTS, "initial": "separable", "scheme": "mix",
            "rounds": W.SWEEP_ROUNDS, "rho4": float(value), "seed": REF_SEED, "runs": REF_RUNS,
        })
        finals = np.array(
            [engine._run_indexed(config, k).final_gain for k in range(REF_RUNS)]
        )
        sd = float(finals.std(ddof=1))
        mean = float(finals.mean())
        # tail of the job's 10-run mean, by resampling the reference runs
        rng = np.random.default_rng(0)
        means = finals[rng.integers(0, REF_RUNS, size=(200_000, W.SWEEP_RUNS))].mean(axis=1)
        tail = float(np.mean(np.abs(means - mean) > Z * sd / np.sqrt(W.SWEEP_RUNS)))
        out[value] = {"mean": mean, "sd": sd, "n": REF_RUNS}
        print(f"mix rho4={value}: mean {mean:+.6f} sd {sd:.6f} tail(z={Z}) {tail:.2e}",
              file=sys.stderr)
    return out


def _discriminator_reference() -> dict:
    state = _final_state(initial_coin_state(W_STATE), W.DISC_ROUNDS, CoinParams(0.5))
    probs = position_distribution(state)
    probs = probs / probs.sum()
    x = state.lattice.coordinates
    total = x[:, None, None] + x[None, :, None] + x[None, None, :]
    mean = float((probs * total).sum())
    sd = float(np.sqrt((probs * (total - mean) ** 2).sum()))
    return {"mean": mean, "sd": sd}


def _cooperative_transitions(pa, p1, p2, p3, p4, label):
    """8x8 flag-state transition matrix of one sequential round (3 players)."""
    def branch(prev, nxt):
        if prev and nxt:
            return p1
        if prev:
            return p2
        if nxt:
            return p3
        return p4

    P = np.zeros((8, 8))
    for s in range(8):
        # enumerate the three players' outcomes in play order
        paths = [((s >> 0) & 1, (s >> 1) & 1, (s >> 2) & 1, 1.0)]
        for i in range(3):
            nxt_paths = []
            for f0, f1, f2, w in paths:
                flags = [f0, f1, f2]
                p = pa if label == "A" else branch(flags[(i - 1) % 3], flags[(i + 1) % 3])
                for won, pw in ((1, p), (0, 1.0 - p)):
                    new = list(flags)
                    new[i] = won
                    nxt_paths.append((*new, w * pw))
            paths = nxt_paths
        for f0, f1, f2, w in paths:
            P[s, f0 | (f1 << 1) | (f2 << 2)] += w
    return P


def _classical_reference() -> dict:
    pr = W.CLASSICAL_PROBS
    args = (pr["pa"], pr["p1"], pr["p2"], pr["p3"], pr["p4"])
    P = 0.5 * _cooperative_transitions(*args, "A") + 0.5 * _cooperative_transitions(*args, "B")
    step = np.array([sum(2 * ((s >> i) & 1) - 1 for i in range(3)) / 3 for s in range(8)])
    p = np.full(8, 1 / 8)  # random initial winner flags
    m = np.zeros(8)  # E[G ; flags]
    q = np.zeros(8)  # E[G^2 ; flags]
    mean, sd = [], []
    for t in range(1, W.CLASSICAL_ROUNDS + 1):
        p, m, q = p @ P, (m @ P) + step * (p @ P), (q @ P) + 2 * step * (m @ P) + step**2 * (p @ P)
        if t in CLASSICAL_CHECK_ROUNDS:
            mu = m.sum()
            mean.append(float(mu))
            sd.append(float(np.sqrt(q.sum() - mu**2)))
    return {"rounds": list(CLASSICAL_CHECK_ROUNDS), "mean": mean, "sd": sd}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = _program_outputs(tmp)
        sweep_header, sweep_rows = _read_csv(out["sweep.csv"])
        run_header, run_rows = _read_csv(out["series.csv"])
        disc = json.loads(out["disc.json"].read_text())
    reference = {
        "z": Z,
        "sweep": {
            "header": sweep_header,
            "keys": [row[:2] for row in sweep_rows],
            "deterministic": [row for row in sweep_rows if row[1] != "mix"],
            "mix": _mix_reference(),
        },
        "run": {"header": run_header, "rows": run_rows},
        "discriminate": {"threshold": disc["threshold"], **_discriminator_reference()},
        "classical": _classical_reference(),
    }
    (HERE / "reference.json").write_text(dump(reference))


def dump(reference: dict) -> str:
    """JSON with every list of plain values on one line."""
    text = json.dumps(reference, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: f"[{' '.join(m.group(1).split())}]", text) + "\n"


if __name__ == "__main__":
    main()
