"""Output checks of one benchmark job against perfbench/reference.json.

Deterministic numbers must match to DET_TOL (relative above magnitude 1).
A Monte Carlo number must lie within ``z`` standard errors of the
reference mean, where the standard error comes from the reference's
per-sample standard deviation and the job's sample count, never from the
standard error the program reports; so an exact estimator passes as well.
A verdict, paradox flag or label is compared wherever every value inside
that tolerance band gives the same answer.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import workloads as W

DET_TOL = 1e-12
VERDICT_TOL = 1e-9  # observables.DEFAULT_TOL, the fair band of an exact gain

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= DET_TOL * max(1.0, abs(expected))


def _mc_band(mean: float, se: float) -> float:
    """Half-width of the accepted band around a Monte Carlo reference mean;
    never narrower than DET_TOL, for outputs that have no spread at all."""
    return max(REFERENCE["z"] * se, DET_TOL * max(1.0, abs(mean)))


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _verdict(gain: float, tol: float) -> str:
    return "winning" if gain > tol else "losing" if gain < -tol else "fair"


def _sure(classify, mean: float, band: float):
    """classify(x) if it is the same at both ends of mean +- band, else None."""
    lo, hi = classify(mean - band), classify(mean + band)
    return lo if lo == hi else None


def _check_sweep(path: str, bad: list[str]) -> None:
    ref = REFERENCE["sweep"]
    header, rows = _read_csv(path)
    if header != ref["header"] or [r[:2] for r in rows] != ref["keys"]:
        bad.append("sweep: CSV header or (rho4, scheme) keys differ from the reference")
        return
    deterministic = {tuple(r[:2]): r for r in ref["deterministic"]}
    verdicts = {}  # (rho4, scheme) -> verdict the reference implies, or None
    for value, scheme, gain, stderr, verdict, paradox in rows:
        gain, stderr = float(gain), float(stderr)
        where = f"sweep rho4={value} {scheme}"
        if not (math.isfinite(stderr) and stderr >= 0):
            bad.append(f"{where}: stderr {stderr}")
        expect = deterministic.get((value, scheme))
        if expect is not None:
            if not _close(gain, float(expect[2])) or not _close(stderr, float(expect[3])):
                bad.append(f"{where}: gain {gain!r} stderr {stderr!r}, expected {expect[2:4]}")
            band = DET_TOL * max(1.0, abs(gain))
            mean = float(expect[2])
        else:
            mix = ref["mix"][value]
            mean = mix["mean"]
            band = _mc_band(mean, mix["sd"] * math.sqrt(1 / W.SWEEP_RUNS + 1 / mix["n"]))
            if abs(gain - mean) > band:
                bad.append(f"{where}: gain {gain:+.6f} outside {mean:+.6f} +- {band:.6f}")
        tol = max(VERDICT_TOL, 3.0 * stderr)
        if verdict != _verdict(gain, tol):
            bad.append(f"{where}: verdict {verdict} does not follow from its gain and stderr")
        expected_verdict = _sure(lambda g: _verdict(g, tol), mean, band)
        verdicts[value, scheme] = expected_verdict
        if expected_verdict is not None and verdict != expected_verdict:
            bad.append(f"{where}: verdict {verdict}, expected {expected_verdict}")
    for value, scheme, *_, paradox in rows:
        a, b, own = verdicts[value, "a"], verdicts[value, "b"], verdicts[value, scheme]
        if scheme in ("a", "b"):
            expected = "0"
        elif None in (a, b, own):
            continue
        else:
            expected = str(int(a != "winning" and b != "winning" and own == "winning"))
        if paradox != expected:
            bad.append(f"sweep rho4={value} {scheme}: paradox {paradox}, expected {expected}")


def _check_run(path: str, bad: list[str]) -> None:
    ref = REFERENCE["run"]
    header, rows = _read_csv(path)
    if header != ref["header"] or len(rows) != len(ref["rows"]):
        bad.append("run: CSV header or row count differs from the reference")
        return
    for row, expect in zip(rows, ref["rows"]):
        if row[0] != expect[0] or not all(
            _close(float(v), float(e)) for v, e in zip(row[1:], expect[1:])
        ):
            bad.append(f"run: round {row[0]} is {row[1:]}, expected {expect[1:]}")


def _label(statistic: float, threshold: float) -> str:
    if abs(statistic) <= threshold:
        return "GHZ"
    return "W" if statistic < -threshold else "Inconclusive"


def _check_discriminate(path: str, bad: list[str]) -> None:
    ref = REFERENCE["discriminate"]
    out = json.loads(Path(path).read_text())
    band = _mc_band(ref["mean"], ref["sd"] / math.sqrt(W.DISC_SHOTS))
    if not _close(out["threshold"], ref["threshold"]):
        bad.append(f"discriminate: threshold {out['threshold']!r}, expected {ref['threshold']!r}")
    if abs(out["statistic"] - ref["mean"]) > band:
        bad.append(
            f"discriminate: statistic {out['statistic']:.6f} outside "
            f"{ref['mean']:.6f} +- {band:.6f}"
        )
    expected = _sure(lambda s: _label(s, ref["threshold"]), ref["mean"], band)
    if expected is not None and out["label"] != expected:
        bad.append(f"discriminate: label {out['label']}, expected {expected}")


def _check_classical(path: str, bad: list[str]) -> None:
    ref = REFERENCE["classical"]
    header, rows = _read_csv(path)
    if header != ["round", "gain_avg", "stderr"] or [r[0] for r in rows] != [
        str(t) for t in range(W.CLASSICAL_ROUNDS + 1)
    ]:
        bad.append("classical: CSV header or round column differs from the reference")
        return
    if float(rows[0][1]) != 0.0:
        bad.append(f"classical: round 0 gain {rows[0][1]}, expected 0")
    for _, gain, stderr in rows:
        if not (math.isfinite(float(stderr)) and float(stderr) >= 0):
            bad.append(f"classical: stderr {stderr}")
            break
    for t, mean, sd in zip(ref["rounds"], ref["mean"], ref["sd"]):
        band = _mc_band(mean, sd / math.sqrt(W.CLASSICAL_TRIALS))
        gain = float(rows[t][1])
        if abs(gain - mean) > band:
            bad.append(f"classical: round {t} gain {gain:.6f} outside {mean:.6f} +- {band:.6f}")


CHECKS = {
    "sweep.csv": _check_sweep,
    "series.csv": _check_run,
    "disc.json": _check_discriminate,
    "classical.csv": _check_classical,
}


def check_outputs(paths: list[str]) -> list[str]:
    """Mismatches of one job's output files; empty when all are correct."""
    bad: list[str] = []
    for path in paths:
        try:
            CHECKS[Path(path).name](path, bad)
        except (OSError, ValueError, TypeError, KeyError, IndexError) as exc:
            bad.append(f"{Path(path).name}: unreadable output ({type(exc).__name__}: {exc})")
    return bad
