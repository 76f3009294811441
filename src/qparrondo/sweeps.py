"""Parameter sweeps and CSV serialization.

Grid points are independent work items; evaluation may be spread over
worker threads but records are always assembled in grid order, so output
never depends on completion order or the worker count.
"""
from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .coins import GameBParams, j_entangled
from .engine import (
    PURE_A,
    PURE_B,
    GameScheme,
    SimulationConfig,
    run_averaged,
    run_simulation,
)
from .observables import GameVerdict, PayoffSeries, classify_game, detect_paradox

DEFAULT_RHO4_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
DEFAULT_PHASE_STEP = math.pi / 8
DEFAULT_OMEGA_GRID = tuple(k * math.pi / 10 for k in range(6))
DEFAULT_SCHEMES = (PURE_A, PURE_B, GameScheme("periodic", 2, 2), GameScheme("mix"))


@dataclass(frozen=True)
class SweepRecord:
    """Final gain of one scheme at one sweep value."""

    value: float
    scheme: str
    gain: float
    stderr: float
    verdict: str
    paradox: bool


@dataclass(frozen=True)
class MapRecord:
    """Final gain of one scheme at one (theta, phi) grid point."""

    theta: float
    phi: float
    scheme: str
    gain: float
    paradox: bool


def _final_series(config: SimulationConfig) -> PayoffSeries:
    if config.scheme.is_random:
        return run_averaged(config)
    return run_simulation(config)


def _point_records(
    config_for,
    value,
    schemes: Sequence[GameScheme],
) -> list[tuple[GameScheme, PayoffSeries, GameVerdict]]:
    """Evaluate requested schemes plus the pure games needed for paradox flags."""
    wanted = list(schemes)
    evaluated: dict[str, tuple[GameScheme, PayoffSeries, GameVerdict]] = {}
    for scheme in (PURE_A, PURE_B, *wanted):
        if scheme.label in evaluated:
            continue
        series = _final_series(config_for(value, scheme))
        evaluated[scheme.label] = (scheme, series, classify_game(series))
    return [evaluated[s.label] for s in (PURE_A, PURE_B, *wanted)]


def _records_for_point(
    config_for, value, schemes: Sequence[GameScheme]
) -> list[SweepRecord]:
    rows = _point_records(config_for, value, schemes)
    verdict_a = rows[0][2]
    verdict_b = rows[1][2]
    combined = {
        scheme.label: verdict
        for scheme, _, verdict in rows[2:]
        if scheme.label not in ("a", "b")
    }
    report = detect_paradox(verdict_a, verdict_b, combined)
    out = []
    seen: set[str] = set()
    for scheme, series, verdict in rows[2:]:
        if scheme.label in seen:
            continue
        seen.add(scheme.label)
        out.append(
            SweepRecord(
                value=value,
                scheme=scheme.label,
                gain=series.final_gain,
                stderr=series.final_stderr,
                verdict=verdict.verdict.value,
                paradox=report.paradox.get(scheme.label, False),
            )
        )
    return out


def _map_over(values, point_fn, workers: int | None) -> list:
    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(point_fn, values))
    else:
        chunks = [point_fn(v) for v in values]
    return [record for chunk in chunks for record in chunk]


def sweep_rho4(
    base: SimulationConfig,
    values: Iterable[float] = DEFAULT_RHO4_GRID,
    schemes: Sequence[GameScheme] = DEFAULT_SCHEMES,
    workers: int | None = None,
) -> list[SweepRecord]:
    """Final gains, verdicts and paradox flags per (rho4, scheme)."""
    values = list(values)
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"rho4 value must lie in [0, 1], got {v}")
    b = base.game_b

    def config_for(value: float, scheme: GameScheme) -> SimulationConfig:
        game_b = GameBParams.from_rhos(
            rho1=b.ww.rho, rho2=b.wl.rho, rho3=b.lw.rho, rho4=value,
            theta=b.ll.theta, phi=b.ll.phi,
        )
        return replace(base, scheme=scheme, game_b=game_b)

    return _map_over(
        values, lambda v: _records_for_point(config_for, v, schemes), workers
    )


def sweep_entanglement(
    base: SimulationConfig,
    omegas: Iterable[float] = DEFAULT_OMEGA_GRID,
    schemes: Sequence[GameScheme] = DEFAULT_SCHEMES,
    workers: int | None = None,
) -> list[SweepRecord]:
    """Sweep the initial-state entanglement angle of J(omega)|LLL>."""
    omegas = list(omegas)

    def config_for(omega: float, scheme: GameScheme) -> SimulationConfig:
        return replace(base, initial=j_entangled(omega), scheme=scheme)

    return _map_over(
        omegas, lambda w: _records_for_point(config_for, w, schemes), workers
    )


def phase_grid(step: float = DEFAULT_PHASE_STEP, span: float = 2 * math.pi) -> list[float]:
    """Grid [0, span) at the given step; the step must divide the span."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a positive finite number, got {step}")
    count = span / step
    if abs(count - round(count)) > 1e-9:
        raise ValueError(f"step {step} does not divide the grid span {span}")
    return [k * step for k in range(int(round(count)))]


def sweep_phase_map(
    base: SimulationConfig,
    step: float = DEFAULT_PHASE_STEP,
    schemes: Sequence[GameScheme] = DEFAULT_SCHEMES,
    workers: int | None = None,
) -> list[MapRecord]:
    """Final gain on the (theta, phi) grid over [0, 2*pi)^2 per scheme.

    All five coins share the grid point's phase pair. The paradox flag of
    a combined scheme is recomputed at every grid point from the pure-game
    verdicts there.
    """
    grid = phase_grid(step)
    points = [(theta, phi) for theta in grid for phi in grid]
    b = base.game_b

    def config_for(point: tuple[float, float], scheme: GameScheme) -> SimulationConfig:
        theta, phi = point
        coin_a = replace(base.coin_a, theta=theta, phi=phi)
        game_b = GameBParams.from_rhos(
            rho1=b.ww.rho, rho2=b.wl.rho, rho3=b.lw.rho, rho4=b.ll.rho,
            theta=theta, phi=phi,
        )
        return replace(base, scheme=scheme, coin_a=coin_a, game_b=game_b)

    def point_fn(point: tuple[float, float]) -> list[MapRecord]:
        theta, phi = point
        return [
            MapRecord(theta=theta, phi=phi, scheme=r.scheme, gain=r.gain, paradox=r.paradox)
            for r in _records_for_point(config_for, point, schemes)
        ]

    return _map_over(points, point_fn, workers)


# --- CSV output ------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _write_rows(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    # scheme labels such as "periodic:2,2" contain commas; quote properly
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit_series_csv(series: PayoffSeries, path) -> None:
    """Write one row per round (round 0 included) with 15 significant digits."""
    stderr = series.stderr if series.stderr is not None else np.zeros(series.rounds + 1)
    rows = (
        [str(t)]
        + [_fmt(series.per_player[t, i]) for i in range(3)]
        + [_fmt(series.average_gain[t]), _fmt(stderr[t])]
        for t in range(series.rounds + 1)
    )
    _write_rows(path, ["round", "gain_p1", "gain_p2", "gain_p3", "gain_avg", "stderr"], rows)


def emit_map_csv(records: Sequence[MapRecord], path) -> None:
    rows = (
        [_fmt(r.theta), _fmt(r.phi), r.scheme, _fmt(r.gain), str(int(r.paradox))]
        for r in records
    )
    _write_rows(path, ["theta", "phi", "scheme", "gain", "paradox"], rows)


def emit_sweep_csv(records: Sequence[SweepRecord], path, value_name: str = "value") -> None:
    rows = (
        [_fmt(r.value), r.scheme, _fmt(r.gain), _fmt(r.stderr), r.verdict, str(int(r.paradox))]
        for r in records
    )
    _write_rows(path, [value_name, "scheme", "gain", "stderr", "verdict", "paradox"], rows)


def emit_classical_csv(series, path) -> None:
    rows = (
        [str(t), _fmt(series.mean_gain[t]), _fmt(series.stderr[t])]
        for t in range(series.rounds + 1)
    )
    _write_rows(path, ["round", "gain_avg", "stderr"], rows)
