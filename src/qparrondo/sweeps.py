"""Parameter sweeps and CSV serialization.

Every sweep runs through one serial driver that visits the grid points in
order and plays each distinct walk of the sweep once. A walk is known by
the inputs it reads: no walk reads phi, pure A never reads ``game_b``,
and only the random mix reads ``seed`` and ``runs``. So ``sweep_rho4``
plays pure A once for the whole grid, a phase map plays each scheme once
per theta, and a scheme listed twice is played once. Records come out in
grid order, one per point and distinct scheme label.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

from .coins import j_entangled
from .engine import (
    PURE_A,
    PURE_B,
    GameScheme,
    SimulationConfig,
    _physical_memory_bytes,
    run_averaged,
)
from .observables import GameVerdict, PayoffSeries, classify_game, detect_paradox

DEFAULT_RHO4_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
DEFAULT_PHASE_STEP = math.pi / 8
DEFAULT_OMEGA_GRID = tuple(k * math.pi / 10 for k in range(6))
DEFAULT_SCHEMES = (PURE_A, PURE_B, GameScheme("periodic", 2, 2), GameScheme("mix"))

# Bytes a phase map keeps per point and scheme until it returns: the
# record, and at most one memo entry, whose key holds the coin parameters.
# tracemalloc peaks were about 700 B per walk on CPython 3.11.
_MAP_WALK_BYTES = 1024


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


def _distinct(schemes: Sequence[GameScheme]) -> list[GameScheme]:
    """Schemes in first-seen order, one per label."""
    return list({s.label: s for s in schemes}.values())


def _walk_key(config: SimulationConfig) -> tuple:
    """The inputs ``run_averaged(config)`` reads; equal keys, equal series."""
    return (
        config.initial,
        config.rounds,
        config.scheme.label,
        config.coin_a.rho,
        config.coin_a.theta,
        None if config.scheme.kind == "a" else config.game_b,
        (config.seed, config.runs) if config.scheme.is_random else None,
    )


def _sweep(
    points: Iterable,
    config_for: Callable[[object, GameScheme], SimulationConfig],
    schemes: Sequence[GameScheme],
) -> Iterator[tuple]:
    """(point, scheme label, gain, stderr, verdict, paradox) for every point
    in order and every distinct scheme label; pure A and B are played at
    each point for the paradox flags of the combined schemes."""
    schemes = _distinct(schemes)
    played: dict[tuple, tuple[float, float, GameVerdict]] = {}

    def play(config: SimulationConfig) -> tuple[float, float, GameVerdict]:
        key = _walk_key(config)
        if key not in played:
            series = run_averaged(config)
            played[key] = (series.final_gain, series.final_stderr, classify_game(series))
        return played[key]

    for point in points:
        # every config of a point is built, and so checked, before it plays a walk
        configs = {s.label: config_for(point, s) for s in (PURE_A, PURE_B, *schemes)}
        verdict_a = play(configs["a"])[2]
        verdict_b = play(configs["b"])[2]
        rows = [(s.label, *play(configs[s.label])) for s in schemes]
        combined = {label: v for label, _, _, v in rows if label not in ("a", "b")}
        paradox = detect_paradox(verdict_a, verdict_b, combined)
        for label, gain, stderr, verdict in rows:
            yield point, label, gain, stderr, verdict.verdict.value, paradox.get(label, False)


def sweep_rho4(
    base: SimulationConfig,
    values: Iterable[float] = DEFAULT_RHO4_GRID,
    schemes: Sequence[GameScheme] = DEFAULT_SCHEMES,
) -> list[SweepRecord]:
    """Final gains, verdicts and paradox flags per (rho4, scheme)."""
    values = list(values)
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"rho4 value must lie in [0, 1], got {v}")

    def config_for(value: float, scheme: GameScheme) -> SimulationConfig:
        return replace(base, scheme=scheme, game_b=replace(base.game_b, ll=value))

    return [SweepRecord(*row) for row in _sweep(values, config_for, schemes)]


def sweep_entanglement(
    base: SimulationConfig,
    omegas: Iterable[float] = DEFAULT_OMEGA_GRID,
    schemes: Sequence[GameScheme] = DEFAULT_SCHEMES,
) -> list[SweepRecord]:
    """Sweep the initial-state entanglement angle of J(omega)|LLL>."""

    def config_for(omega: float, scheme: GameScheme) -> SimulationConfig:
        return replace(base, initial=j_entangled(omega), scheme=scheme)

    return [SweepRecord(*row) for row in _sweep(omegas, config_for, schemes)]


def _grid_count(step: float, span: float) -> int:
    """Number of values of the grid [0, span) at ``step``."""
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be a positive finite number, got {step}")
    count = span / step
    if not math.isfinite(count) or abs(count - round(count)) > 1e-9:
        raise ValueError(f"step {step} does not divide the grid span {span}")
    return int(round(count))


def phase_grid(step: float = DEFAULT_PHASE_STEP, span: float = 2 * math.pi) -> list[float]:
    """Grid [0, span) at the given step; the step must divide the span."""
    return [k * step for k in range(_grid_count(step, span))]


def sweep_phase_map(
    base: SimulationConfig,
    step: float = DEFAULT_PHASE_STEP,
    schemes: Sequence[GameScheme] = DEFAULT_SCHEMES,
) -> list[MapRecord]:
    """Final gain on the (theta, phi) grid over [0, 2*pi)^2 per scheme.

    All five coins share the grid point's phase pair. No walk reads phi,
    so each scheme is played once per theta. The paradox flag of a
    combined scheme is recomputed at every grid point from the pure-game
    verdicts there. A grid whose records cannot fit in physical memory is
    refused before its first point exists.
    """
    count = _grid_count(step, 2 * math.pi)
    need = count**2 * (len(_distinct(schemes)) + 2) * _MAP_WALK_BYTES
    physical = _physical_memory_bytes()
    if need > physical:
        raise ValueError(
            f"step {step} makes a {count:.3g} x {count:.3g} phase map whose records "
            f"need more than the {physical / 2**30:.3g} GiB of physical memory"
        )
    grid = phase_grid(step)

    def config_for(point: tuple[float, float], scheme: GameScheme) -> SimulationConfig:
        theta, phi = point
        return replace(base, scheme=scheme, coin_a=replace(base.coin_a, theta=theta, phi=phi))

    return [
        MapRecord(theta, phi, label, gain, paradox)
        for (theta, phi), label, gain, _, _, paradox in _sweep(
            itertools.product(grid, grid), config_for, schemes
        )
    ]


# --- CSV output ------------------------------------------------------------


def _quote(text: str) -> str:
    """A text field as csv.writer writes it; "periodic:2,2" holds a comma."""
    return '"%s"' % text.replace('"', '""') if any(c in text for c in ',"\n') else text


def _write_rows(path, header: str, fmt: str, rows: Iterable[tuple]) -> None:
    """The header line, then ``fmt % row`` for each row: numbers as %d or,
    with 15 significant digits, %.15g; text fields quoted by _quote."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(header + "\n")
            fh.writelines(fmt % row for row in rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit_series_csv(series: PayoffSeries, path) -> None:
    """Write one row per round (round 0 included) with 15 significant digits."""
    rows = zip(
        range(series.rounds + 1), *series.per_player.T.tolist(),
        series.average_gain.tolist(), series.stderr.tolist(),
    )
    header = "round,gain_p1,gain_p2,gain_p3,gain_avg,stderr"
    _write_rows(path, header, "%d" + ",%.15g" * 5 + "\n", rows)


def emit_map_csv(records: Sequence[MapRecord], path) -> None:
    rows = ((r.theta, r.phi, _quote(r.scheme), r.gain, r.paradox) for r in records)
    _write_rows(path, "theta,phi,scheme,gain,paradox", "%.15g,%.15g,%s,%.15g,%d\n", rows)


def emit_sweep_csv(records: Sequence[SweepRecord], path, value_name: str = "value") -> None:
    rows = (
        (r.value, _quote(r.scheme), r.gain, r.stderr, _quote(r.verdict), r.paradox)
        for r in records
    )
    header = _quote(value_name) + ",scheme,gain,stderr,verdict,paradox"
    _write_rows(path, header, "%.15g,%s,%.15g,%.15g,%s,%d\n", rows)


def emit_classical_csv(series, path) -> None:
    rows = zip(range(series.rounds + 1), series.mean_gain.tolist(), series.stderr.tolist())
    _write_rows(path, "round,gain_avg,stderr", "%d,%.15g,%.15g\n", rows)
