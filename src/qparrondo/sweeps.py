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

import numpy as np

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

# Rows the writer formats and writes at a time. Its scratch, a few hundred
# bytes a row, is bounded by the block, not by the row count; blocks of 4096
# rows ran about as fast and raised the peak RSS of a 10^4-row write by 0.6 MB.
_BLOCK_ROWS = 2048
# Shorter blocks and tables with a text column are formatted by %: numpy's
# fixed cost, about 0.1 ms a column, is more than % takes below ~500 rows.
_NUMPY_ROWS = 512

# _DIGITS[g]: the four ASCII digits of 0 <= g < 10^4, zero-padded, as the
# bytes of one uint32; _TRAILING_ZEROS[g]: the zeros that end them, 4 for 0.
# Both are broadcast from the ten digits: index (a, b, c, d) is g = abcd.
_DIGITS = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
for _place in range(4):
    _DIGITS[..., _place] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - _place))
_DIGITS = _DIGITS.view(np.uint32).ravel()
_ZERO = (np.arange(10) == 0).astype(np.uint8)
_TRAILING_ZEROS = (
    _ZERO * (1 + _ZERO[:, None] * (1 + _ZERO[:, None, None] * (1 + _ZERO[:, None, None, None])))
).ravel()
# 10^0 .. 10^19, exact as uint64 and, as 5^19 < 2^53, as float64
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_POW10_FLOAT = _POW10.astype(np.float64)
_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a float64 into halves
_MINUS, _DOT = b"-."


def _quote(text: str) -> str:
    """A text field as csv.writer writes it; "periodic:2,2" holds a comma."""
    return '"%s"' % text.replace('"', '""') if any(c in text for c in ',"\n') else text


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * a
    high = c - (c - a)
    return high, a - high


def _scaled_rint(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round_half_even(a 10^k) as uint64, exactly, for 0 <= k <= 19 and
    a 10^k below 2^53 (to within one decade)."""
    b = _POW10_FLOAT[k]
    p = a * b
    # Dekker's error-free product, p + e = a b exactly: numpy has no fma
    (a_high, a_low), (b_high, b_low) = _split(a), _split(b)
    e = ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low
    r = np.rint(p)
    f = p - r  # exact, |f| <= 1/2
    # only at a tie of p can e move the rounding: the exact fraction f + e
    # then lies beyond the tie on the side of e
    step = np.where((np.abs(f) == 0.5) & (f * e > 0), np.sign(f), 0.0)
    return (r + step).astype(np.uint64)


def _groups(values: np.ndarray, count: int) -> np.ndarray:
    """The last ``count`` four-digit groups of each of the nonnegative
    integer ``values``, most significant first: shape (count, len(values))."""
    out = np.empty((count, len(values)), dtype=np.intp)
    for row in out[::-1]:
        quotient = values // 10_000
        np.subtract(values, quotient * 10_000, out=row, casting="unsafe")
        values = quotient
    return out


def _ascii(groups: np.ndarray) -> np.ndarray:
    """The zero-padded digits of ``groups`` (from _groups), one row of
    ASCII bytes per value."""
    return _DIGITS.take(groups.T).view(np.uint8)


def _span(start: np.ndarray, stop: np.ndarray, digits: np.ndarray) -> tuple:
    """(bytes, keep) of the columns start:stop of each row of ``digits``,
    cut to the columns some row keeps."""
    first = int(start.min())
    last = max(first, int(stop.max()))
    # one uint8 comparison, laid out column by column so that it runs along
    # the rows: a column before start wraps past every length
    offsets = np.arange(first, last, dtype=np.uint8)[:, None] - start.astype(np.uint8)
    keep = offsets < np.maximum(stop - start, 0).astype(np.uint8)
    return digits[:, first:last], keep.T


def _sign(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.full((len(v), 1), _MINUS, dtype=np.uint8), np.signbit(v)[:, None]


def _int_pieces(rows: range) -> list:
    """(bytes, keep) pieces of ``"%d" % n`` for each n >= 0 of ``rows``."""
    n = np.arange(rows.start, rows.stop, rows.step, dtype=np.uint64)
    widths = np.maximum(np.searchsorted(_POW10, n, side="right"), 1)
    count = -(-int(widths.max()) // 4)
    digits = _ascii(_groups(n, count))
    return [_span(4 * count - widths, np.full(len(n), 4 * count), digits)]


def _float_pieces(v: np.ndarray) -> list:
    """(bytes, keep) pieces of ``"%.15g" % x`` for each x of ``v``.

    With X the exponent of x rounded to 15 significant digits, %.15g prints
    x in fixed notation when -4 <= X < 15: the 15 digits of D = round(|x|
    10^(14 - X)) with the point X + 1 digits in (after "0." and -X - 1
    zeros when X < 0), trailing zeros and a bare point stripped. D is formed
    exactly in float64 from an error-free product, so every byte equals
    Python's. Exponential forms (|x| < 1e-4 or >= 1e15 after rounding), NaN
    and infinities go through ``%`` one at a time.
    """
    m = len(v)
    a = np.abs(v)
    fixed = (a >= 1e-5) & (a < 1e15)
    a = np.where(fixed, a, 1.0)
    # k = 14 - X; log10 rounds up to 15 just below 1e15
    k = np.maximum(14 - np.floor(np.log10(a)).astype(np.int64), 0)
    d = _scaled_rint(a, k)
    # log10's last bit, or rounding up to the next power of ten, can put D a
    # decade off; a D of 10^14 may be 10^15 - 1 one decade down. A k of 19
    # is an exponent of -5, printed exponential either way.
    high = np.flatnonzero(d >= 10**15)
    k[high] -= 1
    d[high] = _scaled_rint(a[high], np.maximum(k[high], 0))
    low = np.flatnonzero((d <= 10**14) & (k < 19))
    if low.size:
        finer = _scaled_rint(a[low], k[low] + 1)
        low, finer = low[finer < 10**15], finer[finer < 10**15]
        k[low] += 1
        d[low] = finer
    fixed &= (k >= 0) & (k <= 18)
    # zeros and the rows printed by % take D = 0 and X = 0
    x = np.where(fixed, 14 - k, 0)
    d = np.where(fixed, d, 0).astype(np.int64)
    # D's digits in columns 5..19 of 20, zeros before them: the integer part
    # is columns 5 to 5 + X, or one zero column for X < 0, and the fraction
    # runs from column 6 + X to D's last nonzero digit
    groups = _groups(d, 5)
    digits = _ascii(groups)
    # D's trailing zeros, group by group from the last
    zeros = _TRAILING_ZEROS[groups[1]]
    for g in groups[2:]:
        zeros = _TRAILING_ZEROS[g] + (g == 0) * zeros
    fraction = (6 + x, np.where(d > 0, 20 - zeros, 0))
    pieces = [
        _sign(v),
        _span(5 + np.minimum(x, 0), 6 + x, digits),
        (np.full((m, 1), _DOT, dtype=np.uint8), (fraction[0] < fraction[1])[:, None]),
        _span(*fraction, digits),
    ]
    odd = np.flatnonzero(~fixed & (np.abs(v) != 0))
    if odd.size:
        # the odd rows keep nothing of the pieces above, only their own text
        for _, keep in pieces:
            keep[odd] = False
        # their ASCII texts, zero-padded to the longest
        table = np.array(["%.15g" % value for value in v[odd].tolist()], dtype=bytes)
        text = np.zeros((m, table.itemsize), dtype=np.uint8)
        text[odd] = table.view(np.uint8).reshape(odd.size, -1)
        pieces.append((text, text != 0))
    return pieces


def _write_columns(path, header: str, columns: Sequence) -> None:
    """The header line, then one line per row of ``columns``, fields joined
    by commas: a range as %d, a float ndarray as %.15g (15 significant
    digits), and a list of fields already turned into text as %s. The rows
    are formatted _BLOCK_ROWS at a time and each block is written with one
    write. A block of a table without a list column is formatted in numpy
    when it has at least _NUMPY_ROWS rows; every other block by %."""
    rows = len(columns[0])
    has_text = any(isinstance(column, list) for column in columns)
    line_format = ",".join(
        "%d" if isinstance(c, range) else "%s" if isinstance(c, list) else "%.15g" for c in columns
    ) + "\n"
    try:
        with open(path, "wb") as fh:
            fh.write((header + "\n").encode())
            for lo in range(0, rows, _BLOCK_ROWS):
                hi = min(lo + _BLOCK_ROWS, rows)
                if has_text or hi - lo < _NUMPY_ROWS:
                    values = [c[lo:hi].tolist() if isinstance(c, np.ndarray) else c[lo:hi]
                              for c in columns]
                    fh.write("".join(line_format % row for row in zip(*values)).encode())
                    continue
                every = np.ones((hi - lo, 1), dtype=bool)
                pieces = []
                # each field, then the comma or newline that ends it
                for column, end in zip(columns, b"," * (len(columns) - 1) + b"\n"):
                    pieces_of = _int_pieces if isinstance(column, range) else _float_pieces
                    pieces += pieces_of(column[lo:hi])
                    pieces.append((np.full((hi - lo, 1), end, dtype=np.uint8), every))
                line = np.concatenate([b for b, _ in pieces], axis=1)
                keep = np.concatenate([k for _, k in pieces], axis=1)
                fh.write(line[keep])
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit_series_csv(series: PayoffSeries, path) -> None:
    """Write one row per round (round 0 included) with 15 significant digits."""
    header = "round,gain_p1,gain_p2,gain_p3,gain_avg,stderr"
    columns = [
        range(series.rounds + 1), *series.per_player.T, series.average_gain, series.stderr,
    ]
    _write_columns(path, header, columns)


def emit_map_csv(records: Sequence[MapRecord], path) -> None:
    columns = [
        np.array([r.theta for r in records], dtype=float),
        np.array([r.phi for r in records], dtype=float),
        [_quote(r.scheme) for r in records],
        np.array([r.gain for r in records], dtype=float),
        [int(r.paradox) for r in records],
    ]
    _write_columns(path, "theta,phi,scheme,gain,paradox", columns)


def emit_sweep_csv(records: Sequence[SweepRecord], path, value_name: str = "value") -> None:
    columns = [
        np.array([r.value for r in records], dtype=float),
        [_quote(r.scheme) for r in records],
        np.array([r.gain for r in records], dtype=float),
        np.array([r.stderr for r in records], dtype=float),
        [_quote(r.verdict) for r in records],
        [int(r.paradox) for r in records],
    ]
    _write_columns(path, _quote(value_name) + ",scheme,gain,stderr,verdict,paradox", columns)


def emit_classical_csv(series, path) -> None:
    columns = [range(series.rounds + 1), series.mean_gain, series.stderr]
    _write_columns(path, "round,gain_avg,stderr", columns)
