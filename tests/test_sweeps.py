import csv
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from oracle import percent_classical_csv, percent_map_csv, percent_series_csv, percent_sweep_csv

from qparrondo import (
    GHZ,
    PURE_A,
    PURE_B,
    RANDOM_MIX,
    SEPARABLE,
    CoinParams,
    GameBParams,
    SimulationConfig,
    Verdict,
    emit_map_csv,
    emit_series_csv,
    emit_sweep_csv,
    periodic,
    run_averaged,
    sweep_entanglement,
    sweep_phase_map,
    sweep_rho4,
)
from qparrondo import ClassicalSeries, MapRecord, PayoffSeries, engine, sweeps
from qparrondo.observables import classify_game
from qparrondo.sweeps import DEFAULT_SCHEMES, SweepRecord, emit_classical_csv, phase_grid


def base_config(initial=SEPARABLE, rho4=0.5):
    return SimulationConfig(
        initial=initial,
        scheme=PURE_A,
        rounds=8,
        game_b=GameBParams.from_rhos(rho4=rho4),
        seed=0,
        runs=3,
    )


def test_sweep_rho4_row_layout():
    records = sweep_rho4(base_config(), values=[0.2, 0.8], schemes=(PURE_B, periodic(2, 2)))
    assert [(r.value, r.scheme) for r in records] == [
        (0.2, "b"), (0.2, "periodic:2,2"), (0.8, "b"), (0.8, "periodic:2,2"),
    ]


def test_sweep_rho4_pure_a_constant_across_values():
    records = sweep_rho4(base_config(), values=[0.1, 0.5, 0.9], schemes=(PURE_A,))
    gains = {r.gain for r in records}
    assert len(gains) == 1


def test_sweep_rho4_domain_check():
    with pytest.raises(ValueError, match="rho4"):
        sweep_rho4(base_config(), values=[1.2], schemes=(PURE_B,))


def test_sweep_rho4_keeps_the_other_branch_rhos():
    # only rho4 is swept; the WW branch keeps its own rho
    game_b = GameBParams(ww=0.2, wl=0.5, lw=0.5, ll=0.9)
    base = SimulationConfig(initial=GHZ, scheme=PURE_B, rounds=4, game_b=game_b)
    (record,) = sweep_rho4(base, values=[0.4], schemes=(PURE_B,))
    played = replace(base, game_b=replace(game_b, ll=0.4))
    assert record.gain == run_averaged(played).final_gain
    fair_ww = replace(played, game_b=GameBParams.from_rhos(rho4=0.4))
    assert record.gain != run_averaged(fair_ww).final_gain


def test_sweep_rho4_paradox_consistent_with_verdicts():
    records = sweep_rho4(
        base_config(initial=GHZ),
        values=[0.2, 0.7],
        schemes=(PURE_A, PURE_B, periodic(2, 2)),
    )
    by_value = {}
    for r in records:
        by_value.setdefault(r.value, {})[r.scheme] = r
    for value, rows in by_value.items():
        a, b = rows["a"], rows["b"]
        combined = rows["periodic:2,2"]
        expect = (
            a.verdict != Verdict.WINNING.value
            and b.verdict != Verdict.WINNING.value
            and combined.verdict == Verdict.WINNING.value
        )
        assert combined.paradox == expect
        assert not a.paradox and not b.paradox


def test_repeated_sweep_is_bitwise_equal():
    first = sweep_rho4(base_config(), values=[0.2, 0.4, 0.6], schemes=(PURE_B, RANDOM_MIX))
    again = sweep_rho4(base_config(), values=[0.2, 0.4, 0.6], schemes=(PURE_B, RANDOM_MIX))
    assert first == again


def count_walks(monkeypatch) -> list[str]:
    """Record the scheme label of every walk the engine plays."""
    walked = []
    walk = engine._walk

    def counted(coin_state, schedule, config, per_player=None):
        walked.append(config.scheme.label)
        return walk(coin_state, schedule, config, per_player)

    monkeypatch.setattr(engine, "_walk", counted)
    return walked


def standalone_record(base, value, scheme, verdicts):
    """The record of one (rho4, scheme) from its own walk; ``verdicts``
    collects the pure-game verdicts of the point for the paradox flag."""
    config = replace(base, scheme=scheme, game_b=GameBParams.from_rhos(rho4=value))
    series = run_averaged(config)
    verdict = classify_game(series).verdict
    verdicts[scheme.label] = verdict
    paradox = (
        scheme.label not in ("a", "b")
        and verdicts["a"] is not Verdict.WINNING
        and verdicts["b"] is not Verdict.WINNING
        and verdict is Verdict.WINNING
    )
    return SweepRecord(value, scheme.label, series.final_gain, series.final_stderr,
                       verdict.value, paradox)


@pytest.mark.parametrize(
    "schemes,walks",
    [
        ((PURE_A, PURE_B), {"a": 1, "b": 9}),
        (DEFAULT_SCHEMES, {"a": 1, "b": 9, "periodic:2,2": 9, "mix": 9 * 3}),
    ],
)
def test_sweep_rho4_walks_pure_a_once(monkeypatch, schemes, walks):
    # game A never reads rho4, so one walk serves the whole grid; every
    # record still equals the one built from its own point's config
    base = base_config(initial=GHZ)
    values = [round(0.1 * k, 1) for k in range(1, 10)]
    walked = count_walks(monkeypatch)
    records = sweep_rho4(base, values, schemes)
    assert Counter(walked) == walks
    expected = []
    for value in values:
        verdicts = {}
        for scheme in (PURE_A, PURE_B):
            standalone_record(base, value, scheme, verdicts)
        expected += [standalone_record(base, value, s, verdicts) for s in schemes]
    assert records == expected


def test_pure_b_is_served_from_the_memo_when_only_phi_changes(monkeypatch):
    # no walk reads phi: points that differ only there share every walk
    base = replace(base_config(initial=GHZ), game_b=GameBParams.from_rhos(rho4=0.3))
    phis = [math.pi / 2, 1.9, 0.3]

    def config_for(phi, scheme):
        return replace(base, scheme=scheme, coin_a=CoinParams(0.5, 0.7, phi))

    walked = count_walks(monkeypatch)
    gains = [gain for _, _, gain, *_ in sweeps._sweep(phis, config_for, (PURE_B,))]
    assert Counter(walked) == {"a": 1, "b": 1}
    assert gains == [run_averaged(config_for(math.pi / 2, PURE_B)).final_gain] * 3


def test_phase_map_walks_each_scheme_once_per_theta(monkeypatch):
    # 16 theta columns of a pi/8 map, each scheme one walk per column (the
    # mix one per run), every phi of a column served from the memo
    base = replace(base_config(initial=SEPARABLE, rho4=0.7), rounds=4)
    walked = count_walks(monkeypatch)
    records = sweep_phase_map(base, step=math.pi / 8)
    assert Counter(walked) == {"a": 16, "b": 16, "periodic:2,2": 16, "mix": 16 * base.runs}
    assert len(records) == 16 * 16 * 4
    columns = {}
    for r in records:
        columns.setdefault((r.theta, r.scheme), set()).add((r.gain, r.paradox))
    assert len(columns) == 16 * 4 and all(len(rows) == 1 for rows in columns.values())


def test_repeated_schemes_and_values_walk_once(monkeypatch):
    # a scheme listed twice gives one row per point; a repeated value
    # repeats its rows but not its walks
    walked = count_walks(monkeypatch)
    records = sweep_rho4(
        base_config(), values=[0.4, 0.4], schemes=(PURE_B, RANDOM_MIX, PURE_B, RANDOM_MIX)
    )
    assert [(r.value, r.scheme) for r in records] == [
        (0.4, "b"), (0.4, "mix"), (0.4, "b"), (0.4, "mix"),
    ]
    assert records[:2] == records[2:]
    assert Counter(walked) == {"a": 1, "b": 1, "mix": 3}


def test_phase_grid_validation():
    assert phase_grid(math.pi / 2) == pytest.approx([0, math.pi / 2, math.pi, 3 * math.pi / 2])
    with pytest.raises(ValueError, match="step"):
        phase_grid(1.0)
    for step in (0.0, -math.pi / 4, math.inf, math.nan, 5e-324):
        with pytest.raises(ValueError, match="step"):
            phase_grid(step)


def test_sweep_phase_map_layout_and_flags():
    records = sweep_phase_map(
        base_config(initial=GHZ, rho4=0.7), step=math.pi / 2, schemes=(PURE_B,)
    )
    assert len(records) == 16
    thetas = sorted({r.theta for r in records})
    assert thetas == pytest.approx([0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert all(r.scheme == "b" for r in records)
    assert all(not r.paradox for r in records)


def test_sweep_phase_map_runs_the_requested_scheme():
    # B with a biased ll branch must differ from the fair game at the
    # default phase point; catches the scheme being dropped from configs
    records = sweep_phase_map(
        base_config(initial=GHZ, rho4=0.7), step=math.pi / 2, schemes=(PURE_A, PURE_B)
    )
    default_point = [r for r in records if r.theta == r.phi == math.pi / 2]
    gains = {r.scheme: r.gain for r in default_point}
    assert abs(gains["a"]) < 1e-10
    assert gains["b"] < -0.1


def test_repeated_phase_map_is_bitwise_equal():
    a = sweep_phase_map(base_config(rho4=0.3), step=math.pi, schemes=(PURE_B, RANDOM_MIX))
    b = sweep_phase_map(base_config(rho4=0.3), step=math.pi, schemes=(PURE_B, RANDOM_MIX))
    assert a == b


def refuse_to_run(*args, **kwargs):
    raise AssertionError("the size check let the grid through")


def test_phase_map_beyond_physical_memory_rejected_before_building(monkeypatch):
    # the bound counts the scheme and both pure games at each of the 4 x 4
    # points of a pi/2 grid; a scheme listed twice counts once
    need = 16 * 3 * sweeps._MAP_WALK_BYTES
    monkeypatch.setattr(sweeps, "_physical_memory_bytes", lambda: need)
    records = sweep_phase_map(base_config(), step=math.pi / 2, schemes=(PURE_B,))
    assert len(records) == 16
    monkeypatch.setattr(sweeps, "_physical_memory_bytes", lambda: need - 1)
    monkeypatch.setattr(sweeps, "phase_grid", refuse_to_run)
    with pytest.raises(ValueError, match="step .* physical memory"):
        sweep_phase_map(base_config(), step=math.pi / 2, schemes=(PURE_B, PURE_B))


def test_sweep_entanglement_accepts_figure_grid():
    omegas = [k * math.pi / 10 for k in range(6)]
    records = sweep_entanglement(base_config(rho4=0.9), omegas=omegas, schemes=(PURE_A,))
    assert [r.value for r in records] == pytest.approx(omegas)


def test_sweep_entanglement_omega_domain():
    with pytest.raises(ValueError, match="omega"):
        sweep_entanglement(base_config(), omegas=[2.0], schemes=(PURE_A,))


def test_emit_series_csv_layout(tmp_path):
    series = run_averaged(SimulationConfig(initial=GHZ, scheme=PURE_A, rounds=16))
    path = tmp_path / "series.csv"
    emit_series_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,gain_p1,gain_p2,gain_p3,gain_avg,stderr"
    assert len(lines) == 18  # header + rounds 0..16
    first = lines[1].split(",")
    assert first[0] == "0" and all(float(x) == 0.0 for x in first[1:])
    # fair game: every printed gain is zero to printed precision
    for line in lines[1:]:
        assert abs(float(line.split(",")[4])) < 1e-9
        assert float(line.split(",")[5]) == 0.0


def test_emit_series_csv_significant_digits(tmp_path):
    series = run_averaged(
        SimulationConfig(
            initial=SEPARABLE, scheme=PURE_B, rounds=4, game_b=GameBParams.from_rhos(rho4=0.3)
        )
    )
    path = tmp_path / "series.csv"
    emit_series_csv(series, path)
    row = path.read_text().splitlines()[-1].split(",")
    assert float(row[4]) == pytest.approx(series.final_gain, abs=1e-12)


def test_emit_csv_deterministic_bytes(tmp_path):
    series = run_averaged(SimulationConfig(initial=SEPARABLE, scheme=PURE_A, rounds=4))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_series_csv(series, p1)
    emit_series_csv(series, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_map_csv_layout(tmp_path):
    records = sweep_phase_map(
        base_config(rho4=0.3), step=math.pi, schemes=(PURE_A, PURE_B)
    )
    path = tmp_path / "map.csv"
    emit_map_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,phi,scheme,gain,paradox"
    assert len(lines) == 1 + 2 * 2 * 2
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[4] in ("0", "1")
        assert math.isfinite(float(parts[3]))


def test_emitted_map_paradox_flags_recompute_from_emitted_gains(tmp_path):
    records = sweep_phase_map(
        base_config(initial=GHZ, rho4=0.7),
        step=math.pi / 2,
        schemes=(PURE_A, PURE_B, periodic(2, 2)),
    )
    path = tmp_path / "map.csv"
    emit_map_csv(records, path)
    points = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            key = (row["theta"], row["phi"])
            points.setdefault(key, {})[row["scheme"]] = (
                float(row["gain"]), row["paradox"] == "1",
            )
    tol = 1e-9
    for rows in points.values():
        a_gain, _ = rows["a"]
        b_gain, _ = rows["b"]
        gain, flag = rows["periodic:2,2"]
        expect = a_gain <= tol and b_gain <= tol and gain > tol
        assert flag == expect


def test_emit_sweep_csv_layout(tmp_path):
    records = sweep_rho4(base_config(), values=[0.4], schemes=(PURE_B,))
    path = tmp_path / "rho4.csv"
    emit_sweep_csv(records, path, value_name="rho4")
    lines = path.read_text().splitlines()
    assert lines[0] == "rho4,scheme,gain,stderr,verdict,paradox"
    assert len(lines) == 2


def test_emit_csv_reports_path_on_failure(tmp_path):
    series = run_averaged(SimulationConfig(initial=GHZ, scheme=PURE_A, rounds=2))
    bad = tmp_path / "missing_dir" / "out.csv"
    with pytest.raises(OSError, match="missing_dir"):
        emit_series_csv(series, bad)


# floats whose 15-digit text is easy to get wrong: signed zero, the smallest
# subnormal, an integer past 15 digits, a 15th digit rounded up
AWKWARD = [-0.0, 5e-324, 1e16, -0.1234567890123456, 2.5, -7e-8, 123456789012345.67, -1e300]


def reference_csv(path, header, rows):
    """What csv.writer writes for the rows, floats as ``f"{x:.15g}"``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.15g}" if isinstance(x, float) else str(x) for x in row])
    return path.read_bytes()


def test_row_writer_matches_csv_writer_byte_for_byte(tmp_path):
    # every emitter, against csv.writer quoting labels with a comma, a
    # quote or a carriage return and the 15-digit text of each awkward
    # float, negative gains included
    labels = ["a", "periodic:2,2", "mix", 'a "quoted" label', "a\rlabel"]
    values = np.array(AWKWARD)
    gains = -np.abs(values[::-1])
    sweep = [
        SweepRecord(v, labels[k % 5], g, abs(v), "losing", bool(k % 2))
        for k, (v, g) in enumerate(zip(AWKWARD, gains.tolist()))
    ]
    emit_sweep_csv(sweep, tmp_path / "sweep.csv", value_name="rho4")
    expect = reference_csv(
        tmp_path / "sweep.ref", ["rho4", "scheme", "gain", "stderr", "verdict", "paradox"],
        [(r.value, r.scheme, r.gain, r.stderr, r.verdict, int(r.paradox)) for r in sweep],
    )
    assert (tmp_path / "sweep.csv").read_bytes() == expect
    percent_sweep_csv(sweep, tmp_path / "sweep.pct", value_name="rho4")
    assert (tmp_path / "sweep.pct").read_bytes() == expect

    grid = [
        MapRecord(v, g, labels[k % 5], g, k % 3 == 0)
        for k, (v, g) in enumerate(zip(AWKWARD, gains.tolist()))
    ]
    emit_map_csv(grid, tmp_path / "map.csv")
    expect = reference_csv(
        tmp_path / "map.ref", ["theta", "phi", "scheme", "gain", "paradox"],
        [(r.theta, r.phi, r.scheme, r.gain, int(r.paradox)) for r in grid],
    )
    assert (tmp_path / "map.csv").read_bytes() == expect
    percent_map_csv(grid, tmp_path / "map.pct")
    assert (tmp_path / "map.pct").read_bytes() == expect
    assert b'"periodic:2,2"' in (tmp_path / "sweep.csv").read_bytes()
    numeric_emitters_match_csv_writer(tmp_path)


def numeric_emitters_match_csv_writer(tmp_path):
    # the series and classical emitters, whose tables hold no text, on the
    # awkward floats
    values = np.array(AWKWARD)
    gains = -np.abs(values[::-1])
    per_player = np.stack([values, gains, values * 3])
    series = PayoffSeries(per_player.T.copy(), gains, np.abs(values))
    emit_series_csv(series, tmp_path / "series.csv")
    expect = reference_csv(
        tmp_path / "series.ref", ["round", "gain_p1", "gain_p2", "gain_p3", "gain_avg", "stderr"],
        [(t, *map(float, per_player[:, t]), float(gains[t]), abs(float(values[t])))
         for t in range(len(values))],
    )
    assert (tmp_path / "series.csv").read_bytes() == expect
    percent_series_csv(series, tmp_path / "series.pct")
    assert (tmp_path / "series.pct").read_bytes() == expect

    classical = ClassicalSeries(gains, np.abs(values), exact=True)
    emit_classical_csv(classical, tmp_path / "classical.csv")
    expect = reference_csv(
        tmp_path / "classical.ref", ["round", "gain_avg", "stderr"],
        [(t, float(g), abs(float(v))) for t, (g, v) in enumerate(zip(gains, values))],
    )
    assert (tmp_path / "classical.csv").read_bytes() == expect
    percent_classical_csv(classical, tmp_path / "classical.pct")
    assert (tmp_path / "classical.pct").read_bytes() == expect


def test_numpy_blocks_match_csv_writer_byte_for_byte(tmp_path, monkeypatch):
    # the same series and classical rows, formatted in numpy however short
    # the block; sweep and map tables hold text and never reach numpy
    monkeypatch.setattr(sweeps, "_NUMPY_ROWS", 0)
    numeric_emitters_match_csv_writer(tmp_path)


def emitted_and_percent(tmp_path, emit, percent, *args):
    emit(*args[:1], tmp_path / "emitted.csv", *args[1:])
    percent(*args[:1], tmp_path / "percent.csv", *args[1:])
    return (tmp_path / "emitted.csv").read_bytes(), (tmp_path / "percent.csv").read_bytes()


@pytest.mark.parametrize("numpy_rows", [0, sweeps._NUMPY_ROWS], ids=["numpy", "default"])
def test_emitters_match_the_percent_row_writer_on_played_records(
    tmp_path, monkeypatch, numpy_rows
):
    # every emitter on what the program plays: a mix series with standard
    # errors, a rho4 sweep, a phase map and a classical chain longer than
    # one block of the column writer, in numpy blocks or, when short, by %
    from qparrondo import run_classical

    monkeypatch.setattr(sweeps, "_NUMPY_ROWS", numpy_rows)
    from qparrondo.classical import OriginalParams

    config = replace(base_config(), scheme=RANDOM_MIX, rounds=12)
    sweep = sweep_rho4(base_config(), values=[0.1, 0.45, 0.9])
    grid = sweep_phase_map(base_config(initial=GHZ, rho4=0.7), step=math.pi / 2)
    chain = run_classical(OriginalParams(), RANDOM_MIX, rounds=sweeps._BLOCK_ROWS + 7, trials=50)
    for emit, percent, *args in (
        (emit_series_csv, percent_series_csv, run_averaged(config)),
        (emit_sweep_csv, percent_sweep_csv, sweep, "rho4"),
        (emit_map_csv, percent_map_csv, grid),
        (emit_classical_csv, percent_classical_csv, chain),
    ):
        emitted, expected = emitted_and_percent(tmp_path, emit, percent, *args)
        assert emitted == expected


def percent_15g_cases() -> np.ndarray:
    """Floats whose %.15g text is hard to get right, seeded."""
    rng = np.random.default_rng(20261017)
    # every decade from the subnormals to the largest, and a random value in each
    decades = [float(f"1e{e}") for e in range(-330, 309)]
    spread = [float(f"{m:.17f}e{e}") for e, m in zip(range(-330, 309), rng.uniform(1, 10, 639))]
    # exact ties: 16 significant digits ending in 5, N = M 5^(15-X) at
    # exponent X, held exactly as M 2^(X-15) for odd M
    ties = []
    for x in range(-4, 15):
        f = 5 ** (15 - x)
        m = rng.integers(-(-10**15 // f), 10**16 // f, 400) | 1
        ties += [float(int(v)) * 2.0 ** (x - 15) for v in m if v * f < 10**16]
    # both neighbours of each power of ten, and values that round up to it
    near = []
    for k in range(-5, 17):
        p = 10.0**k
        near += [np.nextafter(p, 0), p, np.nextafter(p, np.inf)]
        near += (p * (1 - rng.uniform(0, 5e-15, 20))).tolist()
    rounding_up = [9.9999999999999996e-5, 0.000099999999999999995, 999999999999999.5,
                   999999999999999.4, 99999999999999.95, 9.999999999999999e14]
    special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               np.inf, -np.inf, np.nan, 1.7976931348623157e308]
    # random bit patterns: every exponent, NaN payloads among them
    bits = rng.integers(0, 2**63, 2000, dtype=np.uint64).view(np.float64)
    values = np.array(decades + spread + ties + near + rounding_up + special, dtype=float)
    scattered = rng.standard_normal(2000) * 10.0 ** rng.integers(-6, 17, 2000)
    values = np.concatenate([values, bits, scattered])
    return np.concatenate([values, -values])


def test_float_columns_print_exactly_as_percent_15g(tmp_path, monkeypatch):
    monkeypatch.setattr(sweeps, "_NUMPY_ROWS", 0)
    values = percent_15g_cases()
    path = tmp_path / "floats.csv"
    sweeps._write_columns(path, "x", [values])
    lines = path.read_bytes().split(b"\n")
    assert lines[0] == b"x" and lines[-1] == b""
    expected = [("%.15g" % v).encode() for v in values.tolist()]
    wrong = [(v, got, want) for v, got, want in zip(values.tolist(), lines[1:-1], expected)
             if got != want]
    assert len(lines) - 2 == len(values) and not wrong, wrong[:5]


@pytest.mark.parametrize("numpy_rows", [0, sweeps._BLOCK_ROWS + 1], ids=["numpy", "percent"])
def test_row_ranges_print_as_percent_d_and_lists_as_their_text(
    tmp_path, monkeypatch, numpy_rows
):
    # row numbers across 9/10, 9999/10000 and a block boundary, every block
    # in numpy or every block by %
    monkeypatch.setattr(sweeps, "_NUMPY_ROWS", numpy_rows)
    rows = range(10_003)
    assert rows.stop > 4 * sweeps._BLOCK_ROWS
    values = np.linspace(-2.5, 7.5, len(rows))
    path = tmp_path / "rows.csv"
    sweeps._write_columns(path, "n,x", [rows, values])
    expected = "".join("%d,%.15g\n" % row for row in zip(rows, values.tolist()))
    assert path.read_bytes() == ("n,x\n" + expected).encode()
    # a list column holds fields already made text: quoted labels and ints,
    # written by % whatever _NUMPY_ROWS says
    texts = [sweeps._quote(t) for t in ["a", "periodic:2,2", 'say "x"', "", "a\nb", "mix"]]
    flags = [1, 0, 0, 1, 0, 1]
    sweeps._write_columns(path, "n,label,x,flag", [range(6), texts, values[:6], flags])
    expected = "".join(
        "%d,%s,%.15g,%d\n" % row for row in zip(range(6), texts, values.tolist(), flags)
    )
    assert path.read_bytes() == ("n,label,x,flag\n" + expected).encode()
    assert b'"periodic:2,2"' in path.read_bytes() and b'"say ""x"""' in path.read_bytes()


def refuse_numpy(*args):
    raise AssertionError("a table with a text column reached the numpy formatter")


def test_tables_with_text_never_reach_numpy(tmp_path, monkeypatch):
    from qparrondo import run_classical
    from qparrondo.classical import OriginalParams

    grid = sweep_phase_map(base_config(initial=GHZ, rho4=0.7), step=math.pi / 8)
    sweep = sweep_rho4(base_config(), values=np.linspace(0, 1, 128).tolist())
    assert len(grid) == 1024 and len(sweep) == 512
    float_pieces = sweeps._float_pieces
    monkeypatch.setattr(sweeps, "_float_pieces", refuse_numpy)
    monkeypatch.setattr(sweeps, "_int_pieces", refuse_numpy)
    for emit, percent, *args in (
        (emit_map_csv, percent_map_csv, grid),
        (emit_sweep_csv, percent_sweep_csv, sweep, "rho4"),
    ):
        emitted, expected = emitted_and_percent(tmp_path, emit, percent, *args)
        assert emitted == expected
    # a classical table as long, which holds no text, does call it
    monkeypatch.undo()
    calls = []
    monkeypatch.setattr(sweeps, "_float_pieces", lambda v: calls.append(len(v)) or float_pieces(v))
    chain = run_classical(OriginalParams(), PURE_A, rounds=sweeps._NUMPY_ROWS, trials=10)
    emitted, expected = emitted_and_percent(
        tmp_path, emit_classical_csv, percent_classical_csv, chain
    )
    assert emitted == expected and calls == [sweeps._NUMPY_ROWS + 1] * 2
