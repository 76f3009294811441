import csv
import math
from collections import Counter
from dataclasses import replace

import pytest

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
from qparrondo import engine, sweeps
from qparrondo.observables import classify_game
from qparrondo.sweeps import DEFAULT_SCHEMES, SweepRecord, phase_grid


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


def test_sweep_rho4_keeps_per_branch_phases():
    # only rho4 is swept; the WW branch keeps its own (theta, phi)
    game_b = GameBParams(
        ww=CoinParams(0.5, 0.3, 1.0), wl=CoinParams(0.5), lw=CoinParams(0.5), ll=CoinParams(0.4)
    )
    base = SimulationConfig(initial=GHZ, scheme=PURE_B, rounds=4, game_b=game_b)
    (record,) = sweep_rho4(base, values=[0.4], schemes=(PURE_B,))
    assert record.gain == run_averaged(base).final_gain
    assert record.gain == pytest.approx(-0.1705, abs=5e-5)


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


def test_pure_b_walks_again_when_only_coin_a_phi_changes():
    # every walk plays in the frame of coin_a's phi, so pure B reads it:
    # points that differ only there must not share a pure-B walk
    base = replace(
        base_config(initial=GHZ), game_b=GameBParams.from_rhos(rho4=0.3, theta=0.7, phi=1.9)
    )
    phis = [math.pi / 2, 1.9, 0.3]

    def config_for(phi, scheme):
        return replace(base, scheme=scheme, coin_a=CoinParams(0.5, phi=phi))

    gains = [gain for _, _, gain, *_ in sweeps._sweep(phis, config_for, (PURE_B,))]
    expected = [run_averaged(config_for(phi, PURE_B)).final_gain for phi in phis]
    assert gains == expected
    assert len(set(gains)) == 3


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
