import csv
import math

import pytest

from qparrondo import (
    GHZ,
    PURE_A,
    PURE_B,
    RANDOM_MIX,
    SEPARABLE,
    GameBParams,
    SimulationConfig,
    Verdict,
    emit_map_csv,
    emit_series_csv,
    emit_sweep_csv,
    periodic,
    run_simulation,
    sweep_entanglement,
    sweep_phase_map,
    sweep_rho4,
)
from qparrondo.sweeps import phase_grid


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


def test_sweep_workers_do_not_change_results():
    serial = sweep_rho4(base_config(), values=[0.2, 0.4, 0.6], schemes=(PURE_B,))
    threaded = sweep_rho4(
        base_config(), values=[0.2, 0.4, 0.6], schemes=(PURE_B,), workers=3
    )
    assert serial == threaded


def test_phase_grid_validation():
    assert phase_grid(math.pi / 2) == pytest.approx([0, math.pi / 2, math.pi, 3 * math.pi / 2])
    with pytest.raises(ValueError, match="step"):
        phase_grid(1.0)
    for step in (0.0, -math.pi / 4, math.inf, math.nan):
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


def test_sweep_phase_map_workers_deterministic():
    a = sweep_phase_map(base_config(rho4=0.3), step=math.pi, schemes=(PURE_B, RANDOM_MIX))
    b = sweep_phase_map(
        base_config(rho4=0.3), step=math.pi, schemes=(PURE_B, RANDOM_MIX), workers=4
    )
    assert a == b


def test_sweep_entanglement_accepts_figure_grid():
    omegas = [k * math.pi / 10 for k in range(6)]
    records = sweep_entanglement(base_config(rho4=0.9), omegas=omegas, schemes=(PURE_A,))
    assert [r.value for r in records] == pytest.approx(omegas)


def test_sweep_entanglement_omega_domain():
    with pytest.raises(ValueError, match="omega"):
        sweep_entanglement(base_config(), omegas=[2.0], schemes=(PURE_A,))


def test_emit_series_csv_layout(tmp_path):
    series = run_simulation(SimulationConfig(initial=GHZ, scheme=PURE_A, rounds=16))
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
    series = run_simulation(
        SimulationConfig(
            initial=SEPARABLE, scheme=PURE_B, rounds=4, game_b=GameBParams.from_rhos(rho4=0.3)
        )
    )
    path = tmp_path / "series.csv"
    emit_series_csv(series, path)
    row = path.read_text().splitlines()[-1].split(",")
    assert float(row[4]) == pytest.approx(series.final_gain, abs=1e-12)


def test_emit_csv_deterministic_bytes(tmp_path):
    series = run_simulation(SimulationConfig(initial=SEPARABLE, scheme=PURE_A, rounds=4))
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
    series = run_simulation(SimulationConfig(initial=GHZ, scheme=PURE_A, rounds=2))
    bad = tmp_path / "missing_dir" / "out.csv"
    with pytest.raises(OSError, match="missing_dir"):
        emit_series_csv(series, bad)
