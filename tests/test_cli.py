import argparse
import csv
import importlib.util
import json
import pathlib

import pytest

from qparrondo import engine, sweeps
from qparrondo.cli import build_parser, cli_main


def test_run_writes_series_csv(tmp_path, capsys):
    out = tmp_path / "series.csv"
    code = cli_main(
        ["run", "--initial", "ghz", "--scheme", "a", "--rounds", "16", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "round,gain_p1,gain_p2,gain_p3,gain_avg,stderr"
    assert len(lines) == 18
    gains = [abs(float(line.split(",")[4])) for line in lines[1:]]
    assert max(gains) < 1e-9


@pytest.mark.parametrize("name", ["rho0", "rho1", "rho2", "rho3", "rho4"])
def test_run_rejects_out_of_range_rho(capsys, name):
    assert cli_main(["run", f"--{name}", "1.5"]) == 2
    assert f"{name} must lie in [0, 1], got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--theta", "nan"], "theta must be finite, got nan"),
        (["--phi=-inf"], "phi must be finite, got -inf"),
        (["--theta", "1e308", "--phi", "1e308"],
         "theta + phi must be finite, got theta=1e+308 and phi=1e+308"),
    ],
)
def test_run_rejects_non_finite_phases(capsys, flags, message):
    assert cli_main(["run", "--rounds", "2", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["run", "sweep-rho4"])
def test_phi_beyond_the_frame_refused(capsys, command):
    # theta + phi is finite, but the frame's e^{3i phi} is not
    argv = [command, "--initial", "ghz", "--rounds", "3", "--phi", "7e307", "--theta=-7e307"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == (
        "error: coin_a's phi=7e+307 is too large for the walk's frame, "
        "which multiplies it by up to 3\n"
    )


def test_unknown_flag_fails():
    assert cli_main(["run", "--bogus", "1"]) != 0


def test_unknown_command_fails():
    assert cli_main(["frobnicate"]) != 0


def test_scheme_parse_error_names_flag(capsys):
    code = cli_main(["run", "--scheme", "periodic:zz"])
    assert code != 0
    assert "periodic" in capsys.readouterr().err


def test_sweep_rho4_csv(tmp_path):
    out = tmp_path / "rho4.csv"
    code = cli_main(
        [
            "sweep-rho4", "--initial", "ghz", "--values", "0.2,0.8",
            "--schemes", "b", "--rounds", "8", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rho4,scheme,gain,stderr,verdict,paradox"
    assert len(lines) == 3


def test_sweep_rho4_periodic_scheme_list(tmp_path):
    out = tmp_path / "rho4.csv"
    code = cli_main(
        [
            "sweep-rho4", "--initial", "ghz", "--values", "0.8",
            "--schemes", "a,b,periodic:2,2,mix", "--rounds", "8", "--runs", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert '"periodic:2,2"' in lines[3]


def test_sweep_omega_csv(tmp_path):
    out = tmp_path / "omega.csv"
    code = cli_main(
        [
            "sweep-omega", "--omegas", "0,1.5707963267948966", "--schemes", "a",
            "--rounds", "6", "--rho4", "0.9", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "omega,scheme,gain,stderr,verdict,paradox"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--initial", "w"], "--initial"),
        (["--initial", "ghz"], "--initial"),
        (["--omega", "0.3"], "--omega"),
        (["--initial", "j", "--omega", "0.3"], "--initial or --omega"),
    ],
)
def test_sweep_omega_rejects_initial_state_flags(capsys, argv, flag):
    # the sweep sets the initial state to J(omega)|LLL> itself
    code = cli_main(["sweep-omega", *argv, "--omegas", "0", "--schemes", "a", "--rounds", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert all(name in err for name in flag.split(" or "))


@pytest.mark.parametrize(
    "fields,flag",
    [({"initial": "w"}, "--initial"), ({"omega": 0.3}, "--omega")],
)
def test_sweep_omega_rejects_initial_state_config_fields(tmp_path, capsys, fields, flag):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fields))
    code = cli_main(
        ["sweep-omega", "--config", str(config), "--omegas", "0", "--schemes", "a",
         "--rounds", "2"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown config fields" in err
    assert repr(flag.lstrip("-")) in err


def test_sweep_phase_csv(tmp_path):
    out = tmp_path / "map.csv"
    code = cli_main(
        [
            "sweep-phase", "--step", "1.5707963267948966", "--schemes", "a",
            "--rounds", "4", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,phi,scheme,gain,paradox"
    assert len(lines) == 17


def test_discriminate_ghz(capsys):
    code = cli_main(["discriminate", "--initial", "ghz", "--rounds", "8"])
    assert code == 0
    assert "label=GHZ" in capsys.readouterr().out


def test_discriminate_w_sampled_json(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = cli_main(
        [
            "discriminate", "--initial", "w", "--rounds", "8", "--mode", "sampled",
            "--shots", "5000", "--seed", "4", "--out", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["label"] == "W"


def test_classical_original(tmp_path, capsys):
    out = tmp_path / "classical.csv"
    code = cli_main(
        [
            "classical", "--mode", "original", "--scheme", "b", "--rounds", "500",
            "--trials", "200", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "round,gain_avg,stderr"
    assert len(lines) == 502


def test_classical_cooperative_requires_probabilities(capsys):
    code = cli_main(["classical", "--mode", "cooperative"])
    assert code != 0
    assert "p1" in capsys.readouterr().err


def test_classical_cooperative_runs(tmp_path):
    out = tmp_path / "coop.csv"
    code = cli_main(
        [
            "classical", "--mode", "cooperative", "--pa", "0.5", "--p1", "0.6",
            "--p2", "0.4", "--p3", "0.4", "--p4", "0.3", "--scheme", "mix",
            "--rounds", "100", "--trials", "50", "--out", str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 102


def test_json_config_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"initial": "w", "scheme": "a", "rounds": 4, "seed": 9}))
    out1 = tmp_path / "a.csv"
    code = cli_main(["run", "--config", str(config), "--out", str(out1)])
    assert code == 0
    assert len(out1.read_text().splitlines()) == 6
    out2 = tmp_path / "b.csv"
    code = cli_main(["run", "--config", str(config), "--rounds", "6", "--out", str(out2)])
    assert code == 0
    assert len(out2.read_text().splitlines()) == 8


def test_json_config_rejects_unknown_fields(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bogus_field": 1}))
    code = cli_main(["run", "--config", str(config)])
    assert code != 0
    assert "bogus_field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fields,name",
    [
        ({"rho4": None}, "rho4"),
        ({"rounds": "16"}, "rounds"),
        ({"rounds": 16.5}, "rounds"),
        ({"seed": True}, "seed"),
        ({"initial": 3}, "initial"),
    ],
)
def test_json_config_rejects_wrong_types(tmp_path, capsys, fields, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fields))
    assert cli_main(["run", "--config", str(config)]) == 2
    assert repr(name) in capsys.readouterr().err


def test_json_config_must_be_an_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1]")
    assert cli_main(["run", "--config", str(config)]) == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep-rho4", "sweep-phase", "sweep-omega"])
@pytest.mark.parametrize("workers", ["0", "-3", "4"])
def test_workers_must_be_positive(capsys, command, workers):
    # sweeps run serially; no --workers value is accepted
    assert cli_main([command, "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep-rho4", "discriminate"])
def test_rounds_beyond_physical_memory_rejected(capsys, command):
    # rejected from the state size alone, before any walker state exists
    assert cli_main([command, "--rounds", "100000"]) == 2
    assert "rounds 100000" in capsys.readouterr().err


def refuse_to_walk(*args, **kwargs):
    raise AssertionError("a walk started before the runs were checked")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scheme", "mix"],
        ["sweep-rho4"],
        ["sweep-omega", "--schemes", "a,mix"],
        ["sweep-phase", "--schemes", "mix"],
    ],
)
def test_mix_runs_beyond_physical_memory_rejected_before_any_walk(monkeypatch, capsys, argv):
    # the payoffs of every mix run are counted up front
    monkeypatch.setattr(engine, "_walk", refuse_to_walk)
    assert cli_main([*argv, "--rounds", "2", "--runs", "100000000000"]) == 2
    assert "runs 100000000000" in capsys.readouterr().err


HUGE_BLOCK = str(10**21)


def csv_without_scheme(path):
    """The rows of a CSV, its scheme column (if any) taken out."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if "scheme" in rows[0]:
        col = rows[0].index("scheme")
        rows = [row[:col] + row[col + 1:] for row in rows]
    return rows


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--initial", "separable", "--rho4", "0.3", "--scheme"],
        ["sweep-rho4", "--initial", "separable", "--values", "0.3,0.8", "--schemes"],
        ["classical", "--trials", "20", "--scheme"],
    ],
)
@pytest.mark.parametrize(
    "block, small",
    [(f"periodic:{HUGE_BLOCK},1", "a"), (f"periodic:1,{HUGE_BLOCK}", "periodic:1,5")],
)
def test_periodic_blocks_longer_than_the_schedule(tmp_path, argv, block, small):
    # a block longer than the 5 rounds plays as its first 5 rounds
    outs = [tmp_path / "block.csv", tmp_path / "small.csv"]
    for scheme, out in zip((block, small), outs):
        assert cli_main([*argv, scheme, "--rounds", "5", "--out", str(out)]) == 0
    assert csv_without_scheme(outs[0]) == csv_without_scheme(outs[1])
    if argv[0] != "sweep-rho4":
        assert outs[0].read_bytes() == outs[1].read_bytes()


def test_classical_rounds_beyond_physical_memory_rejected(capsys):
    # rejected from one trial's stream size, before any draw is allocated
    assert cli_main(["classical", "--rounds", "1000000000000"]) == 2
    assert "rounds 1000000000000" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-0.7853981633974483", "nan"])
def test_sweep_phase_step_must_be_positive(capsys, step):
    assert cli_main(["sweep-phase", "--step", step, "--schemes", "a"]) == 2
    assert "step" in capsys.readouterr().err


def refuse_to_run(*args, **kwargs):
    raise AssertionError("the size check let the grid through")


@pytest.mark.parametrize("step", ["6.283185307179586e-4", "1e-300", "5e-324"])
def test_sweep_phase_grid_beyond_physical_memory_rejected(monkeypatch, capsys, step):
    # 10^4 x 10^4 points and more are refused before the grid is built
    monkeypatch.setattr(sweeps, "phase_grid", refuse_to_run)
    assert cli_main(["sweep-phase", "--step", step]) == 2
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["sweep-rho4", "--values", ","], "--values"),
        (["sweep-rho4", "--values", ""], "--values"),
        (["sweep-omega", "--omegas", ","], "--omegas"),
        (["sweep-omega", "--omegas", ""], "--omegas"),
        (["sweep-rho4", "--schemes", ","], "--schemes"),
        (["sweep-rho4", "--schemes", ""], "--schemes"),
        (["sweep-omega", "--schemes", ","], "--schemes"),
        (["sweep-phase", "--schemes", ","], "--schemes"),
    ],
)
def test_empty_sweep_lists_rejected(capsys, argv, flag):
    assert cli_main([*argv, "--rounds", "2"]) == 2
    assert flag in capsys.readouterr().err


def test_cli_reruns_are_byte_identical(tmp_path):
    args = [
        "run", "--initial", "separable", "--scheme", "mix", "--seed", "5",
        "--runs", "3", "--rounds", "8",
    ]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_rho4_honors_explicit_shared_scheme(tmp_path):
    out = tmp_path / "rho4.csv"
    code = cli_main(
        [
            "sweep-rho4", "--initial", "separable", "--scheme", "periodic:2,2",
            "--values", "0.3", "--rounds", "8", "--out", str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["scheme"] for row in rows] == ["a", "b", "periodic:2,2"]


# --- each command accepts exactly the flags it reads ------------------------

SHARED = (
    "--initial", "--omega", "--scheme", "--rounds", "--rho0", "--rho1", "--rho2", "--rho3",
    "--rho4", "--theta", "--phi", "--seed", "--runs",
)

# command -> (shared flags it reads, its own flags)
READS = {
    "run": (SHARED, ()),
    "sweep-rho4": (tuple(f for f in SHARED if f != "--rho4"), ("--values", "--schemes")),
    "sweep-phase": (
        tuple(f for f in SHARED if f not in ("--theta", "--phi")), ("--step", "--schemes"),
    ),
    "sweep-omega": (
        tuple(f for f in SHARED if f not in ("--initial", "--omega")), ("--omegas", "--schemes"),
    ),
    "discriminate": (("--initial", "--omega", "--rounds", "--seed"), ("--mode", "--shots")),
    "classical": (
        ("--scheme", "--rounds", "--seed"),
        ("--mode", "--players", "--pa", "--p1", "--p2", "--p3", "--p4", "--epsilon", "--trials"),
    ),
}

# a value of the right type for each shared flag, on the command line and in JSON
FLAG_VALUES = {"--initial": "w", "--scheme": "b", "--rounds": "3", "--seed": "3", "--runs": "3"}
FIELD_VALUES = {"initial": "w", "scheme": "b", "rounds": 3, "seed": 3, "runs": 3}


def subparsers():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_command_accepts_exactly_the_flags_it_reads():
    commands = subparsers()
    assert set(commands) == set(READS)
    for name, sub in commands.items():
        options = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        shared, own = READS[name]
        assert options == {"--config", "--out", *shared, *own}, name


UNREAD = [
    (command, flag)
    for command, (shared, _) in READS.items()
    for flag in SHARED
    if flag not in shared
]


@pytest.mark.parametrize("command,flag", UNREAD)
def test_unread_flag_rejected(capsys, command, flag):
    assert cli_main([command, flag, FLAG_VALUES.get(flag, "0.3")]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag in err


@pytest.mark.parametrize("command,flag", UNREAD)
def test_unread_config_field_rejected(tmp_path, capsys, command, flag):
    field = flag[2:]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({field: FIELD_VALUES.get(field, 0.3)}))
    assert cli_main([command, "--config", str(config)]) == 2
    assert f"unknown config fields: [{field!r}]" in capsys.readouterr().err


def test_discriminate_rejects_game_flags(capsys):
    assert cli_main(["discriminate", "--rho0", "0.3"]) == 2
    assert "--rho0" in capsys.readouterr().err


def test_sweep_omega_help_omits_initial_state_flags(capsys):
    assert cli_main(["sweep-omega", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "--omegas" in help_text
    assert "--initial" not in help_text
    assert "--omega " not in help_text and "--omega\n" not in help_text


def test_flag_prefixes_are_not_expanded(capsys):
    # --omega must not be read as the sweep's --omegas
    assert cli_main(["sweep-omega", "--omega", "0.3"]) == 2
    assert "--omega" in capsys.readouterr().err


COOPERATIVE = ["--mode", "cooperative", "--pa", "0.5", "--p1", "0.3", "--p2", "0.5",
               "--p3", "0.5", "--p4", "0.8"]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["run", "--omega", "0.3"], "--omega"),
        (["run", "--initial", "ghz", "--omega", "0.3"], "--omega"),
        (["sweep-rho4", "--initial", "w", "--omega", "0.3"], "--omega"),
        (["sweep-phase", "--initial", "separable", "--omega", "0.3"], "--omega"),
        (["discriminate", "--omega", "0.3"], "--omega"),
        (["discriminate", "--shots", "10"], "--shots"),
        (["discriminate", "--mode", "expectation", "--shots", "10"], "--shots"),
        (["classical", "--players", "4"], "--players"),
        (["classical", "--mode", "original", "--p3", "0.4"], "--p3"),
        (["classical", "--p4", "0.4"], "--p4"),
        (["classical", *COOPERATIVE, "--epsilon", "0.01"], "--epsilon"),
        (["classical", "--pa", "0.5", "--p1", "0.1", "--p2", "0.7", "--epsilon", "0.3"],
         "--epsilon"),
    ],
)
def test_flag_unread_for_another_flags_value_rejected(capsys, argv, flag):
    assert cli_main([*argv, "--rounds", "3"]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,fields,field",
    [
        ("run", {"initial": "ghz", "omega": 0.3}, "omega"),
        ("discriminate", {"omega": 0.3}, "omega"),
        ("classical", {"players": 4}, "players"),
        ("classical", {"mode": "cooperative", "epsilon": 0.01}, "epsilon"),
        ("classical", {"pa": 0.5, "p1": 0.1, "p2": 0.7, "epsilon": 0.3}, "epsilon"),
    ],
)
def test_config_field_unread_for_another_fields_value_rejected(
    tmp_path, capsys, command, fields, field
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fields))
    assert cli_main([command, "--config", str(config), "--rounds", "3"]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--initial", "j", "--omega", "0.3"],
        ["discriminate", "--initial", "j", "--omega", "0.3"],
        ["discriminate", "--mode", "sampled", "--shots", "10"],
        ["classical", *COOPERATIVE, "--players", "4", "--trials", "5"],
        ["classical", "--mode", "original", "--epsilon", "0.01", "--trials", "5"],
        ["classical", "--pa", "0.5", "--p1", "0.1", "--epsilon", "0.3", "--trials", "5"],
    ],
)
def test_flag_read_for_another_flags_value_accepted(tmp_path, argv):
    assert cli_main([*argv, "--rounds", "3", "--out", str(tmp_path / "out")]) == 0


def test_omega_from_config_with_initial_j_flag_accepted(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"omega": 0.3}))
    out = tmp_path / "series.csv"
    argv = ["run", "--config", str(config), "--initial", "j", "--rounds", "3", "--out", str(out)]
    assert cli_main(argv) == 0


@pytest.mark.parametrize("fields", [{"p3": None}, {"p3": None, "p4": None}])
def test_null_cooperative_fields_accepted_in_original_mode(tmp_path, fields):
    # null is the unset value of a probability, so nothing unread is given
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fields))
    out = tmp_path / "series.csv"
    argv = ["classical", "--config", str(config), "--rounds", "3", "--trials", "5",
            "--out", str(out)]
    assert cli_main(argv) == 0


def test_epsilon_with_a_null_original_probability_accepted(tmp_path):
    # a null p2 is unset, so epsilon sets its default and is read
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pa": 0.5, "p1": 0.1, "p2": None, "epsilon": 0.3}))
    argv = ["classical", "--config", str(config), "--rounds", "3", "--trials", "5",
            "--out", str(tmp_path / "classical.csv")]
    assert cli_main(argv) == 0


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--epsilon", "nan"], "epsilon must be a finite number >= 0, got nan"),
        (["--epsilon", "inf"], "epsilon must be a finite number >= 0, got inf"),
        (["--epsilon", "0.6"], "epsilon 0.6 sets the default p to -0.1, outside [0, 1]"),
        (["--pa", "0.5", "--epsilon", "0.2"],
         "epsilon 0.2 sets the default p1 to -0.1, outside [0, 1]"),
        (["--pa", "2"], "pa must lie in [0, 1], got 2.0"),
    ],
)
def test_classical_bad_epsilon_named(capsys, flags, message):
    assert cli_main(["classical", *flags, "--rounds", "3", "--trials", "2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["run", "sweep-rho4", "discriminate", "classical"])
def test_negative_seed_flag_rejected(capsys, command):
    assert cli_main([command, "--seed", "-1", "--rounds", "3"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "discriminate", "classical"])
def test_negative_seed_config_field_rejected(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -1}))
    assert cli_main([command, "--config", str(config), "--rounds", "3"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("rounds", ["0", "1", "2"])
def test_discriminate_rejects_fewer_than_three_rounds(capsys, rounds):
    assert cli_main(["discriminate", "--initial", "w", "--rounds", rounds]) == 2
    assert "rounds must be >= 3" in capsys.readouterr().err


def test_discriminate_shots_beyond_int64_rejected(capsys):
    argv = ["discriminate", "--mode", "sampled", "--shots", str(2**63)]
    assert cli_main(argv) == 2
    assert "shots" in capsys.readouterr().err


def test_discriminate_huge_shot_count_runs(capsys):
    argv = ["discriminate", "--initial", "w", "--mode", "sampled", "--shots", str(10**13)]
    assert cli_main(argv) == 0
    assert "label=W" in capsys.readouterr().out


def load_benchmark_workloads():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_workload_argv_parse():
    # every CLI call a benchmark job makes must stay a valid command line
    workloads = load_benchmark_workloads().WORKLOADS
    parser = build_parser()
    for calls in workloads.values():
        for _, argv in calls:
            parser.parse_args([*argv, "--seed", "1", "--out", "x"])
