import argparse
import csv
import dataclasses
import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

from qparrondo import CooperativeParams, SimulationConfig, cli, engine, sweeps
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
        (["--theta", "inf"], "theta must be finite, got inf"),
    ],
)
def test_run_rejects_non_finite_phases(capsys, flags, message):
    assert cli_main(["run", "--rounds", "2", *flags]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_file_rho0_out_of_range_named(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rho0": 1.5}))
    assert cli_main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: rho0 must lie in [0, 1], got 1.5\n"


def test_config_fields_are_flags_with_the_flags_defaults():
    # every input of a walk and of a cooperative ring is named as its flag;
    # a required probability is unset (None) until a flag gives it
    walk = [f for f in dataclasses.fields(SimulationConfig) if f.name not in ("initial", "scheme")]
    for field in walk + list(dataclasses.fields(CooperativeParams)):
        default = None if field.default is dataclasses.MISSING else field.default
        assert field.name in cli.FLAGS and cli.FLAGS[field.name][0] == default, field.name


@pytest.mark.parametrize("command", ["run", "sweep-rho4"])
def test_phases_whose_triple_overflows_play(capsys, command):
    # every finite theta plays: 2 theta or 3 theta may overflow
    for phases in (["--theta=-7e307"], ["--theta", "1e308"]):
        argv = [command, "--initial", "ghz", "--rounds", "3", *phases]
        assert cli_main(argv) == 0
        assert "nan" not in capsys.readouterr().out


def test_module_runs_as_a_script():
    # the package's own source, whether or not it is installed
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(engine.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "qparrondo.cli", "run", "--scheme", "a", "--rounds", "4"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("final average gain: ")


@pytest.mark.parametrize("argv", [
    ["run", "--scheme", "a", "--rounds", "4"],
    ["sweep-rho4", "--schemes", "a,b,periodic:2,1", "--values", "0.3", "--rounds", "4"],
    ["discriminate", "--initial", "w", "--mode", "expectation", "--rounds", "4"],
])
def test_commands_that_draw_nothing_never_import_numpy_random(argv):
    # fixed schedules and expectation mode build no generator
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(engine.__file__).parents[1])}
    script = (
        "import sys; from qparrondo.cli import cli_main; code = cli_main(sys.argv[1:]); "
        "print(code, 'numpy.random' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


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
    # rejected from the planned sizes alone, before any array exists; the
    # discriminator holds O(rounds) bytes, a walk O(rounds^3)
    rounds = "10000000000000" if command == "discriminate" else "100000"
    assert cli_main([command, "--rounds", rounds]) == 2
    err = capsys.readouterr().err
    assert f"rounds {rounds} " in err and "physical memory" in err


@pytest.mark.parametrize("rounds", ["400", "1000"])
@pytest.mark.parametrize("mode", ["expectation", "sampled"])
def test_discriminate_takes_hundreds_of_rounds(capsys, mode, rounds):
    assert cli_main(["discriminate", "--mode", mode, "--rounds", rounds]) == 0
    assert capsys.readouterr().out.startswith("label=")


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


def test_sweep_rho4_writes_one_column_per_listed_scheme(tmp_path):
    out = tmp_path / "rho4.csv"
    code = cli_main(
        [
            "sweep-rho4", "--initial", "separable", "--schemes", "a,b,periodic:2,2",
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
    "--rho4", "--theta", "--seed", "--runs",
)
# flags no command takes any more: no walk reads phi
REMOVED = ("--phi",)

# command -> (shared flags it reads, its own flags); a sweep's --schemes
# lists its schemes
READS = {
    "run": (SHARED, ()),
    "sweep-rho4": (
        tuple(f for f in SHARED if f not in ("--rho4", "--scheme")), ("--values", "--schemes"),
    ),
    "sweep-phase": (
        tuple(f for f in SHARED if f not in ("--theta", "--scheme")), ("--step", "--schemes"),
    ),
    "sweep-omega": (
        tuple(f for f in SHARED if f not in ("--initial", "--omega", "--scheme")),
        ("--omegas", "--schemes"),
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
    for flag in (*SHARED, *REMOVED)
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
        (["discriminate", "--seed", "3"], "--seed"),
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
        ("discriminate", {"seed": 3}, "seed"),
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
        ["discriminate", "--mode", "sampled", "--shots", "10", "--seed", "3"],
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
        (["--epsilon", "0.6"], "epsilon 0.6 sets the default pa to -0.1, outside [0, 1]"),
        (["--pa", "0.5", "--epsilon", "0.2"],
         "epsilon 0.2 sets the default p1 to -0.1, outside [0, 1]"),
        (["--pa", "2"], "pa must lie in [0, 1], got 2.0"),
        (["--mode", "cooperative", "--players", "2", "--pa", "0.5", "--p1", "0.3", "--p2",
          "0.5", "--p3", "0.5", "--p4", "0.8"], "players must be >= 3, got 2"),
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


def test_monte_carlo_trials_overflowing_the_win_sums_rejected():
    # 2^63 - 1 trials would run until killed: the size check refuses them
    # before any draw, naming the flag. A subprocess bounds a regression.
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(engine.__file__).parents[1])}
    argv = ["classical", "--mode", "cooperative", "--players", "8", "--rounds", "4",
            "--trials", str(2**63 - 1), "--pa", "0.5", "--p1", "0.3", "--p2", "0.5",
            "--p3", "0.5", "--p4", "0.8"]
    script = (
        "import sys, time; from qparrondo.cli import cli_main; start = time.perf_counter(); "
        "code = cli_main(sys.argv[1:]); print(code, time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=30
    )
    code, seconds = done.stdout.split()
    assert code == "2" and float(seconds) < 1, done.stderr
    assert "trials 9223372036854775807" in done.stderr


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


def test_shared_parser_answers_as_a_fresh_one_after_refusals(tmp_path, capsys, monkeypatch):
    # cli_main parses with one parser per process; refusals by argparse and
    # by the command leave nothing in it that changes the next call
    assert build_parser() is build_parser()
    out = tmp_path / "sweep.csv"
    argv = ["sweep-rho4", "--values", "0.3", "--schemes", "a,periodic:2,2", "--rounds", "3"]

    def outputs():
        assert cli_main(["run", "--bogus"]) == 2
        assert cli_main(["classical", "--players", "4"]) == 2
        assert cli_main([*argv, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        return captured.out, captured.err, out.read_bytes()

    shared = outputs()
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert outputs() == shared


def test_benchmark_workload_argv_parse():
    # every CLI call a benchmark job makes must stay a valid command line
    workloads = load_benchmark_workloads().WORKLOADS
    parser = build_parser()
    for calls in workloads.values():
        for _, argv in calls:
            parser.parse_args([*argv, "--seed", "1", "--out", "x"])


@pytest.mark.parametrize(
    "flags, estimator",
    [
        ([], "exact"),
        ([*COOPERATIVE, "--players", "3"], "exact"),
        ([*COOPERATIVE, "--players", "7"], "exact"),
        ([*COOPERATIVE, "--players", "8"], "Monte Carlo"),
    ],
)
def test_classical_summary_names_its_estimator(capsys, flags, estimator):
    argv = ["classical", *flags, "--rounds", "5", "--trials", "20", "--seed", "3"]
    assert cli_main(argv) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line.startswith("final mean gain: ")
    assert line.endswith(f", 20 trials, {estimator})")


def test_classical_exact_rows_take_any_number_of_trials(capsys):
    # the time of an exact row does not grow with --trials
    assert cli_main(["classical", "--trials", "2147483648", "--rounds", "4"]) == 0
    assert "2147483648 trials, exact" in capsys.readouterr().out


# --- every flag a command takes moves what it prints or writes -------------

# short walks with a mix whose two runs play both games (seed 0 plays
# B, B, B twice); game B differs from game A where rho4 is 0.3
WALK = ["--rounds", "3", "--runs", "2", "--seed", "1"]
RUN = ["--initial", "separable", "--scheme", "mix", "--rho4", "0.3", *WALK]
SWEEP = ["--schemes", "b,mix", *WALK]
# what each shared flag is changed to; the bases below play separable
WALK_CHANGES = {
    "--initial": "ghz", "--scheme": "b", "--rounds": "4", "--rho0": "0.2", "--rho1": "0.2",
    "--rho2": "0.2", "--rho3": "0.2", "--rho4": "0.6", "--theta": "0.7", "--seed": "2",
    "--runs": "3",
}


def moves(command, base, changes):
    """(base call, the arguments that change it) for each flag in
    ``changes`` that ``command`` takes, with its changed value."""
    shared, own = READS[command]
    return {
        flag: ([command, *base], [flag, value])
        for flag, value in changes.items() if flag in (*shared, *own)
    }


PHASE_MAP = ["--step", "3.141592653589793", "--rho4", "0.3", *SWEEP]

# command -> flag -> (base call, arguments that change its output)
MOVES = {
    "run": {
        **moves("run", RUN, WALK_CHANGES),
        **moves("run", [*RUN, "--initial", "j"], {"--omega": "0.3"}),
    },
    "sweep-rho4": {
        **moves("sweep-rho4", ["--initial", "separable", "--values", "0.3", *SWEEP],
                {**WALK_CHANGES, "--values": "0.4", "--schemes": "a"}),
        **moves("sweep-rho4", ["--initial", "j", "--values", "0.3", *SWEEP], {"--omega": "0.3"}),
    },
    "sweep-phase": {
        **moves("sweep-phase", ["--initial", "separable", *PHASE_MAP],
                {**WALK_CHANGES, "--step": "1.5707963267948966", "--schemes": "a"}),
        **moves("sweep-phase", ["--initial", "j", *PHASE_MAP], {"--omega": "0.3"}),
    },
    "sweep-omega": moves("sweep-omega", ["--omegas", "0.3", "--rho4", "0.3", *SWEEP],
                         {**WALK_CHANGES, "--omegas": "0.7", "--schemes": "a"}),
    "discriminate": {
        **moves("discriminate", ["--initial", "w", "--rounds", "3"],
                {"--initial": "ghz", "--rounds": "4", "--mode": "sampled"}),
        **moves("discriminate", ["--initial", "j", "--rounds", "3"], {"--omega": "0.3"}),
        # expectation mode draws nothing
        **moves("discriminate", ["--initial", "w", "--rounds", "3", "--mode", "sampled",
                                 "--shots", "10"], {"--seed": "7", "--shots": "20"}),
    },
    "classical": {
        **moves("classical", ["--scheme", "mix", "--rounds", "3", "--trials", "5"], {
            "--scheme": "b", "--rounds": "4", "--trials": "6", "--epsilon": "0.01",
            "--pa": "0.3", "--p1": "0.2", "--p2": "0.6",
        }),
        # 8 players and more run Monte Carlo, fewer the exact chain
        **moves("classical", [*COOPERATIVE, "--players", "8", "--scheme", "mix", "--rounds",
                              "3", "--trials", "5"],
                {"--seed": "7", "--players": "3", "--p3": "0.2", "--p4": "0.2"}),
    },
}
# the cooperative mode requires the two probabilities the original refuses
MOVES["classical"]["--mode"] = (
    ["classical", "--pa", "0.5", "--p1", "0.3", "--p2", "0.5", "--rounds", "3", "--trials", "5"],
    ["--mode", "cooperative", "--p3", "0.5", "--p4", "0.8"],
)


def output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli_main([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
    return capsys.readouterr().out, out.read_bytes()


@pytest.mark.parametrize("command,flag", [
    (command, flag)
    for command, sub in subparsers().items()
    for action in sub._actions
    for flag in action.option_strings
    if flag not in ("-h", "--help", "--config", "--out")
])
def test_every_flag_moves_an_output(tmp_path, capsys, command, flag):
    assert flag in MOVES[command], f"no call shows what {command} {flag} changes"
    base, change = MOVES[command][flag]
    assert change[0] == flag
    assert output(tmp_path, capsys, base) != output(tmp_path, capsys, [*base, *change])


def test_some_command_takes_every_config_field():
    taken = {key for sub in subparsers().values() for key in sub.get_default("fields")}
    assert taken == set(cli.FLAGS)


# --- seeded fuzz: every argv ends with exit 0 or 2, never a traceback -------

INT_EDGES = ("-1", "0", "9223372036854775808", "5e-324", "nan", "x", "")
FLOAT_EDGES = ("nan", "inf", "-inf", "5e-324", "9223372036854775808", "1e308", "x", "")
PROBABILITY = (("0", "1", "0.5", "0.3", "5e-324", "-0.0"), ("-0.1", "1.1", *FLOAT_EDGES))
# flag -> (values it takes, edge values most of which it refuses); valid
# walk lengths, runs, trials and steps keep every call cheap
FUZZ_VALUES = {
    "--initial": (("ghz", "w", "separable", "j"), ("x", "")),
    "--omega": (("0", "0.7", "1.5707963267948966"), ("2", "-0.0", *FLOAT_EDGES)),
    "--scheme": (
        ("a", "b", "mix", "periodic:2,2", "periodic:9223372036854775808,1"),
        ("periodic:0,1", "periodic:1", "periodic:x,y", "periodic:", "c", ""),
    ),
    "--schemes": (("a,b", "mix,periodic:2,1", "periodic:2,2,mix", "a,,b"),
                  ("periodic:2", ",", "", "zz")),
    # discriminate refuses fewer than 3
    "--rounds": (("1", "3", "4"), INT_EDGES),
    **{f"--rho{k}": PROBABILITY for k in range(5)},
    "--theta": (("0", "0.7", "-7e307", "1e308"), FLOAT_EDGES),
    "--seed": (("0", "7", "18446744073709551616"), INT_EDGES),
    "--runs": (("1", "3"), INT_EDGES),
    "--values": (("0.1,0.5", "0,1", "5e-324"), ("1.5", "nan", "inf", ",", "", "x")),
    "--omegas": (("0,0.7", "5e-324"), ("1.6", "-0.1", "nan", ",", "", "x")),
    "--step": (("3.141592653589793", "1.5707963267948966"),
               ("1.0", "0", "-1", "nan", "inf", "5e-324", "x")),
    "--mode": (("expectation", "sampled", "original", "cooperative"), ("x",)),
    "--shots": (("1", "100", "9223372036854775807"), ("9223372036854775808", *INT_EDGES)),
    "--players": (("2", "3", "8"), INT_EDGES),
    **{f"--{name}": PROBABILITY for name in ("pa", "p1", "p2", "p3", "p4")},
    "--epsilon": (("0.005", "0", "0.1"), ("0.6", "-1", *FLOAT_EDGES)),
    "--trials": (("1", "10"), ("0", "-1", "nan", "x")),
}
# flags whose defaults would make a call dear; every call that reads one sets it
COSTLY = ("--rounds", "--runs", "--trials", "--step")


def fuzz_argv(rng):
    """A command, the flags of COSTLY it reads and a random subset of its
    other flags, each with a value it takes or, one time in four, an edge
    value; now and then a flag of another command."""
    command = rng.choice(sorted(READS))
    shared, own = READS[command]
    reads = (*shared, *own)
    flags = [flag for flag in COSTLY if flag in reads]
    flags += rng.sample([flag for flag in reads if flag not in COSTLY], rng.randint(0, 5))
    if rng.random() < 0.1:
        flags.append(rng.choice(sorted(FUZZ_VALUES)))
    return [
        command,
        *(arg for flag in flags
          for arg in (flag, rng.choice(FUZZ_VALUES[flag][rng.random() < 0.25]))),
    ]


def test_fuzzed_argv_exits_0_or_2_without_a_traceback(capsys):
    rng = random.Random(26)
    for _ in range(400):
        argv = fuzz_argv(rng)
        code = cli_main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2), argv
        assert "Traceback" not in out + err, argv
