"""Command-line interface.

Subcommands: run, sweep-rho4, sweep-phase, sweep-omega, discriminate,
classical. Each accepts exactly the FLAGS it reads, and the same names as
fields of a JSON config file; explicit flags override file values.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .classical import CooperativeParams, OriginalParams, run_classical
from .coins import CoinParams, GameBParams, InitialCoin, initial_coin_state
from .discriminator import discriminate
from .engine import (
    PURE_A,
    PURE_B,
    SimulationConfig,
    parse_scheme,
    run_averaged,
)
from .sweeps import (
    DEFAULT_OMEGA_GRID,
    DEFAULT_PHASE_STEP,
    DEFAULT_RHO4_GRID,
    DEFAULT_SCHEMES,
    emit_classical_csv,
    emit_map_csv,
    emit_series_csv,
    emit_sweep_csv,
    sweep_entanglement,
    sweep_phase_map,
    sweep_rho4,
)

HALF_PI = math.pi / 2

# Every flag a command may read from the command line or from a config file
# field of the same name: name -> (default, argparse keyword arguments).
FLAGS = {
    "initial": ("ghz", {"choices": ["ghz", "w", "separable", "j"]}),
    "omega": (HALF_PI, {"type": float, "help": "entanglement angle for --initial j"}),
    "scheme": ("a", {"help": "a, b, mix or periodic:M,N"}),
    "rounds": (16, {"type": int}),
    **{f"rho{k}": (0.5, {"type": float}) for k in range(5)},
    "theta": (HALF_PI, {"type": float}),
    "phi": (HALF_PI, {"type": float}),
    "seed": (0, {"type": int}),
    "runs": (10, {"type": int}),
    # classical's mode; discriminate's --mode is a flag of its own, not a field
    "mode": ("original", {"choices": ["original", "cooperative"]}),
    "players": (3, {"type": int}),
    "pa": (None, {"type": float}),
    **{f"p{k}": (None, {"type": float}) for k in range(1, 5)},
    "epsilon": (0.005, {"type": float}),
    "trials": (1000, {"type": int}),
}

SHARED = (
    "initial", "omega", "scheme", "rounds", "rho0", "rho1", "rho2", "rho3", "rho4",
    "theta", "phi", "seed", "runs",
)


def _shared_but(*unread: str) -> tuple[str, ...]:
    return tuple(name for name in SHARED if name not in unread)


def _check_config_type(key: str, value, default) -> None:
    """A config file value must have the JSON type of the flag's default;
    probabilities that default to unset may also be null."""
    kinds = {str: (str,), int: (int,)}.get(type(default), (int, float))
    if isinstance(value, bool) or not (
        isinstance(value, kinds) or (default is None and value is None)
    ):
        expected = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"config field {key!r} must be {expected}, got {json.dumps(value)}")


def _refuse_unless(given, holds: bool, condition: str) -> None:
    """Refuse the flags or config fields ``given`` unless ``condition``, a
    value of the flag they depend on, holds; otherwise they go unread."""
    if given and not holds:
        names = ", ".join(f"--{key}" for key in sorted(given))
        raise ValueError(f"{names}: read only with {condition}")


def _merge(args: argparse.Namespace) -> tuple[dict, set]:
    """FLAGS defaults <- config file <- explicit flags, over the fields the
    command reads (``args.fields``); also reports which keys were given a
    value explicitly (by either source; a null config value is unset). Flags the command does not read keep
    their defaults."""
    merged = {key: default for key, (default, _) in FLAGS.items()}
    explicit = set()
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(loaded) - set(args.fields)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_config_type(key, value, FLAGS[key][0])
        merged.update(loaded)
        # null is the unset value of a probability, not a choice to refuse
        explicit |= {key for key, value in loaded.items() if value is not None}
    for key in args.fields:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
            explicit.add(key)
    _refuse_unless(explicit & {"omega"}, merged["initial"] == "j", "--initial j")
    return merged, explicit


def _sim_config(opts: dict) -> SimulationConfig:
    for name in ("rho0", "rho1", "rho2", "rho3", "rho4"):
        rho = float(opts[name])
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {rho}")
    kind = opts["initial"]
    return SimulationConfig(
        initial=InitialCoin(kind, float(opts["omega"]) if kind == "j" else None),
        scheme=parse_scheme(opts["scheme"]),
        rounds=int(opts["rounds"]),
        coin_a=CoinParams(float(opts["rho0"]), float(opts["theta"]), float(opts["phi"])),
        game_b=GameBParams.from_rhos(
            float(opts["rho1"]), float(opts["rho2"]), float(opts["rho3"]),
            float(opts["rho4"]), float(opts["theta"]), float(opts["phi"]),
        ),
        seed=int(opts["seed"]),
        runs=int(opts["runs"]),
    )


def _parse_values(text: str, name: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"{name} must be a comma-separated list of numbers") from exc
    if not values:
        raise ValueError(f"{name} must list at least one number, got {text!r}")
    return values


def _parse_schemes(text: str):
    # comma separates schemes, but periodic:M,N itself contains one;
    # re-attach a bare block length to a preceding incomplete periodic
    parts = []
    for part in (p.strip() for p in text.split(",")):
        if not part:
            continue
        if (
            parts
            and parts[-1].startswith("periodic:")
            and "," not in parts[-1]
            and part.isdigit()
        ):
            parts[-1] += "," + part
        else:
            parts.append(part)
    if not parts:
        raise ValueError(f"--schemes must list at least one scheme, got {text!r}")
    return tuple(parse_scheme(part) for part in parts)


def _sweep_schemes(args: argparse.Namespace, opts: dict, explicit: set):
    """Scheme columns for a sweep: --schemes wins; an explicitly chosen
    --scheme sweeps that scheme (pure games included for paradox flags);
    otherwise the default four."""
    if args.schemes is not None:
        return _parse_schemes(args.schemes)
    if "scheme" in explicit:
        requested = parse_scheme(opts["scheme"])
        if requested in (PURE_A, PURE_B):
            return (PURE_A, PURE_B)
        return (PURE_A, PURE_B, requested)
    return DEFAULT_SCHEMES


def _cmd_run(args: argparse.Namespace) -> int:
    opts, _ = _merge(args)
    config = _sim_config(opts)
    series = run_averaged(config)
    if args.out:
        emit_series_csv(series, args.out)
        print(f"wrote {series.rounds + 1} rows to {args.out}")
    else:
        print("round,gain_avg")
        for t, g in enumerate(series.average_gain):
            print(f"{t},{g:.12g}")
    print(f"final average gain: {series.final_gain:.12g}")
    return 0


def _cmd_sweep_rho4(args: argparse.Namespace) -> int:
    opts, explicit = _merge(args)
    base = _sim_config(opts)
    values = DEFAULT_RHO4_GRID if args.values is None else _parse_values(args.values, "--values")
    schemes = _sweep_schemes(args, opts, explicit)
    records = sweep_rho4(base, values, schemes)
    if args.out:
        emit_sweep_csv(records, args.out, value_name="rho4")
        print(f"wrote {len(records)} rows to {args.out}")
    else:
        for r in records:
            print(f"rho4={r.value:g} {r.scheme}: gain={r.gain:+.6f} "
                  f"{r.verdict} paradox={int(r.paradox)}")
    return 0


def _cmd_sweep_phase(args: argparse.Namespace) -> int:
    opts, explicit = _merge(args)
    base = _sim_config(opts)
    schemes = _sweep_schemes(args, opts, explicit)
    step = args.step if args.step is not None else DEFAULT_PHASE_STEP
    records = sweep_phase_map(base, step, schemes)
    if args.out:
        emit_map_csv(records, args.out)
        print(f"wrote {len(records)} rows to {args.out}")
    else:
        for r in records[:32]:
            print(f"theta={r.theta:.4f} phi={r.phi:.4f} {r.scheme}: {r.gain:+.6f}")
        if len(records) > 32:
            print(f"... {len(records) - 32} more rows (use --out to keep them)")
    return 0


def _cmd_sweep_omega(args: argparse.Namespace) -> int:
    opts, explicit = _merge(args)
    base = _sim_config(opts)
    omegas = DEFAULT_OMEGA_GRID if args.omegas is None else _parse_values(args.omegas, "--omegas")
    schemes = _sweep_schemes(args, opts, explicit)
    records = sweep_entanglement(base, omegas, schemes)
    if args.out:
        emit_sweep_csv(records, args.out, value_name="omega")
        print(f"wrote {len(records)} rows to {args.out}")
    else:
        for r in records:
            print(f"omega={r.value:.4f} {r.scheme}: gain={r.gain:+.6f} "
                  f"{r.verdict} paradox={int(r.paradox)}")
    return 0


def _cmd_discriminate(args: argparse.Namespace) -> int:
    opts, _ = _merge(args)
    _refuse_unless(
        ["shots"] if args.shots is not None else [], args.mode == "sampled", "--mode sampled"
    )
    if opts["seed"] < 0:
        raise ValueError(f"seed must be >= 0, got {opts['seed']}")
    kind = opts["initial"]
    coin_state = initial_coin_state(
        InitialCoin(kind, float(opts["omega"]) if kind == "j" else None)
    )
    rng = np.random.default_rng(int(opts["seed"]))
    result = discriminate(
        coin_state,
        rounds=int(opts["rounds"]),
        mode=args.mode,
        shots=100_000 if args.shots is None else args.shots,
        rng=rng,
    )
    print(
        f"label={result.label} statistic={result.statistic:.12g} "
        f"threshold={result.threshold:.12g}"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(dataclasses.asdict(result), fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_classical(args: argparse.Namespace) -> int:
    opts, explicit = _merge(args)
    cooperative = opts["mode"] == "cooperative"
    _refuse_unless(explicit & {"players", "p3", "p4"}, cooperative, "--mode cooperative")
    # epsilon only sets the defaults of the original mode's unset probabilities
    unset = None in (opts["pa"], opts["p1"], opts["p2"])
    _refuse_unless(explicit & {"epsilon"}, not cooperative and unset,
                   "--mode original and an unset --pa, --p1 or --p2")
    scheme = parse_scheme(opts["scheme"])
    if opts["mode"] == "original":
        # OriginalParams calls game A's probability p; name the flag instead
        if opts["pa"] is not None and not 0.0 <= opts["pa"] <= 1.0:
            raise ValueError(f"pa must lie in [0, 1], got {opts['pa']}")
        params = OriginalParams(
            epsilon=float(opts["epsilon"]),
            p=opts["pa"],
            p1=opts["p1"],
            p2=opts["p2"],
        )
    else:
        missing = [k for k in ("pa", "p1", "p2", "p3", "p4") if opts[k] is None]
        if missing:
            raise ValueError(f"cooperative mode requires --{', --'.join(missing)}")
        params = CooperativeParams(
            pa=float(opts["pa"]),
            p1=float(opts["p1"]),
            p2=float(opts["p2"]),
            p3=float(opts["p3"]),
            p4=float(opts["p4"]),
            n_players=int(opts["players"]),
        )
    series = run_classical(
        params, scheme, rounds=int(opts["rounds"]), trials=int(opts["trials"]),
        seed=int(opts["seed"]),
    )
    if args.out:
        emit_classical_csv(series, args.out)
        print(f"wrote {series.rounds + 1} rows to {args.out}")
    print(
        f"final mean gain: {series.final_gain:.12g} "
        f"(stderr {series.final_stderr:.3g}, {opts['trials']} trials)"
    )
    return 0


def _add_command(sub, name: str, help: str, func, fields: tuple[str, ...]):
    """A subcommand that accepts --config, --out and exactly the FLAGS in
    ``fields``, on the command line and as config file fields. Prefixes are
    not expanded, so an unread --omega is not taken for --omegas."""
    parser = sub.add_parser(name, help=help, allow_abbrev=False)
    parser.add_argument("--config", help="JSON file with the same field names as the flags")
    for key in fields:
        parser.add_argument(f"--{key}", **FLAGS[key][1])
    parser.add_argument("--out", help="output file path")
    parser.set_defaults(func=func, fields=fields)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qparrondo",
        description="Three-player cooperative quantum Parrondo games on a "
        "three-axis discrete-time quantum walk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(sub, "run", "single simulation, series CSV output", _cmd_run, SHARED)

    # each sweep's grid sets the flags it leaves out
    p_rho = _add_command(
        sub, "sweep-rho4", "sweep the loser-loser branch rho4", _cmd_sweep_rho4,
        _shared_but("rho4"),
    )
    p_rho.add_argument("--values", help="comma-separated rho4 values (default 0.1..0.9)")
    p_rho.add_argument("--schemes", help="comma-separated schemes (default a,b,periodic:2,2,mix)")

    p_phase = _add_command(
        sub, "sweep-phase", "map final gain over the (theta, phi) grid", _cmd_sweep_phase,
        _shared_but("theta", "phi"),
    )
    p_phase.add_argument("--step", type=float, help="grid step in radians (default pi/8)")
    p_phase.add_argument("--schemes", help="comma-separated schemes")

    p_omega = _add_command(
        sub, "sweep-omega", "sweep the initial entanglement angle of J(omega)|LLL>",
        _cmd_sweep_omega, _shared_but("initial", "omega"),
    )
    p_omega.add_argument("--omegas", help="comma-separated omega values (default 0..pi/2)")
    p_omega.add_argument("--schemes", help="comma-separated schemes")

    # always the fair game A, so no game flags
    p_disc = _add_command(
        sub, "discriminate", "label a coin state as GHZ-like or W-like", _cmd_discriminate,
        ("initial", "omega", "rounds", "seed"),
    )
    p_disc.add_argument("--mode", choices=["expectation", "sampled"], default="expectation")
    p_disc.add_argument("--shots", type=int, help="draws for --mode sampled (default 100000)")

    _add_command(
        sub, "classical", "Monte Carlo classical baseline", _cmd_classical,
        ("scheme", "rounds", "seed", "mode", "players", "pa", "p1", "p2", "p3", "p4",
         "epsilon", "trials"),
    )

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
