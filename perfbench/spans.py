"""Span tracing of the qparrondo layers, installed from outside the program.

Every public function of a qparrondo module is wrapped under each name by
which a module looks it up (``engine.apply_position_update`` is the state
function as the engine calls it). A span records the binding, start, end
and the enclosing span, so spans nest by call stack. Spans stay in memory
until the caller writes them out. The layer of a span is the module that
defines the function, so its self time is time spent in that module's code.
"""
from __future__ import annotations

import functools
import inspect
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "sweeps", "engine", "state", "observables", "coins", "discriminator", "classical")


# function -> how to read one number (or a path) from a call's arguments and
# result, after it returns
HOOKS = {
    "state.init_walker_state": lambda a, result: result.tensor[0].size,
    "state.apply_position_update": lambda a, result: a["state"].tensor.nbytes,
    "classical.run_classical": lambda a, result: (
        a["rounds"] * a["trials"] * getattr(a["params"], "n_players", 1)
    ),
    "sweeps.sweep_rho4": lambda a, result: len(result),
    "sweeps.sweep_entanglement": lambda a, result: len(result),
    "sweeps.sweep_phase_map": lambda a, result: len(result),
    "sweeps.emit_series_csv": lambda a, result: a["path"],
    "sweeps.emit_sweep_csv": lambda a, result: a["path"],
    "sweeps.emit_map_csv": lambda a, result: a["path"],
    "sweeps.emit_classical_csv": lambda a, result: a["path"],
}


class Tracer:
    """Wraps every binding on install() and restores them on remove()."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.bindings = []  # (site module, name, defining layer, function)
        for site, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                package, _, layer = obj.__module__.rpartition(".")
                if package == "qparrondo" and layer in LAYERS:
                    self.bindings.append((site, name, layer, obj))
        self.functions = {f"{layer}.{name}" for _, name, layer, _ in self.bindings}
        self.sites = {f"{site}.{name}" for site, name, _, _ in self.bindings}
        self.spans: list[list] = []  # [binding index, start, end, parent, hook value]
        self._stack: list[int] = []

    def _wrap(self, index: int, fn, hook):
        spans = self.spans
        stack = self._stack
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    span[4] = hook(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass
            return result

        return traced

    def install(self) -> None:
        for index, (site, name, layer, fn) in enumerate(self.bindings):
            hook = HOOKS.get(f"{layer}.{name}")
            setattr(self.modules[site], name, self._wrap(index, fn, hook))

    def remove(self) -> None:
        for site, name, _, fn in self.bindings:
            setattr(self.modules[site], name, fn)

    def dump(self, first: int) -> list[list]:
        """Spans from index ``first`` on, with names and job-relative parents."""
        out = []
        for index, start, end, parent, _ in self.spans[first:]:
            site, name, _, _ = self.bindings[index]
            out.append([f"{site}.{name}", start, end, parent - first if parent >= 0 else -1])
        return out

    def job_metrics(self, first: int, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since index ``first``."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for start, end, parent in ((s[1], s[2], s[3]) for s in spans):
            if parent >= first:
                child[parent - first] += end - start
        calls = defaultdict(int)  # keyed by function and by binding
        incl = defaultdict(float)
        self_fn = defaultdict(float)
        self_layer = defaultdict(float)
        hooked = defaultdict(list)
        for k, (index, start, end, _, value) in enumerate(spans):
            site, name, layer, _ = self.bindings[index]
            own = end - start - child[k]
            for key in (f"{layer}.{name}", f"@{site}.{name}"):
                calls[key] += 1
                incl[key] += end - start
            self_fn[f"{layer}.{name}"] += own
            self_layer[layer] += own
            if value is not None:
                hooked[f"{layer}.{name}"].append(value)
        csv = [k for k in incl if k.startswith("sweeps.emit_")]
        csv_s = sum(incl[k] for k in csv)
        m = {
            "engine.step_round.calls": calls["engine.step_round"],
            "engine.step_round.s": incl["engine.step_round"],
            "engine.toss.s": self_fn["engine.step_round"],
            "engine.run_simulation.calls": calls["engine.run_simulation"],
            "engine.run_averaged.calls": calls["engine.run_averaged"],
            "engine.run_averaged.s": incl["engine.run_averaged"],
            "engine.build_schedule.calls": calls["engine.build_schedule"],
            "engine.build_schedule.s": incl["engine.build_schedule"],
            "state.apply_position_update.calls": calls["state.apply_position_update"],
            "state.apply_position_update.s": incl["state.apply_position_update"],
            "state.init_walker_state.s": incl["state.init_walker_state"],
            "state.sites_per_round": max(hooked["state.init_walker_state"], default=0),
            "state.bytes_computed": sum(hooked["state.apply_position_update"]),
            "observables.expected_positions.calls": calls["observables.expected_positions"],
            "observables.expected_positions.s": incl["observables.expected_positions"],
            "observables.position_distribution.s": incl["observables.position_distribution"],
            "coins.coin_unitary.calls": calls["coins.coin_unitary"],
            "sweeps.points": sum(
                sum(hooked[f"sweeps.{f}"])
                for f in ("sweep_rho4", "sweep_entanglement", "sweep_phase_map")
            ),
            "sweeps.self_s": self_layer["sweeps"] - csv_s,
            "sweeps.csv.s": csv_s,
            "sweeps.csv.bytes": sum(
                os.path.getsize(p) for k in csv for p in hooked[k] if os.path.exists(p)
            ),
            "discriminator.discriminate.s": incl["discriminator.discriminate"],
            "discriminator.apply_coin_matrix.calls": calls["@discriminator.apply_coin_matrix"],
            "discriminator.apply_coin_matrix.s": incl["@discriminator.apply_coin_matrix"],
            "discriminator.sample.s": self_fn["discriminator.discriminate"],
            "classical.run_classical.s": incl["classical.run_classical"],
            "classical.build_schedule.calls": calls["@classical.build_schedule"],
            "classical.build_schedule.s": incl["@classical.build_schedule"],
            "classical.self_s": self_layer["classical"],
            "classical.plays": sum(hooked["classical.run_classical"]),
        }
        for layer in LAYERS:
            if layer not in ("sweeps", "classical"):
                m[f"{layer}.self_s"] = self_layer[layer]
        m["trace.self_sum_ratio"] = sum(self_layer.values()) / wall_s
        return m

    def absent(self) -> list[str]:
        """Traced functions and bindings the metrics name but the program lacks."""
        wanted_fn = {
            "engine.step_round", "engine.run_simulation", "engine.run_averaged",
            "engine.build_schedule", "state.apply_position_update", "state.init_walker_state",
            "observables.expected_positions", "observables.position_distribution",
            "coins.coin_unitary", "sweeps.sweep_rho4", "sweeps.emit_sweep_csv",
            "discriminator.discriminate", "classical.run_classical", "cli.cli_main",
        }
        wanted_site = {"discriminator.apply_coin_matrix", "classical.build_schedule"}
        return sorted((wanted_fn - self.functions) | (wanted_site - self.sites))
