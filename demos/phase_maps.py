"""
Phase-angle maps
================

All five coins share one (theta, phi) phase pair. Mapping the final gain
over the phase plane shows which games react to the phases at all: from
the GHZ state the unconditional game stays exactly fair everywhere and
game B stays losing everywhere, while from the W state both pure games
are constant over the whole plane.

No gain moves along phi: the phases of every coin fold into the start
state P(theta)^(x3) psi0 and a site phase that no payoff reads, so the
map plays each game once per theta column of its pi/8 grid (16 x 16
points).

Run: python demos/phase_maps.py   (writes demo_out/phase_map_<state>.csv)
"""
import math
import pathlib

import numpy as np

from qparrondo import (
    GHZ,
    PURE_A,
    PURE_B,
    W,
    SimulationConfig,
    emit_map_csv,
    sweep_phase_map,
)

step = math.pi / 8
OUT = pathlib.Path("demo_out")
OUT.mkdir(exist_ok=True)

for name, initial in [("ghz", GHZ), ("w", W)]:
    base = SimulationConfig(
        initial=initial,
        scheme=PURE_A,
        rho4=0.7,
        seed=0,
        runs=10,
    )
    records = sweep_phase_map(base, step=step, schemes=(PURE_A, PURE_B))
    path = OUT / f"phase_map_{name}.csv"
    emit_map_csv(records, path)

    a = np.array([r.gain for r in records if r.scheme == "a"])
    b = np.array([r.gain for r in records if r.scheme == "b"])
    print(f"--- initial state: {name} ({int(math.tau / step)}x{int(math.tau / step)} grid)")
    print(f"  game A: min {a.min():+.6f}  max {a.max():+.6f}  spread {a.max() - a.min():.2e}")
    print(f"  game B: min {b.min():+.6f}  max {b.max():+.6f}  spread {b.max() - b.min():.2e}")
    columns = {}
    for r in records:
        columns.setdefault((r.theta, r.scheme), set()).add(r.gain)
    print(f"  largest spread along phi: {max(max(g) - min(g) for g in columns.values()):.2e}")
    print(f"  (written to {path})")
