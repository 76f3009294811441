"""
Sweeping the loser-loser coin bias
==================================

Hold the unconditional coin and three of the four conditional branches
fair and sweep the remaining branch bias rho4 across [0.1, 0.9]. For each
value the pure games, the alternating block [2,2] and the random mix A+B
are classified as winning, fair or losing, and a paradox flag marks mix
schemes that win while neither pure game does.

Run: python demos/rho4_sweep.py   (writes demo_out/rho4_<state>.csv)
"""
import pathlib

from qparrondo import (
    GHZ,
    PURE_A,
    PURE_B,
    RANDOM_MIX,
    SEPARABLE,
    W,
    SimulationConfig,
    emit_sweep_csv,
    periodic,
    sweep_rho4,
)

OUT = pathlib.Path("demo_out")
OUT.mkdir(exist_ok=True)


def signed(gain: float) -> str:
    """The gain to four decimals; one that rounds to zero prints +0.0000
    whatever the sign of its rounding noise (adding 0.0 turns -0.0 into 0.0)."""
    return f"{round(gain, 4) + 0.0:+.4f}"


SCHEMES = (PURE_A, PURE_B, periodic(2, 2), RANDOM_MIX)

for name, initial in [("separable", SEPARABLE), ("ghz", GHZ), ("w", W)]:
    base = SimulationConfig(initial=initial, scheme=PURE_A, seed=0, runs=10)
    records = sweep_rho4(base, schemes=SCHEMES)
    path = OUT / f"rho4_{name}.csv"
    emit_sweep_csv(records, path, value_name="rho4")

    print(f"--- initial state: {name}")
    print("rho4    A        B        [2,2]    A+B      paradox")
    by_value = {}
    for r in records:
        by_value.setdefault(r.value, {})[r.scheme] = r
    for value in sorted(by_value):
        row = by_value[value]
        flags = [label for label, r in row.items() if r.paradox]
        print(
            f"{value:.1f}  {signed(row['a'].gain)}  {signed(row['b'].gain)}  "
            f"{signed(row['periodic:2,2'].gain)}  {signed(row['mix'].gain)}  "
            f"{','.join(flags) if flags else '-'}"
        )
    print(f"(written to {path})\n")

# With the W state the alternating variants [3,2], [2,3] and [3,3] stay
# losing as well; none of them rescues the game.
base = SimulationConfig(initial=W, scheme=PURE_A, seed=0, runs=10)
records = sweep_rho4(base, schemes=(periodic(3, 2), periodic(2, 3), periodic(3, 3)))
print("--- W-state block variants")
print("rho4    [3,2]    [2,3]    [3,3]")
by_value = {}
for r in records:
    by_value.setdefault(r.value, {})[r.scheme] = r
for value in sorted(by_value):
    row = by_value[value]
    print(
        f"{value:.1f}  {signed(row['periodic:3,2'].gain)}  "
        f"{signed(row['periodic:2,3'].gain)}  {signed(row['periodic:3,3'].gain)}"
    )
