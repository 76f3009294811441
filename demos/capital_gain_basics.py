"""
Capital gain basics
===================

A single game is one run of the three-player walk: every round each
player tosses a coin and the three positions move by the coin outcomes.
The player-averaged expected position is the average capital gain.

Run: python demos/capital_gain_basics.py
"""
import numpy as np

from qparrondo import (
    GHZ,
    PURE_A,
    PURE_B,
    SEPARABLE,
    W,
    GameBParams,
    SimulationConfig,
    run_averaged,
)

# The fair unconditional game is exactly fair when the coins start in the
# GHZ state, and losing when they start in the W state.
for name, initial in [("GHZ", GHZ), ("W", W), ("separable", SEPARABLE)]:
    series = run_averaged(SimulationConfig(initial=initial, scheme=PURE_A))
    print(f"game A from {name:>9}: final gain {series.final_gain:+.6f}")

print()

# Game B conditions each toss on the ring neighbors' coins. The branch
# where both neighbors hold |L> carries its own stay-probability rho4;
# its value decides whether the game wins or loses.
for rho4 in (0.2, 0.8):
    game_b = GameBParams.from_rhos(rho4=rho4)
    for name, initial in [("GHZ", GHZ), ("separable", SEPARABLE)]:
        series = run_averaged(
            SimulationConfig(initial=initial, scheme=PURE_B, game_b=game_b)
        )
        print(f"game B (rho4={rho4}) from {name:>9}: final gain {series.final_gain:+.6f}")

print()

# Round-by-round evolution of the W state under game A: the loss builds
# up gradually and the three players stay synchronized.
series = run_averaged(SimulationConfig(initial=W, scheme=PURE_A))
print("round  <x1>      <x2>      <x3>      average")
for t in range(0, 17, 2):
    p = series.per_player[t]
    print(f"{t:5d}  {p[0]:+.5f}  {p[1]:+.5f}  {p[2]:+.5f}  {series.average_gain[t]:+.5f}")

spread = np.max(series.per_player, axis=1) - np.min(series.per_player, axis=1)
print(f"\nplayer symmetry: max spread across players = {spread.max():.2e}")
