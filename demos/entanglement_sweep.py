"""
From no entanglement to the GHZ class
=====================================

The initial coin state J(omega)|LLL> interpolates between the bare |LLL>
state at omega = 0 and a maximally entangled GHZ-class state at
omega = pi/2. Both pure games lose along the way; at maximal entanglement
the unconditional game turns exactly fair and the alternating block game
[2,2] turns winning while game B still loses.

Run: python demos/entanglement_sweep.py
"""
import math

from qparrondo import (
    GHZ,
    PURE_A,
    PURE_B,
    RANDOM_MIX,
    SimulationConfig,
    periodic,
    sweep_entanglement,
)


def signed(gain: float) -> str:
    """The gain to four decimals; one that rounds to zero prints +0.0000
    whatever the sign of its rounding noise (adding 0.0 turns -0.0 into 0.0)."""
    return f"{round(gain, 4) + 0.0:+.4f}"


# rho4 > 0.5 makes game B losing for GHZ-class coins, the regime where
# alternation pays off
base = SimulationConfig(
    initial=GHZ,
    scheme=PURE_A,
    rho4=0.9,
    seed=0,
    runs=10,
)
omegas = [k * math.pi / 10 for k in range(6)]
records = sweep_entanglement(base, omegas, schemes=(PURE_A, PURE_B, periodic(2, 2), RANDOM_MIX))

print("omega      A        B        [2,2]    A+B      paradox")
by_value = {}
for r in records:
    by_value.setdefault(r.value, {})[r.scheme] = r
for omega in omegas:
    row = by_value[omega]
    flags = [label for label, r in row.items() if r.paradox]
    print(
        f"{omega:.4f}  {signed(row['a'].gain)}  {signed(row['b'].gain)}  "
        f"{signed(row['periodic:2,2'].gain)}  {signed(row['mix'].gain)}  "
        f"{','.join(flags) if flags else '-'}"
    )

print(
    "\nAt omega = pi/2 game A is fair to machine precision and the [2,2]"
    "\nblock wins although neither pure game does."
)
