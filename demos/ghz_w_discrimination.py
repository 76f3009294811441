"""
Telling GHZ from W with payoffs
===============================

The two three-qubit entanglement classes react differently to the fair
game: GHZ keeps the summed payoff at zero, W drives it negative. Running
the fair game and adding the three measured payoffs therefore classifies
an unknown coin state without tomography.

Run: python demos/ghz_w_discrimination.py
"""
import numpy as np

from qparrondo import GHZ, W, discriminate, initial_coin_state

# idealized: exact expectations of the three payoffs
for name, state in [("GHZ", GHZ), ("W", W)]:
    result = discriminate(initial_coin_state(state), rounds=16)
    print(
        f"{name:>3} input, expectation mode: label={result.label:12s} "
        f"statistic={result.statistic:+.6f}  threshold={result.threshold:.4f}"
    )

print()

# finite-shot version: sample the coordinate sum of the final state and
# average it over the shots, as a measured payoff register would
rng = np.random.default_rng(11)
for shots in (100, 10_000, 100_000):
    result = discriminate(
        initial_coin_state(W), rounds=16, mode="sampled", shots=shots, rng=rng
    )
    print(
        f"  W input, {shots:>6d} shots: label={result.label:12s} "
        f"statistic={result.statistic:+.4f}"
    )

print()

# a phase on the input changes nothing: the statistic is phase-blind
phased = np.exp(0.9j) * initial_coin_state(GHZ)
result = discriminate(phased, rounds=16)
print(f"phased GHZ input: label={result.label} statistic={result.statistic:+.2e}")
