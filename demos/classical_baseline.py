"""
Classical baseline
==================

The original single-player pair: game A is a slightly biased coin, game B
picks between two coins by whether the capital is a multiple of 3. Both
games lose on their own, yet alternating them randomly wins.

run_classical computes these series exactly, from the Markov chain over
the capital mod 3: the mean gain after each round and the standard error
of a mean over ``trials`` trials. Nothing is drawn, so the seed is unread.
The stationary distribution of the same chain under game B predicts its
drift per round, which the exact finite-time gain approaches.

The cooperative variant conditions each player's game-B coin on whether
the two ring neighbors won their last game. Its chain runs over the ring's
winner flags and is exact up to 7 players; larger rings run Monte Carlo.

Run: python demos/classical_baseline.py
"""
import numpy as np

from qparrondo import (
    PURE_A,
    PURE_B,
    RANDOM_MIX,
    CooperativeParams,
    OriginalParams,
    run_classical,
)

rounds, trials = 10_000, 1000
params = OriginalParams(epsilon=0.005)

print(f"original games, {trials} trials x {rounds} rounds:")
for label, scheme in [("A", PURE_A), ("B", PURE_B), ("A+B", RANDOM_MIX)]:
    series = run_classical(params, scheme, rounds=rounds, trials=trials, seed=0)
    print(
        f"  {label:>3}: final gain {series.final_gain:+8.1f} "
        f"(stderr {series.final_stderr:.1f})"
    )

# drift oracle: stationary distribution of the capital mod 3 under game B
q = np.array([params.win_b1, params.win_b2, params.win_b2])
transition = np.zeros((3, 3))
for s in range(3):
    transition[s, (s + 1) % 3] = q[s]
    transition[s, (s - 1) % 3] = 1 - q[s]
pi = np.linalg.solve(
    np.vstack([transition.T - np.eye(3), np.ones(3)])[1:], np.array([0.0, 0.0, 1.0])
)
drift = float(pi @ (2 * q - 1))
print(f"\nmod-3 chain: stationary {np.round(pi, 4)}, drift {drift:+.6f} per round")
print(f"predicted game-B gain after {rounds} rounds: {drift * rounds:+.1f}")

print("\ncooperative variant (3 players on a ring):")
coop = CooperativeParams(pa=0.5, p1=0.3, p2=0.5, p3=0.5, p4=0.8)
for label, scheme in [("A", PURE_A), ("B", PURE_B), ("A+B", RANDOM_MIX)]:
    series = run_classical(coop, scheme, rounds=2000, trials=500, seed=0)
    print(
        f"  {label:>3}: final gain {series.final_gain:+8.2f} "
        f"(stderr {series.final_stderr:.2f})"
    )
