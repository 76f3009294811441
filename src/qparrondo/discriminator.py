"""Classify an unknown three-coin state as GHZ-like or W-like.

The fair game is a fair test: run the unconditional fair-coin game for a
number of rounds and sum the three expected positions. A GHZ-class input
keeps the summed payoff at zero while a W-class input drives it negative,
so classical addition of the measured payoffs separates the two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import W, initial_coin_state
from .engine import PURE_A, SimulationConfig, _walk, schedule_mask
from .observables import position_distribution
from .state import WalkerState


@dataclass(frozen=True)
class DiscriminationResult:
    label: str  # "GHZ" | "W" | "Inconclusive"
    statistic: float
    threshold: float


def _final_state(
    coin_state: np.ndarray, config: SimulationConfig, per_player=None
) -> WalkerState:
    return _walk(coin_state, schedule_mask(config.scheme, config.rounds, None), config, per_player)


def discriminate(
    coin_state: np.ndarray,
    rounds: int = 16,
    mode: str = "expectation",
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> DiscriminationResult:
    """Label a coin state from its summed fair-game payoff.

    Game A tosses each coin on its own and shifts each axis by its own
    coin, so the expectation statistic is s = sum_i <x_i> = sum_i Tr[rho_i X_T],
    a function of the single-qubit coin marginals rho_i only: I/2 for GHZ
    and diag(2/3, 1/3) in the (|L>, |R>) basis for W. Here X_T is the 2x2
    matrix of T-round position moments of one walk started from |L> and
    |R>; a maximally mixed coin does not drift, so Tr X_T = 0, GHZ scores
    exactly 0 and W scores X_T[L, L]. That W score, and with it the
    threshold, depends on the coin (a coin that always flips scores 0 or
    +1), so the game is fixed to the fair coin, where X_T[L, L] < 0 from
    T = 3 on, rather than taking the coin as a parameter.

    Expectation mode computes s = sum_i <x_i> exactly; sampled mode draws
    ``shots`` position triples from the final joint distribution and
    averages their coordinate sums. The threshold is half the magnitude
    of the true W state's statistic at the same round count, and the
    label is GHZ for |s| <= threshold, W for s < -threshold, else
    Inconclusive. Meaningful only for inputs promised to be GHZ or W.
    """
    if mode not in ("expectation", "sampled"):
        raise ValueError(f"mode must be 'expectation' or 'sampled', got {mode!r}")
    if mode == "sampled" and (shots is None or shots < 1):
        raise ValueError(f"sampled mode requires shots >= 1, got {shots}")
    # the fair game A every round, with the W state as the reference input;
    # the config also bounds ``rounds`` by the memory its states need
    config = SimulationConfig(initial=W, scheme=PURE_A, rounds=rounds)
    # per-round payoffs of the input (row 0) and of the reference W state
    payoffs = np.zeros((2, rounds + 1, 3))
    state = _final_state(coin_state, config, payoffs[0])  # validates coin_state
    _final_state(initial_coin_state(W), config, payoffs[1])
    statistic, reference = (float(s) for s in payoffs[:, -1].sum(axis=1))
    threshold = abs(reference) / 2.0

    if mode == "sampled":
        probs = position_distribution(state).reshape(-1)
        probs = probs / probs.sum()
        if rng is None:
            rng = np.random.default_rng(0)
        coords = state.coordinates
        n = len(coords)
        draws = rng.choice(n**3, size=shots, p=probs)
        n1, n2, n3 = np.unravel_index(draws, (n, n, n))
        statistic = float(np.mean(coords[n1] + coords[n2] + coords[n3]))

    if abs(statistic) <= threshold:
        label = "GHZ"
    elif statistic < -threshold:
        label = "W"
    else:
        label = "Inconclusive"
    return DiscriminationResult(label=label, statistic=statistic, threshold=threshold)
