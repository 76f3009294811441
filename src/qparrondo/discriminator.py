"""Classify an unknown three-coin state as GHZ-like or W-like.

The fair game is a fair test: run the unconditional fair-coin game for a
number of rounds and sum the three expected positions. A GHZ-class input
keeps the summed payoff at zero while a W-class input drives it negative,
so classical addition of the measured payoffs separates the two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coins import W, coin_unitary, initial_coin_state
from .engine import _check_memory
from .state import init_walker_state


@dataclass(frozen=True)
class DiscriminationResult:
    label: str  # "GHZ" | "W" | "Inconclusive"
    statistic: float
    threshold: float


def _planned_bytes(rounds: int) -> int:
    """Bytes a discrimination holds at most in either mode: a few hundred a
    round for its stacks of 2x2 operators and their FFTs, and 1 MiB more."""
    return (1 << 20) + 1024 * rounds


def _position_povm(coin: np.ndarray, rounds: int) -> np.ndarray:
    """M(n) = Phi(n)^dagger Phi(n) for n = 0..rounds, where Phi(n)[b, a] is
    the amplitude of coin b at step count n of a 1D walk from coin a.

    A round tosses, then advances |R>'s step count: at momentum k it takes
    sum_n Phi(n) e^{ikn} to S(k) coin times it, S(k) = diag(1, e^{ik}). On
    the T + 1 momenta 2 pi j / (T + 1), which alias no step count, Phi(n)
    is the FFT over j of (S(k) coin)^T, divided by T + 1."""
    size = rounds + 1
    s_k = np.ones((size, 2, 1), dtype=complex)
    s_k[:, 1, 0] = np.exp(2j * np.pi * np.arange(size) / size)
    phi = np.fft.fft(np.linalg.matrix_power(s_k * coin, rounds), axis=0) / size
    return phi.conj().transpose(0, 2, 1) @ phi


def _summed_payoff(coins: np.ndarray, x_moments: np.ndarray) -> float:
    """sum_i Tr[rho_i X_T] for the coin amplitudes ``coins[a1, a2, a3]``."""
    marginals = (np.moveaxis(coins, i, 0).reshape(2, 4) for i in range(3))
    return float(sum(np.trace(q @ q.conj().T @ x_moments).real for q in marginals))


def discriminate(
    coin_state: np.ndarray,
    rounds: int = 16,
    mode: str = "expectation",
    shots: int | None = None,
    rng: np.random.Generator | None = None,
) -> DiscriminationResult:
    """Label a coin state from its summed fair-game payoff.

    Game A tosses and shifts each axis by its own coin, so the walk is a
    product of three 1D walks. Walking one from |L> and from |R> for T
    rounds gives the 2x2 operators M(n) on a player's starting coin whose
    expectation is the probability of step count n, position 2n - T.
    Expectation mode returns s = sum_i <x_i> = sum_i Tr[rho_i X_T] with
    X_T = sum_n (2n - T) M(n): a function of the single-qubit marginals rho_i
    only, I/2 for GHZ and diag(2/3, 1/3) in the (|L>, |R>) basis for W. A
    maximally mixed coin does not drift (Tr X_T = 0), so GHZ scores zero to
    rounding and W scores X_T[L, L]. That score, and so the threshold, depends
    on the coin (one that always flips scores 0 or +1), so the game is fixed
    to the fair coin, where X_T[L, L] < 0 from T = 3 on; at 1 or 2 rounds it
    is 0 and rounding would decide the label, so ``rounds`` must be at least 3.

    Sampled mode computes the exact distribution of S = n1 + n2 + n3,
    P(S) = sum over n1 + n2 + n3 = S of <psi|M(n1) (x) M(n2) (x) M(n3)|psi>,
    on the Fourier grid of its 3T + 1 values, draws the counts of
    ``shots`` coordinate sums from one multinomial and returns their mean
    sum_S count_S (2S - 3T) / shots. That is distributed as the mean of
    ``shots`` independent draws, in time and memory free of ``shots``.
    A seeded sampled result repeats only on the same numpy and BLAS build:
    numpy's multinomial consumes a number of uniforms that depends on the
    probabilities it is given, so a last-bit change in P(S) can change
    every draw after it.

    The threshold is half the magnitude of the true W state's statistic;
    the label is GHZ for |s| <= threshold, W for s < -threshold, else
    Inconclusive, meaningful only for inputs promised to be GHZ or W. A
    ``rounds`` whose arrays would exceed physical memory is refused first.
    """
    if mode not in ("expectation", "sampled"):
        raise ValueError(f"mode must be 'expectation' or 'sampled', got {mode!r}")
    if mode == "sampled" and (shots is None or not 1 <= shots <= np.iinfo(np.int64).max):
        raise ValueError(f"sampled mode requires shots >= 1 and < 2**63, got {shots}")
    if rounds < 3:
        raise ValueError(f"rounds must be >= 3 to tell W from GHZ, got {rounds}")
    _check_memory(_planned_bytes(rounds), f"the discriminator's arrays of rounds {rounds}")
    coins = init_walker_state(coin_state).reshape(2, 2, 2)  # validates coin_state
    povm = _position_povm(coin_unitary(0.5), rounds)
    x_moments = np.tensordot(2 * np.arange(rounds + 1) - rounds, povm, axes=1)
    statistic = _summed_payoff(coins, x_moments)
    threshold = abs(_summed_payoff(initial_coin_state(W).reshape(2, 2, 2), x_moments)) / 2.0
    if mode == "sampled":
        size = 3 * rounds + 1
        m_hat = np.fft.fft(povm, n=size, axis=0)
        p_hat = np.einsum("def,kda,keb,kfc,abc->k", coins.conj(), m_hat, m_hat, m_hat, coins)
        # the inverse transform leaves rounding-level negative probabilities
        probs = np.clip(np.fft.ifft(p_hat).real, 0.0, None)
        if rng is None:
            rng = np.random.default_rng(0)
        counts = rng.multinomial(shots, probs / probs.sum())
        sums = 2.0 * np.arange(size) - 3 * rounds  # float, so no count product overflows int64
        statistic = float(counts @ sums) / shots

    label = "GHZ" if abs(statistic) <= threshold else "W" if statistic < 0 else "Inconclusive"
    return DiscriminationResult(label=label, statistic=statistic, threshold=threshold)
