"""Game schedules and the round-by-round walk engine.

One round applies player 1's coin toss, then player 2's, then player 3's,
then the joint position update. Game A tosses every coin with the same
unconditional unitary; game B tosses each coin with the branch unitary
selected by the live coin states of its ring neighbors.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coins import (
    CoinParams,
    GameBParams,
    InitialCoin,
    coin_unitary,
    initial_coin_state,
)
from .observables import PayoffSeries, coin_weights
from .state import (
    COIN_BITS,
    _apply_coin_register_op,
    apply_position_update,
    controlled_coin_operator,
    init_walker_state,
)


@dataclass(frozen=True)
class GameScheme:
    """Game selection per round: pure A, pure B, a random per-round mix,
    or the repeating block A^m B^n."""

    kind: str  # "a" | "b" | "mix" | "periodic"
    m: int = 1
    n: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("a", "b", "mix", "periodic"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "periodic" and (self.m < 1 or self.n < 1):
            raise ValueError(f"periodic block lengths must be >= 1, got ({self.m},{self.n})")

    @property
    def label(self) -> str:
        if self.kind == "periodic":
            return f"periodic:{self.m},{self.n}"
        return self.kind

    @property
    def is_random(self) -> bool:
        return self.kind == "mix"


PURE_A = GameScheme("a")
PURE_B = GameScheme("b")
RANDOM_MIX = GameScheme("mix")


def periodic(m: int, n: int) -> GameScheme:
    return GameScheme("periodic", m, n)


def parse_scheme(text: str) -> GameScheme:
    """Parse "a", "b", "mix" or "periodic:M,N"."""
    if text in ("a", "b", "mix"):
        return GameScheme(text)
    if text.startswith("periodic:"):
        try:
            m, n = (int(part) for part in text[len("periodic:"):].split(","))
        except ValueError as exc:
            raise ValueError(f"scheme {text!r} is not of the form periodic:M,N") from exc
        return periodic(m, n)
    raise ValueError(f"unknown scheme {text!r}")


def _physical_memory_bytes() -> int:
    """Physical memory of the machine: the bound for sizes checked up front."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass(frozen=True)
class SimulationConfig:
    initial: InitialCoin
    scheme: GameScheme
    rounds: int = 16
    coin_a: CoinParams = field(default_factory=lambda: CoinParams(0.5))
    game_b: GameBParams = field(default_factory=GameBParams.from_rhos)
    seed: int = 0
    runs: int = 10

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        # a state after t rounds holds 8 (t+1)^3 complex128 amplitudes, and a
        # walk holds two of them: the toss output and the state
        need = 2 * 8 * (self.rounds + 1) ** 3 * 16
        what = f"rounds {self.rounds} needs"
        if self.scheme.is_random:
            # run_averaged keeps every run's (rounds+1, 3) payoffs and
            # (rounds+1) gains, float64
            need += self.runs * (self.rounds + 1) * 4 * 8
            what = f"runs {self.runs} of {self.rounds} rounds need"
        physical = _physical_memory_bytes()
        if need > physical:
            raise ValueError(
                f"{what} {need / 2**30:.3g} GiB of walker state and payoffs, "
                f"more than the {physical / 2**30:.3g} GiB of physical memory"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the walk plays in the frame of coin_a's phi (see _walk), which adds
        # it to every game B theta and subtracts it from every game B phi
        phase = self.coin_a.phi
        for name in ("ww", "wl", "lw", "ll"):
            coin = getattr(self.game_b, name)
            if not (math.isfinite(coin.theta + phase) and math.isfinite(coin.phi - phase)):
                raise ValueError(
                    f"game_b.{name} phases (theta={coin.theta}, phi={coin.phi}) are not "
                    f"finite once shifted by coin_a's phi={phase}"
                )
        # the frame's phases are multiples of that phi by up to 3, the number
        # of |R> coins
        if not math.isfinite(3 * phase):
            raise ValueError(
                f"coin_a's phi={phase} is too large for the walk's frame, which "
                f"multiplies it by up to 3"
            )


def schedule_mask(
    scheme: GameScheme, rounds: int, rng: np.random.Generator | None
) -> np.ndarray:
    """Boolean schedule of length ``rounds``: True where the round plays B.

    Periodic schedules repeat A^m B^n starting with A; the random mix
    draws each round independently with probability 1/2 from ``rng``,
    which the fixed schemes never touch.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if scheme.kind == "a":
        return np.zeros(rounds, dtype=bool)
    if scheme.kind == "b":
        return np.ones(rounds, dtype=bool)
    if scheme.kind == "periodic":
        # blocks longer than the schedule change no entry of it, and capped
        # they fit numpy's integers
        period = min(scheme.m + scheme.n, rounds)
        return np.arange(rounds) % period >= min(scheme.m, rounds)
    return rng.integers(0, 2, size=rounds) == 1


# row c: the step (+1 for |R>, -1 for |L>) that coin component c moves each axis
_STEP_SIGNS = 2.0 * np.array(COIN_BITS) - 1.0
# number of |R> coins in component c
_R_COUNTS = np.array(COIN_BITS).sum(axis=1)


def _framed(coin: CoinParams, phase: float) -> CoinParams:
    """The coin whose unitary is P(phase)^dagger U P(phase), with
    P(a) = diag(1, e^{ia}) and U = P(phi) H_rho P(theta)."""
    return CoinParams(coin.rho, coin.theta + phase, coin.phi - phase)


# An operator that is real in exact arithmetic still carries rounding in its
# imaginary part: a coin at theta + phi = pi has e^{i pi} = -1 + 1.2e-16i, and
# three composed tosses add such terms. Anything within a few ulp of 1 (the
# scale of a unitary's entries) is that rounding, not a phase.
_REAL_TOL = 4 * np.finfo(float).eps


@lru_cache(maxsize=128)
def _round_operators(
    coin_a: CoinParams, game_b: GameBParams
) -> tuple[np.ndarray, np.ndarray]:
    """The composed 8x8 coin-register operators of one round of game A and
    of game B, in that order, in the frame of ``coin_a``'s phi that
    ``_walk`` plays in: the toss of player 1, then player 2, then player 3.

    An operator is float64 when its imaginary part is zero to rounding,
    so that the toss runs in real arithmetic, else complex128.
    """
    phase = coin_a.phi
    m = coin_unitary(_framed(coin_a, phase))
    branches = (game_b.ww, game_b.wl, game_b.lw, game_b.ll)
    mats = tuple(coin_unitary(_framed(coin, phase)) for coin in branches)
    operators = []
    for ops in (
        # the four neighbour projectors sum to the identity
        [controlled_coin_operator(player, m, m, m, m) for player in (1, 2, 3)],
        [controlled_coin_operator(player, *mats) for player in (1, 2, 3)],
    ):
        op = ops[2] @ ops[1] @ ops[0]
        if np.abs(op.imag).max() <= _REAL_TOL:
            op = np.ascontiguousarray(op.real)
        operators.append(op)
    return tuple(operators)


def _walk(
    coin_state: np.ndarray,
    mask: np.ndarray,
    config: SimulationConfig,
    per_player: np.ndarray,
) -> np.ndarray:
    """Play the schedule ``mask`` (True where a round plays B, as from
    ``schedule_mask``) from ``coin_state`` at the origin and return the
    final state in the frame chi below; row t of ``per_player``, shape
    (len(mask) + 1, 3), receives the expected positions after round t,
    accumulated from row 0.

    The walk owns two flat buffers of one final state's size: each round
    tosses the state into ``tossed``, then shifts the toss back into
    ``states``, the state's own buffer, which the toss has read in full by
    then. The final state is a view of ``states``.

    The rounds are played in the frame chi = D^dagger psi of the diagonal
    D = P(phi_a)^(x3), where phi_a is ``config.coin_a.phi``. Diagonal coin
    operators commute with the shift and with game B's neighbour
    projectors, so a round's operator in that frame is D^dagger op D: every
    coin's (theta, phi) becomes (theta + phi_a, phi - phi_a). When all coins
    share (theta, phi), as the CLI sets them, each framed coin is
    P(0) H_rho P(theta + phi), which is real where theta + phi is a
    multiple of pi (the default pi/2, pi/2 among them), so the toss runs in
    real arithmetic there. The walk starts from D^dagger psi0 and returns
    chi: callers after the true state psi = D chi multiply by D themselves.

    Round t moves axis i by +1 with the weight of the coin components whose
    bit i is |R> after the toss, and by -1 otherwise. The shift only moves
    sites within each coin component, so the weights are read off the
    contiguous toss output: <x_i>_t = <x_i>_{t-1} + sum_c w_c (2 b_i(c) - 1).
    D leaves every weight as it is.
    """
    ops = _round_operators(config.coin_a, config.game_b)
    tossed, states = np.empty((2, 8 * (len(mask) + 1) ** 3), dtype=complex)
    weights = np.empty((len(mask), 8))
    state = init_walker_state(coin_state)
    state *= np.exp(1j * config.coin_a.phi * _R_COUNTS).conj()[:, None, None, None]
    for t, plays_b in enumerate(mask.tolist()):
        toss = _apply_coin_register_op(state, ops[plays_b], tossed)
        weights[t] = coin_weights(toss)
        state = apply_position_update(toss, out=states)
    per_player[1:] = weights @ _STEP_SIGNS
    np.cumsum(per_player, axis=0, out=per_player)
    return state


def run_averaged(config: SimulationConfig) -> PayoffSeries:
    """Mean payoff series over ``config.runs`` independent runs.

    Run k draws its schedule from the seed key (seed, k), so any run is
    reproducible in isolation and the mean does not depend on execution
    order. A fixed schedule would repeat exactly in every run, so it is
    played once. Standard errors use the sample std across runs (zero for
    a single run or a fixed schedule).
    """
    runs = config.runs if config.scheme.is_random else 1
    coin_state = initial_coin_state(config.initial)
    # SimulationConfig's memory check counts this array and the gains
    per_player = np.zeros((runs, config.rounds + 1, 3))
    for k in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, k)))
        _walk(coin_state, schedule_mask(config.scheme, config.rounds, rng), config, per_player[k])
    gains = per_player.mean(axis=2)
    if runs > 1:
        stderr = gains.std(axis=0, ddof=1) / np.sqrt(runs)
    else:
        stderr = np.zeros(config.rounds + 1)
    return PayoffSeries(
        per_player=per_player.mean(axis=0), average_gain=gains.mean(axis=0), stderr=stderr
    )
