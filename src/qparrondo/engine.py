"""Game schedules and the round-by-round walk engine.

One round applies player 1's coin toss, then player 2's, then player 3's,
then the joint position update. Game A tosses every coin with the same
unconditional unitary; game B tosses each coin with the branch unitary
selected by the live coin states of its ring neighbors.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .coins import HALF_PI, InitialCoin, coin_unitary, initial_coin_state
from .observables import PayoffSeries
from .state import (
    COIN_BITS,
    _shift_views,
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


def _check_memory(need: int, what: str) -> None:
    """Refuse, before it starts, a run that plans to hold ``need`` bytes in
    ``what``, arrays named by the parameter that sizes them, if they exceed
    physical memory."""
    physical = _physical_memory_bytes()
    if need > physical:
        raise ValueError(
            f"{what} take {need / 2**30:.3g} GiB, more than the "
            f"{physical / 2**30:.3g} GiB of physical memory"
        )


@dataclass(frozen=True)
class SimulationConfig:
    """One walk's inputs, each named as its command-line flag.

    Every coin is U(rho, theta, phi) (``coins.coin_unitary``). Game A tosses
    every coin with ``rho0``. Game B tosses each coin with one of four
    neighbour-conditioned coins: ``rho1`` when both ring neighbours hold |R>
    (winner-winner), ``rho2`` when the predecessor holds |R> and the
    successor |L>, ``rho3`` for the reverse, and ``rho4`` when both hold |L>
    (loser-loser). All five coins share the phases (``theta``, phi); the
    walk absorbs phi into a site phase (``run_averaged``), so phi is no
    input. At the all-0.5 defaults every branch coin is game A's coin, so
    game B plays game A. Only the random mix reads ``seed`` and ``runs``.
    """

    initial: InitialCoin
    scheme: GameScheme
    rounds: int = 16
    rho0: float = 0.5
    rho1: float = 0.5
    rho2: float = 0.5
    rho3: float = 0.5
    rho4: float = 0.5
    theta: float = HALF_PI
    seed: int = 0
    runs: int = 10

    def __post_init__(self) -> None:
        for name in ("rho0", "rho1", "rho2", "rho3", "rho4"):
            rho = getattr(self, name)
            if not 0.0 <= rho <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {rho}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        need = _workspace_bytes(self.rounds, 2)  # one or two sources (run_averaged)
        what = f"rounds {self.rounds}"
        if self.scheme.is_random:
            # run_averaged keeps every run's (rounds+1, 3) payoffs and
            # (rounds+1) gains, float64
            need += self.runs * (self.rounds + 1) * 4 * 8
            what = f"runs {self.runs} of {self.rounds} rounds"
        _check_memory(need, f"the walker state, toss scratch, views and payoffs of {what}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def schedule_mask(
    scheme: GameScheme, rounds: int, rng: np.random.Generator | None
) -> np.ndarray:
    """Boolean schedule of length ``rounds``: True where the round plays B.

    Periodic schedules repeat A^m B^n starting with A; the random mix
    draws each round independently with probability 1/2 from ``rng``, as
    ``rng.integers(0, 2, size=rounds) == 1``. The fixed schemes never
    touch ``rng``.
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


@lru_cache(maxsize=128)
def _round_operators(
    rho0: float, rho1: float, rho2: float, rho3: float, rho4: float
) -> tuple[np.ndarray, np.ndarray]:
    """The composed real 8x8 coin-register operators of one round of game A,
    whose coins keep their state with probability ``rho0``, and of game B,
    whose branch coins take ``rho1`` .. ``rho4`` (see ``SimulationConfig``),
    in that order: the toss of player 1, then player 2, then player 3, each
    coin the real H_rho = U(rho, 0, 0) that ``_walk`` plays."""
    m = coin_unitary(rho0, 0.0, 0.0).real
    mats = [coin_unitary(rho, 0.0, 0.0).real for rho in (rho1, rho2, rho3, rho4)]
    operators = []
    for ops in (
        # the four neighbour projectors sum to the identity
        [controlled_coin_operator(player, m, m, m, m) for player in (1, 2, 3)],
        [controlled_coin_operator(player, *mats) for player in (1, 2, 3)],
    ):
        operators.append(ops[2] @ ops[1] @ ops[0])
    return tuple(operators)


# The sites one slab of a round spans: its toss output, 256 KiB per real
# source, is still in the L2 cache when the slab's coin weights and
# shifted copy read it back. A slab is a run of whole i-planes, one plane
# once a plane alone holds more sites; slabs of one plane each at every size
# ran slower in 16-round walks.
_SLAB_SITES = 4096


def _slab_planes(n: int) -> int:
    """The i-planes in each slab of a round whose state is (8, n, n, n)."""
    return max(1, _SLAB_SITES // n**2)


def _scratch_sites(rounds: int) -> int:
    """Sites the toss scratch of a walk of ``rounds`` rounds holds: a slab
    of round n - 1 spans at most min(n^3, max(_SLAB_SITES, n^2)) sites,
    which grows with n, so the last round's bound covers every round."""
    return min(rounds**3, max(_SLAB_SITES, rounds**2))


def _slab_count(rounds: int) -> int:
    """Slabs of all rounds of a walk of ``rounds`` rounds: round n - 1 has
    ceil(n / _slab_planes(n)), which is n once a plane holds _SLAB_SITES
    sites or more (n >= 64)."""
    small = min(rounds, 64)
    count = sum(-(-n // _slab_planes(n)) for n in range(1, small + 1))
    return count + (rounds * (rounds + 1) - small * (small + 1)) // 2


# Bytes that a walk's workspace keeps, beside its buffers, per slab and per
# round: a slab's row of the weight table and its views and their tuples,
# a round's faces, target and entry of ``starts``. Four more cover the
# workspace's own objects and what building them briefly holds. Traced
# with numpy 2.4 on CPython 3.11, a T=120 workspace kept 1.6 KB a slab,
# and building a one-round workspace peaked at 7.7 KB.
_VIEW_BYTES = 2048


@lru_cache(maxsize=256)
def _workspace_bytes(rounds: int, sources: int) -> int:
    """Bytes of the workspace of a walk of ``rounds`` rounds from
    ``sources`` real sources: the final state's 8 (rounds+1)^3 float64
    amplitudes per source, which every round is shifted within, the toss
    scratch of its largest slab, and the views of every round (_VIEW_BYTES).
    Cached: every config checks it, and a sweep builds thousands of configs
    of one length."""
    amplitudes = 8 * ((rounds + 1) ** 3 + _scratch_sites(rounds))
    return amplitudes * 8 * sources + (_slab_count(rounds) + rounds + 4) * _VIEW_BYTES


def _round_views(buffer, scratch, weights, n: int, sources: int) -> tuple:
    """Every view round t = n - 1 of a walk of ``sources`` real sources
    needs, over the flat float64 buffers ``buffer`` (the state: row c of its
    (8, -1) reshape holds coin component c, packed, (n, n, n, sources)
    before the round and (n+1, n+1, n+1, sources) after it) and ``scratch``
    (a slab's toss output): the shift's faces, and for each slab of
    ``_slab_planes(n)`` i-planes, from the top one down, the toss input and
    output, the (8, 1, w) and (8, w, 1) operands of its coin weights, its row
    of ``weights``, and the shift's target and source."""
    planes, run = _slab_planes(n), n * n * sources
    rows = buffer.reshape(8, -1)
    faces, target = _shift_views(buffer, n, rows.shape[1], sources)
    slabs = []
    for weight, i in zip(weights, range(0, n, planes)):
        j = min(i + planes, n)
        toss = scratch[: 8 * (j - i) * run].reshape(8, (j - i) * run)
        slabs.append((rows[:, i * run : j * run], toss, toss[:, None, :], toss[:, :, None], weight,
                      target[:, :, :, i:j], toss.reshape(2, 2, 2, j - i, n, n * sources)))
    return faces, slabs[::-1]


class _Workspace(threading.local):
    """One thread's walk buffers, kept between walks of T rounds from S real
    sources: one flat float64 buffer of 8 (T+1)^3 S amplitudes that holds
    the state, coin component c from entry c (T+1)^3 S on, the toss scratch
    of the walk's largest slab, the (slabs, 8, 1, 1) coin-weight table of
    all its rounds with the first slab of each round (``starts``), and the
    views of every round over them. A walk of another (T, S) replaces them."""

    shape, views = (), ()
    buffer = scratch = weights = starts = None

    def prepare(self, rounds: int, sources: int) -> list:
        if (rounds, sources) != self.shape:
            # drop the old buffers before allocating the new ones, so that
            # at most one state is live
            self.buffer = self.scratch = self.weights = self.starts = None
            self.views, self.shape = (), ()
            self.buffer = np.empty(8 * (rounds + 1) ** 3 * sources)
            self.scratch = np.empty(8 * _scratch_sites(rounds) * sources)
            counts = [-(-n // _slab_planes(n)) for n in range(1, rounds + 1)]
            self.starts = np.cumsum([0, *counts[:-1]])
            self.weights = np.empty((sum(counts), 8, 1, 1))
            self.views = [
                _round_views(self.buffer, self.scratch, self.weights[k : k + count], t + 1, sources)
                for t, (k, count) in enumerate(zip(self.starts, counts))
            ]
            self.shape = (rounds, sources)
        return self.views


_WORKSPACE = _Workspace()


def _walk(sources: np.ndarray, ops: tuple, mask: np.ndarray, per_player: np.ndarray) -> np.ndarray:
    """Play the schedule ``mask`` (True where a round plays B, as from
    ``schedule_mask``) from the S real walks whose (8, S) coin amplitudes
    ``sources`` sit at the origin, each round tossed by the real 8x8
    ``ops[0]`` (A) or ``ops[1]`` (B), as ``_round_operators`` returns them,
    and return the final state, shape (8, n, n, n, S); row t of
    ``per_player``, shape (len(mask) + 1, 3), receives the expected
    positions after round t, summed over the sources and accumulated from
    row 0. A complex start s plays as the sources (Re s, Im s).

    The walk runs in its thread's ``_Workspace``, the sources innermost.
    Each round shifts the state within it slab by slab, from the top i-plane
    down, each slab a run of whole i-planes of about ``_SLAB_SITES`` sites:
    the slab's contiguous floats are tossed into a small scratch by one GEMM,
    the dot products of its coin weights go into its own row of the weight
    table, and it is copied to its shifted place while the scratch is still
    in cache. The shift moves the S floats at entry i n^2 + j n + k of a
    component to (i + b1)(n+1)^2 + (j + b2)(n+1) + k + b3, no lower, so a
    copy lands on planes already read. The copies and the face fills after
    them write every amplitude of the next state, so nothing of an earlier
    walk survives. The final state fills the buffer and is a view of it,
    valid until the thread's next walk: a caller that keeps it copies it.

    Round t moves axis i by +1 with the weight of the coin components whose
    bit i is |R> after the toss, and by -1 otherwise. The shift only moves
    sites within each coin component, so the weights are read off the
    contiguous toss output, one dot product per component and slab, and
    summed over a round's slabs after the walk:
    <x_i>_t = <x_i>_{t-1} + sum_c w_c (2 b_i(c) - 1).
    """
    views = _WORKSPACE.prepare(len(mask), sources.shape[1])
    _WORKSPACE.buffer.reshape(8, -1)[:, : sources.shape[1]] = sources
    for (faces, slabs), plays_b in zip(views, mask.tolist()):
        op = ops[plays_b]
        for state, toss, rows, columns, weight, target, source in slabs:
            np.matmul(op, state, out=toss)
            np.matmul(rows, columns, out=weight)
            np.copyto(target, source)
        for face in faces:
            face.fill(0)
    weights = np.add.reduceat(_WORKSPACE.weights.reshape(-1, 8), _WORKSPACE.starts, axis=0)
    per_player[1:] = weights @ _STEP_SIGNS
    np.cumsum(per_player, axis=0, out=per_player)
    return _WORKSPACE.buffer.reshape(8, *[len(mask) + 1] * 3, sources.shape[1])


def run_averaged(config: SimulationConfig) -> PayoffSeries:
    """Mean payoff series over ``config.runs`` independent runs.

    Run k draws its schedule from the seed key (seed, k), so any run is
    reproducible in isolation and the mean does not depend on execution
    order. A fixed schedule would repeat exactly in every run, so it is
    played once. Standard errors use the sample std across runs (zero for
    a single run or a fixed schedule).
    """
    runs = config.runs if config.scheme.is_random else 1
    # The walk's gauge. All five coins share (theta, phi): U = P(phi) H_rho
    # P(theta), with P(a) = diag(1, e^{ia}) and the real H_rho. D(a) =
    # P(a)^(x3) multiplies coin component c by e^{ia r(c)}, r(c) its number of
    # |R> coins. Diagonal coin operators commute with game B's neighbour
    # projectors, so a round tosses D(phi) R D(theta), R composed of the H_rho
    # alone, and D(a) before the shift is the site phase e^{ia (n1 + n2 + n3)}
    # after it. So each round's D(phi) and the next round's D(theta) become a
    # site phase that no later toss or weight reads (the phase absorption of
    # Chandrashekar, Srikanth & Laflamme, PRA 77, 032326 (2008)): the walk
    # starts from D(theta) psi0, tosses the real R and returns chi, and the
    # true state is psi = e^{-i theta r(c)} (e^{i theta} e^{i phi})^(n1 + n2 +
    # n3) chi, with the same weights. Only unit phases are multiplied, so no
    # finite phase overflows, and phi is no input.
    start = init_walker_state(initial_coin_state(config.initial)).reshape(8)
    start *= np.exp(1j * config.theta) ** _R_COUNTS
    # A start s with |s.s| = 1 (W's misses by 2.2e-16) is e^{ia} r, r real,
    # as W at every theta and J(omega) at theta = pi/2 are: it plays the one
    # source r = Re(e^{-ia} s), else (Re s, Im s). With e^{-ia} s = r + iq,
    # r.q = 0, |q|^2 = (1 - |s.s|) / 2; a payoff sums the sources' own, each
    # moved a round by at most its weight, so dropping q moves any payoff by
    # at most rounds x tol (tol = 1e-15), 1.6e-14 at 16 rounds.
    square = start @ start
    if abs(square) >= 1 - 1e-15:
        sources = (start / np.sqrt(square / abs(square))).real[:, None]
    else:
        sources = np.array([start.real, start.imag]).T
    ops = _round_operators(config.rho0, config.rho1, config.rho2, config.rho3, config.rho4)
    # SimulationConfig's memory check counts this array and the gains
    per_player = np.zeros((runs, config.rounds + 1, 3))
    for k in range(runs):
        # a fixed schedule draws nothing, so it builds no generator (and
        # never imports numpy.random)
        rng = (np.random.default_rng(np.random.SeedSequence((config.seed, k)))
               if config.scheme.is_random else None)
        _walk(sources, ops, schedule_mask(config.scheme, config.rounds, rng), per_player[k])
    gains = per_player.mean(axis=2)
    if runs > 1:
        stderr = gains.std(axis=0, ddof=1) / np.sqrt(runs)
    else:
        stderr = np.zeros(config.rounds + 1)
    return PayoffSeries(
        per_player=per_player.mean(axis=0), average_gain=gains.mean(axis=0), stderr=stderr
    )
