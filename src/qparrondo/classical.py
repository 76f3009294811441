"""Monte Carlo baselines: the original capital-dependent Parrondo pair and
the cooperative neighbor-conditioned variant on a ring of players.

Trial k of a run draws every random number from a generator seeded by the
key (seed, k), so any single trajectory is reproducible in isolation and
aggregate results do not depend on execution order or chunking. Within a
trial the stream is consumed in a fixed order:

1. the initial winner flags, ``random(n_players) < 1/2`` (cooperative game
   with random flags only);
2. the schedule, ``integers(0, 2, size=rounds)`` with 1 meaning game B
   (random mix only);
3. one win uniform per play, ``random((rounds, n_players))``, row t holding
   the players of round t in index order (one column for the original game).

A play wins when its uniform u is below the win probability p of its game
and branch. The distinct win probabilities of a parameter set (at most
five), sorted, are the thresholds; each uniform is stored in one byte as its
rank, the number of thresholds <= u. With k(p) the rank of p itself,
u < p holds exactly when rank(u) < k(p), ties included, so the ranks replay
the float decisions exactly. The round loop advances all trials of a chunk
at once and looks each play's bound k up in a table indexed by the game and
by the neighbors' winner flags (cooperative) or by the capital mod 3
(original). The per-round sums over trials of the capital and of its square
are exact integers formed after the loop. A run whose single trial cannot
fit in physical memory is refused before anything is drawn.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import GameScheme, _physical_memory_bytes, schedule_mask

# Bytes of per-trial state that one chunk of trials may hold: each trial
# keeps ``rounds * (players + 1 + w)`` bytes of draw ranks, schedule and
# winner counts of w bytes each.
_CHUNK_BYTES = 1 << 26
# Rounds whose standard errors are formed together from Python integers,
# so those objects take a bounded few MB however long the run.
_STAT_ROWS = 1 << 16


@dataclass(frozen=True)
class OriginalParams:
    """Single-player capital-dependent pair of games.

    Game A wins with probability ``p`` (default 1/2 - epsilon). Game B
    uses coin B1 with win probability ``p1`` when the capital is a
    multiple of 3 and coin B2 with probability ``p2`` otherwise; the
    defaults are 1/10 - epsilon and 3/4 - epsilon.
    """

    epsilon: float = 0.005
    p: float | None = None
    p1: float | None = None
    p2: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be a finite number >= 0, got {self.epsilon}")
        for name, given, value in (
            ("p", self.p, self.win_a), ("p1", self.p1, self.win_b1), ("p2", self.p2, self.win_b2)
        ):
            if 0.0 <= value <= 1.0:
                continue
            if given is None:
                raise ValueError(
                    f"epsilon {self.epsilon} sets the default {name} to {value:.6g}, "
                    "outside [0, 1]"
                )
            raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @property
    def win_a(self) -> float:
        return 0.5 - self.epsilon if self.p is None else self.p

    @property
    def win_b1(self) -> float:
        return 0.1 - self.epsilon if self.p1 is None else self.p1

    @property
    def win_b2(self) -> float:
        return 0.75 - self.epsilon if self.p2 is None else self.p2


@dataclass(frozen=True)
class CooperativeParams:
    """Ring of players whose game-B win probability depends on whether the
    two neighbors won their last game.

    ``p1`` applies when both neighbors are winners, ``p2`` when the
    predecessor won and the successor lost, ``p3`` for the reverse and
    ``p4`` when both lost. No defaults: the branch probabilities are
    required inputs.
    """

    pa: float
    p1: float
    p2: float
    p3: float
    p4: float
    n_players: int = 3
    update_order: str = "sequential"  # or "synchronous"
    initial_flags: str = "random"  # "random" | "winners" | "losers"

    def __post_init__(self) -> None:
        if self.n_players < 3:
            raise ValueError(f"n_players must be >= 3, got {self.n_players}")
        for name in ("pa", "p1", "p2", "p3", "p4"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.update_order not in ("sequential", "synchronous"):
            raise ValueError(f"unknown update_order {self.update_order!r}")
        if self.initial_flags not in ("random", "winners", "losers"):
            raise ValueError(f"unknown initial_flags {self.initial_flags!r}")


@dataclass
class ClassicalSeries:
    """Per-round mean average capital gain over trials, with standard errors."""

    mean_gain: np.ndarray  # (rounds + 1,)
    stderr: np.ndarray  # (rounds + 1,)

    @property
    def rounds(self) -> int:
        return len(self.mean_gain) - 1

    @property
    def final_gain(self) -> float:
        return float(self.mean_gain[-1])

    @property
    def final_stderr(self) -> float:
        return float(self.stderr[-1])


def _win_table(params: OriginalParams | CooperativeParams) -> np.ndarray:
    """Win probability by game (row 0: A, row 1: B) and branch: column
    2 * prev_won + next_won (cooperative) or capital mod 3 (original)."""
    if isinstance(params, CooperativeParams):
        pa = params.pa
        return np.array([[pa, pa, pa, pa], [params.p4, params.p3, params.p2, params.p1]])
    a = params.win_a
    return np.array([[a, a, a], [params.win_b1, params.win_b2, params.win_b2]])


def _check_trial_size(rounds: int, n: int) -> None:
    """One trial must fit in physical memory. Per round it holds its float
    draws with their comparison and rank temporaries and its stored ranks
    (11n bytes), and under 40 bytes of schedule with its int64 draw,
    winner counts and the run's statistics (int64 capital sums, the two
    int64 words of the squared sums, float mean and standard error). The
    blocks in which the statistics are formed take at most _CHUNK_BYTES.
    Its squared capital must fit in int64."""
    need = rounds * (11 * n + 40) + _CHUNK_BYTES
    physical = _physical_memory_bytes()
    if need > physical:
        raise ValueError(
            f"rounds {rounds} needs {need / 2**30:.3g} GiB per trial "
            f"at {n} per round, more than the {physical / 2**30:.3g} GiB of "
            f"physical memory"
        )
    if (n * rounds) ** 2 >= 2**63:
        raise ValueError(f"rounds {rounds} for {n} players overflows the int64 capital sums")


def _replay_streams(
    params: OriginalParams | CooperativeParams,
    scheme: GameScheme,
    rounds: int,
    seed: int,
    trial_indices: range,
    thresholds: np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw the streams of one chunk of trials, trial by trial.

    Returns the draw ranks ``(rounds, trials, n)``, the game offsets
    ``width * in_b`` (``(rounds, trials)`` for the random mix, drawn per
    trial; ``(rounds, 1)`` for a fixed scheme) and the initial winner flags
    ``(n, trials)``, all uint8.
    """
    cooperative = isinstance(params, CooperativeParams)
    n = params.n_players if cooperative else 1
    m = len(trial_indices)
    ranks = np.empty((rounds, m, n), dtype=np.uint8)
    flags = np.zeros((n, m), dtype=np.uint8)
    if cooperative and params.initial_flags == "winners":
        flags[:] = 1
    if scheme.is_random:
        in_b = np.empty((rounds, m), dtype=bool)
    else:
        in_b = schedule_mask(scheme, rounds, None)[:, None]
    uniforms = np.empty((rounds, n))
    rank = np.empty((rounds, n), dtype=np.uint8)
    for col, k in enumerate(trial_indices):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        if cooperative and params.initial_flags == "random":
            flags[:, col] = rng.random(n) < 0.5
        if scheme.is_random:
            in_b[:, col] = schedule_mask(scheme, rounds, rng)
        rng.random(out=uniforms)
        np.greater_equal(uniforms, thresholds[0], out=rank)
        for threshold in thresholds[1:]:
            rank += uniforms >= threshold
        ranks[:, col] = rank
    return ranks, np.uint8(width) * in_b, flags


def _play_cooperative(
    params: CooperativeParams, ranks: np.ndarray, games: np.ndarray,
    flags: np.ndarray, bound: np.ndarray,
) -> np.ndarray:
    """Winners per round and trial, ``(rounds, trials)``, in the smallest
    unsigned type that holds ``n_players``."""
    rounds, m, n = ranks.shape
    wins = np.empty((rounds, m), dtype=np.min_scalar_type(n))
    sequential = params.update_order == "sequential"
    for t in range(rounds):
        source = flags if sequential else flags.copy()
        rank, game = ranks[t], games[t]
        for i in range(n):
            index = game + 2 * source[i - 1] + source[(i + 1) % n]
            np.less(rank[:, i], bound[index], out=flags[i])
        np.sum(flags, axis=0, dtype=wins.dtype, out=wins[t])
    return wins


def _play_original(ranks: np.ndarray, games: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Wins (0/1) per round and trial, ``(rounds, trials)`` uint8."""
    rounds, m, _ = ranks.shape
    wins = np.empty((rounds, m), dtype=np.uint8)
    # capital mod 3 after a loss (won = 0) or a win (won = 1)
    step = np.array([2, 1, 0, 2, 1, 0], dtype=np.uint8)
    mod3 = np.zeros(m, dtype=np.uint8)
    for t in range(rounds):
        won = ranks[t, :, 0] < bound[games[t] + mod3]
        mod3 = step[2 * mod3 + won]
        wins[t] = won
    return wins


def _add_capital_sums(
    wins: np.ndarray, n: int, sums: np.ndarray, high: np.ndarray, low: np.ndarray
) -> None:
    """Add, per round, the sum over trials of the player-summed capital to
    ``sums`` and the sum of its square, split at bit 32, to ``high`` and
    ``low``. All int64 and exact: a chunk adds less than 2^31 to ``high``
    and 2^32 to ``low``, and ``sums`` stays below trials * n * rounds."""
    rounds, m = wins.shape
    # a block of int64 running capitals takes at most an eighth of the
    # budget, as a chunk holds at most _CHUNK_BYTES // 64 trials. A row's
    # sum of squares, at most m (n rounds)^2, fits in int64: for m = 1 by
    # the size check, otherwise because rounds (n + 1 + w) <= _CHUNK_BYTES / 2
    rows = max(1, _CHUNK_BYTES // (64 * m))
    capital = np.zeros(m, dtype=np.int64)
    for start in range(0, rounds, rows):
        block = np.cumsum(wins[start:start + rows], axis=0, dtype=np.int64)
        block *= 2
        block -= n * np.arange(1, len(block) + 1)[:, None]
        block += capital
        stop = start + len(block)
        sums[start:stop] += block.sum(axis=1)
        squares = np.einsum("ij,ij->i", block, block)
        high[start:stop] += squares >> 32
        low[start:stop] += squares & 0xFFFFFFFF
        capital = block[-1]


def run_classical(
    params: OriginalParams | CooperativeParams,
    scheme: GameScheme,
    rounds: int,
    trials: int,
    seed: int = 0,
) -> ClassicalSeries:
    """Monte Carlo over independent trajectories.

    Returns the per-round mean of the player-averaged capital gain and
    its standard error across trials.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    cooperative = isinstance(params, CooperativeParams)
    n = params.n_players if cooperative else 1
    _check_trial_size(rounds, n)
    table = _win_table(params)
    width = table.shape[1]
    thresholds = np.unique(table)
    # k(p) of each table entry: a play wins when its draw's rank is below it
    bound = np.searchsorted(thresholds, table.ravel(), side="right").astype(np.uint8)
    sums = np.zeros(rounds, dtype=np.int64)
    high = np.zeros(rounds, dtype=np.int64)
    low = np.zeros(rounds, dtype=np.int64)
    per_trial = rounds * (n + 1 + np.min_scalar_type(n).itemsize)
    chunk = max(1, min(trials, _CHUNK_BYTES // per_trial, _CHUNK_BYTES // 64))
    for start in range(0, trials, chunk):
        idx = range(start, min(start + chunk, trials))
        ranks, games, flags = _replay_streams(
            params, scheme, rounds, seed, idx, thresholds, width
        )
        if cooperative:
            wins = _play_cooperative(params, ranks, games, flags, bound)
        else:
            wins = _play_original(ranks, games, bound)
        del ranks, games  # freed before the statistics allocate their blocks
        _add_capital_sums(wins, n, sums, high, low)
        del wins
    scale = n * trials
    mean = np.zeros(rounds + 1)
    np.divide(sums, scale, out=mean[1:])
    stderr = np.zeros(rounds + 1)
    if trials > 1:
        # the sample variance of the player-averaged gain over trials, /
        # trials, from exact integers, a block of rounds at a time
        denominator = scale * scale * (trials - 1)
        for start in range(0, rounds, _STAT_ROWS):
            part = slice(start, start + _STAT_ROWS)
            stderr[start + 1:start + 1 + _STAT_ROWS] = [
                (trials * ((h << 32) + lo) - s * s) / denominator
                for s, h, lo in zip(
                    sums[part].tolist(), high[part].tolist(), low[part].tolist()
                )
            ]
        np.sqrt(stderr, out=stderr)
    return ClassicalSeries(mean_gain=mean, stderr=stderr)
