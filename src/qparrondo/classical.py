"""Monte Carlo baselines: the original capital-dependent Parrondo pair and
the cooperative neighbor-conditioned variant on a ring of players.

Trial k of a run draws every random number from a generator seeded by the
key (seed, k), so any single trajectory is reproducible in isolation and
aggregate results do not depend on execution order or chunking. Within a
trial the stream is consumed in a fixed order:

1. the initial winner flags, ``random(n_players) < 1/2`` (cooperative game
   with random flags only);
2. the schedule, ``integers(0, 2, size=rounds)`` with 1 meaning game B
   (random mix only; ``schedule_mask`` reads the same bits);
3. one win uniform per play, ``random((rounds, n_players))``, row t holding
   the players of round t in index order (one column for the original game).

A play wins when its uniform u is below the win probability p of its game
and context. The distinct win probabilities of a parameter set (at most
five), sorted, are the thresholds; a uniform's rank is the number of
thresholds <= u. With k(p) the rank of p itself, u < p holds exactly when
rank(u) < k(p), ties included, so ranks replay the float decisions exactly.

Each trial is a finite-state machine whose state is all that the next
round reads: the ring's winner flags (2^n states) or the capital mod 3. A
round's outcome packs its winner count with the state it leaves. Trial by
trial, each round is written as one code that packs the round's game and
every player's rank, premultiplied by the number of outcomes. One table,
indexed by code + the previous round's outcome, holds the outcome of every
round; it is built by playing the per-player rule once on every (state,
round code) input, so it cannot diverge from the rule. The round loop,
which advances all trials of a chunk at once, then makes one add and one
lookup per round. A ring whose table would exceed _TABLE_LIMIT entries
(more players or more distinct probabilities than a uint16 index reaches)
plays player by player instead: each play is one byte,
``(game * levels + rank) * 4``, and one per-play table indexed by code +
the neighbors' winner flags decides it. The statistics follow exactly from
per-round integer sums over trials of the running win total and its square,
as a capital is twice the wins less the plays. A run whose single trial
cannot fit in physical memory is refused before anything is drawn.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import GameScheme, _physical_memory_bytes, schedule_mask

# Bytes of per-trial arrays that one chunk of trials may hold: its round
# codes and outcomes and its column of the transposition block (table
# path), or its play codes and winner counts (per-player path).
_CHUNK_BYTES = 1 << 26
# Rounds whose standard errors are formed together from Python integers,
# so those objects take a bounded few MB however long the run.
_STAT_ROWS = 1 << 16
# Entries of the largest round table, all within reach of a uint16 index.
_TABLE_LIMIT = 1 << 16
# Rounds whose codes the table path transposes at a time, so that the
# round loop reads each round's codes as one contiguous row.
_BLOCK_ROUNDS = 256


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
    """Win probability by game (row 0: A, row 1: B) and context: column
    prev_won + 2 * next_won (cooperative) or capital mod 3 (original)."""
    if isinstance(params, CooperativeParams):
        pa = params.pa
        return np.array([[pa, pa, pa, pa], [params.p4, params.p2, params.p3, params.p1]])
    a = params.win_a
    return np.array([[a, a, a], [params.win_b1, params.win_b2, params.win_b2]])


def _check_trial_size(rounds: int, n: int) -> None:
    """One trial must fit in physical memory. Per round it holds its float
    draws with their comparison and ranks, then either the ranks' float32
    copy, its game offsets and packed code, its round code and outcome
    (table path) or its game offsets, play codes and winner count (per
    player): at most 14n + 12 bytes. Its schedule's raw draw, shifted copy
    and mask take 9 bytes, and the run's statistics 40 (int64 win sums,
    the two int64 words of the squared sums, float mean and standard
    error). The blocks in which the statistics are formed take at most
    _CHUNK_BYTES. Its squared win total must fit in int64."""
    need = rounds * (14 * n + 61) + _CHUNK_BYTES
    physical = _physical_memory_bytes()
    if need > physical:
        raise ValueError(
            f"rounds {rounds} needs {need / 2**30:.3g} GiB per trial "
            f"at {n} per round, more than the {physical / 2**30:.3g} GiB of "
            f"physical memory"
        )
    if (n * rounds) ** 2 >= 2**63:
        raise ValueError(f"rounds {rounds} for {n} players overflows the int64 win sums")


def _draws(
    params: OriginalParams | CooperativeParams,
    scheme: GameScheme,
    rounds: int,
    seed: int,
    trial_indices: range,
    thresholds: np.ndarray,
):
    """Yield each trial's streams in their documented order: its initial
    winner flags, ``n`` bools (drawn, all winners or all losers; one loser,
    capital 0, in the original game), its schedule (None for a fixed
    scheme) and the rank of every play's uniform, ``(rounds, n)`` uint8 in
    a buffer that the next trial reuses."""
    cooperative = isinstance(params, CooperativeParams)
    n = params.n_players if cooperative else 1
    random_flags = cooperative and params.initial_flags == "random"
    fixed_flags = np.full(n, cooperative and params.initial_flags == "winners")
    uniforms = np.empty((rounds, n))
    rank = np.empty((rounds, n), dtype=np.uint8)
    above = np.empty((rounds, n), dtype=bool)
    for k in trial_indices:
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        flags = rng.random(n) < 0.5 if random_flags else fixed_flags
        in_b = schedule_mask(scheme, rounds, rng) if scheme.is_random else None
        rng.random(out=uniforms)
        np.greater_equal(uniforms, thresholds[0], out=rank.view(bool))
        for threshold in thresholds[1:]:
            np.greater_equal(uniforms, threshold, out=above)
            rank += above.view(np.uint8)
        yield flags, in_b, rank


class _RoundTable(NamedTuple):
    """One round of a trial as a state machine. An outcome is
    ``wins * states + state``: the round's winner count and the state it
    leaves, the winner flags with player i at bit i or the capital mod 3. A
    round code is ``sum_i rank_i * weights[i] + game * weights[n]``, the
    digits of ``game * levels**n + sum_i rank_i * levels**i`` times the
    number of outcomes, so that ``outcomes[code + outcome]`` is the outcome
    of the round that follows ``outcome``."""

    outcomes: np.ndarray
    states: int
    weights: np.ndarray  # float32, n + 1
    code_type: np.dtype


def _round_table(
    params: OriginalParams | CooperativeParams, lut: np.ndarray, levels: int
) -> _RoundTable | None:
    """Play every round code from every state once with the per-player
    rule; None for a ring whose table would have more than _TABLE_LIMIT
    entries."""
    cooperative = isinstance(params, CooperativeParams)
    n = params.n_players if cooperative else 1
    states = 2**n if cooperative else 3
    codes = 2 * levels**n
    size = codes * (n + 1) * states
    # the original game's table has at most 48 entries: three distinct
    # probabilities give 4 ranks, so 8 round codes x 2 x 3 states
    if cooperative and size > _TABLE_LIMIT:
        return None
    code, state = np.divmod(np.arange(codes * states), states)
    # each player's play code (game * levels + rank) * width, from the
    # digits of the round code: rank i is digit i, the game the top one
    digits = code[:, None] // levels ** np.arange(n + 1) % levels
    plays = (digits[:, :n] + digits[:, n:] * levels) * (len(lut) // (2 * levels))
    if cooperative:
        flags = (state >> np.arange(n)[:, None] & 1).astype(np.uint8)
        sequential = params.update_order == "sequential"
        wins = _play_cooperative(sequential, plays[:, None, :].astype(np.uint8), flags, lut)[0]
        state = (1 << np.arange(n)) @ flags
    else:
        wins = lut[plays[:, 0] + state]
        # a win raises the capital by one, a loss lowers it
        state = (state + 2 * wins.astype(int) - 1) % 3
    outcome = wins.astype(int) * states + state
    # the winner count of the round before reads nothing
    table = np.repeat(outcome.reshape(codes, 1, states), n + 1, axis=1).ravel()
    return _RoundTable(
        outcomes=table.astype(np.min_scalar_type((n + 1) * states - 1)),
        states=states,
        weights=((n + 1) * states * levels ** np.arange(n + 1)).astype(np.float32),
        code_type=np.min_scalar_type(size - 1),
    )


def _round_codes(
    params: OriginalParams | CooperativeParams,
    scheme: GameScheme,
    rounds: int,
    seed: int,
    trial_indices: range,
    thresholds: np.ndarray,
    machine: _RoundTable,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the streams of one chunk of trials, trial by trial.

    Returns the round codes ``(trials, rounds)``, one contiguous row per
    trial, and each trial's first outcome: its initial state, no wins.
    """
    n = len(machine.weights) - 1
    m = len(trial_indices)
    codes = np.empty((m, rounds), dtype=machine.code_type)
    starts = np.empty(m, dtype=machine.outcomes.dtype)
    # the ranks and the game offsets in float32: a round code is below
    # 2^16, so one product with the weights and one add pack it exactly
    ranks = np.empty((rounds, n), dtype=np.float32)
    game = np.empty(rounds, dtype=np.float32)
    packed = np.empty(rounds, dtype=np.float32)
    if not scheme.is_random:
        np.multiply(schedule_mask(scheme, rounds, None), machine.weights[n], out=game)
    bits = 1 << np.arange(n)
    streams = _draws(params, scheme, rounds, seed, trial_indices, thresholds)
    for col, (flags, in_b, rank) in enumerate(streams):
        starts[col] = bits @ flags
        if in_b is not None:
            np.multiply(in_b, machine.weights[n], out=game)
        np.copyto(ranks, rank)
        np.matmul(ranks, machine.weights[:n], out=packed)
        packed += game
        np.copyto(codes[col], packed, casting="unsafe")
    return codes, starts


def _play_rounds(codes: np.ndarray, starts: np.ndarray, machine: _RoundTable) -> np.ndarray:
    """Winners per round and trial, ``(rounds, trials)``: every trial steps
    its state machine from ``starts``, one table lookup a round."""
    m, rounds = codes.shape
    outcomes = np.empty((rounds, m), dtype=machine.outcomes.dtype)
    block = np.empty((min(rounds, _BLOCK_ROUNDS), m), dtype=codes.dtype)
    index = np.empty(m, dtype=codes.dtype)
    previous = starts
    for start in range(0, rounds, _BLOCK_ROUNDS):
        part = block[:min(_BLOCK_ROUNDS, rounds - start)]
        np.copyto(part, codes[:, start:start + _BLOCK_ROUNDS].T)
        for code, outcome in zip(part, outcomes[start:start + _BLOCK_ROUNDS]):
            np.add(code, previous, out=index)
            machine.outcomes.take(index, out=outcome, mode="clip")
            previous = outcome
    return np.floor_divide(outcomes, machine.states, out=outcomes)


def _play_codes(
    params: CooperativeParams,
    scheme: GameScheme,
    rounds: int,
    seed: int,
    trial_indices: range,
    thresholds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the streams of one chunk of trials, trial by trial.

    Returns the play codes ``(trials, rounds, n)``, one contiguous row per
    trial, and the initial winner flags ``(n, trials)``, both uint8. A
    play's code is ``(game * levels + rank) * 4``, with game 1 for B and
    ``levels = len(thresholds) + 1``.
    """
    n = params.n_players
    m = len(trial_indices)
    levels = np.uint8(len(thresholds) + 1)
    codes = np.empty((m, rounds, n), dtype=np.uint8)
    flags = np.empty((n, m), dtype=np.uint8)

    # levels for each play of a B round: np.repeat lays the schedule out
    # play by play, which adds faster than a (rounds, 1) broadcast
    def game_offsets(in_b: np.ndarray) -> np.ndarray:
        return np.repeat(in_b * levels, n).reshape(rounds, n)

    if not scheme.is_random:
        game = game_offsets(schedule_mask(scheme, rounds, None))
    streams = _draws(params, scheme, rounds, seed, trial_indices, thresholds)
    for col, (start, in_b, rank) in enumerate(streams):
        flags[:, col] = start
        if in_b is not None:
            game = game_offsets(in_b)
        code = codes[col]
        np.add(rank, game, out=code)
        code *= np.uint8(4)
    return codes, flags


def _play_cooperative(
    sequential: bool, codes: np.ndarray, flags: np.ndarray, lut: np.ndarray
) -> np.ndarray:
    """Winners per round and trial, ``(rounds, trials)``, in the smallest
    unsigned type that holds ``n_players``. ``flags`` ``(n, trials)`` holds
    the winner flags and is updated in place."""
    m, rounds, n = codes.shape
    wins = np.empty((rounds, m), dtype=np.min_scalar_type(n))
    # sequential players read the live flags, synchronous ones the flags
    # as the round started
    source = flags if sequential else np.empty_like(flags)
    base = np.empty((n, m), dtype=np.uint8)
    index = np.empty(m, dtype=np.uint8)
    successors, heads = source[1:], base[:-1]
    last, first = base[-1], source[0]
    players = [(base[i], source[i - 1], flags[i]) for i in range(n)]
    for code, won in zip(codes.transpose(1, 2, 0), wins):
        if not sequential:
            np.copyto(source, flags)
        # the part of each index known as the round starts: players
        # 0..n-2 count their successor's flag twice, before it plays
        np.add(code[:-1], successors, out=heads)
        np.add(heads, successors, out=heads)
        for i, (row, predecessor, flag) in enumerate(players):
            np.add(row, predecessor, out=index)
            lut.take(index, out=flag, mode="clip")
            if i == 0:
                # player n-1's successor is player 0, who has now played
                np.add(code[-1], first, out=last)
                np.add(last, first, out=last)
        np.add.reduce(flags, axis=0, dtype=wins.dtype, out=won)
    return wins


def _add_win_sums(wins: np.ndarray, sums: np.ndarray, high: np.ndarray, low: np.ndarray) -> None:
    """Add, per round, the sum over trials of the running win total to
    ``sums`` and the sum of its square, split at bit 32, to ``high`` and
    ``low``. All int64 and exact: a chunk adds less than 2^31 to ``high``
    and 2^32 to ``low``, and ``sums`` stays below trials * n * rounds."""
    rounds, m = wins.shape
    # a block of int64 running win totals takes at most an eighth of the
    # budget, as a chunk holds at most _CHUNK_BYTES // 64 trials. A row's
    # sum of squares, at most m (n rounds)^2, fits in int64: for m = 1 by
    # the size check; otherwise a chunk's m >= 2 trials store n + 1 bytes
    # or more per round when players play one by one, and 2 bytes or more
    # on the table path, which plays at most 6 players
    rows = max(1, _CHUNK_BYTES // (64 * m))
    block = np.empty((min(rows, rounds), m), dtype=np.int64)
    total = np.zeros(m, dtype=np.int64)  # wins so far, per trial
    for start in range(0, rounds, rows):
        stop = min(start + rows, rounds)
        part = block[:stop - start]
        previous = total
        for row, count in zip(part, wins[start:stop]):
            np.add(previous, count, out=row)
            previous = row
        np.copyto(total, previous)
        sums[start:stop] += part.sum(axis=1)
        squares = np.einsum("ij,ij->i", part, part)
        high[start:stop] += squares >> 32
        low[start:stop] += squares & 0xFFFFFFFF


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
    # sorted distinct entries; np.unique would import numpy.ma on first use
    thresholds = np.array(sorted(set(table.ravel().tolist())))
    # k(p) of each table entry: a play wins when its draw's rank is below
    # it. lut[code + context] is that comparison for every play code
    bound = np.searchsorted(thresholds, table, side="right")
    ranks = np.arange(len(thresholds) + 1)
    lut = (ranks[None, :, None] < bound[:, None, :]).astype(np.uint8).ravel()
    machine = _round_table(params, lut, len(ranks))
    if machine is None:
        # play codes and winner counts
        per_trial = rounds * (n + np.min_scalar_type(n).itemsize)
    else:
        # round codes and outcomes, and a column of the transposition block
        code = machine.code_type.itemsize
        per_trial = rounds * (code + machine.outcomes.itemsize)
        per_trial += min(rounds, _BLOCK_ROUNDS) * code
    chunk = max(1, min(trials, _CHUNK_BYTES // per_trial, _CHUNK_BYTES // 64))
    sums = np.zeros(rounds, dtype=np.int64)
    high = np.zeros(rounds, dtype=np.int64)
    low = np.zeros(rounds, dtype=np.int64)
    for start in range(0, trials, chunk):
        idx = range(start, min(start + chunk, trials))
        if machine is None:
            codes, flags = _play_codes(params, scheme, rounds, seed, idx, thresholds)
            wins = _play_cooperative(params.update_order == "sequential", codes, flags, lut)
        else:
            codes, starts = _round_codes(params, scheme, rounds, seed, idx, thresholds, machine)
            wins = _play_rounds(codes, starts, machine)
        del codes  # freed before the statistics allocate their block
        _add_win_sums(wins, sums, high, low)
        del wins
    scale = n * trials
    mean = np.zeros(rounds + 1)
    # a capital after round t is 2 W - n t for W wins: summed over trials
    # as (W - n trials t) + W, no partial sum exceeds n trials t in size
    np.divide(sums - scale * np.arange(1, rounds + 1) + sums, scale, out=mean[1:])
    stderr = np.zeros(rounds + 1)
    if trials > 1:
        # the sample variance of the player-averaged gain over trials, /
        # trials, from exact integers, a block of rounds at a time; for
        # C = 2 W - n t, trials sum(C^2) - sum(C)^2 = 4 (trials sum(W^2) - sum(W)^2)
        denominator = scale * scale * (trials - 1)
        for start in range(0, rounds, _STAT_ROWS):
            part = slice(start, start + _STAT_ROWS)
            stderr[start + 1:start + 1 + _STAT_ROWS] = [
                4 * (trials * ((h << 32) + lo) - s * s) / denominator
                for s, h, lo in zip(
                    sums[part].tolist(), high[part].tolist(), low[part].tolist()
                )
            ]
        np.sqrt(stderr, out=stderr)
    return ClassicalSeries(mean_gain=mean, stderr=stderr)
