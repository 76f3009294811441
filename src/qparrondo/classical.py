"""Classical baselines: the original capital-dependent Parrondo pair and
the cooperative neighbor-conditioned variant on a ring of players.

Each trial is a Markov chain whose state is all that the next round reads:
the capital mod 3 in the original game, the ring's winner flags (2^n
states, player i at bit i) in the cooperative one. For the original game
and for rings of at most _EXACT_PLAYERS players the series is exact. Game
g's round transition T[s, s'] comes from playing the per-player rule on
every state, and G[s, s'] is the transition's player-averaged gain. The
lifted map ``L_g = [[T, T∘G, T∘G∘G], [0, T, 2 T∘G], [0, 0, T]]`` carries
the row vector (P, m, q) over one round: P is the distribution over
states, m = E[C; s] and q = E[C^2; s] for the player-averaged capital C. A
fixed schedule applies L_A or L_B each round. Every trial of the random mix
draws its own schedule, so the mix applies ½(L_A + L_B) every round. The
chain steps runs of one map, A^m and B^n in turn or all rounds of one: with
the first k powers of a map kept, r <= k rounds of a run read their moments
off the first r powers and move the vector on by the r-th. Once the mean
after those r rounds is over _RECENTRE_OFF units from the centre c that
(m, q) are taken about, the vector is re-centred on it, so no digits
cancel when the drift dominates. The mean after a round is c + sum(m),
and its standard error over ``trials`` trials is sqrt((sum(q) -
sum(m)^2) / trials): at one trial it reads the standard deviation of the
gain. Nothing is drawn, so ``seed`` is unread and the time does not
depend on ``trials``.

Larger rings, whose chains grow as 2^n, run Monte Carlo. Trial k of a run
draws every random number from a generator seeded by the key (seed, k), so
any single trajectory is reproducible in isolation and aggregate results do
not depend on execution order or chunking. Within a trial the stream is
consumed in a fixed order:

1. the initial winner flags, ``random(players) < 1/2``;
2. the schedule, ``integers(0, 2, size=rounds)`` with 1 meaning game B
   (random mix only, drawn by ``schedule_mask``);
3. one win uniform per play, ``random((rounds, players))``, row t holding
   the players of round t in index order.

A play wins when its uniform u is below the win probability p of its game
and context. The distinct win probabilities of a parameter set (at most
five), sorted, are the thresholds; a uniform's rank is the number of
thresholds <= u. With k(p) the rank of p itself, u < p holds exactly when
rank(u) < k(p), ties included, so ranks replay the float decisions exactly.
Each play is one byte, ``(game * levels + rank) * 4``, and one per-play
table indexed by code + the neighbors' winner flags decides it. The
statistics follow exactly from per-round integer sums over trials of the
running win total and its square, as a capital is twice the wins less the
plays.

A run that cannot fit in physical memory is refused before anything is
drawn or built.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .engine import GameScheme, _check_memory, schedule_mask

# The largest ring whose series comes from its exact chain, whose lifted
# map is 3 * 2^n wide. 2,000 random-mix rounds at 1,000 trials on a 2-vCPU
# Xeon VM: 0.054-0.059 s for the chain against 0.19-0.30 s for the Monte
# Carlo at 7 players; at 8, 0.47-0.56 s against 0.20-0.32 s, a chain round
# being about 9 times dearer.
_EXACT_PLAYERS = 7
# Bytes of per-trial arrays that one chunk of Monte Carlo trials may hold:
# its play codes and winner counts.
_CHUNK_BYTES = 1 << 26
# Rounds whose standard errors are formed together from Python integers,
# so those objects take a bounded few MB however long the run.
_STAT_ROWS = 1 << 16
# How far the chain's mean may move from the centre its moments are taken
# about before the vector is re-centred, in units of the player-averaged
# capital: as accurate as re-centring every chunk against pure A's closed
# form over 10^5 rounds, and once in about 20 chunks of the benchmark's mix.
_RECENTRE_OFF = 16.0
# Bytes of the powers of one lifted map, with their moment rows, that the
# exact chain keeps to play that many rounds of a run at once: 52 powers at
# 3 players, 330 for the original game, one from 6 players on.
_STACK_BYTES = 1 << 18


@dataclass(frozen=True)
class OriginalParams:
    """Single-player capital-dependent pair of games.

    Game A wins with probability ``pa`` (default 1/2 - epsilon). Game B
    uses coin B1 with win probability ``p1`` when the capital is a
    multiple of 3 and coin B2 with probability ``p2`` otherwise; the
    defaults are 1/10 - epsilon and 3/4 - epsilon.
    """

    epsilon: float = 0.005
    pa: float | None = None
    p1: float | None = None
    p2: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be a finite number >= 0, got {self.epsilon}")
        for name, given, value in (
            ("pa", self.pa, self.win_a), ("p1", self.p1, self.win_b1), ("p2", self.p2, self.win_b2)
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
        return 0.5 - self.epsilon if self.pa is None else self.pa

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
    players: int = 3

    def __post_init__(self) -> None:
        if self.players < 3:
            raise ValueError(f"players must be >= 3, got {self.players}")
        for name in ("pa", "p1", "p2", "p3", "p4"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass
class ClassicalSeries:
    """Per-round mean average capital gain over trials, with standard errors;
    ``exact`` tells the chain's exact series from a Monte Carlo estimate."""

    mean_gain: np.ndarray  # (rounds + 1,)
    stderr: np.ndarray  # (rounds + 1,)
    exact: bool = False

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


def _check_size(rounds: int, n: int, exact: bool, trials: int) -> None:
    """A run must fit in physical memory.

    The exact chain holds two float moments a round and, as it forms the
    variances, a moment's square (24 bytes; 33 are counted), and the
    powers of at most two maps, each within _STACK_BYTES up to 5 players.

    A Monte Carlo trial holds per round its float draws with their
    comparison and ranks, then its game offsets, play codes and winner
    count: at most 14n + 12 bytes. Its schedule's int64 draw and its mask
    take 9 bytes, and the run's statistics 40 (int64 win sums,
    the two int64 words of the squared sums, float mean and standard
    error). The blocks in which the statistics are formed take at most
    _CHUNK_BYTES. Its win sums and squared win total must fit in int64."""
    need = rounds * 33 + 2 * _STACK_BYTES if exact else rounds * (14 * n + 61) + _CHUNK_BYTES
    _check_memory(need, f"the arrays of rounds {rounds} at {n} per round")
    if not exact and max(trials, n * rounds) * n * rounds >= 2**63:
        raise ValueError(f"trials {trials} of rounds {rounds} for {n} players overflow int64 sums")


def _transitions(
    params: OriginalParams | CooperativeParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Each game's round transition ``T[g, s, s']`` and the player-averaged
    gain ``G[s, s']`` of a transition, broadcastable against T.

    A ring's round is played on every start state s for every flag pattern
    s' it can leave: every player plays once, so player i's flag after the
    round is its result, bit i of s', and reads its neighbours' live flags."""
    table = _win_table(params)
    if isinstance(params, OriginalParams):
        # a win raises the capital mod 3 by one, a loss lowers it
        up = np.roll(np.eye(3), 1, axis=1)
        down = np.roll(np.eye(3), -1, axis=1)
        return table[:, :, None] * up + (1 - table[:, :, None]) * down, up - down
    n, states = params.players, 2**params.players
    bits = np.arange(states)[:, None] >> np.arange(n) & 1  # (states, n)
    flags = np.broadcast_to(bits[:, None, :], (states, states, n)).copy()
    transition = np.ones((2, states, states))
    for i in range(n):
        won = bits[:, i]
        p = table[:, flags[..., i - 1] + 2 * flags[..., (i + 1) % n]]
        transition *= np.where(won, p, 1 - p)
        flags[..., i] = won
    return transition, (2 * bits.sum(axis=1) - n) / n


def _powers(lifted: np.ndarray, longest: int, totals: np.ndarray) -> tuple[list, list]:
    """A map's powers lifted^1..lifted^k and, for each j <= k, the rows that
    take a vector to its moments after rounds 1..j (k: the longest run,
    capped so that both fit in _STACK_BYTES, and at least one)."""
    count = max(1, min(longest, _STACK_BYTES // (lifted.nbytes + 2 * lifted[0].nbytes)))
    powers = list(itertools.accumulate(itertools.repeat(lifted, count), np.matmul))
    # row 2i + c: power i's sums of moment c; lists index faster than slices
    sums = np.concatenate([(power @ totals).T for power in powers])
    return powers, [sums[:2 * j] for j in range(1, count + 1)]


def _settle(rows: np.ndarray, centre: float) -> None:
    """Rows (sum(m), sum(q)) of the moments of C - centre, in place, to the
    mean and variance of C."""
    rows[:, 1] -= rows[:, 0] * rows[:, 0]
    rows[:, 0] += centre


def _chain_series(
    params: OriginalParams | CooperativeParams, scheme: GameScheme, rounds: int, trials: int
) -> ClassicalSeries:
    """The exact series from the lifted chain (module docstring)."""
    transition, gain = _transitions(params)
    states = transition.shape[-1]
    zero = np.zeros((states, states))
    maps = {
        kind: np.block([[t, t * gain, t * gain * gain], [zero, t, 2 * t * gain], [zero, zero, t]])
        for kind, t in zip("ab", transition)
    }
    maps["mix"] = (maps["a"] + maps["b"]) / 2
    # the m and q blocks' sums
    totals = np.zeros((3 * states, 2))
    totals[states:2 * states, 0] = totals[2 * states:, 1] = 1.0
    # runs of one map: A^m and B^n in turn, or all rounds of A, B or the mix
    lengths = {"a": scheme.m, "b": scheme.n} if scheme.kind == "periodic" else {scheme.kind: rounds}
    runs = itertools.cycle(
        [(*_powers(maps[kind], min(n, rounds), totals), n) for kind, n in lengths.items()]
    )
    del maps
    # the row vector (P, m, q), from P: uniform over the random flags, or a
    # point mass on capital 0
    vector = np.zeros(3 * states)
    if isinstance(params, OriginalParams):
        vector[0] = 1.0
    else:
        vector[:states] = 1 / states
    # row t holds the sums of m and q after round t, then its mean and
    # variance; a chunk plays up to as many rounds of a run as its map keeps
    # powers. Rows from ``first`` on are the moments of C - centre
    moments = np.zeros((rounds + 1, 2))
    flat = moments.reshape(-1)
    t = left = first = 0
    centre = 0.0
    while t < rounds:
        if not left:
            powers, heads, left = next(runs)
        count = min(len(powers), left, rounds - t)
        np.dot(heads[count - 1], vector, out=flat[2 * t + 2:2 * (t + count + 1)])
        vector = vector @ powers[count - 1]
        t += count
        left -= count
        d = flat[2 * t]
        if abs(d) > _RECENTRE_OFF:
            # m <- m - d P, then q <- q - d m_old - d m = q - 2 d m_old + d^2 P
            vector[states:] -= d * vector[:2 * states]
            vector[2 * states:] -= d * vector[states:2 * states]
            _settle(moments[first:t + 1], centre)
            centre += d
            first = t + 1
    _settle(moments[first:], centre)
    mean, stderr = moments.T
    # rounding may take a variance just below 0
    np.maximum(stderr, 0.0, out=stderr)
    stderr /= trials
    np.sqrt(stderr, out=stderr)
    return ClassicalSeries(mean_gain=mean, stderr=stderr, exact=True)


def _play_codes(
    params: CooperativeParams,
    scheme: GameScheme,
    rounds: int,
    seed: int,
    trial_indices: range,
    thresholds: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the streams of one chunk of trials, trial by trial, in their
    documented order: the initial winner flags, the schedule and the
    uniform of every play.

    Returns the play codes ``(trials, rounds, n)``, one contiguous row per
    trial, and the initial winner flags ``(n, trials)``, both uint8. A
    play's code is ``(game * levels + rank) * 4``, with game 1 for B,
    ``levels = len(thresholds) + 1`` and the rank of the play's uniform.
    """
    n = params.players
    m = len(trial_indices)
    levels = np.uint8(len(thresholds) + 1)
    codes = np.empty((m, rounds, n), dtype=np.uint8)
    flags = np.empty((n, m), dtype=np.uint8)
    uniforms = np.empty((rounds, n))
    # the ranks are counted in a scratch that every trial reuses, which ran
    # faster than counting them in the trial's row of codes
    rank = np.empty((rounds, n), dtype=np.uint8)
    above = np.empty((rounds, n), dtype=bool)

    # levels for each play of a B round: np.repeat lays the schedule out
    # play by play, which adds faster than a (rounds, 1) broadcast
    def game_offsets(in_b: np.ndarray) -> np.ndarray:
        return np.repeat(in_b * levels, n).reshape(rounds, n)

    if not scheme.is_random:
        game = game_offsets(schedule_mask(scheme, rounds, None))
    for col, k in enumerate(trial_indices):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        flags[:, col] = rng.random(n) < 0.5
        if scheme.is_random:
            game = game_offsets(schedule_mask(scheme, rounds, rng))
        rng.random(out=uniforms)
        np.greater_equal(uniforms, thresholds[0], out=rank.view(bool))
        for threshold in thresholds[1:]:
            np.greater_equal(uniforms, threshold, out=above)
            rank += above.view(np.uint8)
        code = codes[col]
        np.add(rank, game, out=code)
        code *= np.uint8(4)
    return codes, flags


def _play_cooperative(codes: np.ndarray, flags: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """Winners per round and trial, ``(rounds, trials)``, in the smallest
    unsigned type that holds the ring size n. ``flags`` ``(n, trials)`` holds
    the winner flags, which players read live, and is updated in place."""
    m, rounds, n = codes.shape
    wins = np.empty((rounds, m), dtype=np.min_scalar_type(n))
    base = np.empty((n, m), dtype=np.uint8)
    index = np.empty(m, dtype=np.uint8)
    successors, heads = flags[1:], base[:-1]
    last, first = base[-1], flags[0]
    players = [(base[i], flags[i - 1], flags[i]) for i in range(n)]
    for code, won in zip(codes.transpose(1, 2, 0), wins):
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
    # or more per round
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
    """Per-round mean of the player-averaged capital gain over ``trials``
    independent trials and its standard error: exact from the chain for the
    original game and rings of at most _EXACT_PLAYERS players, where
    ``seed`` is unread, and Monte Carlo for larger rings (module docstring).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n = params.players if isinstance(params, CooperativeParams) else 1
    exact = n <= _EXACT_PLAYERS
    _check_size(rounds, n, exact, trials)
    if exact:
        return _chain_series(params, scheme, rounds, trials)
    table = _win_table(params)
    # sorted distinct entries; np.unique would import numpy.ma on first use
    thresholds = np.array(sorted(set(table.ravel().tolist())))
    # k(p) of each table entry: a play wins when its draw's rank is below
    # it. lut[code + context] is that comparison for every play code
    bound = np.searchsorted(thresholds, table, side="right")
    ranks = np.arange(len(thresholds) + 1)
    lut = (ranks[None, :, None] < bound[:, None, :]).astype(np.uint8).ravel()
    # play codes and winner counts
    per_trial = rounds * (n + np.min_scalar_type(n).itemsize)
    chunk = max(1, min(trials, _CHUNK_BYTES // per_trial, _CHUNK_BYTES // 64))
    sums = np.zeros(rounds, dtype=np.int64)
    high = np.zeros(rounds, dtype=np.int64)
    low = np.zeros(rounds, dtype=np.int64)
    for start in range(0, trials, chunk):
        idx = range(start, min(start + chunk, trials))
        codes, flags = _play_codes(params, scheme, rounds, seed, idx, thresholds)
        wins = _play_cooperative(codes, flags, lut)
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
