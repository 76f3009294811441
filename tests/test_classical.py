import itertools
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from oracle import lifted_chain_series

import qparrondo.classical as classical
from qparrondo import (
    PURE_A,
    PURE_B,
    RANDOM_MIX,
    CooperativeParams,
    GameScheme,
    OriginalParams,
    periodic,
    run_classical,
)

# Scalar reference implementations of one play (original game) and one
# round (cooperative game). Replayed from the same streams, they are the
# independent oracle for the Monte Carlo of rings of 8 or more players;
# enumerated over every outcome, the oracle for the exact chain.


@dataclass
class ClassicalState:
    capitals: np.ndarray  # int, one per player
    winner_flags: np.ndarray  # bool, one per player
    time: int = 0


def original_step(capital: int, label: str, params: OriginalParams, rng) -> int:
    """One play of the original pair: +1 on a win, -1 on a loss."""
    if label == "A":
        p = params.win_a
    else:
        p = params.win_b1 if capital % 3 == 0 else params.win_b2
    return capital + (1 if rng.random() < p else -1)


def _branch_probability(params: CooperativeParams, prev_won: bool, next_won: bool) -> float:
    if prev_won and next_won:
        return params.p1
    if prev_won:
        return params.p2
    if next_won:
        return params.p3
    return params.p4


def cooperative_step(
    state: ClassicalState, label: str, params: CooperativeParams, rng
) -> ClassicalState:
    """Every player plays once in index order.

    Game B selects the branch probability from the ring neighbors' winner
    flags; with ``update_order="sequential"`` the flags are read live as
    each player finishes, with ``"synchronous"`` from a snapshot taken at
    the start of the round.
    """
    n = params.n_players
    capitals = state.capitals.copy()
    flags = state.winner_flags.copy()
    snapshot = state.winner_flags.copy()
    source = flags if params.update_order == "sequential" else snapshot
    for i in range(n):
        if label == "A":
            p = params.pa
        else:
            p = _branch_probability(params, source[(i - 1) % n], source[(i + 1) % n])
        won = rng.random() < p
        capitals[i] += 1 if won else -1
        flags[i] = won
    return ClassicalState(capitals, flags, state.time + 1)


class Replay:
    """Feeds pre-drawn uniforms to the step functions one at a time."""

    def __init__(self, uniforms: np.ndarray):
        self._draws = iter(uniforms.ravel().tolist())

    def random(self) -> float:
        return next(self._draws)


def oracle_labels(scheme: GameScheme, rounds: int, rng) -> list[str]:
    """The schedule as the documented stream defines it."""
    if scheme.kind == "mix":
        return ["B" if d == 1 else "A" for d in rng.integers(0, 2, size=rounds)]
    if scheme.kind == "periodic":
        return ["A" if t % (scheme.m + scheme.n) < scheme.m else "B" for t in range(rounds)]
    return [scheme.kind.upper()] * rounds


def oracle_capitals(params, scheme: GameScheme, rounds: int, trials: int, seed: int):
    """Player-summed capital per trial and round, ``(trials, rounds + 1)``,
    replayed trial by trial through the scalar step functions from the same
    streams."""
    cooperative = isinstance(params, CooperativeParams)
    n = params.n_players if cooperative else 1
    capitals = np.zeros((trials, rounds + 1), dtype=np.int64)
    for k in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        if cooperative and params.initial_flags == "random":
            flags = rng.random(n) < 0.5
        else:
            flags = np.full(n, cooperative and params.initial_flags == "winners")
        labels = oracle_labels(scheme, rounds, rng)
        draws = Replay(rng.random((rounds, n)))
        state = ClassicalState(np.zeros(n, dtype=int), flags)
        for t, label in enumerate(labels):
            if cooperative:
                state = cooperative_step(state, label, params, draws)
            else:
                state.capitals[0] = original_step(state.capitals[0], label, params, draws)
            capitals[k, t + 1] = state.capitals.sum()
    return capitals


def oracle_series(params, scheme: GameScheme, rounds: int, trials: int, seed: int):
    """Mean and standard error of the player-averaged gain over the oracle's
    trials, in floating point."""
    n = params.n_players if isinstance(params, CooperativeParams) else 1
    gains = oracle_capitals(params, scheme, rounds, trials, seed) / n
    return gains.mean(axis=0), gains.std(axis=0, ddof=1) / np.sqrt(trials)


def test_original_defaults_derive_from_epsilon():
    p = OriginalParams(epsilon=0.005)
    assert p.win_a == pytest.approx(0.495)
    assert p.win_b1 == pytest.approx(0.095)
    assert p.win_b2 == pytest.approx(0.745)


def test_original_params_validation():
    with pytest.raises(ValueError, match="epsilon"):
        OriginalParams(epsilon=-0.1)
    with pytest.raises(ValueError, match="p1"):
        OriginalParams(p1=1.4)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf])
def test_original_params_reject_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match=r"^epsilon must be a finite number >= 0, got"):
        OriginalParams(epsilon=epsilon)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"epsilon": 0.6}, "epsilon 0.6 sets the default p to -0.1, outside [0, 1]"),
        ({"epsilon": 0.2, "p": 0.5}, "epsilon 0.2 sets the default p1 to -0.1, outside [0, 1]"),
        ({"epsilon": 0.8, "p": 0.5, "p1": 0.1},
         "epsilon 0.8 sets the default p2 to -0.05, outside [0, 1]"),
        ({"epsilon": 0.2, "p": 0.5, "p1": -0.1}, "p1 must lie in [0, 1], got -0.1"),
    ],
)
def test_out_of_range_probability_names_its_source(kwargs, message):
    # a default that epsilon drives out of [0, 1] names epsilon and the
    # probability; a given probability is named alone
    with pytest.raises(ValueError) as info:
        OriginalParams(**kwargs)
    assert str(info.value) == message


def test_original_step_game_a_sure_win():
    rng = np.random.default_rng(0)
    params = OriginalParams(epsilon=0.0, p=1.0)
    assert original_step(5, "A", params, rng) == 6


def test_original_step_selects_coin_by_capital_mod_3():
    rng = np.random.default_rng(0)
    sure_b1 = OriginalParams(p1=1.0, p2=0.0, epsilon=0.0)
    assert original_step(3, "B", sure_b1, rng) == 4  # multiple of 3 -> B1
    assert original_step(-3, "B", sure_b1, rng) == -2
    assert original_step(4, "B", sure_b1, rng) == 3  # otherwise -> B2


def cooperative(p1=0.5, p2=0.5, p3=0.5, p4=0.5, pa=0.5, **kw):
    return CooperativeParams(pa=pa, p1=p1, p2=p2, p3=p3, p4=p4, **kw)


def test_cooperative_params_validation():
    with pytest.raises(ValueError, match="n_players"):
        cooperative(n_players=2)
    with pytest.raises(ValueError, match="p4"):
        cooperative(p4=-0.2)
    with pytest.raises(ValueError, match="update_order"):
        cooperative(update_order="sideways")


def test_cooperative_step_all_winners_use_p1():
    params = cooperative(p1=1.0, p2=0.0, p3=0.0, p4=0.0)
    state = ClassicalState(np.zeros(3, dtype=int), np.ones(3, dtype=bool))
    rng = np.random.default_rng(1)
    out = cooperative_step(state, "B", params, rng)
    assert np.all(out.capitals == 1)
    assert np.all(out.winner_flags)
    assert out.time == 1


def test_cooperative_step_sure_win_all_branches():
    params = cooperative(p1=1.0, p2=1.0, p3=1.0, p4=1.0)
    state = ClassicalState(np.zeros(3, dtype=int), np.zeros(3, dtype=bool))
    rng = np.random.default_rng(2)
    for _ in range(5):
        state = cooperative_step(state, "B", params, rng)
    assert np.all(state.capitals == 5)


def test_cooperative_step_sequential_reads_live_flags():
    # p-branch of player 2 depends on player 1's fresh result when
    # sequential, on the round-start snapshot when synchronous
    params_seq = cooperative(p1=1.0, p2=1.0, p3=0.0, p4=0.0)
    params_syn = cooperative(p1=1.0, p2=1.0, p3=0.0, p4=0.0, update_order="synchronous")
    # start: player1 loser, players 2,3 winners; player 1 sees (p3 branch
    # prev=loser? prev of 1 is 3=winner, next=2 winner) -> p1=1 -> wins
    start = ClassicalState(np.zeros(3, dtype=int), np.array([False, True, True]))
    rng = np.random.default_rng(0)
    seq = cooperative_step(start, "B", params_seq, rng)
    # sequential: player 2 sees prev=player1 just won -> p1/p2 branch -> wins
    assert seq.capitals[1] == 1
    rng = np.random.default_rng(0)
    syn = cooperative_step(start, "B", params_syn, rng)
    # synchronous: player 2 sees snapshot prev=loser, next=winner -> p3=0 -> loses
    assert syn.capitals[1] == -1


def test_cooperative_game_a_is_fair():
    params = cooperative(pa=0.5)
    series = run_classical(params, PURE_A, rounds=200, trials=500, seed=5)
    assert abs(series.final_gain) <= 3 * series.final_stderr + 1e-12


def test_run_classical_deterministic():
    params = OriginalParams()
    a = run_classical(params, RANDOM_MIX, rounds=100, trials=50, seed=3)
    b = run_classical(params, RANDOM_MIX, rounds=100, trials=50, seed=3)
    assert np.array_equal(a.mean_gain, b.mean_gain)
    assert np.array_equal(a.stderr, b.stderr)


SCHEMES = (PURE_A, PURE_B, RANDOM_MIX, periodic(2, 3))
REPLAY_CASES = [
    (
        cooperative(
            p1=0.9, p2=0.3, p3=0.6, p4=0.1, pa=0.45,
            n_players=n, update_order=order, initial_flags=flags,
        ),
        scheme,
        7,
    )
    for order, n, flags, scheme in itertools.product(
        ("sequential", "synchronous"), (9, 11), ("random", "winners", "losers"), SCHEMES
    )
] + [
    # every player wins every round: the per-round winner count reaches
    # n_players, past 127 (one byte, signed) and past 255 (one byte)
    (cooperative(pa=1.0, n_players=130), PURE_A, 7),
    (cooperative(p1=1.0, n_players=300, initial_flags="winners"), PURE_B, 7),
] + [
    # the edges of the win table: a probability of exactly 0 (never won)
    # and of 1, five distinct probabilities (a uniform above the largest
    # gives the largest play code), all probabilities equal (one threshold)
    (cooperative(p1=0.7, p2=0.0, p3=0.4, p4=0.0, pa=0.0, n_players=9), RANDOM_MIX, 12),
    (cooperative(p1=1.0, p2=0.6, p3=1.0, p4=0.0, pa=0.0, n_players=9), RANDOM_MIX, 12),
    (cooperative(p1=0.95, p2=0.35, p3=0.65, p4=0.05, pa=0.2, n_players=8), RANDOM_MIX, 12),
    (cooperative(p1=0.3, p2=0.3, p3=0.3, p4=0.3, pa=0.3, n_players=9), RANDOM_MIX, 12),
    (cooperative(p1=0.4, p2=0.4, p3=0.4, p4=0.4, pa=0.4, n_players=8), periodic(2, 3), 12),
] + [
    # an even ring: player n-1's successor is player 0
    (cooperative(p1=0.9, p2=0.3, p3=0.6, p4=0.1, pa=0.45, n_players=8, update_order=order),
     scheme, 9)
    for order in ("sequential", "synchronous") for scheme in (PURE_B, RANDOM_MIX)
]


def test_run_classical_matches_stepwise_reference():
    # the Monte Carlo must replay exactly what the scalar step functions
    # produce from the same per-trial streams, on every path through its
    # round loop
    trials, seed = 5, 21
    for params, scheme, rounds in REPLAY_CASES:
        series = run_classical(params, scheme, rounds=rounds, trials=trials, seed=seed)
        mean, stderr = oracle_series(params, scheme, rounds, trials, seed)
        case = f"{params} {scheme.label}"
        assert np.max(np.abs(series.mean_gain - mean)) < 1e-12, case
        assert np.max(np.abs(series.stderr - stderr)) < 1e-12, case


def exact_series(capitals: np.ndarray, n: int):
    """Mean and standard error of the player-averaged gain formed, as
    run_classical forms them, from exact integer sums over trials."""
    trials = len(capitals)
    sums = capitals.sum(axis=0)
    squares = [sum(int(x) ** 2 for x in column) for column in capitals.T]
    scale = n * trials
    mean = sums / scale
    variance = [
        (trials * q - int(s) ** 2) / (scale * scale * (trials - 1))
        for s, q in zip(sums, squares)
    ]
    return mean, np.sqrt(variance)


def test_random_parameter_sets_replay_the_oracle_bitwise():
    # probabilities on a coarse grid, so that ties between branches and
    # probabilities of exactly 0 and 1 come up often
    rng = np.random.default_rng(20261017)
    grid = np.linspace(0.0, 1.0, 5)
    schemes = (PURE_A, PURE_B, RANDOM_MIX, periodic(2, 3), periodic(1, 1))
    trials, rounds = 4, 15
    for case in range(20):
        pa, p1, p2, p3, p4 = (float(p) for p in rng.choice(grid, size=5))
        scheme = schemes[rng.integers(len(schemes))]
        params = cooperative(
            p1=p1, p2=p2, p3=p3, p4=p4, pa=pa,
            n_players=int(rng.integers(8, 12)),
            update_order=("sequential", "synchronous")[rng.integers(2)],
            initial_flags=("random", "winners", "losers")[rng.integers(3)],
        )
        series = run_classical(params, scheme, rounds=rounds, trials=trials, seed=case)
        capitals = oracle_capitals(params, scheme, rounds, trials, case)
        mean, stderr = exact_series(capitals, params.n_players)
        assert np.array_equal(series.mean_gain, mean), f"{params} {scheme.label}"
        assert np.array_equal(series.stderr, stderr), f"{params} {scheme.label}"


def enumerated_series(params, scheme: GameScheme, rounds: int, trials: int):
    """Exact mean and standard error of the player-averaged gain after every
    round, from every path a run can take: each start (random flags: every
    flag pattern, weight 2^-n), each schedule (random mix: every one,
    weight 2^-rounds) and each outcome of every play, weighted by its
    probability. The plays follow the scalar step functions' rule,
    numpy-vectorized over the paths."""
    cooperative = isinstance(params, CooperativeParams)
    n = params.n_players if cooperative else 1
    drawn = cooperative and params.initial_flags == "random"
    mixed = scheme.kind == "mix"
    # one axis per drawn start flag, per round's game and per play
    axes = (2,) * (n * drawn + rounds * mixed + rounds * n)
    digits = np.indices(axes).reshape(len(axes), -1)
    if drawn:
        flags, digits = digits[:n].astype(bool), digits[n:]
    else:
        start = cooperative and params.initial_flags == "winners"
        flags = np.full((n, digits.shape[1]), start)
    if mixed:
        games, digits = digits[:rounds] == 1, digits[rounds:]
    else:
        labels = oracle_labels(scheme, rounds, None)
        games = np.array([[label == "B"] for label in labels])
    wins = digits.reshape(rounds, n, -1).astype(bool)
    weight = np.full(wins.shape[-1], 0.5 ** len(axes[: n * drawn + rounds * mixed]))
    capital = np.zeros(wins.shape[-1])
    mean, second = [0.0], [0.0]
    for t, (plays_b, won) in enumerate(zip(games, wins), 1):
        snapshot = flags.copy()
        for i in range(n):
            if not cooperative:
                b_win = np.where(capital % 3 == 0, params.win_b1, params.win_b2)
                p = np.where(plays_b, b_win, params.win_a)
            else:
                source = flags if params.update_order == "sequential" else snapshot
                prev_won, next_won = source[i - 1], source[(i + 1) % n]
                branch = np.select(
                    [prev_won & next_won, prev_won, next_won],
                    [params.p1, params.p2, params.p3],
                    params.p4,
                )
                p = np.where(plays_b, branch, params.pa)
            weight = weight * np.where(won[i], p, 1 - p)
            capital = capital + np.where(won[i], 1, -1)
            flags[i] = won[i]
        # each path to round t recurs once per outcome of the later plays,
        # whose probabilities are not yet in its weight
        gain = capital / n
        copies = 2 ** (n * (rounds - t))
        mean.append(float(weight @ gain) / copies)
        second.append(float(weight @ gain**2) / copies)
    mean = np.array(mean)
    return mean, np.sqrt((np.array(second) - mean**2).clip(0) / trials)


def enumerable_rounds(params, scheme: GameScheme, limit: int = 10**5) -> int:
    """The most rounds whose paths stay within ``limit``."""
    n = params.n_players if isinstance(params, CooperativeParams) else 1
    starts = 2**n if n > 1 and params.initial_flags == "random" else 1
    per_round = 2 ** (n + (scheme.kind == "mix"))
    rounds = 0
    while starts * per_round ** (rounds + 1) <= limit:
        rounds += 1
    return rounds


ENUMERATED_SCHEMES = (PURE_A, PURE_B, RANDOM_MIX, periodic(2, 3), periodic(1, 1))
# five distinct probabilities, none of them 0 or 1
ENUMERATED_PROBS = dict(p1=0.95, p2=0.35, p3=0.65, p4=0.05, pa=0.2)


def assert_matches_enumeration(params):
    for scheme in ENUMERATED_SCHEMES:
        rounds = enumerable_rounds(params, scheme)
        assert rounds >= 2, scheme.label
        series = run_classical(params, scheme, rounds=rounds, trials=7, seed=3)
        mean, stderr = enumerated_series(params, scheme, rounds, 7)
        assert series.exact, scheme.label
        assert np.max(np.abs(series.mean_gain - mean)) < 1e-12, scheme.label
        assert np.max(np.abs(series.stderr - stderr)) < 1e-12, scheme.label


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("order", ["sequential", "synchronous"])
@pytest.mark.parametrize("flags", ["random", "winners", "losers"])
def test_chain_matches_enumeration_of_every_path(n, order, flags):
    # mean and standard error after every round, for every scheme, against
    # the probability-weighted sum over every path of the scalar rule
    assert_matches_enumeration(
        cooperative(**ENUMERATED_PROBS, n_players=n, update_order=order, initial_flags=flags)
    )


def test_original_chain_matches_enumeration_of_every_path():
    assert_matches_enumeration(OriginalParams(epsilon=0.005))


@pytest.mark.parametrize(
    "params",
    [
        cooperative(p1=1.0, p2=0.0, p3=0.6, p4=0.0, pa=1.0, initial_flags="winners"),
        cooperative(p1=1.0, p2=0.0, p3=0.6, p4=0.0, pa=0.0, n_players=4,
                    update_order="synchronous"),
        OriginalParams(epsilon=0.0, p=0.0, p1=1.0, p2=0.6),
    ],
)
def test_chain_matches_enumeration_at_sure_and_impossible_wins(params):
    assert_matches_enumeration(params)


@pytest.mark.parametrize("order", ["sequential", "synchronous"])
@pytest.mark.parametrize("scheme", [RANDOM_MIX, periodic(2, 3)])
def test_chain_agrees_with_the_monte_carlo_at_eight_players(order, scheme):
    # the two estimators cross at 8 players: the chain, called directly,
    # and the Monte Carlo that run_classical plays there
    params = cooperative(**ENUMERATED_PROBS, n_players=8, update_order=order)
    rounds, trials = 60, 2000
    exact = classical._chain_series(params, scheme, rounds, trials)
    sampled = run_classical(params, scheme, rounds=rounds, trials=trials, seed=8)
    assert exact.exact and not sampled.exact
    for t in (1, 10, rounds):
        assert abs(sampled.mean_gain[t] - exact.mean_gain[t]) <= 4 * exact.stderr[t], t
        assert abs(sampled.stderr[t] / exact.stderr[t] - 1) < 0.1, t


# probabilities whose gains drift slowly, so that sum(q) - mean^2 keeps
# its digits over thousands of rounds, and with no game fair, so that no
# mean column is all rounding
LONG_PROBS = dict(pa=0.48, p1=0.3, p2=0.5, p3=0.5, p4=0.8)
LONG_SCHEMES = (PURE_A, PURE_B, RANDOM_MIX, periodic(1, 1), periodic(2, 3), periodic(300, 200))


@pytest.mark.parametrize("rounds", [1, 2000])
@pytest.mark.parametrize("scheme", LONG_SCHEMES, ids=lambda s: s.label)
@pytest.mark.parametrize(
    "params",
    [
        *(cooperative(**LONG_PROBS, initial_flags=f) for f in ("random", "winners", "losers")),
        cooperative(**LONG_PROBS, n_players=5, update_order="synchronous"),
        OriginalParams(epsilon=0.005),
    ],
    ids=["3-random", "3-winners", "3-losers", "5-synchronous", "original"],
)
def test_chain_matches_the_round_by_round_oracle(params, scheme, rounds):
    # the chain plays up to 52 rounds of a run at once at 3 players, 3 at
    # 5 and 330 in the original game; 2000 is a multiple of none, and
    # periodic:300,200's runs are longer than the 3- and 5-player stacks
    series = classical._chain_series(params, scheme, rounds, trials=7)
    oracle = lifted_chain_series(params, scheme, rounds, trials=7)
    for got, want in zip((series.mean_gain, series.stderr), oracle):
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("rounds, stderr_bound", [(10**4, 5e-12), (10**5, 5e-11)])
@pytest.mark.parametrize("pa", [0.2, 0.45])
def test_pure_a_chain_matches_the_closed_form_at_long_runs(pa, rounds, stderr_bound):
    # each of a round's 3 plays is an independent win with probability pa,
    # so the player-averaged capital after t rounds has mean t (2 pa - 1)
    # and variance 4 t pa (1 - pa) / 3. The drift dwarfs the spread, and
    # the chain's relative errors measured 8.6e-13 at 10^4 rounds and
    # 8.6e-12 at 10^5 in the stderr, and 4.5e-14 in the mean; formed from
    # uncentred moments they were 2.5e-9 and 2.5e-7, and 1.7e-11
    trials = 1000
    series = run_classical(cooperative(**{**LONG_PROBS, "pa": pa}), PURE_A, rounds, trials)
    t = np.arange(1, rounds + 1)
    mean = t * (2 * pa - 1)
    stderr = np.sqrt(4 * t * pa * (1 - pa) / (3 * trials))
    assert series.mean_gain[0] == series.stderr[0] == 0.0
    assert np.max(np.abs(series.mean_gain[1:] / mean - 1)) < 1e-13
    assert np.max(np.abs(series.stderr[1:] / stderr - 1)) < stderr_bound


@pytest.mark.parametrize(
    "pa, pb, players, rounds, stderr_bound",
    [(0.2, 0.7, 3, 10**4, 5e-12), (0.45, 0.45, 3, 10**5, 5e-11), (0.3, 0.6, 7, 2000, 5e-12)],
)
def test_random_mix_chain_matches_the_closed_form(pa, pb, players, rounds, stderr_bound):
    # with game B's four probabilities equal, no play reads a neighbour and
    # rounds are independent: a round's game is A or B for all players at
    # once, so the player-averaged capital gains pa + pb - 1 a round on
    # average with variance 2 (pa (1 - pa) + pb (1 - pb)) / n from the
    # plays plus (pa - pb)^2 from the shared game. The chain's relative
    # errors measured 4.6e-14 in the mean and 8.6e-12 in the stderr
    trials = 1000
    params = cooperative(p1=pb, p2=pb, p3=pb, p4=pb, pa=pa, n_players=players)
    series = run_classical(params, RANDOM_MIX, rounds, trials)
    t = np.arange(1, rounds + 1)
    mean = t * (pa + pb - 1)
    variance = t * (2 * (pa * (1 - pa) + pb * (1 - pb)) / players + (pa - pb) ** 2)
    assert series.exact
    assert series.mean_gain[0] == series.stderr[0] == 0.0
    assert np.max(np.abs(series.mean_gain[1:] / mean - 1)) < 1e-13
    assert np.max(np.abs(series.stderr[1:] / np.sqrt(variance / trials) - 1)) < stderr_bound


def refuse_to_draw(*args):
    raise AssertionError("an exact row drew a random number")


@pytest.mark.parametrize(
    "params", [OriginalParams(epsilon=0.005), cooperative(**ENUMERATED_PROBS)]
)
def test_exact_rows_draw_nothing(monkeypatch, params):
    # nor do they spend time per trial: 2^31 trials only scale the stderr
    monkeypatch.setattr(classical, "_play_codes", refuse_to_draw)
    series = run_classical(params, RANDOM_MIX, rounds=4, trials=2**31, seed=5)
    one = run_classical(params, RANDOM_MIX, rounds=4, trials=1)
    assert series.exact
    assert np.array_equal(series.mean_gain, one.mean_gain)
    assert np.allclose(series.stderr * 2**15.5, one.stderr, rtol=1e-12, atol=0)


def test_exact_stderr_at_one_trial_is_the_standard_deviation():
    # pure A at p = 1/2 is a fair +-1 walk: after t rounds sigma = sqrt(t)
    series = run_classical(OriginalParams(epsilon=0.0), PURE_A, rounds=16, trials=1)
    assert np.max(np.abs(series.mean_gain)) == 0.0
    assert np.allclose(series.stderr, np.sqrt(np.arange(17)), rtol=1e-12, atol=0)


@pytest.mark.parametrize("n,rounds", [(127, 4), (128, 4), (255, 4), (256, 4), (300, 250)])
def test_sure_wins_count_every_player(monkeypatch, n, rounds):
    # at 300 players and 250 rounds a capital squared exceeds 2^32, so the
    # exact zero variance also needs the high word of the squared sums,
    # summed over chunks of one trial each in the second run
    for chunk_bytes in (classical._CHUNK_BYTES, 1000):
        monkeypatch.setattr(classical, "_CHUNK_BYTES", chunk_bytes)
        series = run_classical(cooperative(pa=1.0, n_players=n), PURE_A, rounds=rounds, trials=3)
        assert np.array_equal(series.mean_gain, np.arange(rounds + 1.0))
        assert np.array_equal(series.stderr, np.zeros(rounds + 1))


@pytest.mark.parametrize(
    "params,scheme",
    [
        (cooperative(p1=0.9, p2=0.3, p3=0.6, p4=0.1, pa=0.45, n_players=8), RANDOM_MIX),
        (cooperative(p1=0.9, p2=0.3, p3=0.6, p4=0.1, n_players=9, initial_flags="winners"),
         periodic(2, 3)),
        (cooperative(p1=0.9, p2=0.3, p3=0.6, p4=0.1, pa=0.45, n_players=11), RANDOM_MIX),
        (cooperative(p1=0.9, p2=0.3, p3=0.6, p4=0.1, n_players=9, update_order="synchronous"),
         PURE_B),
    ],
)
def test_chunked_run_equals_single_chunk(monkeypatch, params, scheme):
    # the win sums are exact integers, so splitting the trials over
    # chunks (and the statistics over row blocks) changes no bit
    whole = run_classical(params, scheme, rounds=50, trials=11, seed=4)
    monkeypatch.setattr(classical, "_CHUNK_BYTES", 1000)
    monkeypatch.setattr(classical, "_STAT_ROWS", 7)
    split = run_classical(params, scheme, rounds=50, trials=11, seed=4)
    assert np.array_equal(whole.mean_gain, split.mean_gain)
    assert np.array_equal(whole.stderr, split.stderr)


@pytest.mark.parametrize(
    "params",
    [
        cooperative(p1=0.9, p2=0.3, p3=0.6, p4=0.1, pa=0.45, n_players=8),
        cooperative(p1=0.9, p2=0.3, p3=0.6, p4=0.1, pa=0.45, n_players=9,
                    update_order="synchronous"),
        cooperative(p1=0.9, p2=0.3, p3=0.6, p4=0.1, pa=0.45, n_players=12,
                    initial_flags="losers"),
    ],
)
def test_traced_peak_stays_within_the_memory_accounting(monkeypatch, params):
    # a run holds at most one chunk's per-trial arrays, rounds * (n + w)
    # bytes a trial, plus one trial's draw temporaries plus one statistics
    # block; several chunks and statistics blocks are played here
    monkeypatch.setattr(classical, "_CHUNK_BYTES", 1 << 20)
    rounds, trials = 1000, 600
    n = params.n_players
    per_trial = rounds * (n + 1)
    chunk = min(trials, classical._CHUNK_BYTES // per_trial)
    # float uniforms and their comparison, the schedule's int64 draw and
    # mask, and the game offsets of this trial and the last before and
    # after their repeat
    draws = rounds * (11 * n + 11)
    block = min(rounds, classical._CHUNK_BYTES // (64 * chunk)) * chunk * 8
    statistics = 5 * (rounds + 1) * 8  # sums, high, low, mean, stderr
    # the first run imports what numpy loads lazily
    run_classical(params, RANDOM_MIX, rounds=2, trials=1)
    tracemalloc.start()
    try:
        run_classical(params, RANDOM_MIX, rounds=rounds, trials=trials, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= chunk * per_trial + draws + block + statistics


@pytest.mark.parametrize("scheme", [RANDOM_MIX, periodic(300, 200)], ids=lambda s: s.label)
@pytest.mark.parametrize(
    "params",
    [cooperative(**LONG_PROBS), cooperative(**LONG_PROBS, n_players=5), OriginalParams()],
    ids=["3", "5", "original"],
)
def test_traced_chain_peak_stays_within_the_memory_accounting(params, scheme):
    # two moments a round, the mean's square as the standard errors are
    # formed and the powers of each map played, as _check_size counts them
    rounds = 20_000
    # the first run imports what numpy loads lazily
    classical._chain_series(params, scheme, 2, 1)
    tracemalloc.start()
    try:
        classical._chain_series(params, scheme, rounds, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rounds * 33 + 2 * classical._STACK_BYTES


def exact_cooperative_mix_mean(params: CooperativeParams, rounds: int) -> float:
    """Mean player-averaged gain after ``rounds`` random-mix rounds, from the
    exact chain over the 2^n winner flags (random initial flags)."""
    n = params.n_players
    states = list(itertools.product((False, True), repeat=n))
    index = {s: j for j, s in enumerate(states)}
    transition = np.zeros((len(states), len(states)))
    drift = np.zeros(len(states))  # expected capital change per player
    for s in states:
        for label in "AB":
            # branch over each player's win or loss in turn; weight 1/2
            # for the round's game
            paths = [(0.5, list(s), 0.0)]
            for i in range(n):
                grown = []
                for weight, flags, gain in paths:
                    source = flags if params.update_order == "sequential" else s
                    if label == "A":
                        p = params.pa
                    else:
                        p = _branch_probability(params, source[i - 1], source[(i + 1) % n])
                    for won, q in ((True, p), (False, 1 - p)):
                        nxt = flags.copy()
                        nxt[i] = won
                        grown.append((weight * q, nxt, gain + (1 if won else -1)))
                paths = grown
            for weight, flags, gain in paths:
                transition[index[s], index[tuple(flags)]] += weight
                drift[index[s]] += weight * gain / n
    dist = np.full(len(states), 1 / len(states))
    total = 0.0
    for _ in range(rounds):
        total += dist @ drift
        dist = dist @ transition
    return total


def test_cooperative_mix_agrees_with_exact_flag_chain():
    params = cooperative(pa=0.5, p1=0.3, p2=0.5, p3=0.5, p4=0.8)
    rounds = 500
    series = run_classical(params, RANDOM_MIX, rounds=rounds, trials=400, seed=9)
    expect = exact_cooperative_mix_mean(params, rounds)
    assert abs(series.final_gain - expect) < 1e-9


def refuse_to_run(*args):
    raise AssertionError("the size check let the run through")


def test_rounds_beyond_physical_memory_rejected_before_allocating(monkeypatch):
    # 10^12 rounds of the exact chain would need terabytes of moments; the
    # run must stop before it builds its first table
    monkeypatch.setattr(classical, "_win_table", refuse_to_run)
    with pytest.raises(ValueError, match="rounds 1000000000000 .* physical memory"):
        run_classical(OriginalParams(), RANDOM_MIX, rounds=10**12, trials=1)


def test_single_trial_statistics_count_toward_the_memory_bound(monkeypatch):
    # beyond its draws and codes (124 bytes per round for 8 players), a
    # single Monte Carlo trial keeps per-round schedule and statistics that
    # do not shrink with chunking; a machine with 137 bytes per round
    # cannot hold them
    rounds = 10**6
    monkeypatch.setattr(classical, "_physical_memory_bytes", lambda: 137 * rounds)
    monkeypatch.setattr(classical, "_win_table", refuse_to_run)
    with pytest.raises(ValueError, match="physical memory"):
        run_classical(cooperative(n_players=8), RANDOM_MIX, rounds=rounds, trials=1)


def test_exact_chain_counts_its_moments_and_schedule(monkeypatch):
    # the chain counts 33 bytes a round (two float moments, and the mean's
    # square as the standard errors are formed) besides its maps' powers
    rounds = 10**6
    monkeypatch.setattr(classical, "_physical_memory_bytes", lambda: 33 * rounds - 1)
    monkeypatch.setattr(classical, "_win_table", refuse_to_run)
    with pytest.raises(ValueError, match="physical memory"):
        run_classical(OriginalParams(), periodic(2, 3), rounds=rounds, trials=1)


def test_rounds_overflowing_capital_sums_rejected(monkeypatch):
    # on a machine large enough to hold the draws, a squared capital of
    # (1.6 * 10^10)^2 would still overflow int64
    monkeypatch.setattr(classical, "_physical_memory_bytes", lambda: 2**60)
    monkeypatch.setattr(classical, "_win_table", refuse_to_run)
    with pytest.raises(ValueError, match="rounds 2000000000 .* int64"):
        run_classical(cooperative(n_players=8), RANDOM_MIX, rounds=2 * 10**9, trials=1)


def test_capital_parity():
    params = OriginalParams()
    rng = np.random.default_rng(0)
    capital = 0
    for t in range(1, 50):
        capital = original_step(capital, "B", params, rng)
        assert (capital - t) % 2 == 0


def test_equal_b_coins_reduce_to_biased_walk():
    p = 0.6
    params = OriginalParams(epsilon=0.0, p1=p, p2=p)
    rounds, trials = 2000, 400
    series = run_classical(params, PURE_B, rounds=rounds, trials=trials, seed=11)
    expect = (2 * p - 1) * rounds
    assert abs(series.final_gain - expect) <= 3 * series.final_stderr


def test_original_losing_b_and_winning_mix_smoke():
    params = OriginalParams(epsilon=0.005)
    b = run_classical(params, PURE_B, rounds=2000, trials=400, seed=17)
    assert b.final_gain < -3 * b.final_stderr
    mix = run_classical(params, RANDOM_MIX, rounds=2000, trials=400, seed=17)
    assert mix.final_gain > 3 * mix.final_stderr


def test_run_classical_validation():
    with pytest.raises(ValueError, match="trials"):
        run_classical(OriginalParams(), PURE_A, rounds=10, trials=0)
    with pytest.raises(ValueError, match="rounds"):
        run_classical(OriginalParams(), PURE_A, rounds=0, trials=1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run_classical(OriginalParams(), PURE_A, rounds=10, trials=1, seed=-1)
