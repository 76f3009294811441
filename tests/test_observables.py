import itertools
import math

import numpy as np
import pytest
from oracle import position_distribution, true_state

from qparrondo import (
    GHZ,
    PURE_A,
    PURE_B,
    RANDOM_MIX,
    SEPARABLE,
    CoinParams,
    GameBParams,
    GameVerdict,
    PayoffSeries,
    SimulationConfig,
    Verdict,
    W,
    apply_position_update,
    classify_game,
    coin_weights,
    detect_paradox,
    init_walker_state,
    initial_coin_state,
    j_entangled,
    periodic,
    run_averaged,
)
from qparrondo.engine import schedule_mask


def expected_positions(state: np.ndarray) -> np.ndarray:
    """Oracle: mean position of each axis from the joint position
    distribution, |amp|^2 summed over the coin, then one marginal per axis."""
    t = state.shape[1] - 1
    coords = 2 * np.arange(t + 1) - t
    joint = (np.abs(state) ** 2).sum(axis=0)
    return np.array(
        [joint.sum(axis=tuple(a for a in range(3) if a != axis)) @ coords for axis in range(3)]
    )


def place(c, x1, x2, x3, t):
    """Unit amplitude of coin c at position (x1, x2, x3) after t rounds."""
    amps = np.zeros((8, t + 1, t + 1, t + 1), dtype=complex)
    amps[c, (x1 + t) // 2, (x2 + t) // 2, (x3 + t) // 2] = 1.0
    return amps


def test_expected_position_origin():
    st = init_walker_state(initial_coin_state(GHZ))
    assert expected_positions(st).tolist() == [0.0, 0.0, 0.0]


def test_expected_position_basis_state():
    st = place(0b111, 1, 1, 1, t=1)
    assert np.max(np.abs(expected_positions(st) - 1.0)) < 1e-15


def test_coin_weights_basis_state():
    st = place(0b101, 1, -1, 1, t=3)
    assert coin_weights(st).tolist() == [0.0] * 5 + [1.0] + [0.0] * 2


def test_expected_position_ghz_after_one_update():
    st = init_walker_state(initial_coin_state(GHZ))
    st = apply_position_update(st, out=np.empty(8 * 2**3, dtype=complex))
    assert np.max(np.abs(expected_positions(st))) < 1e-15


def test_average_gain_arithmetic_mean():
    st = place(0, 2, 2, -4, t=4)
    assert expected_positions(st).tolist() == [2.0, 2.0, -4.0]
    assert abs(expected_positions(st).mean()) < 1e-15


def test_position_distribution_sums_to_one():
    st = init_walker_state(initial_coin_state(SEPARABLE))
    assert abs(position_distribution(st).sum() - 1.0) < 1e-12


ORACLE_ROUNDS = 12


@pytest.mark.parametrize("scheme", [PURE_A, PURE_B, periodic(2, 3), RANDOM_MIX], ids=lambda s: s.label)
@pytest.mark.parametrize(
    "initial", [GHZ, W, SEPARABLE, j_entangled(math.pi / 4)], ids=["ghz", "w", "sep", "j"]
)
def test_payoffs_match_position_oracle(initial, scheme):
    # payoffs read off the coin weights against the joint position
    # distribution of the state after every round
    config = SimulationConfig(
        initial=initial,
        scheme=scheme,
        rounds=ORACLE_ROUNDS,
        coin_a=CoinParams(0.3, 0.7, 1.9),
        game_b=GameBParams(
            ww=CoinParams(0.8, 0.4, 2.5),
            wl=CoinParams(0.15, 1.1, 0.2),
            lw=CoinParams(0.6, 2.9, 1.3),
            ll=CoinParams(0.35, 0.9, 0.6),
        ),
        seed=11,
        runs=1,
    )
    series = run_averaged(config)
    # run 0 draws its schedule from the seed key (seed, 0)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    schedule = schedule_mask(scheme, ORACLE_ROUNDS, rng)
    assert series.per_player[0].tolist() == [0.0, 0.0, 0.0]
    for t, plays_b in enumerate(schedule, start=1):
        state = true_state(initial_coin_state(initial), schedule[:t], config)
        assert abs(coin_weights(state).sum() - 1.0) < 1e-12
        oracle = expected_positions(state)
        assert np.max(np.abs(series.per_player[t] - oracle)) < 1e-12, (t, plays_b)


def series_with_final(gain, stderr=0.0):
    per_player = np.zeros((2, 3))
    per_player[1] = gain
    err = np.array([0.0, stderr])
    return PayoffSeries(per_player=per_player, average_gain=per_player.mean(axis=1), stderr=err)


def test_classify_winning():
    v = classify_game(series_with_final(0.5), tol=1e-6)
    assert v.verdict is Verdict.WINNING
    assert v.gain == 0.5


def test_classify_fair_within_tolerance():
    v = classify_game(series_with_final(1e-12), tol=1e-9)
    assert v.verdict is Verdict.FAIR


def test_classify_losing():
    assert classify_game(series_with_final(-0.3), tol=1e-6).verdict is Verdict.LOSING


def test_classify_default_tolerance_uses_stderr():
    v = classify_game(series_with_final(0.02, stderr=0.01))
    assert v.tol == pytest.approx(0.03)
    assert v.verdict is Verdict.FAIR


def test_classify_empty_series():
    empty = PayoffSeries(
        per_player=np.zeros((0, 3)), average_gain=np.zeros(0), stderr=np.zeros(0)
    )
    with pytest.raises(ValueError, match="empty"):
        classify_game(empty)


def test_classify_negative_tol_rejected():
    with pytest.raises(ValueError, match="tol"):
        classify_game(series_with_final(0.1), tol=-1.0)


def _verdict(kind):
    return GameVerdict(kind, gain={"winning": 1.0, "fair": 0.0, "losing": -1.0}[kind.value], tol=1e-9)


def test_detect_paradox_examples():
    fair, losing, winning = (
        _verdict(Verdict.FAIR),
        _verdict(Verdict.LOSING),
        _verdict(Verdict.WINNING),
    )
    assert detect_paradox(fair, losing, {"periodic:2,2": winning})["periodic:2,2"]
    assert not detect_paradox(winning, losing, {"mix": winning})["mix"]
    assert not detect_paradox(losing, losing, {"mix": losing})["mix"]


@pytest.mark.parametrize(
    "a,b,c", list(itertools.product([Verdict.WINNING, Verdict.FAIR, Verdict.LOSING], repeat=3))
)
def test_detect_paradox_all_combinations(a, b, c):
    flags = detect_paradox(_verdict(a), _verdict(b), {"x": _verdict(c)})
    expect = a is not Verdict.WINNING and b is not Verdict.WINNING and c is Verdict.WINNING
    assert flags == {"x": expect}


def test_payoff_series_internal_consistency():
    series = run_averaged(SimulationConfig(initial=SEPARABLE, scheme=PURE_A, rounds=6))
    assert series.rounds == 6
    assert np.max(np.abs(series.average_gain - series.per_player.mean(axis=1))) < 1e-12
    rounds = np.arange(7)
    assert np.all(np.abs(series.per_player) <= rounds[:, None] + 1e-12)
