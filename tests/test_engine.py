import numpy as np
import pytest
from oracle import (
    apply_dense_factors,
    dense_positions,
    dense_shift_factor,
    dense_step_oracle,
    dense_toss_factors,
    state_norm,
    true_state,
    unframed_round,
)

from qparrondo import (
    GHZ,
    PURE_A,
    PURE_B,
    RANDOM_MIX,
    SEPARABLE,
    W,
    CoinParams,
    GameBParams,
    SimulationConfig,
    coin_weights,
    init_walker_state,
    initial_coin_state,
    j_entangled,
    parse_scheme,
    periodic,
    run_averaged,
)
from qparrondo import engine
from qparrondo.coins import coin_unitary
from qparrondo.engine import schedule_mask


def rng_for(seed=0):
    return np.random.default_rng(seed)


def labels(mask):
    return "".join("B" if plays_b else "A" for plays_b in mask)


def test_schedule_periodic_2_2():
    assert labels(schedule_mask(periodic(2, 2), 8, rng_for())) == "AABBAABB"


def test_schedule_periodic_3_2_truncates():
    assert labels(schedule_mask(periodic(3, 2), 5, rng_for())) == "AAABB"


def test_schedule_periodic_blocks_capped_at_the_schedule_length():
    for rounds in range(1, 13):
        t = np.arange(rounds)
        for m in range(1, 16):
            for n in range(1, 16):
                mask = schedule_mask(periodic(m, n), rounds, None)
                assert np.array_equal(mask, t % (m + n) >= m), (rounds, m, n)
    huge = 10**21
    assert labels(schedule_mask(periodic(huge, 1), 4, None)) == "AAAA"
    assert labels(schedule_mask(periodic(1, huge), 4, None)) == "ABBB"


def test_schedule_pure():
    assert labels(schedule_mask(PURE_A, 3, rng_for())) == "AAA"
    assert labels(schedule_mask(PURE_B, 4, rng_for())) == "BBBB"


def test_schedule_mix_is_seed_deterministic_and_balanced():
    a = labels(schedule_mask(RANDOM_MIX, 4000, rng_for(7)))
    b = labels(schedule_mask(RANDOM_MIX, 4000, rng_for(7)))
    assert a == b
    frac = a.count("A") / len(a)
    assert 0.45 < frac < 0.55


def test_parse_scheme():
    assert parse_scheme("a") == PURE_A
    assert parse_scheme("periodic:3,2") == periodic(3, 2)
    with pytest.raises(ValueError):
        parse_scheme("periodic:x")
    with pytest.raises(ValueError):
        parse_scheme("nonsense")


def test_scheme_validation():
    with pytest.raises(ValueError):
        periodic(0, 2)


def test_config_validation():
    with pytest.raises(ValueError, match="rounds"):
        SimulationConfig(initial=GHZ, scheme=PURE_A, rounds=0)
    with pytest.raises(ValueError, match="runs"):
        SimulationConfig(initial=GHZ, scheme=PURE_A, runs=0)
    with pytest.raises(ValueError, match="physical memory"):
        SimulationConfig(initial=GHZ, scheme=PURE_A, rounds=100_000)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SimulationConfig(initial=GHZ, scheme=PURE_A, seed=-1)


def test_step_round_b_with_equal_branches_matches_a():
    config_a = SimulationConfig(initial=SEPARABLE, scheme=PURE_A)
    config_b = SimulationConfig(
        initial=SEPARABLE, scheme=PURE_B, game_b=GameBParams.from_rhos()
    )
    a = true_state(initial_coin_state(SEPARABLE), [False], config_a)
    b = true_state(initial_coin_state(SEPARABLE), [True], config_b)
    assert np.max(np.abs(a - b)) < 1e-12


def test_step_round_a_distributes_toss_result_over_shifted_positions():
    config = SimulationConfig(initial=GHZ, scheme=PURE_A)
    out = true_state(initial_coin_state(GHZ), [False], config)
    expect = np.array([1 - 1j, 1j - 1, 1j - 1, 1j - 1, 1j - 1, 1j - 1, 1j - 1, 1 - 1j]) / 4
    for c in range(8):
        n = [(c >> (2 - a)) & 1 for a in range(3)]
        assert abs(out[c, n[0], n[1], n[2]] - expect[c]) < 1e-12
    assert np.count_nonzero(out) == 8


def test_coin_marginal_after_two_a_rounds_is_uniform():
    # with the position updates interleaved, the eight coin branches end
    # at distinct positions and cannot interfere, so two fair tosses leave
    # a uniform coin distribution (the tosses alone would restore the
    # initial entangled state)
    config = SimulationConfig(initial=GHZ, scheme=PURE_A)
    st = true_state(initial_coin_state(GHZ), [False, False], config)
    coin_marginal = (np.abs(st) ** 2).reshape(8, -1).sum(axis=1)
    assert np.max(np.abs(coin_marginal - 0.125)) < 1e-12


def test_run_simulation_ghz_pure_a_fair_every_round():
    series = run_averaged(SimulationConfig(initial=GHZ, scheme=PURE_A))
    assert np.max(np.abs(series.average_gain)) < 1e-10


def test_run_simulation_w_pure_a_losing():
    series = run_averaged(SimulationConfig(initial=W, scheme=PURE_A))
    assert series.final_gain < 0


def test_run_simulation_deterministic():
    config = SimulationConfig(initial=SEPARABLE, scheme=RANDOM_MIX, seed=123)
    a = run_averaged(config)
    b = run_averaged(config)
    assert np.array_equal(a.per_player, b.per_player)
    assert np.array_equal(a.average_gain, b.average_gain)


def test_rho4_unused_by_pure_a():
    base = SimulationConfig(initial=SEPARABLE, scheme=PURE_A)
    alt = SimulationConfig(
        initial=SEPARABLE, scheme=PURE_A, game_b=GameBParams.from_rhos(rho4=0.1)
    )
    assert np.array_equal(run_averaged(base).per_player, run_averaged(alt).per_player)


@pytest.mark.parametrize("initial", [GHZ, W, SEPARABLE])
def test_pure_a_player_symmetry(initial):
    series = run_averaged(SimulationConfig(initial=initial, scheme=PURE_A))
    spread = np.max(series.per_player, axis=1) - np.min(series.per_player, axis=1)
    assert np.max(spread) < 1e-10


def test_norm_and_support_every_round():
    config = SimulationConfig(
        initial=SEPARABLE, scheme=periodic(2, 2), game_b=GameBParams.from_rhos(rho4=0.3)
    )
    rounds = 8
    schedule = schedule_mask(config.scheme, rounds, rng_for())
    coords = np.arange(-rounds, rounds + 1)
    for t in range(1, rounds + 1):
        st = true_state(initial_coin_state(SEPARABLE), schedule[:t], config)
        assert abs(state_norm(st) - 1.0) < 1e-10
        prob = np.abs(dense_positions(st, rounds)) ** 2
        for axis in range(3):
            marginal = prob.sum(axis=tuple(a for a in range(4) if a != 1 + axis))
            beyond = np.abs(coords) > t
            assert marginal[beyond].sum() < 1e-15
            odd_parity = (coords + t) % 2 == 1
            assert marginal[odd_parity].sum() < 1e-15


def walk_run(config, k):
    """Run k's per-player payoffs, walked on their own: its schedule comes
    from the seed key (seed, k)."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, k)))
    per_player = np.zeros((config.rounds + 1, 3))
    mask = schedule_mask(config.scheme, config.rounds, rng)
    engine._walk(initial_coin_state(config.initial), mask, config, per_player)
    return per_player


def test_run_averaged_single_run_matches_run_simulation():
    config = SimulationConfig(initial=SEPARABLE, scheme=RANDOM_MIX, seed=9, runs=1)
    avg = run_averaged(config)
    single = walk_run(config, 0)
    assert np.array_equal(avg.per_player, single)
    assert np.array_equal(avg.average_gain, single.mean(axis=1))
    assert np.all(avg.stderr == 0)


def test_run_averaged_pure_a_zero_stderr():
    config = SimulationConfig(initial=GHZ, scheme=PURE_A, runs=4)
    avg = run_averaged(config)
    assert np.all(avg.stderr < 1e-15)


def test_run_averaged_mix_stderr_positive():
    config = SimulationConfig(
        initial=SEPARABLE,
        scheme=RANDOM_MIX,
        runs=6,
        game_b=GameBParams.from_rhos(rho4=0.2),
    )
    avg = run_averaged(config)
    assert avg.final_stderr > 0


def test_one_round_matches_dense_oracle_both_labels():
    rho4 = 0.3
    config = SimulationConfig(
        initial=SEPARABLE, scheme=PURE_B, game_b=GameBParams.from_rhos(rho4=rho4)
    )
    fair = coin_unitary(CoinParams(0.5))
    special = coin_unitary(CoinParams(rho4))
    coin_state = initial_coin_state(SEPARABLE)
    st = init_walker_state(coin_state)
    dense_a = dense_step_oracle(dense_positions(st, 2), [fair] * 3)
    walked_a = true_state(coin_state, [False], config)
    assert np.max(np.abs(dense_positions(walked_a, 2) - dense_a)) < 1e-10
    dense_b = dense_step_oracle(dense_positions(st, 2), [(fair, fair, fair, special)] * 3)
    walked_b = true_state(coin_state, [True], config)
    assert np.max(np.abs(dense_positions(walked_b, 2) - dense_b)) < 1e-10


# coins of the mixed-round test: non-default rhos and phases theta=0.7, phi=1.9
MIXED_COIN_A = CoinParams(0.4, 0.7, 1.9)
MIXED_GAME_B = GameBParams.from_rhos(0.6, 0.5, 0.3, 0.2, 0.7, 1.9)


@pytest.fixture(scope="module")
def mixed_round_factors():
    """Dense factors of one round of each game with the mixed-round coins on
    the lattice -3..3, keyed by plays_b: assembled once for every case of
    this module (seven 0.12 GB matrices, the shift shared) and freed with it."""
    b = MIXED_GAME_B
    ops = {
        False: [coin_unitary(MIXED_COIN_A)] * 3,
        True: [tuple(coin_unitary(p) for p in (b.ww, b.wl, b.lw, b.ll))] * 3,
    }
    shift = dense_shift_factor(3)
    return {plays_b: [*dense_toss_factors(3, ops[plays_b]), shift] for plays_b in ops}


@pytest.mark.parametrize("initial", [GHZ, W, SEPARABLE])
def test_three_mixed_rounds_match_dense_oracle(initial, mixed_round_factors):
    # the count window grows every round; each round is checked against
    # the dense Kronecker round on the fixed lattice -3..3
    config = SimulationConfig(
        initial=initial, scheme=PURE_B, coin_a=MIXED_COIN_A, game_b=MIXED_GAME_B
    )
    schedule = (True, False, True)
    st = init_walker_state(initial_coin_state(initial))
    for t, plays_b in enumerate(schedule, start=1):
        dense = apply_dense_factors(dense_positions(st, 3), mixed_round_factors[plays_b])
        st = true_state(initial_coin_state(initial), schedule[:t], config)
        assert np.max(np.abs(dense_positions(st, 3) - dense)) < 1e-10


def walk_payoffs(initial, scheme, rounds):
    """Per-round payoffs and final state of one walk."""
    config = SimulationConfig(
        initial=initial, scheme=scheme, rounds=rounds,
        coin_a=CoinParams(0.4, 0.7, 1.9), game_b=GameBParams.from_rhos(rho4=0.3),
    )
    mask = schedule_mask(scheme, rounds, rng_for())
    per_player = np.zeros((rounds + 1, 3))
    final = engine._walk(initial_coin_state(initial), mask, config, per_player)
    return per_player, final


def test_walk_after_a_larger_walk_equals_the_walk_played_first():
    # np.empty hands a walk the amplitudes of earlier walks; it must not see
    # any of them
    expected, expected_final = walk_payoffs(SEPARABLE, periodic(2, 1), 7)
    walk_payoffs(GHZ, PURE_B, 12)
    payoffs, final = walk_payoffs(SEPARABLE, periodic(2, 1), 7)
    assert np.array_equal(payoffs, expected)
    assert np.array_equal(final, expected_final)


def test_memory_bound_counts_two_states(monkeypatch):
    rounds = 9
    need = 2 * 8 * (rounds + 1) ** 3 * 16
    monkeypatch.setattr(engine, "_physical_memory_bytes", lambda: need)
    SimulationConfig(initial=GHZ, scheme=PURE_A, rounds=rounds)
    monkeypatch.setattr(engine, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match="physical memory"):
        SimulationConfig(initial=GHZ, scheme=PURE_A, rounds=rounds)


def test_memory_bound_counts_the_payoffs_of_every_mix_run(monkeypatch):
    rounds, runs = 9, 1000
    need = 2 * 8 * (rounds + 1) ** 3 * 16 + runs * (rounds + 1) * 4 * 8
    monkeypatch.setattr(engine, "_physical_memory_bytes", lambda: need)
    SimulationConfig(initial=GHZ, scheme=RANDOM_MIX, rounds=rounds, runs=runs)
    monkeypatch.setattr(engine, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match="runs 1000 of 9 rounds .* physical memory"):
        SimulationConfig(initial=GHZ, scheme=RANDOM_MIX, rounds=rounds, runs=runs)
    # a fixed schedule is played once, whatever runs says
    SimulationConfig(initial=GHZ, scheme=periodic(2, 2), rounds=rounds, runs=runs)


def test_run_averaged_equals_the_mean_of_its_runs_bitwise():
    config = SimulationConfig(
        initial=SEPARABLE, scheme=RANDOM_MIX, runs=7, game_b=GameBParams.from_rhos(rho4=0.2)
    )
    runs = [walk_run(config, k) for k in range(config.runs)]
    gains = np.stack([per_player.mean(axis=1) for per_player in runs])
    avg = run_averaged(config)
    assert np.array_equal(avg.per_player, np.mean(runs, axis=0))
    assert np.array_equal(avg.average_gain, gains.mean(axis=0))
    assert np.array_equal(avg.stderr, gains.std(axis=0, ddof=1) / np.sqrt(config.runs))


# --- the coin-phase frame ---------------------------------------------------

FRAME_ROUNDS = 6
# row c: the step (+1 for |R>, -1 for |L>) of axes 1, 2, 3 under coin c = 4 b1 + 2 b2 + b3
STEPS = np.array([[2 * ((c >> shift) & 1) - 1 for shift in (2, 1, 0)] for c in range(8)])


def random_coin_state():
    v = np.random.default_rng(7).normal(size=(8, 2)) @ np.array([1.0, 1j])
    return v / np.linalg.norm(v)


FRAME_STATES = {
    "ghz": initial_coin_state(GHZ),
    "w": initial_coin_state(W),
    "sep": initial_coin_state(SEPARABLE),
    "j": initial_coin_state(j_entangled(0.7)),
    "random": random_coin_state(),
}


def shared_phases(theta, phi):
    return CoinParams(0.3, theta, phi), GameBParams.from_rhos(0.8, 0.15, 0.6, 0.35, theta, phi)


# (coin_a, game_b, dtype of the operators the framed walk tosses with)
FRAME_PHASES = {
    "default": (*shared_phases(np.pi / 2, np.pi / 2), np.float64),
    "zero": (*shared_phases(0.0, 0.0), np.float64),
    "complex": (*shared_phases(0.7, 1.9), np.complex128),
    "branches": (
        CoinParams(0.3, 0.7, 1.9),
        GameBParams(
            ww=CoinParams(0.8, 0.4, 2.5),
            wl=CoinParams(0.15, 1.1, 0.2),
            lw=CoinParams(0.6, 2.9, 1.3),
            ll=CoinParams(0.35, 0.9, 0.6),
        ),
        np.complex128,
    ),
}


@pytest.mark.parametrize("scheme", ["a", "b", "periodic:2,1", "mix"])
@pytest.mark.parametrize("phases", FRAME_PHASES)
@pytest.mark.parametrize("start", FRAME_STATES)
def test_framed_walk_matches_unframed_step_rounds(monkeypatch, start, phases, scheme):
    coin_a, game_b, dtype = FRAME_PHASES[phases]
    config = SimulationConfig(
        initial=GHZ, scheme=parse_scheme(scheme), rounds=FRAME_ROUNDS,
        coin_a=coin_a, game_b=game_b,
    )
    mask = schedule_mask(config.scheme, FRAME_ROUNDS, rng_for(3))
    # oracle: the unframed round on the true state, payoffs from its weights
    state = init_walker_state(FRAME_STATES[start])
    expected = np.zeros((FRAME_ROUNDS + 1, 3))
    for t, plays_b in enumerate(mask, start=1):
        state = unframed_round(state, plays_b, config)
        expected[t] = expected[t - 1] + coin_weights(state) @ STEPS
    tossed_with = []
    apply = engine._apply_coin_register_op

    def recording(state, op8, out):
        tossed_with.append(op8.dtype)
        return apply(state, op8, out)

    monkeypatch.setattr(engine, "_apply_coin_register_op", recording)
    per_player = np.zeros((FRAME_ROUNDS + 1, 3))
    final = engine._walk(FRAME_STATES[start], mask, config, per_player)
    assert set(tossed_with) == {np.dtype(dtype)}
    assert np.max(np.abs(per_player - expected)) < 1e-12
    # _walk returns the framed state chi; the true state is D chi
    frame = np.exp(1j * coin_a.phi * (STEPS > 0).sum(axis=1))[:, None, None, None]
    assert np.max(np.abs(frame * final - state)) < 1e-12


def test_game_b_phases_beyond_the_frame_refused():
    # the frame adds coin_a's phi to every game B theta
    with pytest.raises(ValueError, match="game_b.lw phases"):
        SimulationConfig(
            initial=GHZ, scheme=PURE_B, coin_a=CoinParams(0.5, 0.0, 1e308),
            game_b=GameBParams(*[CoinParams(0.5)] * 2, CoinParams(0.5, 1e308, 0.0),
                               CoinParams(0.5)),
        )


def test_coin_a_phi_beyond_the_frame_refused():
    # the frame's phases reach 3 phi_a, which overflows although phi_a does not
    with pytest.raises(ValueError, match="coin_a's phi=7e\\+307 is too large"):
        SimulationConfig(initial=GHZ, scheme=PURE_A, coin_a=CoinParams(0.5, -7e307, 7e307))
    SimulationConfig(initial=GHZ, scheme=PURE_A, coin_a=CoinParams(0.5, -5e307, 5e307))
