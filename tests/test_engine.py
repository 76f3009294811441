import sys
import threading
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from oracle import (
    coin_weights,
    dense_positions,
    dense_step_oracle,
    gauged_start,
    joined,
    kron_round,
    pure_a_positions,
    split,
    state_norm,
    true_state,
    unframed_round,
    ungauge,
    walk_inputs,
)

from qparrondo import (
    GHZ,
    PURE_A,
    PURE_B,
    RANDOM_MIX,
    SEPARABLE,
    W,
    SimulationConfig,
    init_walker_state,
    initial_coin_state,
    j_entangled,
    parse_scheme,
    periodic,
    run_averaged,
)
from qparrondo import engine
from qparrondo.coins import HALF_PI, coin_unitary
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


@pytest.mark.parametrize("rounds", [1, 2, 3, 16, 17, 10**4, 10**4 + 1])
def test_schedule_mix_replays_integers_bit_for_bit(rounds):
    # the mix reads the raw bits that integers(0, 2) consumes, so both the
    # schedule and the generator's next draw are those of the documented
    # stream, for even and odd lengths
    for seed in range(6):
        reference, fast = rng_for(seed), rng_for(seed)
        expect = reference.integers(0, 2, size=rounds) == 1
        mask = schedule_mask(RANDOM_MIX, rounds, fast)
        assert mask.dtype == bool and mask.shape == (rounds,)
        assert np.array_equal(mask, expect), (rounds, seed)
        assert fast.random() == reference.random(), (rounds, seed)


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
    config_b = SimulationConfig(initial=SEPARABLE, scheme=PURE_B)
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
    alt = SimulationConfig(initial=SEPARABLE, scheme=PURE_A, rho4=0.1)
    assert np.array_equal(run_averaged(base).per_player, run_averaged(alt).per_player)


@pytest.mark.parametrize("initial", [GHZ, W, SEPARABLE])
def test_pure_a_player_symmetry(initial):
    series = run_averaged(SimulationConfig(initial=initial, scheme=PURE_A))
    spread = np.max(series.per_player, axis=1) - np.min(series.per_player, axis=1)
    assert np.max(spread) < 1e-10


def test_norm_and_support_every_round():
    config = SimulationConfig(initial=SEPARABLE, scheme=periodic(2, 2), rho4=0.3)
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
    engine._walk(*walk_inputs(initial_coin_state(config.initial), config), mask, per_player)
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
        rho4=0.2,
    )
    avg = run_averaged(config)
    assert avg.final_stderr > 0


def test_one_round_matches_dense_oracle_both_labels():
    rho4 = 0.3
    config = SimulationConfig(initial=SEPARABLE, scheme=PURE_B, rho4=rho4)
    fair = coin_unitary(0.5)
    special = coin_unitary(rho4)
    coin_state = initial_coin_state(SEPARABLE)
    st = init_walker_state(coin_state)
    dense_a = dense_step_oracle(dense_positions(st, 2), [fair] * 3)
    walked_a = true_state(coin_state, [False], config)
    assert np.max(np.abs(dense_positions(walked_a, 2) - dense_a)) < 1e-10
    dense_b = dense_step_oracle(dense_positions(st, 2), [(fair, fair, fair, special)] * 3)
    walked_b = true_state(coin_state, [True], config)
    assert np.max(np.abs(dense_positions(walked_b, 2) - dense_b)) < 1e-10


# coins of the mixed-round test: non-default rhos and phases theta=0.7, phi=1.9
MIXED_COINS = dict(rho0=0.4, rho1=0.6, rho2=0.5, rho3=0.3, rho4=0.2, theta=0.7)
MIXED_PHI = 1.9


@pytest.fixture(scope="module")
def mixed_round_ops():
    """Per-player coin operators of one round of each game with the
    mixed-round coins, keyed by plays_b, as ``kron_round`` takes them."""
    rhos, theta = [MIXED_COINS[f"rho{k}"] for k in range(5)], MIXED_COINS["theta"]
    return {
        False: [coin_unitary(rhos[0], theta, MIXED_PHI)] * 3,
        True: [tuple(coin_unitary(rho, theta, MIXED_PHI) for rho in rhos[1:])] * 3,
    }


@pytest.mark.parametrize("initial", [GHZ, W, SEPARABLE])
def test_three_mixed_rounds_match_dense_oracle(initial, mixed_round_ops):
    # the count window grows every round; each round is checked against
    # the Kronecker round on the fixed lattice -3..3, its factors applied
    # piece by piece
    config = SimulationConfig(initial=initial, scheme=PURE_B, **MIXED_COINS)
    schedule = (True, False, True)
    st = init_walker_state(initial_coin_state(initial))
    for t, plays_b in enumerate(schedule, start=1):
        dense = kron_round(dense_positions(st, 3), mixed_round_ops[plays_b])
        st = true_state(initial_coin_state(initial), schedule[:t], config, MIXED_PHI)
        assert np.max(np.abs(dense_positions(st, 3) - dense)) < 1e-10


def use_slab_sites(monkeypatch, sites):
    """Play this test's walks in slabs of ``sites`` sites, in a fresh
    workspace whose views are built for them, and check configs against
    workspace sizes counted for them in a fresh cache."""
    monkeypatch.setattr(engine, "_SLAB_SITES", sites)
    monkeypatch.setattr(engine, "_WORKSPACE", engine._Workspace())
    monkeypatch.setattr(engine, "_workspace_bytes", lru_cache(engine._workspace_bytes.__wrapped__))


@pytest.mark.parametrize("initial", [GHZ, W, SEPARABLE])
def test_three_mixed_rounds_in_one_plane_slabs_match_dense_oracle(
    monkeypatch, initial, mixed_round_ops
):
    # rounds 2 and 3 are played in two and three slabs
    use_slab_sites(monkeypatch, 1)
    test_three_mixed_rounds_match_dense_oracle(initial, mixed_round_ops)


# (config fields, phi) of walk_payoffs: the default phases, and theta=0.7,
# phi=1.9, where no coin has a real multiple
WALK_COINS = {
    "real": (dict(rho0=0.4, rho4=0.3), HALF_PI),
    "complex": (MIXED_COINS, MIXED_PHI),
}


def one_source(coin_state, config):
    """The one real source of a start real up to a global phase: its
    gauged start rotated by the phase of sqrt(s.s), real part."""
    start = gauged_start(coin_state, config)
    square = start @ start
    return (start / np.sqrt(square / abs(square))).real[:, None]


def walk_payoffs(initial, scheme, rounds, coins="complex", sources=2):
    """Per-round payoffs and a copy of the final state of one walk, from
    the start's two sources (Re, Im) or, if ``sources`` is 1, from its one
    real source: the walk returns a view of its thread's workspace, which
    the next walk overwrites."""
    config = SimulationConfig(
        initial=initial, scheme=scheme, rounds=rounds, **WALK_COINS[coins][0]
    )
    mask = schedule_mask(scheme, rounds, rng_for())
    per_player = np.zeros((rounds + 1, 3))
    start, ops = walk_inputs(initial_coin_state(initial), config)
    if sources == 1:
        start = one_source(initial_coin_state(initial), config)
    final = engine._walk(start, ops, mask, per_player)
    return per_player, final.copy()


def test_walk_after_a_larger_walk_equals_the_walk_played_first():
    # a workspace built for a walk of another length holds whatever its
    # allocation held; the walk must not see any of it. The 20-round walk
    # plays its last four rounds in two slabs each.
    for rounds, larger in ((7, 12), (20, 24)):
        expected, expected_final = walk_payoffs(SEPARABLE, periodic(2, 1), rounds)
        walk_payoffs(GHZ, PURE_B, larger)
        payoffs, final = walk_payoffs(SEPARABLE, periodic(2, 1), rounds)
        assert np.array_equal(payoffs, expected)
        assert np.array_equal(final, expected_final)


def test_walk_after_a_walk_of_the_same_length_equals_the_walk_played_first():
    # the workspace is reused as it is: the second walk's amplitudes fill
    # the faces that the third walk's shifts do not copy into
    for rounds in (7, 20):
        expected, expected_final = walk_payoffs(SEPARABLE, periodic(2, 1), rounds)
        _, other_final = walk_payoffs(W, PURE_B, rounds)
        payoffs, final = walk_payoffs(SEPARABLE, periodic(2, 1), rounds)
        assert not np.array_equal(other_final, expected_final)
        assert np.array_equal(payoffs, expected)
        assert np.array_equal(final, expected_final)


def test_walk_in_a_workspace_poisoned_with_nan_equals_the_walk_played_first():
    for rounds in (7, 20):
        expected, expected_final = walk_payoffs(GHZ, RANDOM_MIX, rounds)
        for buffer in (engine._WORKSPACE.buffer, engine._WORKSPACE.scratch):
            buffer.fill(np.nan)
        payoffs, final = walk_payoffs(GHZ, RANDOM_MIX, rounds)
        assert np.array_equal(payoffs, expected)
        assert np.array_equal(final, expected_final)


@pytest.mark.parametrize("first", [1, 2])
def test_walk_after_a_walk_of_other_sources_equals_the_walk_played_first(first):
    # a workspace built for another number of sources is rebuilt: W's one
    # real source after its two sources (Re, Im) of the same length, and
    # the reverse
    for rounds in (7, 20):
        expected, expected_final = walk_payoffs(W, periodic(2, 1), rounds, sources=first)
        walk_payoffs(W, PURE_B, rounds, sources=3 - first)
        payoffs, final = walk_payoffs(W, periodic(2, 1), rounds, sources=first)
        assert final.shape[-1] == first
        assert np.array_equal(payoffs, expected)
        assert np.array_equal(final, expected_final)


@pytest.mark.parametrize("rounds", [(7, 12), (12, 12), (12, 20)])
def test_two_threads_walking_at_once_equal_the_serial_walks(rounds):
    # each thread walks in its own workspace; a shortened switch interval
    # interleaves their rounds
    walk_in_two_threads([(SEPARABLE, periodic(2, 1), rounds[0]), (GHZ, PURE_B, rounds[1])])


@pytest.mark.parametrize("rounds", [12, 20])
def test_two_threads_walking_one_and_two_sources_equal_the_serial_walks(rounds):
    walk_in_two_threads([(W, periodic(2, 1), rounds, "complex", 1), (W, PURE_B, rounds)])


def walk_in_two_threads(plays):
    """Play each of the two ``plays`` (walk_payoffs' arguments) 20 times in
    a thread of its own, both at once, and check every walk against the
    same play walked serially."""
    serial = [walk_payoffs(*play) for play in plays]
    results = [[], []]
    barrier = threading.Barrier(2, timeout=30)

    def walk(k):
        barrier.wait()
        for _ in range(20):
            results[k].append(walk_payoffs(*plays[k]))

    threads = [threading.Thread(target=walk, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k in range(2):
        assert len(results[k]) == 20
        for payoffs, final in results[k]:
            assert np.array_equal(payoffs, serial[k][0])
            assert np.array_equal(final, serial[k][1])


SCHEMES = {"a": PURE_A, "b": PURE_B, "periodic:2,1": periodic(2, 1), "mix": RANDOM_MIX}


@pytest.mark.parametrize("coins", WALK_COINS)
@pytest.mark.parametrize("rounds", [7, 20])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("initial", [GHZ, W, SEPARABLE], ids=["ghz", "w", "sep"])
def test_walk_does_not_depend_on_the_slab_size(monkeypatch, initial, scheme, rounds, coins):
    # slabs of one i-plane, of the engine's 4096 sites (every round of 16
    # or fewer rounds in one slab), and of a whole round at every size
    walks = []
    for sites in (1, 4096, (rounds + 1) ** 3):
        use_slab_sites(monkeypatch, sites)
        walks.append(walk_payoffs(initial, SCHEMES[scheme], rounds, coins))
    (payoffs, final), *others = walks
    for other_payoffs, other_final in others:
        assert np.max(np.abs(other_payoffs - payoffs)) < 1e-12
        assert np.max(np.abs(other_final - final)) < 1e-14


@pytest.mark.parametrize("theta, phi", [(HALF_PI, HALF_PI), (0.3, 1.1)],
                         ids=["default", "complex"])
@pytest.mark.parametrize("initial", [GHZ, W, SEPARABLE, j_entangled(0.7)],
                         ids=["ghz", "w", "sep", "j0.7"])
@pytest.mark.parametrize("rounds", [24, 40])
def test_pure_a_matches_three_1d_walks(initial, theta, phi, rounds):
    # rounds past the 16th are played in several slabs
    config = SimulationConfig(initial=initial, scheme=PURE_A, rounds=rounds, theta=theta)
    expected = pure_a_positions(initial_coin_state(initial), coin_unitary(0.5, theta, phi), rounds)
    assert np.max(np.abs(run_averaged(config).per_player - expected)) < 1e-12


def test_pure_a_matches_three_1d_walks_in_one_plane_slabs():
    # from 64 rounds on every slab of a round is one i-plane
    test_pure_a_matches_three_1d_walks(SEPARABLE, 0.3, 1.1, 70)


def test_memory_bound_counts_one_state(monkeypatch):
    # one state of 8 * 10^3 amplitudes, the scratch of the largest slab,
    # all 9^3 sites of the last round's state, and the views of 9 rounds
    # of one slab each, and of the workspace itself
    rounds = 9
    need = (8 * (rounds + 1) ** 3 + 8 * rounds**3) * 16 + 22 * engine._VIEW_BYTES
    monkeypatch.setattr(engine, "_physical_memory_bytes", lambda: need)
    SimulationConfig(initial=GHZ, scheme=PURE_A, rounds=rounds)
    monkeypatch.setattr(engine, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match="physical memory"):
        SimulationConfig(initial=GHZ, scheme=PURE_A, rounds=rounds)


def test_memory_bound_counts_the_payoffs_of_every_mix_run(monkeypatch):
    rounds, runs = 9, 1000
    need = engine._workspace_bytes(rounds, 2) + runs * (rounds + 1) * 4 * 8
    monkeypatch.setattr(engine, "_physical_memory_bytes", lambda: need)
    SimulationConfig(initial=GHZ, scheme=RANDOM_MIX, rounds=rounds, runs=runs)
    monkeypatch.setattr(engine, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match="runs 1000 of 9 rounds .* physical memory"):
        SimulationConfig(initial=GHZ, scheme=RANDOM_MIX, rounds=rounds, runs=runs)
    # a fixed schedule is played once, whatever runs says
    SimulationConfig(initial=GHZ, scheme=periodic(2, 2), rounds=rounds, runs=runs)


@pytest.mark.parametrize("rounds", [1, 16, 17, 40, 70])
def test_memory_bound_counts_the_workspace_a_walk_allocates(monkeypatch, rounds):
    # its buffers, and the views of each of its slabs and rounds and of
    # the workspace itself
    workspace = engine._Workspace()
    workspace.prepare(rounds, 2)
    views = (len(workspace.weights) + rounds + 4) * engine._VIEW_BYTES
    need = workspace.buffer.nbytes + workspace.scratch.nbytes + views
    monkeypatch.setattr(engine, "_physical_memory_bytes", lambda: need)
    SimulationConfig(initial=GHZ, scheme=PURE_A, rounds=rounds)
    monkeypatch.setattr(engine, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match="physical memory"):
        SimulationConfig(initial=GHZ, scheme=PURE_A, rounds=rounds)


@pytest.mark.parametrize("rounds", [1, 16, 100])
def test_traced_workspace_stays_within_the_memory_bound(rounds):
    # everything prepare() allocates, the per-slab views that a 100-round
    # workspace keeps (about 7 MB) among it, is counted by the check, for
    # walks of one and of two sources
    for sources in (1, 2):
        tracemalloc.start()
        try:
            engine._Workspace().prepare(rounds, sources)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= engine._workspace_bytes(rounds, sources), sources


def test_run_averaged_equals_the_mean_of_its_runs_bitwise():
    config = SimulationConfig(
        initial=SEPARABLE, scheme=RANDOM_MIX, runs=7, rho4=0.2
    )
    runs = [walk_run(config, k) for k in range(config.runs)]
    gains = np.stack([per_player.mean(axis=1) for per_player in runs])
    avg = run_averaged(config)
    assert np.array_equal(avg.per_player, np.mean(runs, axis=0))
    assert np.array_equal(avg.average_gain, gains.mean(axis=0))
    assert np.array_equal(avg.stderr, gains.std(axis=0, ddof=1) / np.sqrt(config.runs))


# --- the phase gauge ------------------------------------------------------

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


def shared_phases(theta, phi, rhos=(0.3, 0.8, 0.15, 0.6, 0.35)):
    return {**{f"rho{k}": rho for k, rho in enumerate(rhos)}, "theta": theta}, phi


# (config fields, phi): all five coins share (theta, phi)
FRAME_PHASES = {
    "default": shared_phases(np.pi / 2, np.pi / 2),
    "zero": shared_phases(0.0, 0.0),
    "complex": shared_phases(0.7, 1.9),
    # a shared phase pair and rhos for every coin of no special value
    "branches": shared_phases(-3.31, 8.07, rhos=(0.05, 0.91, 0.42, 0.71, 0.27)),
    # 3 phi overflows float64; only unit phases are multiplied
    "huge": shared_phases(-7e307, 7e307),
}


def oracle_walk(coin_state, mask, config, phi):
    """The payoffs after every round and the final state of the rounds of
    ``mask``, played by unframed_round on the true state with the coins'
    phases (config.theta, ``phi``)."""
    state = init_walker_state(coin_state)
    expected = np.zeros((len(mask) + 1, 3))
    for t, plays_b in enumerate(mask, start=1):
        state = unframed_round(state, plays_b, config, phi)
        expected[t] = expected[t - 1] + coin_weights(state) @ STEPS
    return expected, state


@pytest.mark.parametrize("scheme", ["a", "b", "periodic:2,1", "mix"])
@pytest.mark.parametrize("phases", FRAME_PHASES)
@pytest.mark.parametrize("start", FRAME_STATES)
def test_framed_walk_matches_unframed_step_rounds(start, phases, scheme):
    # the engine tosses real operators from the gauged start; the oracle
    # tosses the full complex coins U(rho, theta, phi) on the true state
    coins, phi = FRAME_PHASES[phases]
    config = SimulationConfig(
        initial=GHZ, scheme=parse_scheme(scheme), rounds=FRAME_ROUNDS, **coins
    )
    mask = schedule_mask(config.scheme, FRAME_ROUNDS, rng_for(3))
    expected, state = oracle_walk(FRAME_STATES[start], mask, config, phi)
    sources, ops = walk_inputs(FRAME_STATES[start], config)
    assert all(op.dtype == np.float64 for op in ops)
    per_player = np.zeros((FRAME_ROUNDS + 1, 3))
    chi = joined(engine._walk(sources, ops, mask, per_player))
    assert np.max(np.abs(per_player - expected)) < 1e-12
    assert np.max(np.abs(ungauge(chi, config, phi) - state)) < 1e-12


@pytest.mark.parametrize("coins", WALK_COINS)
@pytest.mark.parametrize("rounds", [1, 4, 9])
def test_one_plane_slabs_in_a_nan_workspace_match_unframed_rounds(monkeypatch, rounds, coins):
    # each round shifts within the state's own buffer, its slabs from the
    # top i-plane down: a copy that landed on a plane not yet read would
    # change what a later slab tosses, and an amplitude that no copy or
    # face fill wrote would keep its NaN
    use_slab_sites(monkeypatch, 1)
    fields, phi = WALK_COINS[coins]
    config = SimulationConfig(initial=GHZ, scheme=RANDOM_MIX, rounds=rounds, **fields)
    mask = schedule_mask(RANDOM_MIX, rounds, rng_for(3))
    expected, state = oracle_walk(FRAME_STATES["random"], mask, config, phi)
    engine._WORKSPACE.prepare(rounds, 2)
    for buffer in (engine._WORKSPACE.buffer, engine._WORKSPACE.scratch):
        buffer.fill(np.nan)
    per_player = np.zeros((rounds + 1, 3))
    chi = joined(engine._walk(*walk_inputs(FRAME_STATES["random"], config), mask, per_player))
    assert np.max(np.abs(per_player - expected)) < 1e-12
    assert np.max(np.abs(ungauge(chi, config, phi) - state)) < 1e-12


@pytest.mark.parametrize("phi", [0.0, 1.9, -7e307])
def test_phi_moves_no_payoff(phi):
    # phi is no input of a walk: the true walk, whose coins U(rho, theta,
    # phi) are tossed one player at a time, has run_averaged's payoffs at
    # every phi, for every scheme
    coins, _ = FRAME_PHASES["complex"]
    for scheme in SCHEMES.values():
        config = SimulationConfig(initial=SEPARABLE, scheme=scheme, rounds=7, runs=1, **coins)
        # run 0's schedule, from the seed key (seed, 0)
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
        mask = schedule_mask(scheme, config.rounds, rng)
        expected, _ = oracle_walk(initial_coin_state(SEPARABLE), mask, config, phi)
        assert np.max(np.abs(run_averaged(config).per_player - expected)) < 1e-12


def test_round_operators_are_real_for_every_coin():
    rng = np.random.default_rng(5)
    for rhos in [(0.0,) * 5, (1.0,) * 5, (0.5,) * 5, *rng.random((20, 5))]:
        for op in engine._round_operators(*rhos):
            assert op.dtype == np.float64 and op.flags.c_contiguous
            assert np.max(np.abs(op.T @ op - np.eye(8))) < 1e-14


# --- the round loop's explicit inputs -------------------------------------


def shifted_rounds(start, ops, mask, wrong=None):
    """The payoffs after every round and the final state of the rounds of
    ``mask`` from ``start`` at the origin: each round tosses the coin axis
    with ``ops[plays_b]``, adds its coin weights' steps, and copies each
    coin component c = 4 b1 + 2 b2 + b3 into a zeroed state one count
    larger per axis, advanced along each axis whose bit is |R>. Component
    ``wrong``, if given, moves the wrong way along axis 1."""
    state = start.reshape(8, 1, 1, 1)
    payoffs = np.zeros((len(mask) + 1, 3))
    for t, plays_b in enumerate(mask, start=1):
        tossed = np.tensordot(ops[int(plays_b)], state, axes=1)
        payoffs[t] = payoffs[t - 1] + np.sum(np.abs(tossed) ** 2, axis=(1, 2, 3)) @ STEPS
        n = tossed.shape[1]
        state = np.zeros((8, n + 1, n + 1, n + 1), dtype=complex)
        for c in range(8):
            b1, b2, b3 = (c >> 2) & 1, (c >> 1) & 1, c & 1
            if c == wrong:
                b1 = 1 - b1
            state[c, b1:b1 + n, b2:b2 + n, b3:b3 + n] = tossed[c]
    return payoffs, state


@pytest.mark.parametrize("rounds", [7, 20])
def test_walk_plays_any_orthogonal_pair_from_any_start(rounds):
    # operators no config makes: a random real orthogonal pair, from a
    # random complex start; the 20-round walk plays its last rounds in
    # several slabs
    rng = np.random.default_rng(rounds)
    ops = tuple(np.linalg.qr(rng.normal(size=(8, 8)))[0] for _ in range(2))
    start = rng.normal(size=8) + 1j * rng.normal(size=8)
    start /= np.linalg.norm(start)
    mask = rng.random(rounds) < 0.5
    per_player = np.zeros((rounds + 1, 3))
    final = joined(engine._walk(split(start), ops, mask, per_player))
    expected, state = shifted_rounds(start, ops, mask)
    assert np.max(np.abs(per_player - expected)) < 1e-12
    assert np.max(np.abs(final - state)) < 1e-12
    # the reference has power: one component moved the wrong way is seen
    for wrong in range(8):
        _, moved = shifted_rounds(start, ops, mask, wrong)
        assert np.max(np.abs(final - moved)) > 1e-6


def test_mix_builds_its_start_once_for_all_runs(monkeypatch):
    built = []
    init = engine.init_walker_state

    def counted(coin_state):
        built.append(coin_state)
        return init(coin_state)

    monkeypatch.setattr(engine, "init_walker_state", counted)
    run_averaged(SimulationConfig(initial=SEPARABLE, scheme=RANDOM_MIX, runs=10))
    assert len(built) == 1


# --- the walk's real sources ----------------------------------------------


def recorded_sources(monkeypatch) -> list:
    """Record the sources of every walk that run_averaged plays."""
    played, walk = [], engine._walk

    def recorded(sources, *args):
        played.append(sources.copy())
        return walk(sources, *args)

    monkeypatch.setattr(engine, "_walk", recorded)
    return played


@pytest.mark.parametrize("rounds", [16, 40])
@pytest.mark.parametrize("scheme", ["a", "b", "periodic:2,2", "mix"])
@pytest.mark.parametrize("initial", [W, j_entangled(0.7)], ids=["w", "j0.7"])
def test_a_real_start_played_as_one_source_matches_its_two_parts(
    monkeypatch, initial, scheme, rounds
):
    # W and J(0.7) at theta = pi/2 are real up to a global phase: the walk
    # plays one source, within 1e-12 of the start played as (Re, Im); the
    # mix's one run draws its schedule from the seed key (seed, 0)
    config = SimulationConfig(
        initial=initial, scheme=parse_scheme(scheme), rounds=rounds, runs=1, rho1=0.7, rho4=0.3
    )
    played = recorded_sources(monkeypatch)
    series = run_averaged(config)
    assert [sources.shape for sources in played] == [(8, 1)]
    assert np.max(np.abs(series.per_player - walk_run(config, 0))) < 1e-12


@pytest.mark.parametrize("initial, theta", [
    (GHZ, HALF_PI), (SEPARABLE, HALF_PI), (j_entangled(0.7), 0.7), (j_entangled(0.7), 2.0),
], ids=["ghz", "sep", "j0.7-theta0.7", "j0.7-theta2"])
def test_a_complex_start_plays_its_two_parts(monkeypatch, initial, theta):
    config = SimulationConfig(initial=initial, scheme=PURE_B, rho4=0.3, theta=theta)
    played = recorded_sources(monkeypatch)
    run_averaged(config)
    assert len(played) == 1
    assert np.array_equal(played[0], walk_inputs(initial_coin_state(initial), config)[0])


@pytest.mark.parametrize("scheme", ["a", "b", "periodic:2,1", "mix"])
def test_a_random_complex_start_plays_two_sources_and_matches_the_oracle(monkeypatch, scheme):
    # run_averaged from the random start, against rounds of the full complex
    # coins tossed one player at a time on the true state
    coins, phi = FRAME_PHASES["complex"]
    config = SimulationConfig(
        initial=GHZ, scheme=parse_scheme(scheme), rounds=FRAME_ROUNDS, runs=1, **coins
    )
    monkeypatch.setattr(engine, "initial_coin_state", lambda initial: FRAME_STATES["random"])
    played = recorded_sources(monkeypatch)
    series = run_averaged(config)
    assert [sources.shape for sources in played] == [(8, 2)]
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    mask = schedule_mask(config.scheme, FRAME_ROUNDS, rng)
    expected, _ = oracle_walk(FRAME_STATES["random"], mask, config, phi)
    assert np.max(np.abs(series.per_player - expected)) < 1e-12


@pytest.mark.parametrize("theta", [HALF_PI, 0.7])
def test_separable_played_as_its_rotated_real_part_alone_moves_its_payoffs(theta):
    # the reference has power: the separable start is not real up to a
    # phase, and its rotated real part alone (its real part where s.s is 0)
    # walks away from its payoffs
    config = SimulationConfig(
        initial=SEPARABLE, scheme=periodic(2, 2), rounds=16, rho4=0.3, theta=theta
    )
    expected = run_averaged(config).per_player
    start = gauged_start(initial_coin_state(SEPARABLE), config)
    square = start @ start
    rotated = (start / np.sqrt(square / abs(square)) if abs(square) > 1e-12 else start).real
    per_player = np.zeros((17, 3))
    ops = walk_inputs(initial_coin_state(SEPARABLE), config)[1]
    engine._walk(rotated[:, None], ops, schedule_mask(config.scheme, 16, None), per_player)
    assert np.max(np.abs(per_player - expected)) > 1e-3
