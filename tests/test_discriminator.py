import tracemalloc

import numpy as np
import pytest
from oracle import joined, position_distribution, stepped_position_povm, walk_inputs

import qparrondo.discriminator as discriminator
from qparrondo import (
    GHZ,
    PURE_A,
    SEPARABLE,
    SimulationConfig,
    W,
    discriminate,
    initial_coin_state,
    j_entangled,
)
from qparrondo.coins import coin_unitary
from qparrondo.engine import _walk, schedule_mask


def test_expectation_mode_labels_ghz():
    result = discriminate(initial_coin_state(GHZ), rounds=16)
    assert result.label == "GHZ"
    assert abs(result.statistic) < 1e-10
    assert result.threshold > 0


def test_expectation_mode_labels_w():
    result = discriminate(initial_coin_state(W), rounds=16)
    assert result.label == "W"
    assert result.statistic < -result.threshold


def test_expectation_mode_deterministic():
    a = discriminate(initial_coin_state(W), rounds=8)
    b = discriminate(initial_coin_state(W), rounds=8)
    assert a == b


def test_global_phase_invariance():
    v = initial_coin_state(W)
    a = discriminate(v, rounds=8)
    b = discriminate(np.exp(1.1j) * v, rounds=8)
    assert a.label == b.label
    assert abs(a.statistic - b.statistic) < 1e-10


def test_separable_input_runs_and_reports():
    # fair but outside the promised GHZ-or-W inputs; the statistic rules
    result = discriminate(initial_coin_state(SEPARABLE), rounds=8)
    assert abs(result.statistic) < 1e-10
    assert result.label == "GHZ"


def test_sampled_mode_converges_to_expectation():
    rng = np.random.default_rng(99)
    exact = discriminate(initial_coin_state(W), rounds=8)
    sampled = discriminate(
        initial_coin_state(W), rounds=8, mode="sampled", shots=20_000, rng=rng
    )
    assert sampled.label == "W"
    # coordinate sums are bounded by 3 * rounds; a generous spread bound
    stderr_bound = 3 * 8 / np.sqrt(20_000)
    assert abs(sampled.statistic - exact.statistic) < 4 * stderr_bound


def test_sampled_mode_reproducible_for_fixed_seed():
    a = discriminate(
        initial_coin_state(GHZ), rounds=6, mode="sampled", shots=5000,
        rng=np.random.default_rng(5),
    )
    b = discriminate(
        initial_coin_state(GHZ), rounds=6, mode="sampled", shots=5000,
        rng=np.random.default_rng(5),
    )
    assert a == b


def test_input_validation():
    with pytest.raises(ValueError, match="norm"):
        discriminate(0.5 * initial_coin_state(GHZ))
    with pytest.raises(ValueError, match="shots"):
        discriminate(initial_coin_state(GHZ), mode="sampled", shots=0)
    with pytest.raises(ValueError, match="rounds"):
        discriminate(initial_coin_state(GHZ), rounds=0)
    with pytest.raises(ValueError, match="rounds 10000000000000 .*physical memory"):
        discriminate(initial_coin_state(GHZ), rounds=10**13)
    with pytest.raises(ValueError, match="mode"):
        discriminate(initial_coin_state(GHZ), mode="guess")
    with pytest.raises(ValueError, match="components"):
        discriminate(np.ones(4) / 2.0)


@pytest.mark.parametrize("rounds", [-1, 0, 1, 2])
def test_rounds_below_three_rejected(rounds):
    # X_T[L, L] = 0 at 1 or 2 rounds, so the threshold would be 0
    for mode, shots in (("expectation", None), ("sampled", 10)):
        with pytest.raises(ValueError, match=f"rounds must be >= 3 .*got {rounds}"):
            discriminate(initial_coin_state(W), rounds=rounds, mode=mode, shots=shots)


def test_shots_beyond_int64_rejected():
    with pytest.raises(ValueError, match="shots"):
        discriminate(initial_coin_state(W), mode="sampled", shots=2**63)


def random_unit_coin(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    return v / np.linalg.norm(v)


ORACLE_INPUTS = {
    "ghz": initial_coin_state(GHZ),
    "w": initial_coin_state(W),
    "separable": initial_coin_state(SEPARABLE),
    "j0.7": initial_coin_state(j_entangled(0.7)),
    "random": random_unit_coin(11),
}
ORACLE_ROUNDS = range(3, 21)


def engine_game_a(coin_state, rounds):
    """Oracle: the three-axis engine's final state and summed payoff after
    ``rounds`` rounds of the fair game A."""
    config = SimulationConfig(initial=W, scheme=PURE_A, rounds=rounds)
    per_player = np.zeros((rounds + 1, 3))
    start, ops = walk_inputs(coin_state, config)
    final = _walk(start, ops, schedule_mask(PURE_A, rounds, None), per_player)
    return joined(final), float(per_player[-1].sum())


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_expectation_matches_three_axis_engine(name):
    for rounds in ORACLE_ROUNDS:
        result = discriminate(ORACLE_INPUTS[name], rounds=rounds)
        _, statistic = engine_game_a(ORACLE_INPUTS[name], rounds)
        _, reference = engine_game_a(initial_coin_state(W), rounds)
        assert abs(result.statistic - statistic) < 1e-12, rounds
        assert abs(result.threshold - abs(reference) / 2) < 1e-12, rounds


class RecordingRng:
    """Keeps the distribution sampled mode draws from, then draws as usual."""

    def __init__(self):
        self.pvals = None

    def multinomial(self, n, pvals):
        self.pvals = np.array(pvals)
        return np.random.default_rng(0).multinomial(n, pvals)


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_sampled_distribution_is_binned_joint_distribution(name):
    for rounds in ORACLE_ROUNDS:
        rng = RecordingRng()
        discriminate(ORACLE_INPUTS[name], rounds=rounds, mode="sampled", shots=10, rng=rng)
        final, _ = engine_game_a(ORACLE_INPUTS[name], rounds)
        n = np.arange(rounds + 1)
        step_sums = n[:, None, None] + n[None, :, None] + n[None, None, :]
        binned = np.bincount(
            step_sums.ravel(), weights=position_distribution(final).ravel(),
            minlength=3 * rounds + 1,
        )
        assert rng.pvals.shape == binned.shape
        assert np.max(np.abs(rng.pvals - binned)) < 1e-12, rounds


def test_sampled_memory_does_not_grow_with_shots():
    shots = 10**13
    tracemalloc.start()
    try:
        result = discriminate(
            initial_coin_state(W), rounds=28, mode="sampled", shots=shots,
            rng=np.random.default_rng(3),
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    exact = discriminate(initial_coin_state(W), rounds=28)
    assert result.label == "W"
    # coordinate sums lie in [-84, 84]: a 4-standard-error bound
    assert abs(result.statistic - exact.statistic) < 4 * 84 / np.sqrt(shots)


def povm_error(rounds):
    """Largest entry of the momentum-space M(n) off the stepped oracle's."""
    coin = coin_unitary(0.5)
    povm = discriminator._position_povm(coin, rounds)
    return np.max(np.abs(povm - stepped_position_povm(coin, rounds)))


@pytest.mark.parametrize("rounds", [400, 1000])
def test_position_povm_matches_the_stepped_walk(rounds):
    assert povm_error(rounds) < 1e-12


def test_stepped_walk_catches_a_reversed_step(monkeypatch):
    # negative control: with S(k) = diag(1, e^{-ik}) the FFT reads the step
    # counts in reverse order, and the comparison above must fail
    exp = np.exp
    monkeypatch.setattr(discriminator.np, "exp", lambda z: np.conj(exp(z)))
    assert povm_error(400) > 1e-3


@pytest.mark.parametrize("rounds", [28, 400, 3000])
@pytest.mark.parametrize("mode", ["expectation", "sampled"])
def test_traced_peak_stays_within_the_planned_bytes(mode, rounds):
    # the plan is checked against physical memory before anything is built
    discriminate(initial_coin_state(W), rounds=4, mode=mode, shots=10)  # lazy imports
    coin_state, rng = initial_coin_state(W), np.random.default_rng(1)
    tracemalloc.start()
    try:
        discriminate(coin_state, rounds=rounds, mode=mode, shots=1000, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= discriminator._planned_bytes(rounds)
