import numpy as np
import pytest

from qparrondo import GHZ, SEPARABLE, W, discriminate, initial_coin_state


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
    with pytest.raises(ValueError, match="physical memory"):
        discriminate(initial_coin_state(GHZ), rounds=100_000)
    with pytest.raises(ValueError, match="mode"):
        discriminate(initial_coin_state(GHZ), mode="guess")
    with pytest.raises(ValueError, match="components"):
        discriminate(np.ones(4) / 2.0)
