import math

import numpy as np
import pytest

from qparrondo import (
    GHZ,
    PURE_B,
    SEPARABLE,
    W,
    SimulationConfig,
    coin_unitary,
    entangler_j,
    initial_coin_state,
    j_entangled,
)

I8 = np.eye(8)


def test_coin_unitary_rho_one():
    theta, phi = 0.7, 1.3
    m = coin_unitary(1.0, theta, phi)
    expect = np.array([[1.0, 0.0], [0.0, -np.exp(1j * (theta + phi))]])
    assert np.max(np.abs(m - expect)) < 1e-15


def test_coin_unitary_fair():
    m = coin_unitary(0.5)
    expect = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2)
    assert np.max(np.abs(m - expect)) < 1e-15


def test_coin_unitary_rho_zero():
    m = coin_unitary(0.0)
    expect = np.array([[0.0, 1j], [1j, 0.0]])
    assert np.max(np.abs(m - expect)) < 1e-15


@pytest.mark.parametrize("rho", [-0.1, 1.5, 2.0])
def test_coin_params_domain(rho):
    with pytest.raises(ValueError) as excinfo:
        coin_unitary(rho)
    assert str(excinfo.value) == f"rho must lie in [0, 1], got {rho}"


def test_coin_params_nonfinite():
    with pytest.raises(ValueError, match="^theta must be finite, got nan$"):
        coin_unitary(0.5, theta=float("nan"))


@pytest.mark.parametrize(
    "theta, phi, message",
    [
        (float("nan"), 0.0, "theta must be finite, got nan"),
        (0.0, float("inf"), "phi must be finite, got inf"),
    ],
)
def test_coin_params_non_finite_phase_named(theta, phi, message):
    with pytest.raises(ValueError) as excinfo:
        coin_unitary(0.5, theta, phi)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("theta, phi", [(1e308, 1e308), (-1e308, -1e308), (-7e307, 7e307)])
def test_coin_of_phases_whose_sum_overflows_is_unitary(theta, phi):
    # the lower-right entry multiplies e^{i theta} and e^{i phi}; no angle is added
    m = coin_unitary(0.3, theta, phi)
    assert np.all(np.isfinite(m))
    assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12
    assert m[1, 1] == -math.sqrt(0.3) * (np.exp(1j * theta) * np.exp(1j * phi))


def test_default_coin_lower_right_is_that_of_the_summed_angle():
    # e^{i pi/2} e^{i pi/2} and e^{i pi} round alike, so the default coin is
    # what it was when the entry was formed from theta + phi
    m = coin_unitary(0.5)
    assert m[1, 1] == -math.sqrt(0.5) * np.exp(1j * math.pi)


def test_coin_unitary_is_unitary_over_random_parameters():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = coin_unitary(rng.random(), rng.uniform(-10, 10), rng.uniform(-10, 10))
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) < 1e-12
        assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-12


def test_entangler_identity_at_zero():
    assert np.max(np.abs(entangler_j(0.0) - I8)) < 1e-15


def test_entangler_maximal_on_lll():
    lll = np.zeros(8)
    lll[0] = 1.0
    out = entangler_j(math.pi / 2) @ lll
    expect = np.zeros(8, dtype=complex)
    expect[0] = 1 / math.sqrt(2)
    expect[7] = 1j / math.sqrt(2)
    assert np.max(np.abs(out - expect)) < 1e-12


def test_entangler_unitary():
    j = entangler_j(3 * math.pi / 10)
    assert np.max(np.abs(j.conj().T @ j - I8)) < 1e-12


@pytest.mark.parametrize("omega", [-0.1, math.pi / 2 + 0.01, 3.2])
def test_entangler_domain(omega):
    with pytest.raises(ValueError, match="omega"):
        entangler_j(omega)


def test_ghz_components():
    v = initial_coin_state(GHZ)
    expect = np.zeros(8)
    expect[0] = expect[7] = 1 / math.sqrt(2)
    assert np.max(np.abs(v - expect)) < 1e-15


def test_w_components():
    v = initial_coin_state(W)
    expect = np.zeros(8)
    expect[1] = expect[2] = expect[4] = 1 / math.sqrt(3)
    assert np.max(np.abs(v - expect)) < 1e-15


def test_separable_components():
    v = initial_coin_state(SEPARABLE)
    for c in range(8):
        expect = (-1) ** bin(c).count("1") / (2 * math.sqrt(2))
        assert abs(v[c] - expect) < 1e-15


def test_j_state_overlaps():
    v = initial_coin_state(j_entangled(math.pi / 2))
    assert abs(abs(v[0]) ** 2 - 0.5) < 1e-12
    assert abs(abs(v[7]) ** 2 - 0.5) < 1e-12
    assert np.max(np.abs(v[1:7])) < 1e-12


@pytest.mark.parametrize("kind", [GHZ, W, SEPARABLE, j_entangled(0.3)])
def test_initial_states_unit_norm(kind):
    assert abs(np.linalg.norm(initial_coin_state(kind)) - 1.0) < 1e-12


def _permute_qubits(v, perm):
    out = np.zeros(8, dtype=complex)
    for c in range(8):
        bits = [(c >> 2) & 1, (c >> 1) & 1, c & 1]
        permuted = [bits[perm[0]], bits[perm[1]], bits[perm[2]]]
        out[4 * permuted[0] + 2 * permuted[1] + permuted[2]] = v[c]
    return out


@pytest.mark.parametrize("kind", [GHZ, W, SEPARABLE])
@pytest.mark.parametrize("perm", [(1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)])
def test_symmetric_states_permutation_invariant(kind, perm):
    v = initial_coin_state(kind)
    assert np.max(np.abs(_permute_qubits(v, perm) - v)) < 1e-15


def test_j_entangled_domain_check():
    with pytest.raises(ValueError, match="omega"):
        j_entangled(2.0)


def test_game_b_params_default_rhos():
    config = SimulationConfig(GHZ, PURE_B, rho4=0.4)
    rhos = (config.rho0, config.rho1, config.rho2, config.rho3, config.rho4)
    assert rhos == (0.5, 0.5, 0.5, 0.5, 0.4)


# each branch's rho, with the neighbour pattern that selects it as its id
@pytest.mark.parametrize("branch", ["rho1", "rho2", "rho3", "rho4"], ids=["ww", "wl", "lw", "ll"])
@pytest.mark.parametrize("rho", [-0.1, 1.5, float("nan")])
def test_game_b_params_domain_names_the_branch(branch, rho):
    with pytest.raises(ValueError) as excinfo:
        SimulationConfig(GHZ, PURE_B, **{branch: rho})
    assert str(excinfo.value) == f"{branch} must lie in [0, 1], got {rho}"
