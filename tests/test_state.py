import itertools
import math

import numpy as np
import pytest

from oracle import (
    apply_coin_matrix,
    apply_controlled_coin,
    apply_position_update,
    dense_positions,
    dense_round_matrix,
    dense_step_oracle,
    kron_round,
    slice_shift,
    state_norm,
)
from qparrondo import (
    GHZ,
    SEPARABLE,
    coin_unitary,
    init_walker_state,
    initial_coin_state,
)
from qparrondo.state import _shift_views

FAIR = coin_unitary(0.5)
FLIP = np.array([[0.0, 1j], [1j, 0.0]])

EQ_STATE = np.array(
    [1 - 1j, 1j - 1, 1j - 1, 1j - 1, 1j - 1, 1j - 1, 1j - 1, 1 - 1j]
) / 4.0


def basis_coin(c):
    v = np.zeros(8, dtype=complex)
    v[c] = 1.0
    return v


def origin_amplitudes(state):
    return state[:, 0, 0, 0]


def shift(state):
    """apply_position_update into a NaN-filled buffer of the output's size."""
    n = state.shape[1] + 1
    return apply_position_update(state, out=np.full(8 * n**3, np.nan, dtype=complex))


def test_init_places_basis_state_at_origin():
    st = init_walker_state(basis_coin(0))
    assert st.shape == (8, 1, 1, 1)
    assert st[0, 0, 0, 0] == 1.0
    assert np.count_nonzero(st) == 1


def test_init_places_ghz():
    st = init_walker_state(initial_coin_state(GHZ))
    amps = origin_amplitudes(st)
    assert abs(amps[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(amps[7] - 1 / math.sqrt(2)) < 1e-15
    assert np.count_nonzero(st) == 2


def test_init_rejects_unnormalized():
    with pytest.raises(ValueError, match="norm"):
        init_walker_state(basis_coin(0) * 0.9)


def test_state_norm():
    st = init_walker_state(initial_coin_state(GHZ))
    assert abs(state_norm(st) - 1.0) < 1e-12
    zero = np.zeros_like(st)
    assert state_norm(zero) == 0.0


def test_identity_coin_leaves_state_unchanged():
    st = init_walker_state(initial_coin_state(SEPARABLE))
    out = apply_coin_matrix(st, 2, np.eye(2))
    assert np.array_equal(out, st)


def test_fair_triple_toss_on_ghz_gives_expected_coin_vector():
    st = init_walker_state(initial_coin_state(GHZ))
    for player in (1, 2, 3):
        st = apply_coin_matrix(st, player, FAIR)
    assert np.max(np.abs(origin_amplitudes(st) - EQ_STATE)) < 1e-12


def test_second_triple_toss_returns_ghz_up_to_phase():
    st = init_walker_state(initial_coin_state(GHZ))
    for _ in range(2):
        for player in (1, 2, 3):
            st = apply_coin_matrix(st, player, FAIR)
    overlap = np.vdot(initial_coin_state(GHZ), origin_amplitudes(st))
    assert abs(abs(overlap) - 1.0) < 1e-10


def test_apply_coin_rejects_non_unitary():
    st = init_walker_state(basis_coin(0))
    with pytest.raises(ValueError, match="unitary"):
        apply_coin_matrix(st, 1, np.array([[1.0, 0.0], [0.0, 0.5]]))


@pytest.mark.parametrize("player", [0, 4, -1])
def test_apply_coin_rejects_bad_player(player):
    st = init_walker_state(basis_coin(0))
    with pytest.raises(ValueError, match="player"):
        apply_coin_matrix(st, player, FAIR)


def test_coin_norm_preserved():
    rng = np.random.default_rng(3)
    st = init_walker_state(initial_coin_state(SEPARABLE))
    m = coin_unitary(rng.random(), rng.uniform(0, 7), rng.uniform(0, 7))
    out = apply_coin_matrix(st, 3, m)
    assert abs(state_norm(out) - state_norm(st)) < 1e-12


def test_game_a_tosses_commute_across_players():
    st = init_walker_state(initial_coin_state(SEPARABLE))
    results = []
    for order in itertools.permutations((1, 2, 3)):
        out = st
        for player in order:
            out = apply_coin_matrix(out, player, FAIR)
        results.append(out)
    for other in results[1:]:
        assert np.max(np.abs(other - results[0])) < 1e-12


def test_controlled_identity_branches_leave_state_unchanged():
    st = init_walker_state(initial_coin_state(SEPARABLE))
    eye = np.eye(2)
    out = apply_controlled_coin(st, 1, eye, eye, eye, eye)
    assert np.max(np.abs(out - st)) < 1e-15


def test_controlled_coin_selects_branch_by_ring_neighbors():
    # player 1 in |LRR>: predecessor (player 3) and successor (player 2)
    # both hold |R>, so only the rr branch acts: |LRR> -> i|RRR>
    st = init_walker_state(basis_coin(0b011))
    eye = np.eye(2)
    out = apply_controlled_coin(st, 1, FLIP, eye, eye, eye)
    expect = np.zeros(8, dtype=complex)
    expect[0b111] = 1j
    assert np.max(np.abs(origin_amplitudes(out) - expect)) < 1e-15


def test_controlled_coin_with_equal_branches_matches_single_coin():
    st = init_walker_state(initial_coin_state(SEPARABLE))
    m = coin_unitary(0.3, 1.0, 2.0)
    for player in (1, 2, 3):
        conditional = apply_controlled_coin(st, player, m, m, m, m)
        plain = apply_coin_matrix(st, player, m)
        assert np.max(np.abs(conditional - plain)) < 1e-12


def test_controlled_coin_rejects_non_unitary_branch():
    st = init_walker_state(basis_coin(0))
    eye = np.eye(2)
    bad = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="m_lr"):
        apply_controlled_coin(st, 2, eye, eye, bad, eye)


def test_position_update_moves_all_r_up():
    st = init_walker_state(basis_coin(0b111))
    out = shift(st)
    assert out.shape == (8, 2, 2, 2)
    assert out[0b111, 1, 1, 1] == 1.0
    assert np.count_nonzero(out) == 1


def test_position_update_splits_ghz():
    st = init_walker_state(initial_coin_state(GHZ))
    out = shift(st)
    assert abs(out[0, 0, 0, 0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(out[7, 1, 1, 1] - 1 / math.sqrt(2)) < 1e-15
    assert np.count_nonzero(out) == 2


def test_position_update_is_norm_preserving_permutation():
    rng = np.random.default_rng(11)
    t = rng.standard_normal((8, 5, 5, 5)) + 1j * rng.standard_normal((8, 5, 5, 5))
    t /= np.linalg.norm(t)
    out = shift(t)
    assert out.shape == (8, 6, 6, 6)
    assert abs(state_norm(out) - 1.0) < 1e-12


def test_global_phase_invariance():
    a = init_walker_state(initial_coin_state(GHZ))
    b = init_walker_state(np.exp(0.7j) * initial_coin_state(GHZ))
    for player in (1, 2, 3):
        a = apply_coin_matrix(a, player, FAIR)
        b = apply_coin_matrix(b, player, FAIR)
    a = shift(a)
    b = shift(b)
    assert abs(state_norm(a) - state_norm(b)) < 1e-12
    assert np.max(np.abs(np.abs(a) - np.abs(b))) < 1e-12


# --- dense oracle ----------------------------------------------------------


def game_a_ops():
    return [FAIR, FAIR, FAIR]


def game_b_ops(rho4=0.3):
    fair = coin_unitary(0.5)
    special = coin_unitary(rho4)
    return [(fair, fair, fair, special)] * 3


def structured_round(state, coin_ops):
    for player, spec in enumerate(coin_ops, start=1):
        if isinstance(spec, tuple):
            state = apply_controlled_coin(state, player, *spec)
        else:
            state = apply_coin_matrix(state, player, spec)
    return shift(state)


@pytest.mark.parametrize("ops_factory", [game_a_ops, game_b_ops])
@pytest.mark.parametrize("initial", [GHZ, SEPARABLE])
def test_dense_oracle_matches_structured_round(ops_factory, initial):
    st = init_walker_state(initial_coin_state(initial))
    ops = ops_factory()
    dense = dense_step_oracle(dense_positions(st, 2), ops)
    structured = dense_positions(structured_round(st, ops), 2)
    assert np.max(np.abs(dense - structured)) < 1e-10


@pytest.mark.parametrize("ops_factory", [game_a_ops, game_b_ops])
def test_kron_round_matches_the_assembled_dense_round(ops_factory):
    # on random amplitudes over the whole lattice, its cyclic edges included
    rng = np.random.default_rng(7)
    amplitudes = rng.standard_normal((8, 5, 5, 5)) + 1j * rng.standard_normal((8, 5, 5, 5))
    ops = ops_factory()
    expected = dense_step_oracle(amplitudes, ops)
    assert np.max(np.abs(kron_round(amplitudes, ops) - expected)) < 1e-12


def test_dense_round_matrix_is_unitary():
    m = dense_round_matrix(2, game_b_ops(0.5))
    dim = m.shape[0]
    assert np.max(np.abs(m.conj().T @ m - np.eye(dim))) < 1e-10


def test_dense_oracle_size_guard():
    st = init_walker_state(initial_coin_state(GHZ))
    with pytest.raises(ValueError, match="half_extent"):
        dense_step_oracle(dense_positions(st, 16), game_a_ops())
    with pytest.raises(ValueError, match="half_extent"):
        dense_round_matrix(0, game_a_ops())


def test_dense_positions_places_counts_at_x_2n_minus_t():
    st = shift(shift(init_walker_state(basis_coin(0b100))))
    dense = dense_positions(st, 3)
    # two |R> steps on axis 1 and two |L> steps on axes 2 and 3
    assert dense[0b100, 3 + 2, 3 - 2, 3 - 2] == 1.0
    assert np.count_nonzero(dense) == 1
    with pytest.raises(ValueError, match="half_extent"):
        dense_positions(st, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 17])
def test_position_update_equals_slice_shift_bitwise(n):
    # the one strided copy against the eight slice copies, on amplitudes
    # that are nonzero everywhere, into a NaN-filled buffer with room to spare
    rng = np.random.default_rng(n)
    st = rng.normal(size=(8, n, n, n)) + 1j * rng.normal(size=(8, n, n, n))
    expected = slice_shift(st)
    assert np.array_equal(shift(st), expected)
    out = np.full(8 * (n + 1) ** 3 + 5, np.nan, dtype=complex)
    into = apply_position_update(st, out=out)
    assert np.shares_memory(into, out)
    assert np.array_equal(into, expected)
    # the walk's layout: S real sources innermost, component c packed from
    # entry c * stride on, with NaN gaps between the components that the
    # shift must not write
    size = (n + 1) ** 3
    for sources in (1, 2, 3):
        real = rng.normal(size=(8, n, n, n, sources))
        stride = size * sources + 2 * n + 3
        out = np.full(8 * stride, np.nan)
        faces, target = _shift_views(out, n, stride, sources)
        for face in faces:
            face.fill(0)
        np.copyto(target, real.reshape(2, 2, 2, n, n, n * sources))
        components = out.reshape(8, stride)
        shifted = components[:, : size * sources].reshape(8, n + 1, n + 1, n + 1, sources)
        for s in range(sources):
            assert np.array_equal(shifted[..., s], slice_shift(real[..., s]).real)
        assert np.isnan(components[:, size * sources :]).all()
