"""Independent oracles for the structured walk: per-player coin tosses, the
joint position distribution, the position update slice by slice, an
unframed round built from them, and a dense Kronecker round on a small
position lattice; and ``true_state``, the engine's walk taken out of its
coin-phase frame.

The engine composes a round's three tosses into one 8x8 operator, plays
in the frame of coin A's phi and shifts in count space; these helpers
toss one player at a time on the true state, and the dense oracle
assembles every factor of a round, shift included, as a full matrix on
the position lattice -H..H per axis. Amplitudes after t rounds are arrays
of shape (8, t+1, t+1, t+1), count index n at position x = 2n - t.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from qparrondo import engine
from qparrondo.coins import coin_unitary
from qparrondo.state import (
    _P_L,
    _P_R,
    COIN_BITS,
    RING_NEXT,
    RING_PREV,
    _kron3,
    controlled_coin_operator,
)

UNITARY_TOL = 1e-12
_I2 = np.eye(2, dtype=complex)


# --- per-player tosses -----------------------------------------------------


def _check_coin_unitary(m: np.ndarray, label: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"{label} must be a 2x2 matrix, got shape {m.shape}")
    dev = np.max(np.abs(m.conj().T @ m - _I2))
    if dev > UNITARY_TOL:
        raise ValueError(f"{label} is not unitary (deviation {dev:.3e})")
    return m


def _check_player(player: int) -> None:
    if player not in (1, 2, 3):
        raise ValueError(f"player must be 1, 2 or 3, got {player}")


def state_norm(state: np.ndarray) -> float:
    """Euclidean norm sqrt(sum |amp|^2) of the full amplitude array."""
    return float(np.linalg.norm(state))


def position_distribution(state: np.ndarray) -> np.ndarray:
    """Joint probability over step counts (t+1, t+1, t+1), coin register
    traced out; index n of each axis is position x = 2n - t."""
    a = np.abs(state)
    np.multiply(a, a, out=a)
    return a.sum(axis=0)


def _toss(state: np.ndarray, op8: np.ndarray) -> np.ndarray:
    """An 8x8 operator applied to the coin axis, into a new array."""
    return np.tensordot(op8, state, axes=1)


def apply_coin_matrix(state: np.ndarray, player: int, m: np.ndarray) -> np.ndarray:
    """Toss one player's coin with a 2x2 unitary, identity elsewhere."""
    _check_player(player)
    m = _check_coin_unitary(m, "coin matrix")
    ops = [_I2, _I2, _I2]
    ops[player - 1] = m
    return _toss(state, np.kron(ops[0], np.kron(ops[1], ops[2])))


def apply_controlled_coin(
    state: np.ndarray,
    player: int,
    m_rr: np.ndarray,
    m_rl: np.ndarray,
    m_lr: np.ndarray,
    m_ll: np.ndarray,
) -> np.ndarray:
    """Toss one player's coin with the branch selected by its ring neighbors."""
    _check_player(player)
    mats = [
        _check_coin_unitary(m, name)
        for m, name in (
            (m_rr, "m_rr"), (m_rl, "m_rl"), (m_lr, "m_lr"), (m_ll, "m_ll"),
        )
    ]
    return _toss(state, controlled_coin_operator(player, *mats))


def slice_shift(state: np.ndarray) -> np.ndarray:
    """Position update one coin component at a time: component
    c = 4*b1 + 2*b2 + b3 is copied into a zeroed state one site larger per
    axis, advanced by one count along each axis whose bit is |R>."""
    t = state.shape[1] - 1
    shifted = np.zeros((8, t + 2, t + 2, t + 2), dtype=complex)
    for c in range(8):
        b1, b2, b3 = (c >> 2) & 1, (c >> 1) & 1, c & 1
        shifted[c, b1:b1 + t + 1, b2:b2 + t + 1, b3:b3 + t + 1] = state[c]
    return shifted


def unframed_round(state: np.ndarray, plays_b: bool, config) -> np.ndarray:
    """One round of game B if ``plays_b``, else of game A, on the true
    state with ``config``'s coins as given: the tosses of players 1, 2
    and 3 one at a time, then slice_shift."""
    if plays_b:
        b = config.game_b
        mats = [coin_unitary(coin) for coin in (b.ww, b.wl, b.lw, b.ll)]
        for player in (1, 2, 3):
            state = apply_controlled_coin(state, player, *mats)
    else:
        m = coin_unitary(config.coin_a)
        for player in (1, 2, 3):
            state = apply_coin_matrix(state, player, m)
    return slice_shift(state)


# --- the engine's walk out of its frame -------------------------------------


def true_state(coin_state: np.ndarray, mask, config) -> np.ndarray:
    """The state psi = D chi after the rounds of ``mask`` (True plays B)
    from ``coin_state``: engine._walk returns chi, in the frame of
    D = P(phi_a)^(x3), which multiplies coin component c by e^{i phi_a}
    for each of its |R> coins."""
    mask = np.asarray(mask, dtype=bool)
    chi = engine._walk(coin_state, mask, config, np.zeros((len(mask) + 1, 3)))
    d = np.exp(1j * config.coin_a.phi * np.sum(COIN_BITS, axis=1))
    return d[:, None, None, None] * chi


# --- dense Kronecker round -------------------------------------------------

# a full round matrix has dimension 8 * (2T+1)^3; T=3 is already 2744
MAX_ORACLE_HALF_EXTENT = 3

CoinOpSpec = Sequence  # per player: a 2x2 array, or a 4-tuple (m_rr, m_rl, m_lr, m_ll)


def _dense_shift_matrix(size: int) -> np.ndarray:
    """Cyclic +1 shift; exact while no amplitude touches the lattice edge."""
    s = np.zeros((size, size), dtype=complex)
    for k in range(size):
        s[(k + 1) % size, k] = 1.0
    return s


def _check_half_extent(half_extent: int) -> None:
    if not 1 <= half_extent <= MAX_ORACLE_HALF_EXTENT:
        raise ValueError(
            f"dense oracle supports 1 <= half_extent <= {MAX_ORACLE_HALF_EXTENT}, "
            f"got {half_extent}"
        )


def dense_toss_factors(half_extent: int, coin_ops: CoinOpSpec) -> Iterator[np.ndarray]:
    """Dense toss factors of players 1..3 in application order, each
    assembled by Kronecker products."""
    _check_half_extent(half_extent)
    if len(coin_ops) != 3:
        raise ValueError("coin_ops must hold one entry per player")
    eye_pos = np.eye(2 * half_extent + 1, dtype=complex)
    for player, spec in enumerate(coin_ops, start=1):
        if isinstance(spec, tuple) and len(spec) == 4:
            coin_part = np.zeros((8, 8), dtype=complex)
            prev_slot = RING_PREV[player] - 1
            next_slot = RING_NEXT[player] - 1
            branches = {(1, 1): spec[0], (1, 0): spec[1], (0, 1): spec[2], (0, 0): spec[3]}
            for (bp, bn), m in branches.items():
                ops = [None, None, None]
                ops[player - 1] = np.asarray(m, dtype=complex)
                ops[prev_slot] = _P_R if bp else _P_L
                ops[next_slot] = _P_R if bn else _P_L
                coin_part += _kron3(ops)
        else:
            ops = [_I2, _I2, _I2]
            ops[player - 1] = np.asarray(spec, dtype=complex)
            coin_part = _kron3(ops)
        yield np.kron(coin_part, np.kron(eye_pos, np.kron(eye_pos, eye_pos)))


def dense_shift_factor(half_extent: int) -> np.ndarray:
    """Dense position update of one round, assembled by Kronecker products."""
    _check_half_extent(half_extent)
    L = 2 * half_extent + 1
    s = _dense_shift_matrix(L)
    dim = 8 * L**3
    upos = np.zeros((dim, dim), dtype=complex)
    for c in range(8):
        bits = ((c >> 2) & 1, (c >> 1) & 1, c & 1)
        proj = [_P_R if b else _P_L for b in bits]
        shifts = [s if b else s.conj().T for b in bits]
        upos += np.kron(
            _kron3(proj), np.kron(shifts[0], np.kron(shifts[1], shifts[2]))
        )
    return upos


def _dense_round_factors(half_extent: int, coin_ops: CoinOpSpec) -> Iterator[np.ndarray]:
    """Dense factors of one round in application order: the tosses of
    players 1..3, then the shift."""
    yield from dense_toss_factors(half_extent, coin_ops)
    yield dense_shift_factor(half_extent)


def dense_round_matrix(half_extent: int, coin_ops: CoinOpSpec) -> np.ndarray:
    """Full round unitary on the position lattice -half_extent..half_extent
    per axis by Kronecker assembly: tosses 1..3, then the shift.

    ``coin_ops`` holds one entry per player: a plain 2x2 matrix for an
    unconditional toss or a 4-tuple (m_rr, m_rl, m_lr, m_ll) for a
    neighbor-conditioned one.
    """
    factors = _dense_round_factors(half_extent, coin_ops)
    u = next(factors)
    for factor in factors:
        u = factor @ u
    return u


def dense_positions(state: np.ndarray, half_extent: int) -> np.ndarray:
    """Amplitudes of a count state on the position lattice
    -half_extent..half_extent per axis, shape (8, L, L, L) with
    L = 2*half_extent + 1; count index n lands at x = 2n - t."""
    t = state.shape[1] - 1
    if t > half_extent:
        raise ValueError(f"a state after {t} rounds does not fit half_extent {half_extent}")
    L = 2 * half_extent + 1
    dense = np.zeros((8, L, L, L), dtype=complex)
    sites = slice(half_extent - t, half_extent + t + 1, 2)
    dense[:, sites, sites, sites] = state
    return dense


def dense_step_oracle(amplitudes: np.ndarray, coin_ops: CoinOpSpec) -> np.ndarray:
    """Apply one full round to position-lattice amplitudes (8, L, L, L)
    through the explicitly assembled dense factors of dense_round_matrix.

    Requires interior support (the cyclic dense shift and the structured
    shift agree exactly away from the boundary).
    """
    factors = _dense_round_factors((amplitudes.shape[1] - 1) // 2, coin_ops)
    return apply_dense_factors(amplitudes, factors)


def apply_dense_factors(amplitudes: np.ndarray, factors: Iterable[np.ndarray]) -> np.ndarray:
    """Apply dense factors, in order, to position-lattice amplitudes
    (8, L, L, L)."""
    vec = amplitudes.reshape(-1)
    for factor in factors:
        vec = factor @ vec
    return vec.reshape(amplitudes.shape)
