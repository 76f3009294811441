"""Walker state storage and structured operator application.

After t rounds player i sits at x_i = 2*n_i - t, where n_i in [0, t]
counts that player's |R> steps, so amplitudes are stored over step counts:
a complex array of shape (8, t+1, t+1, t+1) with the coin index convention
c = 4*b1 + 2*b2 + b3 (b_i = 1 for |R>). Every position update grows each
count axis by one site, so amplitude can never leave the array.

Coin operators are applied as 8x8 matrices on the coin axis; the position
update advances count axis i wherever coin bit b_i is set. A dense Kronecker
oracle assembles the full round matrix on a small position lattice so the
structured path can be verified against an independent implementation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

UNITARY_TOL = 1e-12
NORM_TOL = 1e-10

# ring neighbors, 1-based players: predecessor (i-1) and successor (i+1)
RING_PREV = {1: 3, 2: 1, 3: 2}
RING_NEXT = {1: 2, 2: 3, 3: 1}

# (b1, b2, b3) of each coin index c = 4*b1 + 2*b2 + b3
COIN_BITS = tuple(((c >> 2) & 1, (c >> 1) & 1, c & 1) for c in range(8))

_I2 = np.eye(2, dtype=complex)
_P_L = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P_R = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


@dataclass
class WalkerState:
    """Amplitude tensor over (coin index, n1, n2, n3) after t rounds."""

    tensor: np.ndarray  # complex128, shape (8, t+1, t+1, t+1)

    @property
    def rounds(self) -> int:
        return self.tensor.shape[1] - 1

    @property
    def coordinates(self) -> np.ndarray:
        """Position x = 2n - t of each count index n along one axis."""
        t = self.rounds
        return 2 * np.arange(t + 1) - t


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


def _kron3(ops: Sequence[np.ndarray]) -> np.ndarray:
    return np.kron(ops[0], np.kron(ops[1], ops[2]))


def init_walker_state(coin_state: np.ndarray) -> WalkerState:
    """Place a unit-norm coin vector at the position origin (t = 0).

    Args:
        coin_state: 8-component complex vector, unit norm to 1e-10.

    Raises:
        ValueError: non-normalized coin state or wrong length.
    """
    v = np.asarray(coin_state, dtype=complex).reshape(-1)
    if v.shape != (8,):
        raise ValueError(f"coin_state must have 8 components, got {v.shape}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"coin_state must have unit norm, got {norm!r}")
    return WalkerState(v.reshape(8, 1, 1, 1).copy())


def state_norm(state: WalkerState) -> float:
    """Euclidean norm sqrt(sum |amp|^2) of the full amplitude tensor."""
    return float(np.linalg.norm(state.tensor))


def _apply_coin_register_op(state: WalkerState, op8: np.ndarray) -> WalkerState:
    flat = state.tensor.reshape(8, -1)
    return WalkerState((op8 @ flat).reshape(state.tensor.shape))


def lift_single_coin(m: np.ndarray, player: int) -> np.ndarray:
    """8x8 operator applying a 2x2 matrix to one player's coin qubit."""
    ops = [_I2, _I2, _I2]
    ops[player - 1] = np.asarray(m, dtype=complex)
    return _kron3(ops)


def apply_coin_matrix(state: WalkerState, player: int, m: np.ndarray) -> WalkerState:
    """Toss one player's coin with a 2x2 unitary, identity elsewhere."""
    _check_player(player)
    m = _check_coin_unitary(m, "coin matrix")
    return _apply_coin_register_op(state, lift_single_coin(m, player))


def controlled_coin_operator(
    player: int,
    m_rr: np.ndarray,
    m_rl: np.ndarray,
    m_lr: np.ndarray,
    m_ll: np.ndarray,
) -> np.ndarray:
    """8x8 neighbor-conditioned toss operator for one player.

    The predecessor (i-1) and successor (i+1) on the three-player ring
    select among the four branch matrices: ``m_rr`` when both neighbor
    coins are |R>, ``m_rl`` when the predecessor is |R> and the successor
    |L>, ``m_lr`` for the reverse, ``m_ll`` when both are |L>.
    """
    prev_slot = RING_PREV[player] - 1
    next_slot = RING_NEXT[player] - 1
    op = np.zeros((8, 8), dtype=complex)
    branches = {(1, 1): m_rr, (1, 0): m_rl, (0, 1): m_lr, (0, 0): m_ll}
    for (bp, bn), m in branches.items():
        ops = [None, None, None]
        ops[player - 1] = np.asarray(m, dtype=complex)
        ops[prev_slot] = _P_R if bp else _P_L
        ops[next_slot] = _P_R if bn else _P_L
        op += _kron3(ops)
    return op


def apply_controlled_coin(
    state: WalkerState,
    player: int,
    m_rr: np.ndarray,
    m_rl: np.ndarray,
    m_lr: np.ndarray,
    m_ll: np.ndarray,
) -> WalkerState:
    """Toss one player's coin with the branch selected by its ring neighbors."""
    _check_player(player)
    mats = [
        _check_coin_unitary(m, name)
        for m, name in (
            (m_rr, "m_rr"), (m_rl, "m_rl"), (m_lr, "m_lr"), (m_ll, "m_ll"),
        )
    ]
    return _apply_coin_register_op(state, controlled_coin_operator(player, *mats))


def apply_position_update(state: WalkerState) -> WalkerState:
    """Shift axis i by +1 where player i's coin is |R> and -1 where |L>.

    In count space the |R> branch of axis i advances n_i by one while the
    |L> branch keeps it, and every axis grows by one site.
    """
    t = state.rounds
    shifted = np.zeros((8, t + 2, t + 2, t + 2), dtype=complex)
    for c, (b1, b2, b3) in enumerate(COIN_BITS):
        shifted[c, b1:b1 + t + 1, b2:b2 + t + 1, b3:b3 + t + 1] = state.tensor[c]
    return WalkerState(shifted)


# --- dense verification oracle -------------------------------------------

# a full round matrix has dimension 8 * (2T+1)^3; T=3 is already 2744
MAX_ORACLE_HALF_EXTENT = 3

CoinOpSpec = Sequence  # per player: a 2x2 array, or a 4-tuple (m_rr, m_rl, m_lr, m_ll)


def _dense_shift_matrix(size: int) -> np.ndarray:
    """Cyclic +1 shift; exact while no amplitude touches the lattice edge."""
    s = np.zeros((size, size), dtype=complex)
    for k in range(size):
        s[(k + 1) % size, k] = 1.0
    return s


def _dense_round_factors(half_extent: int, coin_ops: CoinOpSpec) -> Iterator[np.ndarray]:
    """Dense factors of one round in application order, each assembled by
    Kronecker products: the tosses of players 1..3, then the shift."""
    if not 1 <= half_extent <= MAX_ORACLE_HALF_EXTENT:
        raise ValueError(
            f"dense oracle supports 1 <= half_extent <= {MAX_ORACLE_HALF_EXTENT}, "
            f"got {half_extent}"
        )
    if len(coin_ops) != 3:
        raise ValueError("coin_ops must hold one entry per player")
    L = 2 * half_extent + 1
    eye_pos = np.eye(L, dtype=complex)
    s = _dense_shift_matrix(L)
    dim = 8 * L**3
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
    upos = np.zeros((dim, dim), dtype=complex)
    for c in range(8):
        bits = ((c >> 2) & 1, (c >> 1) & 1, c & 1)
        proj = [_P_R if b else _P_L for b in bits]
        shifts = [s if b else s.conj().T for b in bits]
        upos += np.kron(
            _kron3(proj), np.kron(shifts[0], np.kron(shifts[1], shifts[2]))
        )
    yield upos


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


def dense_positions(state: WalkerState, half_extent: int) -> np.ndarray:
    """Amplitudes of a count state on the position lattice
    -half_extent..half_extent per axis, shape (8, L, L, L) with
    L = 2*half_extent + 1; count index n lands at x = 2n - t."""
    t = state.rounds
    if t > half_extent:
        raise ValueError(f"a state after {t} rounds does not fit half_extent {half_extent}")
    L = 2 * half_extent + 1
    dense = np.zeros((8, L, L, L), dtype=complex)
    sites = slice(half_extent - t, half_extent + t + 1, 2)
    dense[:, sites, sites, sites] = state.tensor
    return dense


def dense_step_oracle(amplitudes: np.ndarray, coin_ops: CoinOpSpec) -> np.ndarray:
    """Apply one full round to position-lattice amplitudes (8, L, L, L)
    through the explicitly assembled dense factors of dense_round_matrix.

    Independent of the structured path; intended for small-lattice
    verification. Requires interior support (the cyclic dense shift and
    the structured shift agree exactly away from the boundary).
    """
    vec = amplitudes.reshape(-1)
    for factor in _dense_round_factors((amplitudes.shape[1] - 1) // 2, coin_ops):
        vec = factor @ vec
    return vec.reshape(amplitudes.shape)
