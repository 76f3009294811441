"""Walker state storage and structured operator application.

After t rounds player i sits at x_i = 2*n_i - t, where n_i in [0, t]
counts that player's |R> steps, so amplitudes are stored over step counts:
a complex array of shape (8, t+1, t+1, t+1) with the coin index convention
c = 4*b1 + 2*b2 + b3 (b_i = 1 for |R>). Every position update grows each
count axis by one site, so amplitude can never leave the array.

Coin operators are applied as 8x8 matrices on the coin axis; the position
update advances count axis i wherever coin bit b_i is set.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

NORM_TOL = 1e-10

# ring neighbors, 1-based players: predecessor (i-1) and successor (i+1)
RING_PREV = {1: 3, 2: 1, 3: 2}
RING_NEXT = {1: 2, 2: 3, 3: 1}

# (b1, b2, b3) of each coin index c = 4*b1 + 2*b2 + b3
COIN_BITS = tuple(((c >> 2) & 1, (c >> 1) & 1, c & 1) for c in range(8))

_I2 = np.eye(2, dtype=complex)
_P_L = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
_P_R = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def _kron3(ops: Sequence[np.ndarray]) -> np.ndarray:
    return np.kron(ops[0], np.kron(ops[1], ops[2]))


def init_walker_state(coin_state: np.ndarray) -> np.ndarray:
    """Place a unit-norm coin vector at the position origin (t = 0): the
    amplitude array of shape (8, 1, 1, 1).

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
    return v.reshape(8, 1, 1, 1).copy()


def _apply_coin_register_op(state: np.ndarray, op8: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Apply an 8x8 operator to the coin axis of the amplitudes ``state``,
    writing into the leading entries of the flat complex buffer ``out``,
    and return them in the shape of ``state``.

    A float64 operator acts alike on the real and imaginary parts, so it
    multiplies the interleaved float64 view of the amplitudes: a real GEMM
    with half the flops of the complex one that a complex128 operator runs.
    """
    flat = state.reshape(8, -1)
    tossed = out[: flat.size].reshape(flat.shape)
    if op8.dtype == np.float64:
        np.matmul(op8, np.ascontiguousarray(flat).view(np.float64), out=tossed.view(np.float64))
    else:
        np.matmul(op8, flat, out=tossed)
    return tossed.reshape(state.shape)


def lift_single_coin(m: np.ndarray, player: int) -> np.ndarray:
    """8x8 operator applying a 2x2 matrix to one player's coin qubit."""
    ops = [_I2, _I2, _I2]
    ops[player - 1] = np.asarray(m, dtype=complex)
    return _kron3(ops)


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


def apply_position_update(state: np.ndarray, *, out: np.ndarray) -> np.ndarray:
    """Shift axis i by +1 where player i's coin is |R> and -1 where |L>.

    In count space the |R> branch of axis i advances n_i by one while the
    |L> branch keeps it, and every axis grows by one site. The shifted
    amplitudes are written into the leading entries of the flat complex
    buffer ``out``, and returned in their (8, n+1, n+1, n+1) shape.

    Component c = 4*b1 + 2*b2 + b3 at counts (i, j, k) lands at
    (c, i + b1, j + b2, k + b3), an offset affine in (b1, b2, b3, i, j, k).
    So one strided view of the zeroed output, indexed like the input split
    into its coin bits, receives all eight components in a single copy.
    """
    n = state.shape[1]
    shifted = out[: 8 * (n + 1) ** 3].reshape(8, n + 1, n + 1, n + 1)
    shifted.fill(0)
    sc, s1, s2, s3 = shifted.strides
    target = np.ndarray(
        (2, 2, 2, n, n, n), complex, buffer=shifted,
        strides=(4 * sc + s1, 2 * sc + s2, sc + s3, s1, s2, s3),
    )
    np.copyto(target, state.reshape(2, 2, 2, n, n, n))
    return shifted
