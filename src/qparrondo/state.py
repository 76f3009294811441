"""Walker state storage and structured operator application.

After t rounds player i sits at x_i = 2*n_i - t, where n_i in [0, t]
counts that player's |R> steps, so amplitudes are stored over step counts:
shape (8, t+1, t+1, t+1) with the coin index convention c = 4*b1 + 2*b2 +
b3 (b_i = 1 for |R>), and the walk's float64 state adds an innermost axis
of S real sources. Every position update grows each count axis by one
site, so amplitude can never leave the array.

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

_P_L = np.array([[1.0, 0.0], [0.0, 0.0]])
_P_R = np.array([[0.0, 0.0], [0.0, 1.0]])


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
    |L>, ``m_lr`` for the reverse, ``m_ll`` when both are |L>. The operator
    has the branches' dtype: real branches give a real operator.
    """
    prev_slot = RING_PREV[player] - 1
    next_slot = RING_NEXT[player] - 1
    op = np.zeros((8, 8), dtype=np.result_type(m_rr, m_rl, m_lr, m_ll))
    branches = {(1, 1): m_rr, (1, 0): m_rl, (0, 1): m_lr, (0, 0): m_ll}
    for (bp, bn), m in branches.items():
        ops = [None, None, None]
        ops[player - 1] = m
        ops[prev_slot] = _P_R if bp else _P_L
        ops[next_slot] = _P_R if bn else _P_L
        op += _kron3(ops)
    return op


def _shift_views(out: np.ndarray, n: int, stride: int, sources: int) -> tuple[tuple, np.ndarray]:
    """The position update of an (8, n, n, n, S) state, S = ``sources``,
    into the flat buffer ``out``, read as the shifted state
    (8, n+1, n+1, n+1, S) whose coin component c is packed from entry
    c * ``stride`` on: the three faces the copy leaves, and the copy's
    target, of ``out``'s dtype. Nothing outside those components'
    8 (n+1)^3 S entries is written.

    Component c = 4*b1 + 2*b2 + b3 at counts (i, j, k) lands at
    (c, i + b1, j + b2, k + b3), an offset affine in (b1, b2, b3, i, j, k).
    So the target, a (2, 2, 2, n, n, n S) view of the shifted state, is
    indexed like the input split into its coin bits, each (k, s) row one
    contiguous run of n S entries, and takes all eight components in one
    copy. On axis i the copy leaves count (1 - b_i) n of component c, again
    affine in the coin bits: face i is one view of those planes of all
    eight components, whose last axis holds (n+1) S entries on axes 1 and 2
    and S on axis 3.
    """
    m, e = n + 1, out.itemsize
    sc, s1, s2, s3 = (e * s for s in (stride, m * m * sources, m * sources, sources))

    def view(shape, strides, offset=0):
        return np.ndarray(shape, out.dtype, buffer=out, offset=offset, strides=strides)

    faces = (
        view((2, 2, 2, m, m * sources), (4 * sc - n * s1, 2 * sc, sc, s2, e), n * s1),
        view((2, 2, 2, m, m * sources), (4 * sc, 2 * sc - n * s2, sc, s1, e), n * s2),
        view((2, 2, 2, m, m, sources), (4 * sc, 2 * sc, sc - n * s3, s1, s2, e), n * s3),
    )
    return faces, view((2, 2, 2, n, n, n * sources), (4 * sc + s1, 2 * sc + s2, sc + s3, s1, s2, e))
