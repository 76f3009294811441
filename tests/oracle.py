"""Independent oracles for the structured walk: per-player coin tosses, the
joint position distribution, the position update slice by slice, an
unframed round built from them, a dense Kronecker round on a small
position lattice (assembled, or applied factor piece by factor piece by
``kron_round``), pure A's payoffs from three 1D walks and the
discriminator's step-count operators walked round by round; and
``walk_inputs``, the explicit real sources and round operators that
engine._walk plays for a config, and ``true_state``, its walk taken out of
its phase gauge.

The engine composes a round's three tosses into one real 8x8 operator,
moves the coins' phases into its start and a site phase, and shifts in
count space; these helpers toss one player at a time on the true state
with the full complex coins, and the dense oracle
assembles every factor of a round, shift included, as a full matrix on
the position lattice -H..H per axis. Amplitudes after t rounds are arrays
of shape (8, t+1, t+1, t+1), count index n at position x = 2n - t.

``lifted_chain_series`` is the classical baseline's exact chain played
plainly: each game's lifted map built state by state from the per-player
rule in ``np.longdouble`` and applied once a round.

The ``percent_*_csv`` writers are the four CSV emitters as Python's ``%``
formats them, one row at a time: numbers as %d or %.15g.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from qparrondo import engine
from qparrondo.classical import OriginalParams
from qparrondo.coins import HALF_PI, coin_unitary
from qparrondo.state import (
    _P_L,
    _P_R,
    COIN_BITS,
    RING_NEXT,
    RING_PREV,
    _kron3,
    _shift_views,
    controlled_coin_operator,
    init_walker_state,
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


def coin_weights(state: np.ndarray) -> np.ndarray:
    """Probability of each of the 8 coin components, sum over all sites of
    |amp|^2."""
    flat = np.ascontiguousarray(state).reshape(8, -1).view(np.float64)
    return (flat[:, None, :] @ flat[:, :, None]).reshape(8)


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


def apply_position_update(state: np.ndarray, *, out: np.ndarray) -> np.ndarray:
    """The engine's shift (``state._shift_views``) applied to a whole
    (8, n, n, n) state as one source: zeros on the three faces the copy
    leaves, then one strided copy of all eight components, into the leading
    8 (n+1)^3 entries of the flat complex buffer ``out``, returned in their
    (8, n+1, n+1, n+1) shape. The tests hold it to ``slice_shift``."""
    n = state.shape[1]
    faces, target = _shift_views(out, n, (n + 1) ** 3, 1)
    for face in faces:
        face.fill(0)
    np.copyto(target, state.reshape(2, 2, 2, n, n, n))
    return out[: 8 * (n + 1) ** 3].reshape(8, n + 1, n + 1, n + 1)


def unframed_round(state: np.ndarray, plays_b: bool, config, phi: float = HALF_PI) -> np.ndarray:
    """One round of game B if ``plays_b``, else of game A, on the true
    state with ``config``'s full complex coins U(rho, theta, phi), every
    coin with the phases (config.theta, ``phi``): the tosses of players 1,
    2 and 3 one at a time, then slice_shift."""
    if plays_b:
        mats = [coin_unitary(rho, config.theta, phi)
                for rho in (config.rho1, config.rho2, config.rho3, config.rho4)]
        for player in (1, 2, 3):
            state = apply_controlled_coin(state, player, *mats)
    else:
        m = coin_unitary(config.rho0, config.theta, phi)
        for player in (1, 2, 3):
            state = apply_coin_matrix(state, player, m)
    return slice_shift(state)


# --- pure A as three 1D walks ----------------------------------------------


def pure_a_positions(coin_state: np.ndarray, u: np.ndarray, rounds: int) -> np.ndarray:
    """Expected positions <x_i>_t of pure A with the 2x2 coin ``u`` after
    t = 0..rounds rounds from the coin vector ``coin_state`` at the origin,
    shape (rounds + 1, 3).

    A game-A round tosses each coin with U = ``u`` and moves
    each axis by its own coin, so the walk is a product of three 1D walks
    and <x_i>_t = Tr[rho_i X_t]: rho_i is player i's reduced coin state and
    X_t[a, b] = sum_x x <psi_a(x)|psi_b(x)> for the 1D walks psi_a and psi_b
    from coins |a> and |b> at position 0, played on the positions
    -rounds..rounds.
    """
    x = np.arange(-rounds, rounds + 1)
    # psi[b, a, k]: coin b at position x[k] of the 1D walk from coin |a>
    psi = np.zeros((2, 2, len(x)), dtype=complex)
    psi[0, 0, rounds] = psi[1, 1, rounds] = 1.0
    moments = np.zeros((rounds + 1, 2, 2), dtype=complex)
    for t in range(1, rounds + 1):
        tossed = np.einsum("cb,bak->cak", u, psi)
        psi = np.zeros_like(tossed)
        psi[0, :, :-1] = tossed[0, :, 1:]  # |L> steps to x - 1
        psi[1, :, 1:] = tossed[1, :, :-1]  # |R> steps to x + 1
        moments[t] = np.einsum("bak,k,bck->ac", psi.conj(), x, psi)
    coins = np.asarray(coin_state, dtype=complex).reshape(2, 2, 2)
    positions = np.empty((rounds + 1, 3))
    for i in range(3):
        q = np.moveaxis(coins, i, 0).reshape(2, 4)
        positions[:, i] = np.einsum("ab,tba->t", q @ q.conj().T, moments).real
    return positions


def stepped_position_povm(coin: np.ndarray, rounds: int) -> np.ndarray:
    """The discriminator's M(n) = Phi(n)^dagger Phi(n), n = 0..rounds,
    walked round by round in step-count space: every round tosses each
    Phi(n) with ``coin``, then moves its |R> row up one step count."""
    phi = np.zeros((rounds + 1, 2, 2), dtype=complex)
    phi[0] = np.eye(2)
    for t in range(1, rounds + 1):
        phi[:t] = coin @ phi[:t]
        phi[1:t + 1, 1] = phi[:t, 1].copy()  # |R> advances the step count
        phi[0, 1] = 0.0
    return phi.conj().transpose(0, 2, 1) @ phi


# --- the engine's walk out of its gauge -------------------------------------


def ungauge(chi: np.ndarray, config, phi: float = HALF_PI) -> np.ndarray:
    """The true state psi = e^{-i theta r(c)} (e^{i theta} e^{i phi})^(n1+n2+n3)
    chi of the state chi that engine._walk returns, with the coins' phases
    (config.theta, ``phi``): r(c) is the number of |R> coins of component
    c, and n1 + n2 + n3 the site's count sum."""
    theta = config.theta
    counts = np.arange(chi.shape[1])
    count_sum = counts[:, None, None] + counts[:, None] + counts
    site = (np.exp(1j * theta) * np.exp(1j * phi)) ** count_sum
    coin = np.exp(-1j * theta) ** np.sum(COIN_BITS, axis=1)
    return coin[:, None, None, None] * site * chi


def split(start: np.ndarray) -> np.ndarray:
    """The complex coin vector ``start`` as engine._walk's two real sources
    (Re, Im), shape (8, 2)."""
    return np.stack([start.real, start.imag], axis=1)


def joined(final: np.ndarray) -> np.ndarray:
    """The complex state of engine._walk's final state from the sources
    (Re, Im) of ``split``."""
    return final[..., 0] + 1j * final[..., 1]


def gauged_start(coin_state: np.ndarray, config) -> np.ndarray:
    """The validated coin vector in the walk's gauge, D(theta) psi0, which
    multiplies component c by e^{i theta r(c)}."""
    phases = np.exp(1j * config.theta) ** np.sum(COIN_BITS, axis=1)
    return init_walker_state(coin_state).reshape(8) * phases


def walk_inputs(coin_state: np.ndarray, config) -> tuple[np.ndarray, tuple]:
    """engine._walk's ``sources`` and ``ops`` for ``coin_state`` under
    ``config``: the two real sources (Re, Im) of the gauged start, which
    serve every start, and the real round operators of games A and B."""
    rhos = (config.rho0, config.rho1, config.rho2, config.rho3, config.rho4)
    return split(gauged_start(coin_state, config)), engine._round_operators(*rhos)


def true_state(coin_state: np.ndarray, mask, config, phi: float = HALF_PI) -> np.ndarray:
    """The true state after the rounds of ``mask`` (True plays B) from
    ``coin_state``, its coins with the phases (config.theta, ``phi``):
    engine._walk's state from the sources (Re, Im), joined and ungauged."""
    mask = np.asarray(mask, dtype=bool)
    final = engine._walk(*walk_inputs(coin_state, config), mask, np.zeros((len(mask) + 1, 3)))
    return ungauge(joined(final), config, phi)


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


def _toss_coin_parts(coin_ops: CoinOpSpec) -> Iterator[np.ndarray]:
    """The 8x8 coin parts of the toss factors of players 1..3 in
    application order, each assembled by Kronecker products."""
    if len(coin_ops) != 3:
        raise ValueError("coin_ops must hold one entry per player")
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
        yield coin_part


def dense_toss_factors(half_extent: int, coin_ops: CoinOpSpec) -> Iterator[np.ndarray]:
    """Dense toss factors of players 1..3 in application order: each coin
    part times the identity on the positions."""
    _check_half_extent(half_extent)
    eye_pos = np.eye(2 * half_extent + 1, dtype=complex)
    for coin_part in _toss_coin_parts(coin_ops):
        yield np.kron(coin_part, np.kron(eye_pos, np.kron(eye_pos, eye_pos)))


def _component_shifts(size: int) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """For each coin component c = 4 b1 + 2 b2 + b3: its projector and the
    shift matrix of each position axis, +1 where b_i is |R>, else -1."""
    s = _dense_shift_matrix(size)
    for c in range(8):
        bits = ((c >> 2) & 1, (c >> 1) & 1, c & 1)
        yield _kron3([_P_R if b else _P_L for b in bits]), [s if b else s.conj().T for b in bits]


def dense_shift_factor(half_extent: int) -> np.ndarray:
    """Dense position update of one round, assembled by Kronecker products."""
    _check_half_extent(half_extent)
    L = 2 * half_extent + 1
    dim = 8 * L**3
    upos = np.zeros((dim, dim), dtype=complex)
    for proj, shifts in _component_shifts(L):
        upos += np.kron(proj, np.kron(shifts[0], np.kron(shifts[1], shifts[2])))
    return upos


def kron_round(amplitudes: np.ndarray, coin_ops: CoinOpSpec) -> np.ndarray:
    """One round of ``dense_round_matrix`` applied to position-lattice
    amplitudes (8, L, L, L) from the Kronecker pieces of its factors, none
    of them assembled: each toss's 8x8 coin part on the coin axis, then,
    for each coin component, its L x L shift matrix on each position axis."""
    _check_half_extent((amplitudes.shape[1] - 1) // 2)
    for coin_part in _toss_coin_parts(coin_ops):
        amplitudes = np.tensordot(coin_part, amplitudes, axes=1)
    shifted = np.zeros_like(amplitudes)
    for proj, shifts in _component_shifts(amplitudes.shape[1]):
        part = np.tensordot(proj, amplitudes, axes=1)
        for axis, s in enumerate(shifts, start=1):
            part = np.moveaxis(np.tensordot(s, part, axes=(1, axis)), 0, axis)
        shifted += part
    return shifted


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


# --- classical chain -------------------------------------------------------


def _classical_transitions(params) -> tuple[np.ndarray, np.ndarray]:
    """Each game's round transition ``T[g, s, s']`` and the player-averaged
    gain ``G[s, s']``, in np.longdouble, from playing every start state s
    into every outcome s'. Cooperative states are winner flags (player i at
    bit i; the round's outcome s' holds every player's result); the original
    game's state is the capital mod 3."""
    if isinstance(params, OriginalParams):
        transition = np.zeros((2, 3, 3), dtype=np.longdouble)
        gain = np.zeros((3, 3), dtype=np.longdouble)
        for s in range(3):
            up, down = (s + 1) % 3, (s - 1) % 3
            for g, p in enumerate((params.win_a, params.win_b1 if s == 0 else params.win_b2)):
                transition[g, s, up] = p
                transition[g, s, down] = 1 - np.longdouble(p)
            gain[s, up], gain[s, down] = 1, -1
        return transition, gain
    n = params.players
    branch = {(1, 1): params.p1, (1, 0): params.p2, (0, 1): params.p3, (0, 0): params.p4}
    transition = np.ones((2, 2**n, 2**n), dtype=np.longdouble)
    gain = np.zeros((2**n, 2**n), dtype=np.longdouble)
    for s in range(2**n):
        for outcome in range(2**n):
            flags = [s >> i & 1 for i in range(n)]
            for i in range(n):
                context = (flags[i - 1], flags[(i + 1) % n])
                won = outcome >> i & 1
                for g, p in enumerate((params.pa, branch[context])):
                    transition[g, s, outcome] *= p if won else 1 - np.longdouble(p)
                flags[i] = won
            gain[s, outcome] = np.longdouble(2 * bin(outcome).count("1") - n) / n
    return transition, gain


def lifted_chain_series(params, scheme, rounds: int, trials: int):
    """Mean player-averaged gain and its standard error over ``trials``
    trials after every round, from the row vector (P, m, q) multiplied by
    game A's or game B's lifted map, or their average for the random mix,
    once a round in np.longdouble; returned as float64 arrays."""
    transition, gain = _classical_transitions(params)
    states = transition.shape[-1]
    zero = np.zeros((states, states), dtype=np.longdouble)
    maps = [
        np.block([[t, t * gain, t * gain**2], [zero, t, 2 * t * gain], [zero, zero, t]])
        for t in transition
    ]
    mix = (maps[0] + maps[1]) / 2
    vector = np.zeros(3 * states, dtype=np.longdouble)
    if isinstance(params, OriginalParams):
        vector[0] = 1
    else:
        vector[:states] = np.longdouble(1) / states
    mask = None if scheme.is_random else engine.schedule_mask(scheme, rounds, None)
    mean = np.zeros(rounds + 1, dtype=np.longdouble)
    second = np.zeros(rounds + 1, dtype=np.longdouble)
    for t in range(rounds):
        vector = vector @ (mix if mask is None else maps[int(mask[t])])
        mean[t + 1] = vector[states:2 * states].sum()
        second[t + 1] = vector[2 * states:].sum()
    variance = np.maximum(second - mean * mean, 0) / trials
    return mean.astype(float), np.sqrt(variance).astype(float)


# --- CSV rows by % ---------------------------------------------------------


def _quote(text: str) -> str:
    """A text field as csv.writer writes it; "periodic:2,2" holds a comma."""
    return '"%s"' % text.replace('"', '""') if any(c in text for c in ',"\n') else text


def _percent_rows(path, header: str, fmt: str, rows: Iterable[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(fmt % row for row in rows)


def percent_series_csv(series, path) -> None:
    rows = zip(
        range(series.rounds + 1), *series.per_player.T.tolist(),
        series.average_gain.tolist(), series.stderr.tolist(),
    )
    header = "round,gain_p1,gain_p2,gain_p3,gain_avg,stderr"
    _percent_rows(path, header, "%d" + ",%.15g" * 5 + "\n", rows)


def percent_map_csv(records, path) -> None:
    rows = ((r.theta, r.phi, _quote(r.scheme), r.gain, r.paradox) for r in records)
    _percent_rows(path, "theta,phi,scheme,gain,paradox", "%.15g,%.15g,%s,%.15g,%d\n", rows)


def percent_sweep_csv(records, path, value_name: str = "value") -> None:
    rows = (
        (r.value, _quote(r.scheme), r.gain, r.stderr, _quote(r.verdict), r.paradox)
        for r in records
    )
    header = _quote(value_name) + ",scheme,gain,stderr,verdict,paradox"
    _percent_rows(path, header, "%.15g,%s,%.15g,%.15g,%s,%d\n", rows)


def percent_classical_csv(series, path) -> None:
    rows = zip(range(series.rounds + 1), series.mean_gain.tolist(), series.stderr.tolist())
    _percent_rows(path, "round,gain_avg,stderr", "%d,%.15g,%.15g\n", rows)
