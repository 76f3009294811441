"""Acceptance suite: one test per criterion (split into lettered parts),
each printing a PASS/FAIL line before asserting.

Four checks concerning the combined game schemes state reference sign
patterns that this model does not produce (the computed values are stated
in the failure messages); they are implemented as specified and fail.
Every structural variant of the round operator that stays consistent
with the exact one-toss state identity of criterion 1 was tried while
freezing these expectations; none inverts the combined-scheme signs, so
the checks are left red rather than weakened. The analysis lives in the
repository build notes.
"""
import math

import numpy as np
import pytest
from oracle import (
    apply_coin_matrix,
    dense_positions,
    dense_step_oracle,
    position_distribution,
    state_norm,
    true_state,
)

from qparrondo import (
    GHZ,
    PURE_A,
    PURE_B,
    RANDOM_MIX,
    SEPARABLE,
    W,
    CoinParams,
    GameBParams,
    SimulationConfig,
    Verdict,
    coin_unitary,
    discriminate,
    entangler_j,
    init_walker_state,
    initial_coin_state,
    periodic,
    run_averaged,
    sweep_entanglement,
    sweep_phase_map,
    sweep_rho4,
)
from qparrondo.classical import OriginalParams, run_classical
from qparrondo.engine import schedule_mask

ROUNDS = 16
RHO4_GRID = [round(0.1 * k, 1) for k in range(1, 10)]
LOW = [0.1, 0.2, 0.3, 0.4]
HIGH = [0.6, 0.7, 0.8, 0.9]
SCHEMES = (PURE_A, PURE_B, periodic(2, 2), RANDOM_MIX)
W_EXTRA = (periodic(3, 2), periodic(2, 3), periodic(3, 3))
OMEGA_SWEEP_RHO4 = 0.9  # game B must lose for GHZ-class states: rho4 > 0.5
PHASE_MAP_RHO4 = 0.7


def report(cid: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {cid}: {tag}{suffix}")
    assert ok, f"{cid}{suffix}"


def config(initial, scheme, rho4=0.5, rounds=ROUNDS, theta=math.pi / 2, phi=math.pi / 2):
    return SimulationConfig(
        initial=initial,
        scheme=scheme,
        rounds=rounds,
        coin_a=CoinParams(0.5, theta, phi),
        game_b=GameBParams.from_rhos(rho4=rho4, theta=theta, phi=phi),
        seed=0,
        runs=10,
    )


@pytest.fixture(scope="module")
def rho4_tables():
    tables = {}
    for name, initial, schemes in (
        ("separable", SEPARABLE, SCHEMES),
        ("ghz", GHZ, SCHEMES),
        ("w", W, SCHEMES + W_EXTRA),
    ):
        records = sweep_rho4(config(initial, PURE_A), RHO4_GRID, schemes)
        tables[name] = {(r.value, r.scheme): r for r in records}
    return tables


@pytest.fixture(scope="module")
def omega_table():
    base = config(GHZ, PURE_A, rho4=OMEGA_SWEEP_RHO4)
    omegas = [k * math.pi / 10 for k in range(6)]
    records = sweep_entanglement(base, omegas, SCHEMES)
    return {(round(r.value, 12), r.scheme): r for r in records}, omegas


def test_criterion_1_fair_toss_state_identity():
    st = init_walker_state(initial_coin_state(GHZ))
    fair = coin_unitary(CoinParams(0.5))
    for player in (1, 2, 3):
        st = apply_coin_matrix(st, player, fair)
    coin_vec = st[:, 0, 0, 0]
    expect = np.array([1 - 1j, 1j - 1, 1j - 1, 1j - 1, 1j - 1, 1j - 1, 1j - 1, 1 - 1j]) / 4
    dev = float(np.max(np.abs(coin_vec - expect)))
    report("1a exact coin vector after one fair triple toss", dev <= 1e-12, f"dev={dev:.2e}")
    for player in (1, 2, 3):
        st = apply_coin_matrix(st, player, fair)
    overlap = abs(np.vdot(initial_coin_state(GHZ), st[:, 0, 0, 0]))
    report(
        "1b second triple toss returns GHZ up to phase",
        abs(overlap - 1.0) <= 1e-10,
        f"|overlap|={overlap:.12f}",
    )


def test_criterion_2_entangler_identity():
    lll = np.zeros(8)
    lll[0] = 1.0
    out = entangler_j(math.pi / 2) @ lll
    expect = np.array([1, 0, 0, 0, 0, 0, 0, 1j]) / math.sqrt(2)
    dev = float(np.max(np.abs(out - expect)))
    report("2 J(pi/2)|LLL> = (|LLL> + i|RRR>)/sqrt(2)", dev <= 1e-12, f"dev={dev:.2e}")


def test_criterion_3_ghz_fairness_of_pure_a():
    series = run_averaged(config(GHZ, PURE_A))
    worst = float(np.max(np.abs(series.average_gain)))
    report("3 GHZ pure-A gain zero at every round", worst <= 1e-10, f"max|gain|={worst:.2e}")


def test_criterion_4a_ghz_pure_b_sign_pattern(rho4_tables):
    t = rho4_tables["ghz"]
    low_ok = all(t[(v, "b")].gain > 0 for v in LOW)
    high_ok = all(t[(v, "b")].gain < 0 for v in HIGH)
    detail = "; ".join(f"B({v})={t[(v, 'b')].gain:+.3f}" for v in LOW + HIGH)
    report("4a GHZ pure-B wins on [0.1,0.4] and loses on [0.6,0.9]", low_ok and high_ok, detail)


def test_criterion_4a_ghz_combined_nonlosing(rho4_tables):
    """Reference pattern: the [2,2] and random-mix gains stay non-losing at
    every grid value. Computed: [2,2] is losing at rho4=0.6 and the mix is
    losing across rho4 in [0.6, 0.9]."""
    t = rho4_tables["ghz"]
    bad = [
        (v, s, t[(v, s)].gain)
        for v in RHO4_GRID
        for s in ("periodic:2,2", "mix")
        if t[(v, s)].verdict == Verdict.LOSING.value
    ]
    detail = "; ".join(f"{s}({v})={g:+.3f}" for v, s, g in bad) or "all non-losing"
    report("4a GHZ [2,2] and A+B non-losing at every rho4", not bad, detail)


def test_criterion_4b_separable_paradox_region(rho4_tables):
    """Reference pattern: the [2,2] paradox flag is set across rho4 in
    [0.1, 0.4]. Computed: [2,2] is losing there (no paradox)."""
    t = rho4_tables["separable"]
    flags = {v: t[(v, "periodic:2,2")].paradox for v in LOW}
    detail = "; ".join(
        f"rho4={v}: flag={int(flags[v])} gain={t[(v, 'periodic:2,2')].gain:+.3f}" for v in LOW
    )
    report("4b separable [2,2] paradox on the whole interval [0.1,0.4]", all(flags.values()), detail)


def test_criterion_4b_separable_mix_paradox_at_0_4(rho4_tables):
    """Reference pattern: the random mix is a winning game at rho4=0.4
    while both pure games are non-winning. Computed: the mix is losing."""
    r = rho4_tables["separable"][(0.4, "mix")]
    report(
        "4b separable A+B paradox at rho4=0.4",
        r.paradox,
        f"gain={r.gain:+.3f} stderr={r.stderr:.3f} verdict={r.verdict}",
    )


def test_criterion_4b_separable_reversal_above_half(rho4_tables):
    """Reference pattern: for some rho4 in [0.6, 0.9] game B wins while
    [2,2] loses. Computed: [2,2] wins wherever B wins."""
    t = rho4_tables["separable"]
    hits = [
        v
        for v in HIGH
        if t[(v, "b")].gain > 0 and t[(v, "periodic:2,2")].verdict == Verdict.LOSING.value
    ]
    detail = "; ".join(
        f"rho4={v}: B={t[(v, 'b')].gain:+.3f} [2,2]={t[(v, 'periodic:2,2')].gain:+.3f}"
        for v in HIGH
    )
    report("4b separable [2,2] losing somewhere on [0.6,0.9] while B wins", bool(hits), detail)


def test_criterion_4c_w_all_schemes_losing(rho4_tables):
    """Reference pattern: every scheme yields a final loss at every grid
    value. Computed: pure B turns winning at rho4=0.9."""
    t = rho4_tables["w"]
    labels = ["a", "b", "periodic:2,2", "mix", "periodic:3,2", "periodic:2,3", "periodic:3,3"]
    bad = [(v, s, t[(v, s)].gain) for v in RHO4_GRID for s in labels if t[(v, s)].gain >= 0]
    detail = "; ".join(f"{s}({v})={g:+.3f}" for v, s, g in bad) or "all losing"
    report("4c W-state final gain negative for all schemes and rho4", not bad, detail)


def test_criterion_4c_w_no_paradox(rho4_tables):
    t = rho4_tables["w"]
    flagged = [(v, s) for (v, s), r in t.items() if r.paradox]
    report("4c W-state sets no paradox flag", not flagged, str(flagged) if flagged else "")


def test_criterion_5a_losing_below_maximal_entanglement(omega_table):
    table, omegas = omega_table
    bad = []
    for omega in omegas[:-1]:
        key = round(omega, 12)
        if table[(key, "a")].gain >= 0 or table[(key, "b")].gain >= 0:
            bad.append(("pure", omega))
        if table[(key, "periodic:2,2")].paradox or table[(key, "mix")].paradox:
            bad.append(("flag", omega))
    report(
        "5a omega < pi/2: A and B lose, no paradox",
        not bad,
        str(bad) if bad else f"A(0)={table[(0.0, 'a')].gain:+.3f}",
    )


def test_criterion_5b_fairness_restored_at_maximal_entanglement(omega_table):
    table, omegas = omega_table
    key = round(omegas[-1], 12)
    gain = table[(key, "a")].gain
    report("5b omega = pi/2: pure A is exactly fair", abs(gain) <= 1e-10, f"gain={gain:.2e}")


def test_criterion_5c_periodic_paradox_restored(omega_table):
    table, omegas = omega_table
    key = round(omegas[-1], 12)
    r = table[(key, "periodic:2,2")]
    report(
        "5c omega = pi/2: [2,2] paradox flag set",
        r.paradox,
        f"gain={r.gain:+.3f} B={table[(key, 'b')].gain:+.3f}",
    )


def test_criterion_5d_mix_paradox_restored(omega_table):
    """Reference pattern: the random mix also turns winning at omega=pi/2.
    Computed: the mix stays losing (B-dominated) for every rho4 tried."""
    table, omegas = omega_table
    key = round(omegas[-1], 12)
    r = table[(key, "mix")]
    report(
        "5d omega = pi/2: A+B paradox flag set",
        r.paradox,
        f"gain={r.gain:+.3f} stderr={r.stderr:.3f}",
    )


def test_criterion_6_phase_maps():
    step = math.pi / 8
    base_ghz = config(GHZ, PURE_A, rho4=PHASE_MAP_RHO4)
    records = sweep_phase_map(base_ghz, step, (PURE_A, PURE_B))
    a_gains = np.array([r.gain for r in records if r.scheme == "a"])
    b_gains = np.array([r.gain for r in records if r.scheme == "b"])
    assert len(a_gains) == 256 and len(b_gains) == 256
    worst_a = float(np.max(np.abs(a_gains)))
    report("6a GHZ pure-A fair at every grid point", worst_a <= 1e-10, f"max|gain|={worst_a:.2e}")
    report(
        "6b GHZ pure-B losing at every grid point",
        bool(np.all(b_gains < 0)),
        f"range [{b_gains.min():+.4f}, {b_gains.max():+.4f}]",
    )
    base_w = config(W, PURE_A, rho4=PHASE_MAP_RHO4)
    records_w = sweep_phase_map(base_w, step, (PURE_A, PURE_B))
    for scheme in ("a", "b"):
        gains = np.array([r.gain for r in records_w if r.scheme == scheme])
        spread = float(gains.max() - gains.min())
        report(
            f"6c W pure-{scheme.upper()} map constant across the grid",
            spread <= 1e-10,
            f"spread={spread:.2e}",
        )


def test_criterion_7_oracle_equivalence():
    fair = coin_unitary(CoinParams(0.5))
    special = coin_unitary(CoinParams(0.3))
    worst = 0.0
    for initial in (GHZ, SEPARABLE):
        st = init_walker_state(initial_coin_state(initial))
        cfg = config(initial, PURE_B, rho4=0.3, rounds=2)
        for plays_b, ops in (
            (False, [fair] * 3),
            (True, [(fair, fair, fair, special)] * 3),
        ):
            walked = true_state(initial_coin_state(initial), [plays_b], cfg)
            structured = dense_positions(walked, 2)
            dense = dense_step_oracle(dense_positions(st, 2), ops)
            worst = max(worst, float(np.max(np.abs(structured - dense))))
    report("7 structured rounds match the dense oracle (T=2)", worst <= 1e-10, f"max dev={worst:.2e}")


def test_criterion_8a_unitarity_over_random_draws():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        p = CoinParams(rng.random(), rng.uniform(-2 * math.pi, 2 * math.pi),
                       rng.uniform(-2 * math.pi, 2 * math.pi))
        m = coin_unitary(p)
        worst = max(worst, float(np.max(np.abs(m.conj().T @ m - np.eye(2)))))
    for _ in range(1000):
        j = entangler_j(rng.uniform(0, math.pi / 2))
        worst = max(worst, float(np.max(np.abs(j.conj().T @ j - np.eye(8)))))
    report("8a unitarity over 1000 random parameter draws", worst <= 1e-12, f"worst={worst:.2e}")


def test_criterion_8b_norm_support_parity_every_round():
    cfg = config(SEPARABLE, periodic(2, 2), rho4=0.3)
    schedule = schedule_mask(cfg.scheme, ROUNDS, np.random.default_rng(0))
    coords = np.arange(-ROUNDS, ROUNDS + 1)
    worst_norm = 0.0
    leakage = 0.0
    for t in range(1, ROUNDS + 1):
        st = true_state(initial_coin_state(SEPARABLE), schedule[:t], cfg)
        worst_norm = max(worst_norm, abs(state_norm(st) - 1.0))
        prob = np.abs(dense_positions(st, ROUNDS)) ** 2
        for axis in range(3):
            marginal = prob.sum(axis=tuple(a for a in range(4) if a != 1 + axis))
            leakage = max(leakage, float(marginal[np.abs(coords) > t].sum()))
            leakage = max(leakage, float(marginal[(coords + t) % 2 == 1].sum()))
    report(
        "8b norm, support and parity preserved over 16 rounds",
        worst_norm <= 1e-10 and leakage <= 1e-12,
        f"norm dev={worst_norm:.2e} leakage={leakage:.2e}",
    )


def test_criterion_8c_determinism_of_runs_and_sweeps():
    cfg = config(SEPARABLE, RANDOM_MIX, rho4=0.4)
    s1 = run_averaged(cfg)
    s2 = run_averaged(cfg)
    same_runs = np.array_equal(s1.per_player, s2.per_player)
    first = sweep_rho4(cfg, [0.2, 0.4, 0.6], SCHEMES)
    again = sweep_rho4(cfg, [0.2, 0.4, 0.6], SCHEMES)
    report(
        "8c fixed seeds reproduce runs and sweeps bitwise",
        same_runs and first == again,
        "",
    )


def test_criterion_9_discriminator():
    ghz = discriminate(initial_coin_state(GHZ), rounds=ROUNDS)
    w = discriminate(initial_coin_state(W), rounds=ROUNDS)
    report(
        "9a expectation mode labels GHZ and W correctly",
        ghz.label == "GHZ" and w.label == "W",
        f"s_ghz={ghz.statistic:.2e} s_w={w.statistic:+.3f} threshold={w.threshold:.3f}",
    )
    shots = 100_000
    sampled = discriminate(
        initial_coin_state(W), rounds=ROUNDS, mode="sampled", shots=shots,
        rng=np.random.default_rng(7),
    )
    # exact spread of the coordinate-sum statistic under the final state
    cfg = config(W, PURE_A)
    final = true_state(initial_coin_state(W), [False] * ROUNDS, cfg)
    joint = position_distribution(final)
    coords = 2 * np.arange(ROUNDS + 1) - ROUNDS
    sums = coords[:, None, None] + coords[None, :, None] + coords[None, None, :]
    mean = float((joint * sums).sum())
    var = float((joint * (sums - mean) ** 2).sum())
    stderr = math.sqrt(var / shots)
    dev = abs(sampled.statistic - w.statistic)
    report(
        "9b sampled mode agrees with expectation within 4 standard errors",
        sampled.label == "W" and dev <= 4 * stderr,
        f"dev={dev:.4f} 4*se={4 * stderr:.4f}",
    )


def test_criterion_10_classical_baseline():
    rounds, trials = 10_000, 1000
    params = OriginalParams(epsilon=0.005)
    b = run_classical(params, PURE_B, rounds=rounds, trials=trials, seed=0)
    report(
        "10a original pure B losing by >= 3 standard errors",
        b.final_gain < -3 * b.final_stderr,
        f"gain={b.final_gain:+.1f} stderr={b.final_stderr:.2f}",
    )
    mix = run_classical(params, RANDOM_MIX, rounds=rounds, trials=trials, seed=0)
    report(
        "10b original random mix winning by >= 3 standard errors",
        mix.final_gain > 3 * mix.final_stderr,
        f"gain={mix.final_gain:+.1f} stderr={mix.final_stderr:.2f}",
    )
    fair = run_classical(OriginalParams(epsilon=0.0), PURE_A, rounds=rounds, trials=trials, seed=0)
    report(
        "10c unbiased pure A fair within 3 standard errors",
        abs(fair.final_gain) <= 3 * fair.final_stderr,
        f"gain={fair.final_gain:+.2f} stderr={fair.final_stderr:.2f}",
    )
    # independent drift oracle: stationary distribution of capital mod 3
    q = np.array([params.win_b1, params.win_b2, params.win_b2])
    transition = np.zeros((3, 3))
    for s in range(3):
        transition[s, (s + 1) % 3] = q[s]
        transition[s, (s - 1) % 3] = 1 - q[s]
    pi = np.linalg.solve(
        np.vstack([transition.T - np.eye(3), np.ones(3)])[1:], np.array([0.0, 0.0, 1.0])
    )
    drift = float(pi @ (2 * q - 1))
    dev = abs(b.final_gain - drift * rounds)
    report(
        "10d Monte Carlo drift matches the mod-3 chain oracle within 3 standard errors",
        dev <= 3 * b.final_stderr,
        f"chain={drift * rounds:+.1f} mc={b.final_gain:+.1f} 3*se={3 * b.final_stderr:.1f}",
    )
