"""Coin unitaries, the three-qubit entangler, and initial coin states.

All coin-register vectors use the basis index c = 4*b1 + 2*b2 + b3 where
b_i = 0 for player i's coin in |L> and 1 for |R>, so index 0 is |LLL> and
index 7 is |RRR>.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HALF_PI = math.pi / 2

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class InitialCoin:
    """Initial three-coin state selector.

    ``kind`` is one of "ghz", "w", "separable" or "j"; ``omega`` is the
    entanglement angle used only by the "j" kind.
    """

    kind: str
    omega: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("ghz", "w", "separable", "j"):
            raise ValueError(f"unknown initial coin kind {self.kind!r}")
        if self.kind == "j":
            if self.omega is None:
                raise ValueError("initial coin kind 'j' requires omega")
            if not 0.0 <= self.omega <= HALF_PI:
                raise ValueError(f"omega must lie in [0, pi/2], got {self.omega}")


GHZ = InitialCoin("ghz")
W = InitialCoin("w")
SEPARABLE = InitialCoin("separable")


def j_entangled(omega: float) -> InitialCoin:
    """Initial coin selector for the entangled state J(omega)|LLL>."""
    return InitialCoin("j", omega)


def coin_unitary(rho: float, theta: float = HALF_PI, phi: float = HALF_PI) -> np.ndarray:
    """2x2 coin unitary U(rho, theta, phi) in the (|L>, |R>) basis.

    ``rho`` is the probability that the coin keeps its state; ``1 - rho``
    is the classical probability that it flips. Returns
        [[sqrt(rho),              sqrt(1-rho) e^{i theta}],
         [sqrt(1-rho) e^{i phi}, -sqrt(rho) e^{i theta} e^{i phi}]]

    The lower-right entry multiplies the two unit phases instead of adding
    the angles, so every finite pair gives a finite coin.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    for name, value in (("theta", theta), ("phi", phi)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    a, b = math.sqrt(rho), math.sqrt(1.0 - rho)
    e_theta, e_phi = np.exp(1j * theta), np.exp(1j * phi)
    return np.array([[a, b * e_theta], [b * e_phi, -a * (e_theta * e_phi)]], dtype=complex)


def entangler_j(omega: float) -> np.ndarray:
    """8x8 entangler cos(w/2) I + i sin(w/2) sigma_x^(x3) for w in [0, pi/2]."""
    if not 0.0 <= omega <= HALF_PI:
        raise ValueError(f"omega must lie in [0, pi/2], got {omega}")
    xxx = np.kron(SIGMA_X, np.kron(SIGMA_X, SIGMA_X))
    return math.cos(omega / 2) * np.eye(8, dtype=complex) + 1j * math.sin(omega / 2) * xxx


def initial_coin_state(kind: InitialCoin) -> np.ndarray:
    """Unit-norm 8-component coin vector for the requested initial state."""
    v = np.zeros(8, dtype=complex)
    if kind.kind == "ghz":
        v[0] = v[7] = 1.0 / math.sqrt(2.0)
    elif kind.kind == "w":
        v[1] = v[2] = v[4] = 1.0 / math.sqrt(3.0)
    elif kind.kind == "separable":
        # (|L> - |R>)^(x3) expanded: sign (-1)^popcount(c)
        for c in range(8):
            v[c] = (-1) ** bin(c).count("1") / (2.0 * math.sqrt(2.0))
    else:
        lll = np.zeros(8, dtype=complex)
        lll[0] = 1.0
        v = entangler_j(float(kind.omega)) @ lll
    return v
