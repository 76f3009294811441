"""Payoffs, game classification and paradox detection."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

import numpy as np

DEFAULT_TOL = 1e-9


def coin_weights(state: np.ndarray) -> np.ndarray:
    """Probability of each of the 8 coin components, sum over all sites of
    |amp|^2, from a single pass over the amplitudes (8, ...)."""
    flat = np.ascontiguousarray(state).reshape(8, -1).view(np.float64)
    # one BLAS dot product per component: faster than einsum's running sum,
    # and its blocked partial sums round far less
    return (flat[:, None, :] @ flat[:, :, None]).reshape(8)


@dataclass
class PayoffSeries:
    """Per-round expected positions and the player-averaged capital gain.

    Row t corresponds to the state after t rounds; row 0 is the start.
    ``stderr`` holds per-round standard errors of the mean gain over runs,
    zero for a single run or a fixed schedule.
    """

    per_player: np.ndarray  # (rounds + 1, 3)
    average_gain: np.ndarray  # (rounds + 1,)
    stderr: np.ndarray  # (rounds + 1,)

    @property
    def rounds(self) -> int:
        return len(self.average_gain) - 1

    @property
    def final_gain(self) -> float:
        return float(self.average_gain[-1])

    @property
    def final_stderr(self) -> float:
        return float(self.stderr[-1])


class Verdict(Enum):
    WINNING = "winning"
    FAIR = "fair"
    LOSING = "losing"


@dataclass(frozen=True)
class GameVerdict:
    verdict: Verdict
    gain: float
    tol: float


def default_tolerance(series: PayoffSeries) -> float:
    """Classification tolerance: 1e-9, widened to 3 standard errors for
    series averaged over random schedules."""
    return max(DEFAULT_TOL, 3.0 * series.final_stderr)


def classify_game(series: PayoffSeries, tol: float | None = None) -> GameVerdict:
    """Winning/fair/losing from the final-round average gain against +-tol."""
    if len(series.average_gain) == 0:
        raise ValueError("series is empty")
    if tol is None:
        tol = default_tolerance(series)
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    gain = series.final_gain
    if gain > tol:
        verdict = Verdict.WINNING
    elif gain < -tol:
        verdict = Verdict.LOSING
    else:
        verdict = Verdict.FAIR
    return GameVerdict(verdict, gain, tol)


@dataclass
class ParadoxReport:
    """Verdicts for the pure games and each combined scheme, with a
    paradox flag per combined scheme."""

    game_a: GameVerdict
    game_b: GameVerdict
    combined: dict[str, GameVerdict] = field(default_factory=dict)
    paradox: dict[str, bool] = field(default_factory=dict)


def detect_paradox(
    a: GameVerdict, b: GameVerdict, combined: Mapping[str, GameVerdict]
) -> ParadoxReport:
    """Flag a combined scheme when it wins while neither pure game does."""
    report = ParadoxReport(game_a=a, game_b=b, combined=dict(combined))
    for label, verdict in combined.items():
        report.paradox[label] = (
            a.verdict is not Verdict.WINNING
            and b.verdict is not Verdict.WINNING
            and verdict.verdict is Verdict.WINNING
        )
    return report
