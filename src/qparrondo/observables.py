"""Payoffs, game classification and paradox detection."""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

DEFAULT_TOL = 1e-9


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


def classify_game(series: PayoffSeries) -> GameVerdict:
    """Winning/fair/losing from the final-round average gain against +-tol.

    The tolerance is 1e-9, widened to 3 standard errors for series averaged
    over random schedules.
    """
    if len(series.average_gain) == 0:
        raise ValueError("series is empty")
    tol = max(DEFAULT_TOL, 3.0 * series.final_stderr)
    gain = series.final_gain
    if gain > tol:
        verdict = Verdict.WINNING
    elif gain < -tol:
        verdict = Verdict.LOSING
    else:
        verdict = Verdict.FAIR
    return GameVerdict(verdict, gain, tol)


def detect_paradox(
    a: GameVerdict, b: GameVerdict, combined: Mapping[str, GameVerdict]
) -> dict[str, bool]:
    """Paradox flag per combined scheme label: the scheme wins while
    neither pure game does."""
    neither = a.verdict is not Verdict.WINNING and b.verdict is not Verdict.WINNING
    return {
        label: neither and verdict.verdict is Verdict.WINNING
        for label, verdict in combined.items()
    }
