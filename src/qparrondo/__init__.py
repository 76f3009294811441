"""Three-player cooperative quantum Parrondo games.

A discrete-time quantum walk on three position axes with a three-qubit
coin register: game A tosses every coin with one unconditional unitary,
game B conditions each toss on the ring neighbors' coins, and the joint
position update moves each axis by its player's coin. Includes payoff
observables, paradox detection, a classical baseline (exact Markov chain;
Monte Carlo for rings of 8 or more players), a GHZ/W discriminator, and
sweep drivers with CSV output.
"""

from .classical import (
    ClassicalSeries,
    CooperativeParams,
    OriginalParams,
    run_classical,
)
from .coins import (
    GHZ,
    SEPARABLE,
    W,
    InitialCoin,
    coin_unitary,
    entangler_j,
    initial_coin_state,
    j_entangled,
)
from .discriminator import DiscriminationResult, discriminate
from .engine import (
    PURE_A,
    PURE_B,
    RANDOM_MIX,
    GameScheme,
    SimulationConfig,
    parse_scheme,
    periodic,
    run_averaged,
)
from .observables import (
    GameVerdict,
    PayoffSeries,
    Verdict,
    classify_game,
    detect_paradox,
)
from .state import init_walker_state
from .sweeps import (
    MapRecord,
    SweepRecord,
    emit_map_csv,
    emit_series_csv,
    emit_sweep_csv,
    sweep_entanglement,
    sweep_phase_map,
    sweep_rho4,
)

__all__ = [
    "ClassicalSeries",
    "CooperativeParams",
    "DiscriminationResult",
    "GHZ",
    "GameScheme",
    "GameVerdict",
    "InitialCoin",
    "MapRecord",
    "OriginalParams",
    "PURE_A",
    "PURE_B",
    "PayoffSeries",
    "RANDOM_MIX",
    "SEPARABLE",
    "SimulationConfig",
    "SweepRecord",
    "Verdict",
    "W",
    "classify_game",
    "coin_unitary",
    "detect_paradox",
    "discriminate",
    "emit_map_csv",
    "emit_series_csv",
    "emit_sweep_csv",
    "entangler_j",
    "init_walker_state",
    "initial_coin_state",
    "j_entangled",
    "parse_scheme",
    "periodic",
    "run_averaged",
    "run_classical",
    "sweep_entanglement",
    "sweep_phase_map",
    "sweep_rho4",
]

__version__ = "0.1.0"
