"""Noncooperative power allocation over shared spectrum.

Library and CLI for the vector power game played by interfering wideband
links: masked waterfilling best responses, Nash equilibrium computation
and classification, uniqueness condition checking, Pareto frontier
comparison, and a small-scale matrix-valued oracle for the diagonal
precoding optimality claim.
"""

from .channel import (
    UNBOUNDED,
    ChannelSet,
    NormalizedGame,
    build_game,
    frequency_response,
    ratio_scenario,
)
from .errors import InfeasibleWaterfillError, InvalidInputError, NumericFailureError
from .rng import derive_rng
from .waterfilling import PowerProfile, WaterfillInput, kkt_residual, waterfill

__all__ = [
    "UNBOUNDED",
    "ChannelSet",
    "NormalizedGame",
    "PowerProfile",
    "WaterfillInput",
    "InfeasibleWaterfillError",
    "InvalidInputError",
    "NumericFailureError",
    "build_game",
    "derive_rng",
    "frequency_response",
    "kkt_residual",
    "ratio_scenario",
    "waterfill",
]

__version__ = "0.1.0"
