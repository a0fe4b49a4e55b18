"""Shared utilities: seeded randomness, timing helpers and lightweight logging.

These utilities are deliberately dependency-free (numpy only) so that every
other subsystem — the neural-network substrate, the road-network generators,
the trajectory simulator and the evaluation harness — can rely on them without
pulling in heavyweight libraries.
"""

from repro.utils.arrays import pad_ragged_rows
from repro.utils.rng import RandomState, get_rng, set_global_seed, spawn_rng
from repro.utils.timing import Timer, format_duration
from repro.utils.logging import get_logger

__all__ = [
    "pad_ragged_rows",
    "RandomState",
    "get_rng",
    "set_global_seed",
    "spawn_rng",
    "Timer",
    "format_duration",
    "get_logger",
]
