"""Mutation strategies: Table I's image strategies plus the text and record ones.

Importing this package registers every built-in strategy, so
``create_strategy("gauss")`` works immediately after
``import repro.fuzz``.
"""

from repro.fuzz.mutations.base import (
    MutationStrategy,
    create_strategy,
    get_strategy_class,
    register_strategy,
    strategy_names,
)
from repro.fuzz.mutations.noise import GaussianNoise, RandomNoise
from repro.fuzz.mutations.record import (
    RecordBandNoise,
    RecordGaussianNoise,
    RecordRandomNoise,
    RecordShift,
)
from repro.fuzz.mutations.rowcol import ColRandom, RowColRandom, RowRandom
from repro.fuzz.mutations.shift import Shift
from repro.fuzz.mutations.text import CharSubstitution, CharTransposition

__all__ = [
    "CharSubstitution",
    "CharTransposition",
    "ColRandom",
    "GaussianNoise",
    "MutationStrategy",
    "RandomNoise",
    "RecordBandNoise",
    "RecordGaussianNoise",
    "RecordRandomNoise",
    "RecordShift",
    "RowColRandom",
    "RowRandom",
    "Shift",
    "create_strategy",
    "get_strategy_class",
    "register_strategy",
    "strategy_names",
]
