"""Two-year observation window shared across modules.

Durations are recorded in whole days.  Day 0 means the event happened
within the last 24 hours; day 729 is the last observable value; day 730
is the exclusion boundary, where every density in the package is pinned
to zero.  ``day_vector`` is the one check that a vector covers the grid.
"""

import numpy as np

from .errors import DimensionError

LAST_DAY = 729
NUM_DAYS = 730


def day_vector(values, name: str) -> np.ndarray:
    """``values``, or its ``name`` attribute, as a float vector over days
    0 .. 729; anything else, such as a distribution of the other type or
    a string, raises DimensionError."""
    rule = f"{name} must hold one entry per day 0 .. {LAST_DAY}"
    try:
        x = np.asarray(getattr(values, name, values), dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{rule}, got a {type(values).__name__}") from exc
    if x.shape != (NUM_DAYS,):
        raise DimensionError(f"{rule}, got shape {x.shape}")
    return x
