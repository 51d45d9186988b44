"""One rule per kind of numeric parameter, shared by the config loader and the dataclasses."""
from __future__ import annotations

import math
import numbers


def as_integer(value, where: str) -> int:
    """An integral real number (numpy scalars too, booleans not) as int, else ValueError."""
    if type(value) is int:  # the common case, without the slower ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1 != 0:
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(value)


def as_real(value, where: str) -> float:
    """A finite real number (numpy scalars too, booleans not) as float, else ValueError."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{where} must be a finite number, got {value!r}")
