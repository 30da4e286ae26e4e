"""d_n = lcm(1..n), grown incrementally."""

from __future__ import annotations

import math

# _LCM[i] = lcm(1..i+1); append-only, idempotent fill.
_LCM: list[int] = [1]


def d(n: int) -> int:
    """lcm(1, 2, ..., n) computed incrementally."""
    if n < 1:
        raise ValueError("n must be >= 1")
    while len(_LCM) < n:
        _LCM.append(math.lcm(_LCM[-1], len(_LCM) + 1))
    return _LCM[n - 1]
