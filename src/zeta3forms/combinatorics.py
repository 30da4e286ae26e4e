"""Binomial coefficients, generalized harmonic numbers, and d_n = lcm(1..n)."""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import Rat


def binom(n: int, k: int) -> int:
    """C(n, k); zero when k > n. Arguments must be non-negative."""
    if n < 0 or k < 0:
        raise ValueError("binom requires non-negative arguments")
    return math.comb(n, k)


# Per-order prefix tables of H_r = sum_{m<=r} 1/m**order; grown on demand,
# idempotent, so concurrent readers are safe.
_HARMONIC: dict[int, list[Fraction]] = {}


def harmonic(r: int, order: int) -> Rat:
    """Generalized harmonic number H_r of the given order; H_0 = 0."""
    if r < 0:
        raise ValueError("r must be non-negative")
    if order < 1:
        raise ValueError("order must be >= 1")
    table = _HARMONIC.setdefault(order, [Fraction(0)])
    while len(table) <= r:
        m = len(table)
        table.append(table[-1] + Fraction(1, m**order))
    return table[r]


# _LCM[i] = lcm(1..i+1); append-only, idempotent fill.
_LCM: list[int] = [1]


def d(n: int) -> int:
    """lcm(1, 2, ..., n) computed incrementally."""
    if n < 1:
        raise ValueError("n must be >= 1")
    while len(_LCM) < n:
        _LCM.append(math.lcm(_LCM[-1], len(_LCM) + 1))
    return _LCM[n - 1]


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by a plain sieve (desk-scale inputs)."""
    if limit < 2:
        return []
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [i for i in range(2, limit + 1) if sieve[i]]


def prime_power_lcm(n: int) -> int:
    """Independent oracle: lcm(1..n) as the product of p**floor(log_p n).

    For each prime p <= n the factor is the largest power of p not
    exceeding n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = 1
    for p in primes_up_to(n):
        pk = p
        while pk * p <= n:
            pk *= p
        out *= pk
    return out
