"""Certified enclosures of Apery's constant zeta(3) by two independent routes.

Direct route: partial sums of sum 1/k^3 with the integral tail bracket
1/(2(K+1)^2) < tail < 1/(2K^2). Cost grows like 10**(digits/3) terms, so it
is only practical to ~18 digits; that is exactly its job here, serving as an
independent low-precision cross-check against the fast route.

Accelerated route: the classical central-binomial series
zeta(3) = (5/2) * sum_{k>=1} (-1)^(k-1) / (k^3 C(2k,k)), summed exactly by
binary splitting; consecutive partial sums bracket the limit (alternating,
strictly shrinking terms). Linear in digits, good for thousands of digits.

The default entry point intersects both, so a systematic bug in either
series would surface as a DisjointEnclosures error instead of a wrong but
confident answer.
"""

from __future__ import annotations

from functools import lru_cache

from .exactnum import DIGITS_CACHE_SIZE, Enclosure, budget_bits


class DisjointEnclosures(ArithmeticError):
    """The two zeta(3) methods produced non-overlapping intervals."""


# Direct summation refuses term counts beyond this (about 18 digits).
_DIRECT_TERM_LIMIT = 3_000_000

# Precision at which the direct series participates in the cross-check.
_CROSS_DIRECT_DIGITS = 12


def _bits_for_decimal(digits: int) -> int:
    # ceil(digits * log2(10)) with a little slack, in pure integer arithmetic
    return (3322 * digits + 999) // 1000 + 1


def _icbrt(x: int) -> int:
    """floor of the cube root, by integer Newton iteration."""
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0:
        return 0
    k = 1 << ((x.bit_length() + 2) // 3)
    while True:
        better = (2 * k + x // (k * k)) // 3
        if better >= k:
            break
        k = better
    while k**3 > x:
        k -= 1
    while (k + 1) ** 3 <= x:
        k += 1
    return k


def _direct_terms(digits: int) -> int:
    # smallest K with K^3 >= 10^(digits+1); then the tail bracket width
    # (2K+1)/(2 K^2 (K+1)^2) <= 1/K^3 <= 10^-(digits+1)
    target = 10 ** (digits + 1)
    k = _icbrt(target)
    if k**3 < target:
        k += 1
    return k


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def zeta3_direct(digits: int) -> Enclosure:
    """Enclosure of width <= 10**-digits from the defining series sum 1/k^3."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    terms = _direct_terms(digits)
    if terms > _DIRECT_TERM_LIMIT:
        raise ValueError(
            f"direct summation would need {terms} terms; use zeta3_accelerated "
            f"beyond ~18 digits"
        )
    # Directed fixed-point partial sum: floor per term, so the true partial
    # sum lies in [acc, acc + terms] units of 2**-bits.
    bits = _bits_for_decimal(digits + 2) + terms.bit_length()
    unit = 1 << bits
    acc = 0
    for k in range(1, terms + 1):
        acc += unit // (k * k * k)
    # [acc/unit + 1/(2(K+1)^2), (acc + K)/unit + 1/(2K^2)] over unit * 2K^2(K+1)^2
    tails = 2 * terms**2 * (terms + 1) ** 2
    lo = acc * tails + unit * terms**2
    hi = (acc + terms) * tails + unit * (terms + 1) ** 2
    return Enclosure.from_parts(lo, hi, unit * tails).round_out(budget_bits(digits))


def _binsplit(a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) over [a, b) for term ratios t_{j+1}/t_j = p_j/q_j.

    p_j = -j^3, q_j = 2 (j+1)^2 (2j+1); P and Q are the range products and
    T/Q = sum_{k=a..b-1} prod_{j=a..k} p_j/q_j.
    """
    if b - a == 1:
        p = -(a**3)
        q = 2 * (a + 1) ** 2 * (2 * a + 1)
        return p, q, p
    m = (a + b) // 2
    pl, ql, tl = _binsplit(a, m)
    pr, qr, tr = _binsplit(m, b)
    return pl * pr, ql * qr, tl * qr + pl * tr


def _partial_sum(terms: int) -> tuple[int, int, int]:
    """S_K = sum_{k<=K} t_k and the signed next term t_{K+1}, as integers
    (s, t, den) with S_K = s/den and t_{K+1} = t/den.

    Both come out of one binary-splitting pass: over [1, K+1) the products
    give t_{K+1}/t_1 = P/Q and the sum gives (S_{K+1} - t_1)/t_1 = T/Q, so
    no factorial is ever materialized, and den = 2Q is left unreduced.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    p, q, t = _binsplit(1, terms + 1)
    return q + t - p, p, 2 * q


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def zeta3_accelerated(digits: int) -> Enclosure:
    """Enclosure of width <= 10**-digits via binary splitting."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    # C(2k,k) >= 4^k/(2 sqrt(k)) gives |t_k| <= 2*4^-k, so the width
    # (5/2)|t_{K+1}| drops below 10^-digits once K+1 > 1.661*(digits+0.7)+0.5;
    # 1.661 per digit plus slack covers that without any trial evaluation.
    terms = 1661 * digits // 1000 + 2
    s, t_next, den = _partial_sum(terms)
    # (5/2)[S_K, S_K + t_{K+1}], ends ordered by the sign of t_{K+1}, over
    # 2*den = 4Q: round_out floor-divides each endpoint once, with no gcd,
    # by a Newton reciprocal of 4Q's top bits and an exact remainder check.
    ends = (5 * s, 5 * (s + t_next))
    enc = Enclosure.from_parts(min(ends), max(ends), 2 * den)
    del s, t_next, den, ends  # freed before round_out's equally large temporaries
    return enc.round_out(budget_bits(digits))


def zeta3(digits: int) -> Enclosure:
    """Intersection of the two methods' enclosures (the safe default).

    The direct series runs at min(digits, 12): past that its term count is
    astronomical, while the cross-check value is unchanged, any systematic
    error above 10**-12 still breaks the overlap.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    fast = zeta3_accelerated(digits)
    slow = zeta3_direct(min(digits, _CROSS_DIRECT_DIGITS))
    both = fast.intersect(slow)
    if both is None:
        raise DisjointEnclosures(
            f"zeta(3) methods disagree at {digits} digits: {fast} vs {slow}"
        )
    return both

