"""Certified checks of the sandwich bound on the linear forms, and its decay.

The central inequality checked here is

    0 < |A_n + B_n*zeta(3)| / d_n^3 < 2 (sqrt(2)-1)^(4n) zeta(3)

together with its divided form 0 < R_n < zeta(3), where R_n is the left side
divided by 2 (sqrt(2)-1)^(4n) d_n^3. Both are decided purely through
enclosures, once, at the requested digits: `sandwich_status` reports
Holds/Fails only when the enclosures are disjoint, Unknown when they overlap.

Neither side loses digits to cancellation, so relative widths do not grow
with n. I_n = 2 b_n (zeta(3) - a_n/b_n) = |I_n| > 0, as Apery's convergents
a_k/b_k increase to zeta(3) (his Casoratian, `beukers.apery_bracket`).
`form_abs_enclosure` takes zeta(3) from them, so their exact lower end
certifies the "0 <" side. (sqrt(2)-1)^(4n) is the reciprocal of
(17+12*sqrt(2))^n = a + c*sqrt(2), a sum of positive terms
(`_growth_enclosure`). The certified zeta(3) enclosure enters the right-hand
sides only.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from functools import lru_cache
from math import isqrt

from .beukers import apery_bracket, apery_index, d, linear_form
from .exactnum import DIGITS_CACHE_SIZE, Enclosure, budget_bits
from .zeta3 import zeta3


class CheckStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


# The certified status of 0 < lhs < rhs at n, both sides built at digits_used.
CheckResult = namedtuple("CheckResult", "n lhs rhs status digits_used")


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def _growth_enclosure(n: int, digits: int) -> Enclosure:
    """Enclosure of (17+12*sqrt(2))^n = a + c*sqrt(2) on a 10**-digits grid.

    (a, c) is powered in Z[sqrt(2)] by squaring, and a, c >= 0, so no digit
    is lost to cancellation. sqrt(2) lies in [r, r+1] / 10**digits with
    r = isqrt(2 * 10**(2*digits)), so r**2 <= 2 * 10**(2*digits) < (r+1)**2
    holds exactly by construction.
    """
    if n < 0 or digits < 1:
        raise ValueError("n must be >= 0 and digits >= 1")
    a, c, x, y = 1, 0, 17, 12
    while n:
        if n & 1:
            a, c = a * x + 2 * c * y, a * y + c * x
        x, y = x * x + 2 * y * y, 2 * x * y
        n >>= 1
    scale = 10**digits
    r = isqrt(2 * scale * scale)
    return Enclosure(r * c + a * scale, (r + 1) * c + a * scale, scale)


def rhs_bound(n: int, digits: int) -> Enclosure:
    """Enclosure of 2 (sqrt(2)-1)^(4n) zeta(3) = 2 zeta(3) / (17+12*sqrt(2))^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _growth_enclosure(n, digits).reciprocal() * zeta3(digits) * 2


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def form_abs_enclosure(n: int, digits: int) -> Enclosure:
    """Enclosure of |alpha_n + beta_n*zeta(3)| = |A_n + B_n*zeta(3)| / d_n^3,
    positive, of relative width below 10**-digits.

    zeta(3) is `beukers.apery_bracket(apery_index(n, digits))`, so the
    relative width is below 10**-digits / 80, and its lower end is exactly
    2 b_n (a_N/b_N - a_n/b_n) > 0 as N > n: it encloses I_n = |I_n|. Rounding
    onto a grid under half that width at most doubles it and makes operand
    sizes follow the digits, not n.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    form = linear_form(n)
    enc = (apery_bracket(apery_index(n, digits)) * form.B + form.A) / form.dn3
    return enc.round_out(enc.den.bit_length() - (enc.hi_num - enc.lo_num).bit_length() + 2)


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def ratio_enclosure(n: int, digits: int) -> Enclosure:
    """Enclosure of R_n = |I_n| / (2 (sqrt(2)-1)^(4n) d_n^3), built as the
    product |I_n| (17+12*sqrt(2))^n / (2 d_n^3) of positive enclosures.

    It is rounded outward onto a 2**-bits grid, bits = budget_bits(digits)
    plus the bits by which R_n falls below 1. The grid is relative to R_n's
    size (about 10**(-1.3 n)), so the rounded lower end stays positive at
    every n, and the audit's power steps decide at the requested digits.
    sandwich_status compares the audit's S, a Horner pass over R_n, with
    z * residual by cross-multiplying, so no grids need align. Before rounding,
    R_n has denominator 2**k * 10**digits * 2 d_n^3, from |I_n|'s grid and
    sqrt(2)'s, so the rounding divides by 5**digits times the odd part of
    d_n^3.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ratio = form_abs_enclosure(n, digits) * _growth_enclosure(n, digits) / (2 * d(n) ** 3)
    below_one = max(0, ratio.den.bit_length() - ratio.hi_num.bit_length())
    return ratio.round_out(budget_bits(digits) + below_one)


def sandwich_status(value: Enclosure, upper: Enclosure) -> CheckStatus:
    """Certified status of the double inequality 0 < value < upper.

    HOLDS and FAILS require disjoint evidence; overlap (including an
    uncertified sign of ``value``) yields UNKNOWN. Decided on the integer
    fields (the denominator is positive), so no Fraction is built.
    """
    if value.lo_num > 0 and value.lies_below(upper):
        return CheckStatus.HOLDS
    if value.hi_num <= 0 or value.lies_at_or_above(upper):
        return CheckStatus.FAILS
    return CheckStatus.UNKNOWN


def verify_form_bound(n: int, digits: int) -> CheckResult:
    """Check 0 < |A_n + B_n*zeta(3)|/d_n^3 < 2 (sqrt(2)-1)^(4n) zeta(3)."""
    lhs, rhs = form_abs_enclosure(n, digits), rhs_bound(n, digits)
    return CheckResult(n, lhs, rhs, sandwich_status(lhs, rhs), digits)


def verify_ratio_bound(n: int, digits: int) -> CheckResult:
    """Check the divided form 0 < R_n < zeta(3). It reads the same |I_n| and
    (17+12*sqrt(2))^n as verify_form_bound, so it is not an independent route."""
    lhs, rhs = ratio_enclosure(n, digits), zeta3(digits)
    return CheckResult(n, lhs, rhs, sandwich_status(lhs, rhs), digits)


# One row of the decay table: d_n and the enclosures form_abs = |I_n|,
# rhs = 2 (sqrt(2)-1)^(4n) zeta(3), ratio = |I_n| / rhs and t_n = d_n^3 * rhs.
DecayRow = namedtuple("DecayRow", "n dn form_abs rhs ratio t_n")


def decay_table(n_max: int, digits: int) -> list[DecayRow]:
    """Rows n = 1..n_max tracking the decay of the bound and of T_n = d_n^3 * rhs."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    form_abs_enclosure(n_max, digits)  # last row first: a size no memory holds fails at once
    rows = []
    for n in range(1, n_max + 1):
        form_abs = form_abs_enclosure(n, digits)
        rhs = rhs_bound(n, digits)
        rows.append(DecayRow(n, d(n), form_abs, rhs, form_abs / rhs, rhs * d(n) ** 3))
    return rows
