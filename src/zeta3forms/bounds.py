"""Certified checks of the sandwich bound on the linear forms, and its decay.

The central inequality checked here is

    0 < |A_n + B_n*zeta(3)| / d_n^3 < 2 (sqrt(2)-1)^(4n) zeta(3)

together with its divided form 0 < R_n < zeta(3), where R_n is the left side
divided by 2 (sqrt(2)-1)^(4n) d_n^3. Both are decided purely through
enclosures, once, at the requested digits: `sandwich_status` reports
Holds/Fails only when the enclosures are disjoint, Unknown when they overlap.

Neither side loses digits to cancellation, so relative widths do not grow
with n. |I_n| takes zeta(3) from Apery's convergents (`form_abs_enclosure`;
the tail lemma is in `beukers.apery_bracket`), whose exact lower end
certifies the "0 <" side. (sqrt(2)-1)^(4n) is the reciprocal of
(17 + 12*sqrt(2))^n = a + |b|*sqrt(2), a sum of positive terms. The
certified zeta(3) enclosure enters the right-hand sides only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .beukers import apery_bracket, dn_cubed, linear_form
from .combinatorics import d
from .exactnum import DIGITS_CACHE_SIZE, Enclosure, budget_bits, sqrt2_enclosure
from .zeta3 import zeta3


class CheckStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class CheckResult:
    n: int
    lhs: Enclosure
    rhs: Enclosure
    status: CheckStatus
    digits_used: int


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def unit_pair(n: int) -> tuple[int, int]:
    """(a, b) with (17 - 12*sqrt(2))^n = a + b*sqrt(2), by powering in Z[sqrt(2)]."""
    if n < 0:
        raise ValueError("n must be non-negative")
    result = (1, 0)
    base = (17, -12)
    e = n
    while e:
        if e & 1:
            result = _mul_z_sqrt2(result, base)
        base = _mul_z_sqrt2(base, base)
        e >>= 1
    return result


def _mul_z_sqrt2(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _growth_enclosure(n: int, digits: int) -> Enclosure:
    """Enclosure of (17+12*sqrt(2))^n = a + |b|*sqrt(2), (a, b) = unit_pair(n)."""
    a, b = unit_pair(n)
    return sqrt2_enclosure(digits) * -b + a


def shrink_enclosure(n: int, digits: int) -> Enclosure:
    """Enclosure of (sqrt(2)-1)^(4n) = 1/(17+12*sqrt(2))^n, certified positive."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return _growth_enclosure(n, digits).reciprocal()


def rhs_bound(n: int, digits: int) -> Enclosure:
    """Enclosure of 2 (sqrt(2)-1)^(4n) zeta(3)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return shrink_enclosure(n, digits) * zeta3(digits) * 2


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def form_abs_enclosure(n: int, digits: int) -> Enclosure:
    """Enclosure of |alpha_n + beta_n*zeta(3)| = |A_n + B_n*zeta(3)| / d_n^3,
    positive, of relative width below 10**-digits.

    zeta(3) is `beukers.apery_bracket(N)` with N = n + K, K = 11*digits//20 + 2,
    so the relative width is below (81/80) 81^-K < 10**-(digits+1). Rounding
    onto a grid under half that width at most doubles it and makes operand
    sizes follow the digits, not n.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    form = linear_form(n)
    enc = abs((apery_bracket(n + 11 * digits // 20 + 2) * form.B + form.A) / form.dn3)
    return enc.round_out(enc.den.bit_length() - (enc.hi_num - enc.lo_num).bit_length() + 2)


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def ratio_enclosure(n: int, digits: int) -> Enclosure:
    """Enclosure of R_n = |I_n| / (2 (sqrt(2)-1)^(4n) d_n^3), built as the
    product |I_n| (17+12*sqrt(2))^n / (2 d_n^3) of positive enclosures.

    It is rounded outward onto a 2**-bits grid, bits = budget_bits(digits)
    plus the bits by which R_n falls below 1. The grid is relative to R_n's
    size (about 10**(-1.3 n)), so the rounded lower end stays positive at
    every n, and the audit's power steps decide at the requested digits. It
    is a multiple of zeta(3)'s 2**-budget_bits(digits) grid, so the audit's
    weighted sum and its upper bound align by one shift. Before rounding,
    R_n has denominator 2**k * 10**digits * 2 d_n^3, from |I_n|'s grid and
    sqrt(2)'s, so the rounding divides by 5**digits times the odd part of
    d_n^3.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ratio = form_abs_enclosure(n, digits) * _growth_enclosure(n, digits) / (2 * dn_cubed(n))
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


def _check_sandwich(n: int, digits: int, lhs: Enclosure, rhs: Enclosure) -> CheckResult:
    """Decide 0 < lhs < rhs, both sides built at (n, digits)."""
    return CheckResult(n=n, lhs=lhs, rhs=rhs, status=sandwich_status(lhs, rhs), digits_used=digits)


def verify_form_bound(n: int, digits: int) -> CheckResult:
    """Check 0 < |A_n + B_n*zeta(3)|/d_n^3 < 2 (sqrt(2)-1)^(4n) zeta(3)."""
    return _check_sandwich(n, digits, form_abs_enclosure(n, digits), rhs_bound(n, digits))


def verify_ratio_bound(n: int, digits: int) -> CheckResult:
    """Check the divided form 0 < R_n < zeta(3). It reads the same |I_n| and
    (17+12*sqrt(2))^n as verify_form_bound, so it is not an independent route."""
    return _check_sandwich(n, digits, ratio_enclosure(n, digits), zeta3(digits))


@dataclass(frozen=True, slots=True)
class DecayRow:
    n: int
    dn: int
    form_abs: Enclosure  # |I_n|
    rhs: Enclosure  # 2 (sqrt(2)-1)^(4n) zeta(3)
    ratio: Enclosure  # |I_n| / rhs
    t_n: Enclosure  # d_n^3 * rhs


def decay_table(n_max: int, digits: int) -> list[DecayRow]:
    """Rows n = 1..n_max tracking the decay of the bound and of T_n = d_n^3 * rhs."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    rows = []
    for n in range(1, n_max + 1):
        cube = dn_cubed(n)
        form_abs = form_abs_enclosure(n, digits)
        rhs = rhs_bound(n, digits)
        rows.append(
            DecayRow(
                n=n,
                dn=d(n),
                form_abs=form_abs,
                rhs=rhs,
                ratio=form_abs / rhs,
                t_n=rhs * cube,
            )
        )
    return rows
