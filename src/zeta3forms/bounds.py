"""Certified checks of the sandwich bound on the linear forms, and its decay.

The central inequality checked here is

    0 < |A_n + B_n*zeta(3)| / d_n^3 < 2 (sqrt(2)-1)^(4n) zeta(3)

together with its divided form 0 < R_n < zeta(3), where R_n is the left side
divided by 2 (sqrt(2)-1)^(4n) d_n^3. Both are decided purely through
enclosures; a check reports Holds/Fails only when the enclosures are
disjoint, and Unknown (after adaptive refinement) only when they overlap.

(sqrt(2)-1)^4 = 17 - 12*sqrt(2) exactly, so (sqrt(2)-1)^(4n) is computed as
the n-th power of 17 - 12*sqrt(2) in Z[sqrt(2)], leaving a single sqrt(2)
enclosure as the only irrational input.

Rungs that cannot decide are skipped (`deciding_rungs`). Every checked lhs
is the enclosure E of |I_n| at that rung times a positive factor: E itself
in the form check, and R_n = E / (2 (sqrt(2)-1)^(4n) d_n^6) in the ratio
check and in the audit's power steps, which carry that check's status. When
E = [0, h] with h > 0, each such lhs is [0, h'] with h' > 0, so at that rung:

    HOLDS needs lo > 0, and lo = 0;
    FAILS needs hi <= 0, and hi > 0, or lhs >= rhs, and rhs > 0;
    so the rung's status is UNKNOWN, and nothing but E is built there.

(rhs > 0 because (sqrt(2)-1)^(4n) is intersected with (34^-n, 33^-n) and
zeta(3) > 0.) The last rung is always evaluated, so a check still unknown
there reports that rung's enclosures. HOLDS and FAILS are decided by
`sandwich_status` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

from .beukers import dn_cubed, linear_form
from .combinatorics import d
from .exactnum import DIGITS_CACHE_SIZE, Enclosure, budget_bits, sqrt2_enclosure
from .zeta3 import zeta3


class EnclosureLost(ArithmeticError):
    """An enclosure excludes the value it must contain; signals an implementation bug."""


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


# Adaptive precision: double the working digits up to this many times when a
# comparison is still Unknown. Keeps every check total.
MAX_REFINEMENTS = 4


def refinement_digits(digits: int):
    """The refinement ladder: digits * 2**k for k = 0..MAX_REFINEMENTS."""
    dd = digits
    for _ in range(MAX_REFINEMENTS + 1):
        yield dd
        dd *= 2


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


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def shrink_enclosure(n: int, digits: int) -> Enclosure:
    """Enclosure of (sqrt(2)-1)^(4n) = (17-12*sqrt(2))^n, certified positive.

    The sqrt(2)-based interval is intersected with the exact algebraic
    bracket (34^-n, 33^-n), valid because 17+12*sqrt(2) lies strictly
    between 33 and 34. The intersection keeps the enclosure strictly
    positive at any precision, so downstream division is always defined.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    a, b = unit_pair(n)
    enc = sqrt2_enclosure(digits) * b + a
    algebraic = Enclosure.from_parts(33**n, 34**n, 34**n * 33**n)  # [34^-n, 33^-n]
    both = enc.intersect(algebraic)
    if both is None:
        raise EnclosureLost(f"unit power enclosure lost the true value at n={n}")
    return both


def rhs_bound(n: int, digits: int) -> Enclosure:
    """Enclosure of 2 (sqrt(2)-1)^(4n) zeta(3)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return shrink_enclosure(n, digits) * zeta3(digits) * 2


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def form_abs_enclosure(n: int, digits: int) -> Enclosure:
    """Enclosure of |alpha_n + beta_n*zeta(3)| = |A_n + B_n*zeta(3)| / d_n^3."""
    form = linear_form(n)
    return abs((zeta3(digits) * form.B + form.A) / form.dn3)


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def ratio_enclosure(n: int, digits: int) -> Enclosure:
    """Enclosure of R_n = |I_n| / (2 (sqrt(2)-1)^(4n) d_n^3).

    Since I_n = (A_n + B_n*zeta(3)) / d_n^3, this is
    |A_n + B_n*zeta(3)| / (2 (sqrt(2)-1)^(4n) d_n^6).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    divisor = shrink_enclosure(n, digits) * (2 * dn_cubed(n))
    ratio = form_abs_enclosure(n, digits) / divisor
    return ratio.round_out(budget_bits(digits))


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


def deciding_rungs(n: int, digits: int):
    """The rungs of refinement_digits(digits) at which the enclosure of |I_n|
    does not touch zero, then the last rung whatever its enclosure.

    A rung where that enclosure is [0, h] with h > 0 ends UNKNOWN in every
    check built on |I_n| (see the module docstring), so it is skipped.
    """
    *rungs, last = refinement_digits(digits)
    for dd in rungs:
        form_abs = form_abs_enclosure(n, dd)
        if not form_abs.lo_num <= 0 < form_abs.hi_num:
            yield dd
    yield last


def _check_sandwich(
    n: int, digits: int, sides: Callable[[int], tuple[Enclosure, Enclosure]]
) -> CheckResult:
    """Decide 0 < lhs < rhs, with (lhs, rhs) = sides(dd), up the deciding rungs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    for dd in deciding_rungs(n, digits):
        lhs, rhs = sides(dd)
        status = sandwich_status(lhs, rhs)
        if status is not CheckStatus.UNKNOWN:
            break
    return CheckResult(n=n, lhs=lhs, rhs=rhs, status=status, digits_used=dd)


def verify_form_bound(n: int, digits: int) -> CheckResult:
    """Check 0 < |A_n + B_n*zeta(3)|/d_n^3 < 2 (sqrt(2)-1)^(4n) zeta(3)."""
    return _check_sandwich(n, digits, lambda dd: (form_abs_enclosure(n, dd), rhs_bound(n, dd)))


def verify_ratio_bound(n: int, digits: int) -> CheckResult:
    """Check the divided form 0 < R_n < zeta(3); independent of verify_form_bound."""
    return _check_sandwich(n, digits, lambda dd: (ratio_enclosure(n, dd), zeta3(dd)))


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
