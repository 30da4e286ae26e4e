"""Independent oracles the tests check the package against; no command runs them.

Oracle route for the linear forms: the double integral over the unit square
of x^r y^s (-log xy)/(1-xy) equals

    r == s:  2*zeta(3) - 2*H_r(3)                  (H = generalized harmonic)
    r != s:  (H_r(2) - H_s(2)) / (r - s)

and pairing these moments with the shifted Legendre coefficients of
P_n(x)P_n(y) yields the same (alpha_n, beta_n) as the package's recurrence
by an O(n^2) double sum (``_assemble``). The moments themselves have a
series oracle.

Shifted Legendre polynomials on [0, 1]: P_n(x) = (1/n!) d^n/dx^n
[x^n (1-x)^n], which gives P_n(0) = +1 and integer coefficients
c_k = (-1)^k C(n,k) C(n+k,k). A single fixed sign convention keeps
downstream integer outputs reproducible bit for bit.

d_n = lcm(1..n) has the prime-power oracle ``prime_power_lcm``, zeta(3)
the defining series ``zeta3_direct``, and the enclosures of
(17+12*sqrt(2))^n a product taken one factor at a time, ``growth_fields``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from zeta3forms.beukers import IntegralityViolation, LinearForm, d
from zeta3forms.exactnum import Enclosure, budget_bits


def enclosure_of(lo: Fraction, hi: Fraction) -> Enclosure:
    """[lo, hi] for int or Fraction endpoints, both scaled to the product of
    their denominators: the test-side way to enclose given rationals."""
    return Enclosure(
        lo.numerator * hi.denominator, hi.numerator * lo.denominator, lo.denominator * hi.denominator
    )


def overlaps(a: Enclosure, b: Enclosure) -> bool:
    """True when the two enclosures share a point."""
    return not (a.lies_below(b) or b.lies_below(a))


# -- queries on the integer fields of an enclosure -------------------------------


def width(e: Enclosure) -> Fraction:
    return Fraction(e.hi_num - e.lo_num, e.den)


def midpoint(e: Enclosure) -> Fraction:
    return Fraction(e.lo_num + e.hi_num, 2 * e.den)


def is_point(e: Enclosure) -> bool:
    return e.lo_num == e.hi_num


def contains(e: Enclosure, x: int | Fraction) -> bool:
    """True when the int or Fraction ``x`` lies in ``e``."""
    p, q = x.numerator * e.den, x.denominator
    return e.lo_num * q <= p <= e.hi_num * q


def encloses(a: Enclosure, b: Enclosure) -> bool:
    """True when ``b`` lies entirely inside ``a``."""
    d, e = a.den, b.den
    return a.lo_num * e <= b.lo_num * d and b.hi_num * d <= a.hi_num * e


# -- interval arithmetic the package's Enclosure leaves out ------------------------
#
# Enclosure adds only an int and multiplies only after a non-negative left
# factor. The oracle routes also add two enclosures, negate, take abs and
# multiply factors of any signs, on the integer fields (Moore's rules).


def add(a: Enclosure, b: Enclosure) -> Enclosure:
    """[a.lo + b.lo, a.hi + b.hi] over the product of the denominators."""
    d, e = a.den, b.den
    return Enclosure(a.lo_num * e + b.lo_num * d, a.hi_num * e + b.hi_num * d, d * e)


def neg(a: Enclosure) -> Enclosure:
    return Enclosure(-a.hi_num, -a.lo_num, a.den)


def abs_(a: Enclosure) -> Enclosure:
    """{|x| : x in a}."""
    if a.lo_num >= 0:
        return a
    if a.hi_num <= 0:
        return neg(a)
    return Enclosure(0, max(-a.lo_num, a.hi_num), a.den)


def mul(a: Enclosure, b: Enclosure) -> Enclosure:
    """a * b for factors of any signs: the least and greatest endpoint product."""
    products = (a.lo_num * b.lo_num, a.lo_num * b.hi_num, a.hi_num * b.lo_num, a.hi_num * b.hi_num)
    return Enclosure(min(products), max(products), a.den * b.den)


# -- combinatorics -------------------------------------------------------------


def binom(n: int, k: int) -> int:
    """C(n, k); zero when k > n. Arguments must be non-negative."""
    if n < 0 or k < 0:
        raise ValueError("binom requires non-negative arguments")
    return math.comb(n, k)


# Per-order prefix tables of H_r = sum_{m<=r} 1/m**order; grown on demand,
# idempotent, so concurrent readers are safe.
_HARMONIC: dict[int, list[Fraction]] = {}


def harmonic(r: int, order: int) -> Fraction:
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


# -- (17 + 12*sqrt(2))^n ----------------------------------------------------------


def growth_fields(n_max: int, digits: int) -> list[tuple[int, int, int]]:
    """(lo_num, hi_num, den) enclosing (17+12*sqrt(2))^n for n = 0..n_max on
    the 10**-digits grid: a + c*sqrt(2) multiplied by 17 + 12*sqrt(2) one
    step at a time, and sqrt(2) in [r, r+1] / 10**digits, r = isqrt(2 *
    10**(2*digits))."""
    scale = 10**digits
    r = math.isqrt(2 * scale * scale)
    a, c = 1, 0
    fields = []
    for _ in range(n_max + 1):
        fields.append((a * scale + c * r, a * scale + c * (r + 1), scale))
        a, c = 17 * a + 24 * c, 12 * a + 17 * c
    return fields


# -- shifted Legendre polynomials ----------------------------------------------


@dataclass(frozen=True, slots=True)
class LegendrePoly:
    n: int
    coeffs: tuple[int, ...]  # coeffs[k] multiplies x**k

    def evaluate(self, x: Fraction) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


@lru_cache(maxsize=None)
def coeffs(n: int) -> LegendrePoly:
    """Coefficient sequence of P_n from the closed form."""
    if n < 0:
        raise ValueError("n must be non-negative")
    ck = tuple((-1 if k % 2 else 1) * binom(n, k) * binom(n + k, k) for k in range(n + 1))
    return LegendrePoly(n=n, coeffs=ck)


def rodrigues_coeffs(n: int) -> tuple[int, ...]:
    """Oracle: expand (1/n!) d^n/dx^n [x^n (1-x)^n] by direct differentiation."""
    if n < 0:
        raise ValueError("n must be non-negative")
    # x^n (1-x)^n = sum_j (-1)^j C(n,j) x^(n+j)
    work = [0] * (2 * n + 1)
    for j in range(n + 1):
        work[n + j] = (-1 if j % 2 else 1) * math.comb(n, j)
    for _ in range(n):
        work = [i * work[i] for i in range(1, len(work))]
    fact = math.factorial(n)
    out = []
    for c in work:
        q, r = divmod(c, fact)
        if r:
            raise ArithmeticError("derivative not divisible by n!")
        out.append(q)
    return tuple(out)


# -- kernel moments and the moment x Legendre double sum -----------------------


@dataclass(frozen=True, slots=True)
class KernelMoment:
    r: int
    s: int
    rat: Fraction  # rational part
    zeta3_coef: int  # 2 on the diagonal, 0 off it

    def value_enclosure(self, zeta3_enc: Enclosure) -> Enclosure:
        return add(zeta3_enc * self.zeta3_coef, enclosure_of(self.rat, self.rat))


@lru_cache(maxsize=None)
def moment(r: int, s: int) -> KernelMoment:
    """Exact closed form of the (r, s) kernel moment."""
    if r < 0 or s < 0:
        raise ValueError("moment orders must be non-negative")
    if r == s:
        return KernelMoment(r=r, s=s, rat=-2 * harmonic(r, 3), zeta3_coef=2)
    rat = Fraction(harmonic(r, 2) - harmonic(s, 2), r - s)
    return KernelMoment(r=r, s=s, rat=rat, zeta3_coef=0)


# Fixed-point scale for directed summation in the series oracle. The grid
# 2**-128 is far below any tail bound used, so rounding slack never matters.
_ORACLE_BITS = 128


def moment_series_oracle(r: int, s: int, terms: int) -> Enclosure:
    """Enclosure of the (r, s) moment from its geometric-series expansion.

    The moment expands as sum_{k>=0} of
    1/((k+r+1)^2 (k+s+1)) + 1/((k+r+1) (k+s+1)^2). The first ``terms`` terms
    are summed (exactly off the diagonal, by directed fixed-point rounding on
    it) and the nonnegative tail is bounded above by
    2 * sum_{k>=terms} (k+1)^-3 <= 1/terms^2.

    Validation-only path, independent of the harmonic-number closed forms.
    """
    if r < 0 or s < 0:
        raise ValueError("moment orders must be non-negative")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    a, b = r + 1, s + 1
    tail_hi = Fraction(1, terms * terms)
    if a == b:
        lo = _diagonal_partial_floor(a, terms)
        slack = Fraction(terms, 1 << _ORACLE_BITS)
        return enclosure_of(lo, lo + slack + tail_hi)
    if a > b:
        a, b = b, a
    # Per term, 1/((k+a)^2 (k+b)) + 1/((k+a)(k+b)^2) equals
    # (1/(k+a)^2 - 1/(k+b)^2) / (b - a), so the block sums telescope into
    # two short windows of 1/m^2 and the partial sum is exact and cheap.
    partial = (_inv_square_window(a, b) - _inv_square_window(a + terms, b + terms)) / (b - a)
    return enclosure_of(partial, partial + tail_hi)


def _inv_square_window(lo: int, hi: int) -> Fraction:
    """sum of 1/m^2 for lo <= m < hi."""
    return sum((Fraction(1, m * m) for m in range(lo, hi)), Fraction(0))


def _diagonal_partial_floor(a: int, terms: int) -> Fraction:
    """Lower bound of sum_{k<terms} 2/(k+a)^3 on the 2**-_ORACLE_BITS grid."""
    num = 2 << _ORACLE_BITS
    acc = 0
    for m in range(a, a + terms):
        acc += num // (m * m * m)
    return Fraction(acc, 1 << _ORACLE_BITS)


def dn_cubed(n: int) -> int:
    """d_n^3 with the empty-product convention d_0 = 1."""
    return 1 if n == 0 else d(n) ** 3


def _checked_form(n: int, alpha: Fraction, beta: int) -> LinearForm:
    cube = dn_cubed(n)
    scaled = alpha * cube
    if scaled.denominator != 1:
        raise IntegralityViolation(f"d_n^3 * alpha is not an integer at n={n}: {scaled}")
    return LinearForm(n=n, beta=beta, A=scaled.numerator, B=beta * cube, dn3=cube)


def _assemble(n: int, moment_fn: Callable[[int, int], KernelMoment]) -> LinearForm:
    """Oracle for linear_form: the O(n^2) moment x Legendre-coefficient double sum."""
    c = coeffs(n).coeffs
    alpha = Fraction(0)
    for r in range(n + 1):
        cr = c[r]
        alpha += cr * cr * moment_fn(r, r).rat
        for s in range(r):
            alpha += 2 * cr * c[s] * moment_fn(r, s).rat
    beta = 2 * sum(ck * ck for ck in c)
    return _checked_form(n, alpha, beta)


# -- zeta(3) from its defining series -------------------------------------------


def _icbrt(x: int) -> int:
    """floor of the cube root of x >= 1, by integer Newton iteration."""
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


@lru_cache(maxsize=None)
def zeta3_direct(digits: int) -> Enclosure:
    """Enclosure of width <= 10**-digits from the defining series sum 1/k^3,
    with the integral tail bracket 1/(2(K+1)^2) < tail < 1/(2K^2).

    It sums about 10**(digits/3) terms: 2.2 million at 18 digits.
    """
    terms = _direct_terms(digits)
    # Directed fixed-point partial sum: floor per term, so the true partial
    # sum lies in [acc, acc + terms] units of 2**-bits, bits covering
    # 10**-(digits+2) and the terms' rounding.
    bits = (3322 * (digits + 2) + 999) // 1000 + 1 + terms.bit_length()
    unit = 1 << bits
    acc = 0
    for k in range(1, terms + 1):
        acc += unit // (k * k * k)
    # [acc/unit + 1/(2(K+1)^2), (acc + K)/unit + 1/(2K^2)] over unit * 2K^2(K+1)^2
    tails = 2 * terms**2 * (terms + 1) ** 2
    lo = acc * tails + unit * terms**2
    hi = (acc + terms) * tails + unit * (terms + 1) ** 2
    return Enclosure(lo, hi, unit * tails).round_out(budget_bits(digits))
