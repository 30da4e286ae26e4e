"""The Beukers linear forms I_n = alpha_n + beta_n*zeta(3) and their moment oracle.

Production route: alpha_n = -2*a_n and beta_n = 2*b_n, where Apery's
sequences a_n (rational; a_0 = 0, a_1 = 6) and b_n (integer; b_0 = 1,
b_1 = 5) both satisfy the three-term recurrence

    n^3 u_n = P(n) u_{n-1} - (n-1)^3 u_{n-2},  P(n) = 34n^3 - 51n^2 + 27n - 5

(van der Poorten, "A proof that Euler missed", Math. Intelligencer 1979;
Beukers, Bull. LMS 1979). Both live in integer tables grown on demand: b_n,
and Y_n = -A_n = 2 d_n^3 a_n (d_n = lcm(1..n), d_0 = 1), whose recurrence is

    n^3 Y_n = P(n) (d_n/d_{n-1})^3 Y_{n-1} - (n-1)^3 (d_n/d_{n-2})^3 Y_{n-2}.

Forms for n = 0..N cost O(N) big-integer steps and no gcd. Each step's
division by n^3 must be exact: that remainder check certifies that
d_n^3 alpha_n is an integer. alpha_n = A_n/d_n^3 is built only when read.
The same tables bracket zeta(3) between Apery's convergents a_N/b_N
(``apery_bracket``), which gives I_n with no cancellation.

Oracle route (tests only): the double integral over the unit square of
x^r y^s (-log xy)/(1-xy) equals

    r == s:  2*zeta(3) - 2*H_r(3)                  (H = generalized harmonic)
    r != s:  (H_r(2) - H_s(2)) / (r - s)

and pairing these moments with the shifted Legendre coefficients of
P_n(x)P_n(y) yields the same (alpha_n, beta_n) by an O(n^2) double sum
(``_assemble``). The moments themselves have a series oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import legendre
from .combinatorics import d, harmonic
from .exactnum import DIGITS_CACHE_SIZE, Enclosure, Rat


class IntegralityViolation(ArithmeticError):
    """d_n^3 * alpha_n failed to be an integer; signals an implementation bug."""


@dataclass(frozen=True, slots=True)
class KernelMoment:
    r: int
    s: int
    rat: Rat  # rational part
    zeta3_coef: int  # 2 on the diagonal, 0 off it

    def value_enclosure(self, zeta3_enc: Enclosure) -> Enclosure:
        return zeta3_enc * self.zeta3_coef + self.rat


@dataclass(frozen=True, slots=True)
class LinearForm:
    n: int
    beta: int
    A: int  # dn3 * alpha
    B: int  # dn3 * beta
    dn3: int

    @property
    def alpha(self) -> Rat:
        return Fraction(self.A, self.dn3)


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
        return Enclosure(lo, lo + slack + tail_hi)
    if a > b:
        a, b = b, a
    # Per term, 1/((k+a)^2 (k+b)) + 1/((k+a)(k+b)^2) equals
    # (1/(k+a)^2 - 1/(k+b)^2) / (b - a), so the block sums telescope into
    # two short windows of 1/m^2 and the partial sum is exact and cheap.
    partial = (_inv_square_window(a, b) - _inv_square_window(a + terms, b + terms)) / (b - a)
    return Enclosure(partial, partial + tail_hi)


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


def _checked_form(n: int, alpha: Rat, beta: int) -> LinearForm:
    cube = dn_cubed(n)
    scaled = alpha * cube
    if scaled.denominator != 1:
        raise IntegralityViolation(f"d_n^3 * alpha is not an integer at n={n}: {scaled}")
    return LinearForm(n=n, beta=beta, A=scaled.numerator, B=beta * cube, dn3=cube)


def _assemble(n: int, moment_fn: Callable[[int, int], KernelMoment]) -> LinearForm:
    """Oracle for linear_form: the O(n^2) moment x Legendre-coefficient double sum."""
    c = legendre.coeffs(n).coeffs
    alpha = Fraction(0)
    for r in range(n + 1):
        cr = c[r]
        alpha += cr * cr * moment_fn(r, r).rat
        for s in range(r):
            alpha += 2 * cr * c[s] * moment_fn(r, s).rat
    beta = 2 * sum(ck * ck for ck in c)
    return _checked_form(n, alpha, beta)


# Apery's sequences for the recurrence in the module docstring, grown in
# lockstep: _APERY holds the Apery numbers b_n = 1, 5, 73, 1445, ... and
# _APERY_Y holds Y_n = -A_n = 2 d_n^3 a_n = 0, 12, 1404, 750372, ...
_APERY: list[int] = [1, 5]
_APERY_Y: list[int] = [0, 12]


def _d_ratio_cubed(k: int) -> int:
    """(d_k / d_{k-1})^3 for k >= 1, with d_0 = 1."""
    return 1 if k == 1 else (d(k) // d(k - 1)) ** 3


def _grow_apery(n: int) -> None:
    while len(_APERY) <= n:
        k = len(_APERY)
        cube, poly, prev = k**3, 34 * k**3 - 51 * k**2 + 27 * k - 5, (k - 1) ** 3
        b, rem = divmod(poly * _APERY[k - 1] - prev * _APERY[k - 2], cube)
        if rem:
            raise ArithmeticError(f"Apery recurrence not integral at n={k}")
        step = _d_ratio_cubed(k)
        y, rem = divmod(
            step * (poly * _APERY_Y[k - 1] - prev * _d_ratio_cubed(k - 1) * _APERY_Y[k - 2]), cube
        )
        if rem:
            raise IntegralityViolation(f"d_n^3 * alpha is not an integer at n={k}")
        _APERY.append(b)
        _APERY_Y.append(y)


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def linear_form(n: int) -> LinearForm:
    """The pair (alpha_n, beta_n) with I_n = alpha_n + beta_n*zeta(3).

    Raises IntegralityViolation if d_n^3 * alpha_n is not an integer, which
    cannot happen unless the recurrence tables or the lcm machinery are broken.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    _grow_apery(n)
    cube = dn_cubed(n)
    beta = 2 * _APERY[n]
    return LinearForm(n=n, beta=beta, A=-_APERY_Y[n], B=beta * cube, dn3=cube)


def apery_bracket(N: int) -> Enclosure:
    """Enclosure [a_N/b_N, a_N/b_N + eps_N] of zeta(3) from Apery's convergents, N >= 1.

    By Apery's Casoratian a_k b_{k-1} - a_{k-1} b_k = 6/k^3 (van der Poorten,
    section 4), zeta(3) - a_N/b_N = sum_{k>N} t_k, t_k = 6 / (k^3 b_{k-1} b_k).

    Lemma: b_k >= 9 b_{k-1} for k >= 2. By induction, with b_{k-2} <= b_{k-1}
    (b_0 = 1 <= 5 = b_1, then the hypothesis), the recurrence gives
    k^3 b_k >= (P(k) - (k-1)^3) b_{k-1} = (33k^3 - 48k^2 + 24k - 4) b_{k-1},
    and 24k(k-1)^2 - 4 > 0. So t_{k+1}/t_k < b_{k-1}/b_{k+1} <= 1/81 for
    k >= 2, and the tail is below eps_N = (81/80) t_{N+1}. Built on this
    bracket, I_n = 2 b_n sum_{k>n} t_k has an exact positive lower end and
    relative width below eps_N / t_{n+1} <= (81/80) 81^-(N-n).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _grow_apery(N + 1)
    cube, scale = dn_cubed(N), 80 * (N + 1) ** 3 * _APERY[N + 1]
    # a_N/b_N = Y_N / (2 d_N^3 b_N); eps_N is 81 * 6 * 2 d_N^3 over the same den
    den = 2 * cube * _APERY[N] * scale
    lo = _APERY_Y[N] * scale
    return Enclosure.from_parts(lo, lo + 81 * 6 * 2 * cube, den)


def apery_oracle(n: int) -> int:
    """The Apery number b_n = sum_k (C(n,k) C(n+k,k))^2; beta_n = 2 * apery_oracle(n).

    Reads the integer recurrence table that linear_form uses; the oracles
    independent of the recurrence are ``_assemble`` and the binomial sum.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    _grow_apery(n)
    return _APERY[n]
