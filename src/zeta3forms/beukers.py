"""The Beukers linear forms I_n = alpha_n + beta_n*zeta(3) from Apery's recurrence.

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
(``apery_bracket``), which gives I_n with no cancellation. The tests check
these forms against an independent O(n^2) route, the double sum of kernel
moments and shifted Legendre coefficients in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import Enclosure


class IntegralityViolation(ArithmeticError):
    """d_n^3 * alpha_n failed to be an integer; signals an implementation bug."""


@dataclass(frozen=True, slots=True)
class LinearForm:
    n: int
    beta: int
    A: int  # dn3 * alpha
    B: int  # dn3 * beta
    dn3: int

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.A, self.dn3)


# _LCM[i] = lcm(1..i+1); append-only, idempotent fill.
_LCM: list[int] = [1]


def d(n: int) -> int:
    """d_n = lcm(1, 2, ..., n), computed incrementally."""
    if n < 1:
        raise ValueError("n must be >= 1")
    while len(_LCM) < n:
        _LCM.append(math.lcm(_LCM[-1], len(_LCM) + 1))
    return _LCM[n - 1]


def dn_cubed(n: int) -> int:
    """d_n^3 with the empty-product convention d_0 = 1."""
    return 1 if n == 0 else d(n) ** 3


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
    bracket, I_n = 2 b_n sum_{k>n} t_k has an exact positive lower end; its
    width is the subject of `apery_index`.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    _grow_apery(N + 1)
    cube, scale = dn_cubed(N), 80 * (N + 1) ** 3 * _APERY[N + 1]
    # a_N/b_N = Y_N / (2 d_N^3 b_N); eps_N is 81 * 6 * 2 d_N^3 over the same den
    den = 2 * cube * _APERY[N] * scale
    lo = _APERY_Y[N] * scale
    return Enclosure(lo, lo + 81 * 6 * 2 * cube, den)


def apery_index(n: int, digits: int) -> int:
    """N = n + K, K = 11*digits//20 + 2: the index at which `apery_bracket(N)`
    gives I_n = 2 b_n sum_{k>n} t_k to relative width below 10**-digits / 80.

    That width is eps_N / sum_{k>n} t_k < (81/80) t_{N+1} / t_{n+1}. Each
    ratio t_{k+1}/t_k is below 1/81: for k >= 2 by the lemma in
    `apery_bracket`, and t_2/t_1 = b_0 / (8 b_2) = 1/584. So the width is
    below (81/80) 81^-K, and K > 11*digits/20 + 1 with 81^11 > 10^20 makes
    that below 10**-digits / 80. At n = 0, I_0 = 2 zeta(3): the bracket of
    zeta(3) itself is narrower than zeta(3) * 10**-digits / 80 < 10**-digits.
    """
    return n + 11 * digits // 20 + 2
