"""The Beukers linear forms I_n = alpha_n + beta_n*zeta(3) from Apery's recurrence.

Production route: alpha_n = -2*a_n and beta_n = 2*b_n, where Apery's
sequences a_n (rational; a_0 = 0, a_1 = 6) and b_n (integer; b_0 = 1,
b_1 = 5) both satisfy the three-term recurrence

    n^3 u_n = P(n) u_{n-1} - (n-1)^3 u_{n-2},  P(n) = 34n^3 - 51n^2 + 27n - 5

(van der Poorten, "A proof that Euler missed", Math. Intelligencer 1979;
Beukers, Bull. LMS 1979). One integer table holds the rows (b_n, Y_n, d_n),
with d_n = lcm(1..n), d_0 = 1, and Y_n = -A_n = 2 d_n^3 a_n, whose recurrence is

    n^3 Y_n = P(n) (d_n/d_{n-1})^3 Y_{n-1} - (n-1)^3 (d_n/d_{n-2})^3 Y_{n-2}.

Forms for n = 0..N cost O(N) big-integer steps. Each step's division by n^3
must be exact: that remainder check certifies that d_n^3 alpha_n is an
integer. alpha_n = A_n/d_n^3 is built only when read. One loop, under a
lock, appends whole rows to the append-only table, so any thread reads only
complete rows. It first refuses, with MemoryError, a table to n that
physical memory cannot hold, held rows counted: row k takes at least 10(k-1)
bits, as b_k >= 9^(k-1) (lemma in ``apery_bracket``), d_k >= 2^(k-1) (Nair,
Amer. Math. Monthly 89, 1982, for k >= 7, checked by hand below) and Y_k >=
2.4 d_k^3 b_k (a_k/b_k rises from 6/5), so rows 0..n take 10 n(n-1)/16
bytes or more. The same table brackets zeta(3) between Apery's convergents
a_N/b_N (``apery_bracket``), which gives I_n with no cancellation. The tests check
these forms against an independent O(n^2) route, the double sum of kernel
moments and shifted Legendre coefficients in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import os
import threading
from collections import namedtuple

from .exactnum import Enclosure


class IntegralityViolation(ArithmeticError):
    """d_n^3 * alpha_n failed to be an integer; signals an implementation bug."""


class LinearForm(namedtuple("LinearForm", "n beta A B dn3")):
    """I_n = alpha + beta*zeta(3) with the ints A = dn3*alpha, B = dn3*beta, dn3 = d_n^3."""

    __slots__ = ()

    @property
    def alpha(self):
        """A/dn3 as a reduced `fractions.Fraction`."""
        import fractions

        return fractions.Fraction(self.A, self.dn3)


# Row n is (b_n, Y_n, d_n): the Apery numbers b_n = 1, 5, 73, 1445, ...,
# Y_n = 2 d_n^3 a_n = 0, 12, 1404, 750372, ... and d_n = 1, 1, 2, 6, ...
_APERY: list[tuple[int, int, int]] = [(1, 0, 1), (5, 12, 1)]
_GROWING = threading.Lock()


def require_memory(need: int, what: str) -> None:
    """MemoryError naming ``what`` if physical memory, where known, is under ``need`` bytes."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if 0 < have < need:
        raise MemoryError(f"{what} needs over {need} bytes; memory holds {have}")


def _row(n: int) -> tuple[int, int, int]:
    """Row n of the table, grown through n first if it is short."""
    if n < len(_APERY):
        return _APERY[n]
    # rows k = 1..n take over 10(k-1) bits each (module docstring)
    require_memory(10 * n * (n - 1) // 16, f"Apery's table to n={n}")
    with _GROWING:
        while len(_APERY) <= n:
            k = len(_APERY)
            (b2, y2, d2), (b1, y1, d1) = _APERY[-2:]
            dk = d1 * (k // math.gcd(d1, k))
            cube, poly, prev = k**3, 34 * k**3 - 51 * k**2 + 27 * k - 5, (k - 1) ** 3
            b, rem = divmod(poly * b1 - prev * b2, cube)
            if rem:
                raise ArithmeticError(f"Apery recurrence not integral at n={k}")
            y, rem = divmod((dk // d1) ** 3 * (poly * y1 - prev * (d1 // d2) ** 3 * y2), cube)
            if rem:
                raise IntegralityViolation(f"d_n^3 * alpha is not an integer at n={k}")
            _APERY.append((b, y, dk))
    return _APERY[n]


def d(n: int) -> int:
    """d_n = lcm(1, 2, ..., n), read from the table's rows."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _row(n)[2]


def linear_form(n: int) -> LinearForm:
    """The pair (alpha_n, beta_n) with I_n = alpha_n + beta_n*zeta(3).

    Raises IntegralityViolation if d_n^3 * alpha_n is not an integer, which
    cannot happen unless the recurrence table is broken.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    b, y, dn = _row(n)
    cube, beta = dn**3, 2 * b
    return LinearForm(n, beta, -y, beta * cube, cube)


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
    scale = 80 * (N + 1) ** 3 * _row(N + 1)[0]
    b, y, dn = _row(N)
    cube = dn**3
    # a_N/b_N = Y_N / (2 d_N^3 b_N); eps_N is 81 * 6 * 2 d_N^3 over the same den
    den = 2 * cube * b * scale
    lo = y * scale
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
