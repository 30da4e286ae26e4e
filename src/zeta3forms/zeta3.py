"""Certified enclosures of Apery's constant zeta(3) by two independent routes.

Direct route: partial sums of sum 1/k^3 with the integral tail bracket
1/(2(K+1)^2) < tail < 1/(2K^2). Cost grows like 10**(digits/3) terms, so it
is only practical to ~18 digits; that is exactly its job here, serving as an
independent low-precision cross-check against the fast route.

Accelerated route: the Amdeberhan-Zeilberger series (1997)
zeta(3) = (1/64) sum_{k>=0} t_k, t_k = (-1)^k (k!)^10 a(k) / ((2k+1)!)^5,
a(k) = 205k^2 + 250k + 77, summed exactly by binary splitting. The term
ratio -k^5 / (32 (2k+1)^5) gives about 3 digits per term. The terms
alternate and strictly shrink, so consecutive partial sums S_K = sum_{k<=K}
t_k and S_{K+1} bracket the limit. Term count, with no trial evaluation:
(2k+1)! = (2k+1) C(2k,k) (k!)^2 and (2k+1) C(2k,k) >= sqrt(k) 4^k, so
(k!)^10 / ((2k+1)!)^5 <= k^(-5/2) 1024^-k; with a(k) <= 532 k^2 this gives
|t_k| / 64 <= 8.32 * 1024^-k for k >= 1. K = digits // 3 + 2 has K + 1 >=
(digits + 7) / 3, and 1024^(x/3) > 10^x, so the omitted |t_{K+1}| / 64 <
8.32 * 10^-(digits+7) < 10^-digits. One term fewer would meet the bound too;
the spare term keeps this enclosure inside the enclosure of the
central-binomial series (5/2) sum (-1)^(k-1) / (k^3 C(2k,k)), the test
oracle, rounded onto the same 2**-budget_bits(digits) grid, at every size
measured (each of 1-3000, 6000 and 20000), so a check decided on that
enclosure is decided the same on this one. Rounding onto that grid adds at
most 10**-digits / 8 to the width.

The splitting runs on `decimal.Decimal`, used only as an exact integer type:
libmpdec multiplies and divides large integers by a number-theoretic
transform, which beats CPython's Karatsuba once operands pass about 30k bits
and loses to it below. Measured on a 2-vCPU Xeon with CPython 3.11, the
whole route (splitting and rounding) takes 2-3x the time of the same
splitting on ints with `Enclosure.round_out` at 30-2000 digits (0.61
against 0.28 ms at 480), 1.2x at 6000 and two thirds of it at 20000 (0.18
against 0.26 s). Every operation goes through one module context,
`_EXACT` (precision MAX_PREC, exponent limits MAX_EMAX and MIN_EMIN, with
Inexact, Rounded and InvalidOperation trapped), so an operation that would
round raises instead; the caller's thread-local context is never read or
changed. The two endpoints floor(n * 2**bits / den) and ceil(n * 2**bits /
den) come from a bracket on operands cut to the quotient's digits plus
`_GUARD_DIGITS`, evaluated in contexts that round down and up. The bracket
decides an endpoint when both of its bounds round to the same integer;
otherwise an exact divmod of the full operands does. Decimal results become
ints through their digit strings, split in halves, and ints become Decimals
only at the leaves, where they are small. See Brent & Zimmermann, *Modern
Computer Arithmetic* (2010), section 1.3 on fast multiplication and section
4.9 on binary splitting.

The default entry point intersects both, so a systematic bug in either
series would surface as a DisjointEnclosures error instead of a wrong but
confident answer.
"""

from __future__ import annotations

from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_CEILING,
    ROUND_FLOOR,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
)
from functools import lru_cache

from .exactnum import DIGITS_CACHE_SIZE, Enclosure, budget_bits


class DisjointEnclosures(ArithmeticError):
    """The two zeta(3) methods produced non-overlapping intervals."""


# Direct summation refuses term counts beyond this (see direct_max_digits).
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


def direct_max_digits() -> int:
    """Largest digits zeta3_direct accepts: 10**(digits + 1) <= _DIRECT_TERM_LIMIT**3."""
    return len(str(_DIRECT_TERM_LIMIT**3)) - 2


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def zeta3_direct(digits: int) -> Enclosure:
    """Enclosure of width <= 10**-digits from the defining series sum 1/k^3."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    top = direct_max_digits()
    if digits > top:
        raise ValueError(f"zeta3_direct goes up to {top} digits; use zeta3_accelerated beyond")
    terms = _direct_terms(digits)
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


def _context(prec: int, rounding: str, traps: list) -> Context:
    """A decimal context with every field given, so none is inherited from
    decimal.DefaultContext."""
    return Context(
        prec=prec, rounding=rounding, Emax=MAX_EMAX, Emin=MIN_EMIN, capitals=1, clamp=0, flags=[], traps=traps
    )


# Decimal serves only as an exact integer type: every operation in this
# context that would round, or is invalid, raises instead of returning.
_EXACT = _context(MAX_PREC, ROUND_HALF_EVEN, [Inexact, Rounded, InvalidOperation])
_mul = _EXACT.multiply
_add = _EXACT.add

# Digits the bracket in `_round_out` carries beyond the quotient's own; its
# two bounds then straddle an integer with probability about 10**-39.
_GUARD_DIGITS = 40

# Decimal strings at most this long go to int() in one call; longer ones are
# halved first, because CPython's int(str) is quadratic in the length.
_INT_CHUNK_DIGITS = 2000


def _weight(k: int) -> int:
    """a(k) = 205k^2 + 250k + 77, the polynomial factor of the k-th term."""
    return 205 * k * k + 250 * k + 77


def _binsplit(a: int, b: int) -> tuple[Decimal, Decimal, Decimal]:
    """(P, Q, T) over [a, b) of the Amdeberhan-Zeilberger series, as exact
    Decimal integers.

    t_k = a(k) prod_{j=1..k} p_j/q_j with p_j = -j^5 and q_j = 32 (2j+1)^5
    (p_0 = q_0 = 1). P and Q are the range products and T/Q =
    sum_{k=a..b-1} t_k / prod_{j<a} (p_j/q_j). Each operand is dropped as
    soon as its last product is formed.
    """
    if b - a == 1:
        if a == 0:
            return Decimal(1), Decimal(1), Decimal(77)
        p = -(a**5)
        return Decimal(p), Decimal(32 * (2 * a + 1) ** 5), Decimal(_weight(a) * p)
    m = (a + b) // 2
    pl, ql, tl = _binsplit(a, m)
    pr, qr, tr = _binsplit(m, b)
    t = _add(_mul(tl, qr), _mul(pl, tr))
    del tl, tr
    q = _mul(ql, qr)
    del ql, qr
    return _mul(pl, pr), q, t


def _digits_to_int(s: str) -> int:
    """int(s) for a string of decimal digits, by halving long strings."""
    if len(s) <= _INT_CHUNK_DIGITS:
        return int(s)
    low = len(s) // 2
    return _digits_to_int(s[:-low]) * 10**low + _digits_to_int(s[-low:])


def _exact_round(n: Decimal, scale: Decimal, den: Decimal, ceiling: bool) -> Decimal:
    """floor (or ceiling) of n*scale/den by one exact division."""
    q, r = _EXACT.divmod(_mul(n, scale), den)
    return _add(q, 1) if ceiling and not r.is_zero() else q


def _reciprocals(scale: Decimal, den: Decimal, down: Context, up: Context) -> tuple[Decimal, Decimal]:
    """(r_down, r_up) with r_down <= scale / den <= r_up, for scale, den > 0,
    from one division at the precision p of ``down`` and ``up``.

    r_down = RD(scale / RU(den)), and r_up = RU(r_down * (1 + 3e)) with
    e = 10**(1-p). Why r_up bounds scale/den from above: for 10**a <= y, a
    directed rounding of y > 0 to p digits moves it by less than
    10**(a+1-p) and leaves it >= 10**a, so by less than e times y and e
    times its rounding. So RU(den) < den*(1 + e), and the quotient
    scale/RU(den) < r_down*(1 + e). Multiplying, scale/den =
    (scale/RU(den)) * (RU(den)/den) < r_down*(1 + e)**2 <= r_down*(1 + 3e),
    since e <= 1. The fused multiply-add rounds r_down*3e + r_down once, up.
    """
    r_down = down.divide(scale, up.plus(den))
    three_e = Decimal((0, (3,), 1 - down.prec))  # exact: 3 * 10**(1-p)
    return r_down, up.fma(r_down, three_e, r_down)


def _round_out(lo: Decimal, hi: Decimal, den: Decimal, bits: int) -> tuple[int, int]:
    """(floor(lo * 2**bits / den), ceil(hi * 2**bits / den)) as ints, for
    Decimal integers 0 < lo <= hi and den > 0.

    Each quotient x = n * 2**bits / den is bracketed from operands cut to
    prec = (digits of x) + _GUARD_DIGITS significant digits, in a context
    that rounds down and one that rounds up, by the reciprocal bounds
    r_down <= 2**bits / den <= r_up of `_reciprocals`:
        RD(RD(n) * r_down) <= x <= RU(RU(n) * r_up).
    When both bounds round to the same integer, that integer is the exact
    floor (or ceiling) of x. Otherwise one exact divmod of the full operands
    decides it.
    """
    if lo.is_signed() or lo.is_zero():
        raise ArithmeticError("zeta(3) endpoint numerator is not positive")
    scale = _EXACT.power(2, bits)
    # an upper bound on the digits of floor(hi * 2**bits / den)
    prec = max(1, hi.adjusted() + scale.adjusted() - den.adjusted() + 2) + _GUARD_DIGITS
    down = _context(prec, ROUND_FLOOR, [InvalidOperation])
    up = _context(prec, ROUND_CEILING, [InvalidOperation])
    r_down, r_up = _reciprocals(scale, den, down, up)
    ends = []
    for n, outward in ((lo, down), (hi, up)):
        below = outward.to_integral_value(down.multiply(down.plus(n), r_down))
        above = outward.to_integral_value(up.multiply(up.plus(n), r_up))
        digits = _EXACT.to_sci_string(below)
        if digits != _EXACT.to_sci_string(above):
            digits = _EXACT.to_sci_string(_exact_round(n, scale, den, outward is up))
        ends.append(_digits_to_int(digits))
    return ends[0], ends[1]


def zeta3_accelerated(digits: int) -> Enclosure:
    """Enclosure of width <= 10**-digits via binary splitting."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    # S_K = sum_{k<=K} t_k leaves |t_{K+1}|/64 < 10**-digits (module docstring).
    terms = digits // 3 + 2
    # Over [0, K+2) the sum gives S_{K+1} = T/Q and the products give
    # t_{K+1} = a(K+1) P/Q, so S_K = (T - a(K+1) P)/Q; no factorial is formed.
    p, q, t = _binsplit(0, terms + 2)
    ends = (_EXACT.subtract(t, _mul(_weight(terms + 1), p)), t)
    del t
    den = _mul(64, q)
    del q
    # [S_K, S_{K+1}]/64, ends ordered by the sign of t_{K+1}.
    lo, hi = ends[::-1] if p.is_signed() else ends
    del p, ends
    bits = budget_bits(digits)
    lo_num, hi_num = _round_out(lo, hi, den, bits)
    return Enclosure.from_parts(lo_num, hi_num, 1 << bits)


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
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

