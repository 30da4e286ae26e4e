"""A certified enclosure of Apery's constant zeta(3), checked by a second route.

The series is the Amdeberhan-Zeilberger (AZ) series (1997)
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

From _FORK_DIGITS (2500) digits on, the splitting of [0, K+2) runs in two
processes, when os.fork exists and no other thread runs (Python 3.12 and
later deprecate fork in a threaded process). The two halves of a binary
splitting are independent products (Haible & Papanikolaou, ANTS 1998). A
forked child sums [m, K+2), m = 0.52 (K+2), and writes its exact (P, Q, T)
to a pipe as digit strings; this process sums [0, m), reads the pipe, reaps
the child and combines the halves with the step `_binsplit` uses. The upper
terms carry longer factors, so m = 0.52 (K+2) balances the halves better
than the midpoint (44.8 and 47.5 ms against 44.4 and 50.5 ms at 20000
digits). A second thread would not do: `_decimal` keeps the GIL while it
multiplies, and two splittings at 20000 digits took 227 ms in two threads
against 212 ms one after the other. The fork, the pipe and the parse cost
about 2 ms, which the halved splitting repays from about 2200 digits on.
Measured in-process on a 2-vCPU Xeon with CPython 3.11, two processes
against one take 2.7 against 1.6 ms at 1000 digits, 6.3 against 6.3 ms at
2200, 7.6 against 8.1 ms at 2500 and 18.4 against 25.0 ms at 6000.

The child leaves only through os._exit, on success or on any exception: an
ordinary exit would flush this process's buffered stdout a second time and
run the atexit handlers it inherited (a benchmark harness may register one
that writes a file). A child that fails (a nonzero exit) raises
ArithmeticError here, as a fault in this process would; an OSError from
os.pipe or os.fork instead falls back to the splitting in one process. On
any exception here, Ctrl-C included, the child is killed, and it is reaped
before `zeta3_accelerated` returns or raises.

The child also ends when this process dies without unwinding (SIGTERM,
SIGKILL), with no signal handler: only this process holds the write end of a
second pipe, the lifeline, and closes it after reaping the child. A daemon
thread in the child blocks reading the lifeline and calls os._exit(1) at
EOF. `_decimal` keeps the GIL while it multiplies, so the child exits within
one multiplication of this process's death.

The check is the bracket of Apery's convergents, `beukers.apery_bracket`,
the route that builds |I_n| (van der Poorten, 1979). It shares no code with
the AZ series, so a systematic bug in either surfaces as a DisjointEnclosures
error instead of a wrong but confident answer.
"""

from __future__ import annotations

import os
import threading
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
from typing import IO

from .beukers import apery_bracket, apery_index
from .exactnum import DIGITS_CACHE_SIZE, Enclosure, budget_bits


class DisjointEnclosures(ArithmeticError):
    """The AZ series and Apery's convergents gave disjoint enclosures of zeta(3)."""


# Digits at which Apery's convergents check the AZ series, at most.
_CROSS_DIGITS = 1000

# Digits from which a forked child sums the upper part of the splitting,
# when it can (module docstring).
_FORK_DIGITS = 2500


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

# (P, Q, T) of a range of the series, as exact Decimal integers.
_Split = tuple[Decimal, Decimal, Decimal]


def _weight(k: int) -> int:
    """a(k) = 205k^2 + 250k + 77, the polynomial factor of the k-th term."""
    return 205 * k * k + 250 * k + 77


def _binsplit(a: int, b: int) -> _Split:
    """(P, Q, T) over [a, b) of the Amdeberhan-Zeilberger series, as exact
    Decimal integers.

    t_k = a(k) prod_{j=1..k} p_j/q_j with p_j = -j^5 and q_j = 32 (2j+1)^5
    (p_0 = q_0 = 1). P and Q are the range products and T/Q =
    sum_{k=a..b-1} t_k / prod_{j<a} (p_j/q_j).
    """
    if b - a == 1:
        if a == 0:
            return Decimal(1), Decimal(1), Decimal(77)
        p = -(a**5)
        return Decimal(p), Decimal(32 * (2 * a + 1) ** 5), Decimal(_weight(a) * p)
    m = (a + b) // 2
    return _combine(_binsplit(a, m), _binsplit(m, b))


def _combine(left: _Split, right: _Split) -> _Split:
    """(P, Q, T) over [a, b) from those over [a, m) and [m, b). Each operand
    is dropped as soon as its last product is formed."""
    pl, ql, tl = left
    pr, qr, tr = right
    del left, right
    t = _add(_mul(tl, qr), _mul(pl, tr))
    del tl, tr
    q = _mul(ql, qr)
    del ql, qr
    return _mul(pl, pr), q, t


def _fork_binsplit(a: int, b: int) -> tuple[int, IO[str], int]:
    """Fork a child that writes `_binsplit(a, b)` to a pipe; (its pid, the
    pipe's read end as a text file, the write end of its lifeline).

    The child writes the three fields as digit strings and leaves only
    through os._exit: with status 0 once all of them are written, else 1.
    The lifeline is a second pipe whose write end only this process holds;
    the caller closes it once the child is reaped. An OSError from os.pipe
    or os.fork propagates, with no descriptor left open.
    """
    fds: list[int] = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    r, w, alive_r, alive_w = fds
    if pid == 0:
        code = 1
        try:
            os.close(r)
            os.close(alive_w)
            # os.read returns b"" at EOF: once the parent has closed alive_w or died
            threading.Thread(target=lambda: os.read(alive_r, 1) or os._exit(1), daemon=True).start()
            with open(w, "w", encoding="ascii") as out:
                out.write(" ".join(map(_EXACT.to_sci_string, _binsplit(a, b))))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    os.close(alive_r)
    return pid, open(r, encoding="ascii"), alive_w


def _binsplit_in_two(n: int) -> _Split:
    """`_binsplit(0, n)`, with [m, n) summed meanwhile in a forked child.

    m = 0.52 n (module docstring). The child is reaped, and then its
    lifeline closed, before this returns or raises; on an exception here,
    Ctrl-C included, it is killed first. A child that fails raises
    ArithmeticError. When os.pipe or os.fork raises OSError, [0, n) is
    summed in this process.
    """
    m = 13 * n // 25
    try:
        pid, pipe, lifeline = _fork_binsplit(m, n)
    except OSError:
        return _binsplit(0, n)
    try:
        with pipe:
            left = _binsplit(0, m)
            fields = pipe.read().split()
    except BaseException:
        # imported here: `signal` adds about 0.7 ms to every start-up
        from signal import SIGKILL

        os.kill(pid, SIGKILL)
        raise
    finally:
        try:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        finally:
            os.close(lifeline)
    if code != 0:
        raise ArithmeticError(f"the child summing terms [{m}, {n}) of the zeta(3) series exited with {code}")
    pr, qr, tr = map(_EXACT.create_decimal, fields)
    return _combine(left, (pr, qr, tr))


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
    if digits >= _FORK_DIGITS and hasattr(os, "fork") and threading.active_count() == 1:
        p, q, t = _binsplit_in_two(terms + 2)
    else:
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
    return Enclosure(lo_num, hi_num, 1 << bits)


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def zeta3(digits: int) -> Enclosure:
    """`zeta3_accelerated(digits)`, checked against Apery's convergents.

    The check is `apery_bracket(apery_index(0, c))` with c = min(digits,
    _CROSS_DIGITS), the bracket `bounds.form_abs_enclosure` builds I_n on;
    by `beukers.apery_index` it is narrower than 10**-c. Both enclosures are
    then at most 10**-c wide, so a fault that moves either by more than
    2 * 10**-c makes the two disjoint. The cap bounds the check's cost: 5-6
    ms at 1000 digits, 50-60 ms at 4000, in a fresh process on a 2-vCPU
    Xeon with CPython 3.11.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    # AZ first: the convergent tables then grow into the memory its splitting freed.
    fast = zeta3_accelerated(digits)
    check = apery_bracket(apery_index(0, min(digits, _CROSS_DIGITS)))
    if fast.lies_below(check) or check.lies_below(fast):
        raise DisjointEnclosures(
            f"zeta(3) routes disagree at {digits} digits: {fast} vs {check}"
        )
    return fast
