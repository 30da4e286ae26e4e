"""A certified enclosure of Apery's constant zeta(3), checked by a second route.

The series is the Amdeberhan-Zeilberger (AZ) series (1997)
zeta(3) = (1/64) sum_{k>=0} t_k, t_k = (-1)^k (k!)^10 a(k) / ((2k+1)!)^5,
a(k) = 205k^2 + 250k + 77, summed exactly by binary splitting. The term
ratio -k^5 / (32 (2k+1)^5) gives about 3 digits per term. The terms
alternate and strictly shrink, so the consecutive sums S_K = sum_{k<=K}
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
enclosure is decided the same on this one. Rounding outward onto that grid
adds at most 10**-digits / 4 to the width (precision rule below). The leaves
are p_j = -j^5 and q_j = 32 (2j+1)^5 for odd j, p_j = -(j/2)^5 and q_j =
(2j+1)^5 for even j: the same ratios, so the same sums, with P and Q about
4 % shorter (108k and 128k digits against 113k and 133k at 20000 digits).

The splitting runs on `decimal.Decimal`, used only as an exact integer type:
libmpdec multiplies and divides large integers by a number-theoretic
transform, which beats CPython's Karatsuba once operands pass about 30k bits
and loses to it below. Measured in-process on a 2-vCPU Xeon with CPython
3.11, the whole route takes 5x the time of the same splitting on ints with
`Enclosure.round_out` at 30 digits (0.040 against 0.008 ms), 2x at 480 and
2000, 0.9x at 6000 and a third of it at 20000 (48 against 144 ms). Every
exact operation goes through one module context, `_EXACT` (precision
MAX_PREC, exponent limits MAX_EMAX and MIN_EMIN, with Inexact, Rounded and
InvalidOperation trapped), so an operation that would round raises instead;
the rounded ones go through contexts that round down and up, with every
field given. The caller's thread-local context is never read or changed.
Decimal results become ints through their digit strings, split in
halves, and ints become Decimals only at the leaves, where they are small.
See Brent & Zimmermann, *Modern Computer Arithmetic* (2010), section 1.3 on
fast multiplication and section 4.9 on binary splitting.

The splitting of [0, n), n = K+2, breaks at m = 0.52 n into two halves,
which are independent (Haible & Papanikolaou, ANTS 1998) and meet only as
short brackets, never as an exact product of 100k-digit integers. With
(P_L, Q_L, T_L) over [0, m) and (P_R, Q_R, T_R) over [m, n), each endpoint
x = 2**bits S / 64 is head + step * y, with head = T_L 2**bits / (64 Q_L),
step = P_L 2**bits / (64 Q_L), and y = T_R / Q_R for S_{K+1} or (T_R -
a(K+1) P_R) / Q_R for S_K. The left half gives brackets of head and step
from one reciprocal of 64 Q_L (`_reciprocals`), the right half brackets of
its two y from one reciprocal of Q_R; two bracket products, two sums and
the floor and ceiling remain. Every bracket is rounded outward, toward -inf
at its lower end and toward +inf at its upper, and a product of brackets
picks its ends by their signs, so one that held zero raises.

Precision rule: head and the sums carry prec = D + `_GUARD_DIGITS` digits,
where D = 2 + floor(log10 2**bits) bounds the digits of every x <
2**(bits+1). The step, the y and their products carry tail_prec = prec -
3(m-1): |prod_{j<m} p_j/q_j| < 1024^-(m-1) < 10^-3(m-1), since each
|p_j/q_j| = (j/(2(2j+1)))^5 < 1/1024, so the step is 3(m-1) digits shorter
than x. Their product, 2**bits (sum_{k=m..} t_k) / 64, is at most 2**bits
|t_m| / 64 < 10**(D-3m+1) by the term bound above, so tail_prec leaves its
rounding below 10**-_GUARD_DIGITS. So each bracket is a few units of
10**-_GUARD_DIGITS wide, a unit being 1 in x (2**-bits in zeta(3)).

The lower field is the floor of the lower bracket's lower end, the upper
field the ceiling of the upper bracket's upper end: outward rounding alone
keeps zeta(3) inside (Moore, *Interval Analysis*, 1966). A field is long
division's exact floor (or ceiling) when both ends of its bracket round
alike, and else one unit further out while the bracket is narrower than one
unit, so it lies at most two units, 2**(1-bits) <= 10**-digits / 8, outside
its endpoint. Over the 818 endpoints at 1-400, 999-1001, 1999-2001, 2500,
6000 and 20000 digits, the brackets were at most 6e-40 units wide and
decided every endpoint, so the fields equal long division's there (and at
each of 1-3000 and 40000 digits); with one guard digit they were up to 0.7
wide and 80 of the 409 sizes moved one unit out; with none, up to 7 wide and
358 sizes moved by up to 5.

From _FORK_DIGITS (2000) digits on, the right half is summed in a forked
child, when os.fork exists, no other thread runs (Python 3.12 and later
deprecate fork in a threaded process) and os.sched_getaffinity(0) (else
os.cpu_count()) holds two CPUs or more: on one, the fork slowed
`zeta3 --digits 3000` (71.6 against 67.4 ms, medians of 6 runs, 2-vCPU Xeon,
CPython 3.11). The child writes the four ends of its two brackets to a pipe
as decimal strings, 55k characters at 20000 digits against 190k for its
exact (P, Q, T), while this process sums [0, m) and forms its own brackets;
then this process reads the pipe, reaps the child and joins. Otherwise both
halves are summed here and join the same way. The upper terms carry longer
factors, so m = 0.52 n balances the two processes better than the midpoint:
`zeta3_accelerated(20000)` takes 51.4, 49.4, 48.3, 47.4, 48.2, 48.8 and 51.0
ms at m = 0.48, 0.50, 0.51, 0.52, 0.53, 0.54 and 0.56 n. A second thread
would not do: `_decimal` keeps the GIL while it multiplies, and two
splittings at 20000 digits took 227 ms in two threads against 212 ms one
after the other. The fork, the pipe and the parse cost about 1 ms, which the
halved splitting repays from about 1900 digits on. Measured in-process on a
2-vCPU Xeon with CPython 3.11, two processes against one take 1.82 against
0.98 ms at 1000 digits, 2.90 against 2.90 ms at 1900, 3.03 against 3.19 ms
at 2000, 3.92 against 4.84 ms at 2500 and 12.5 against 19.7 ms at 6000.

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

Before any Decimal work, `zeta3_accelerated` refuses, with MemoryError, a
size whose two fields (each above 2**bits, as zeta(3) > 1) physical memory
cannot hold.

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
from io import TextIOWrapper

from .beukers import apery_bracket, apery_index, require_memory
from .exactnum import DIGITS_CACHE_SIZE, Enclosure, budget_bits


class DisjointEnclosures(ArithmeticError):
    """The AZ series and Apery's convergents gave disjoint enclosures of zeta(3)."""


# Digits at which Apery's convergents check the AZ series, at most.
_CROSS_DIGITS = 1000

# Digits from which a forked child sums the upper part of the splitting,
# when it can (module docstring).
_FORK_DIGITS = 2000


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

# Digits the brackets carry beyond what the endpoints need; an endpoint's
# two bounds then straddle an integer, so that its field lies one unit
# further out than long division's, with probability about 10**-39.
_GUARD_DIGITS = 40

# Decimal strings at most this long go to int() in one call; longer ones are
# halved first, because CPython's int(str) is quadratic in the length.
_INT_CHUNK_DIGITS = 2000

# (P, Q, T) of a range of the series, as exact Decimal integers.
_Split = tuple[Decimal, Decimal, Decimal]

# (lo, hi) with lo <= x <= hi, for a number x known only by its bracket.
_Bracket = tuple[Decimal, Decimal]


def _weight(k: int) -> int:
    """a(k) = 205k^2 + 250k + 77, the polynomial factor of the k-th term."""
    return 205 * k * k + 250 * k + 77


def _binsplit(a: int, b: int) -> _Split:
    """(P, Q, T) over [a, b) of the Amdeberhan-Zeilberger series, as exact
    Decimal integers.

    t_k = a(k) prod_{j=1..k} p_j/q_j with p_j/q_j = -j^5 / (32 (2j+1)^5),
    the 32 kept in q_j for odd j and taken out of p_j = -(j/2)^5 for even j
    (p_0 = q_0 = 1). P and Q are the range products and T/Q =
    sum_{k=a..b-1} t_k / prod_{j<a} (p_j/q_j).
    """
    if b - a == 1:
        if a == 0:
            return Decimal(1), Decimal(1), Decimal(77)
        if a % 2:
            p, q = -(a**5), 32 * (2 * a + 1) ** 5
        else:
            p, q = -((a // 2) ** 5), (2 * a + 1) ** 5
        return Decimal(p), Decimal(q), Decimal(_weight(a) * p)
    m = (a + b) // 2
    return _combine(_binsplit(a, m), _binsplit(m, b))


def _combine(left: _Split, right: _Split) -> _Split:
    """(P, Q, T) over [a, b) from those over [a, m) and [m, b). Each operand
    is dropped as soon as its last product is formed."""
    pl, ql, tl = left
    pr, qr, tr = right
    del left, right
    t = _EXACT.add(_mul(tl, qr), _mul(pl, tr))
    del tl, tr
    q = _mul(ql, qr)
    del ql, qr
    return _mul(pl, pr), q, t


def _directed(prec: int) -> tuple[Context, Context]:
    """Contexts at ``prec`` digits that round toward -inf and toward +inf."""
    return _context(prec, ROUND_FLOOR, [InvalidOperation]), _context(prec, ROUND_CEILING, [InvalidOperation])


def _product(x: _Bracket, y: _Bracket, down: Context, up: Context) -> _Bracket:
    """A bracket of u * v for every u in the bracket x and v in y, rounded
    outward at the precision of ``down`` and ``up``.

    Neither bracket may hold zero: then each has one sign, and the product
    of two positive brackets is [RD(x_lo y_lo), RU(x_hi y_hi)]. A negative
    bracket is negated first, exactly, and the product negated back. A
    bracket that holds zero raises ArithmeticError.
    """
    negative = False
    ends = []
    for lo, hi in (x, y):
        if lo.is_zero() or hi.is_zero() or lo.is_signed() != hi.is_signed():
            raise ArithmeticError("a zeta(3) bracket holds zero")
        if lo.is_signed():
            lo, hi = hi.copy_negate(), lo.copy_negate()
            negative = not negative
        ends.append((lo, hi))
    (x_lo, x_hi), (y_lo, y_hi) = ends
    lo, hi = down.multiply(x_lo, y_lo), up.multiply(x_hi, y_hi)
    return (hi.copy_negate(), lo.copy_negate()) if negative else (lo, hi)


def _times(n: Decimal, r: _Bracket, down: Context, up: Context) -> _Bracket:
    """A bracket of n * x for the Decimal integer n != 0 and any x in r."""
    return _product((down.plus(n), up.plus(n)), r, down, up)


def _join(head: _Bracket, step: _Bracket, y: _Bracket, prec: int, tail_prec: int) -> _Bracket:
    """A bracket of h + s * v for every h in the bracket ``head``, s in
    ``step`` and v in ``y``: the product rounded outward to ``tail_prec``
    digits, the sum to ``prec``."""
    lo, hi = _product(step, y, *_directed(tail_prec))
    down, up = _directed(prec)
    return down.add(head[0], lo), up.add(head[1], hi)


def _head(m: int, scale: Decimal, prec: int, tail_prec: int) -> tuple[_Bracket, _Bracket]:
    """Brackets of T * scale / (64 Q) to ``prec`` digits and of P * scale /
    (64 Q) to ``tail_prec`` digits, for (P, Q, T) over [0, m), both from one
    reciprocal."""
    p, q, t = _binsplit(0, m)
    down, up = _directed(prec)
    r = _reciprocals(scale, _mul(64, q), down, up)
    return _times(t, r, down, up), _times(p, r, *_directed(tail_prec))


def _tail(m: int, n: int, weight: int, prec: int) -> list[Decimal]:
    """Brackets of T/Q and (T - weight * P)/Q over [m, n), to ``prec``
    digits, as their four ends."""
    p, q, t = _binsplit(m, n)
    down, up = _directed(prec)
    r = _reciprocals(Decimal(1), q, down, up)
    return [*_times(t, r, down, up), *_times(_EXACT.subtract(t, _mul(weight, p)), r, down, up)]


def _fork_tail(m: int, n: int, weight: int, prec: int) -> tuple[int, TextIOWrapper, int]:
    """Fork a child that writes `_tail(m, n, weight, prec)` to a pipe; (its
    pid, the pipe's read end as a text file, the write end of its lifeline).

    The child writes the four ends as decimal strings and leaves only
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
                out.write(" ".join(map(_EXACT.to_sci_string, _tail(m, n, weight, prec))))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    os.close(alive_r)
    return pid, open(r, encoding="ascii"), alive_w


def _halves(
    m: int, n: int, weight: int, scale: Decimal, prec: int, tail_prec: int, fork: bool
) -> tuple[tuple[_Bracket, _Bracket], list[Decimal]]:
    """(`_head(m, scale, prec, tail_prec)`, `_tail(m, n, weight, tail_prec)`),
    the tail from a forked child when ``fork`` is true.

    The child is reaped, and then its lifeline closed, before this returns
    or raises; on an exception here, Ctrl-C included, it is killed first. A
    child that fails raises ArithmeticError. When os.pipe or os.fork raises
    OSError, both halves are summed in this process.
    """
    if fork:
        try:
            pid, pipe, lifeline = _fork_tail(m, n, weight, tail_prec)
        except OSError:
            pass
        else:
            try:
                with pipe:
                    head = _head(m, scale, prec, tail_prec)
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
            return head, list(map(_EXACT.create_decimal, fields))
    return _head(m, scale, prec, tail_prec), _tail(m, n, weight, tail_prec)


def _digits_to_int(s: str) -> int:
    """int(s) for a string of decimal digits, by halving long strings."""
    if len(s) <= _INT_CHUNK_DIGITS:
        return int(s)
    low = len(s) // 2
    return _digits_to_int(s[:-low]) * 10**low + _digits_to_int(s[-low:])


def _reciprocals(scale: Decimal, den: Decimal, down: Context, up: Context) -> _Bracket:
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


def _round_out(lo: _Bracket, hi: _Bracket) -> tuple[int, int]:
    """(floor(lo[0]), ceil(hi[1])) as ints, so at or below every x in the
    bracket ``lo`` and at or above every y in ``hi``: floor(x) (ceil(y)) when
    both ends of the bracket round alike, else one unit further out while it
    is narrower than one unit."""
    below, above = lo[0].to_integral_value(ROUND_FLOOR, _EXACT), hi[1].to_integral_value(ROUND_CEILING, _EXACT)
    return _digits_to_int(_EXACT.to_sci_string(below)), _digits_to_int(_EXACT.to_sci_string(above))


def zeta3_accelerated(digits: int) -> Enclosure:
    """Enclosure of width <= 10**-digits via binary splitting."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    bits = budget_bits(digits)
    # the two fields exceed 2**bits (module docstring)
    require_memory(2 * bits // 8, f"zeta(3) to {digits} digits")
    # S_K = sum_{k<=K} t_k leaves |t_{K+1}|/64 < 10**-digits (module docstring).
    terms = digits // 3 + 2
    # Over [0, K+2) the sum gives S_{K+1} = T/Q and the products give
    # t_{K+1} = a(K+1) P/Q, so S_K = (T - a(K+1) P)/Q; no factorial is formed.
    n = terms + 2
    m = 13 * n // 25
    weight = _weight(terms + 1)
    scale = _EXACT.power(2, bits)
    # the precision rule (module docstring)
    prec = scale.adjusted() + 2 + _GUARD_DIGITS
    tail_prec = prec - 3 * (m - 1)
    cpus = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))
    fork = digits >= _FORK_DIGITS and hasattr(os, "fork") and threading.active_count() == 1 and len(cpus(0)) >= 2
    (head, step), tail = _halves(m, n, weight, scale, prec, tail_prec, fork)
    # y = T_R/Q_R for S_{K+1}, then (T_R - a(K+1) P_R)/Q_R for S_K
    ends = [_join(head, step, y, prec, tail_prec) for y in zip(tail[::2], tail[1::2])]
    # [S_K, S_{K+1}], ordered by the sign (-1)**(K+1) of t_{K+1}
    lo_end, hi_end = ends if terms % 2 == 0 else ends[::-1]
    lo_num, hi_num = _round_out(lo_end, hi_end)
    return Enclosure(lo_num, hi_num, 1 << bits)


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def zeta3(digits: int) -> Enclosure:
    """`zeta3_accelerated(digits)`, checked against Apery's convergents.

    The check is `apery_bracket(apery_index(0, c))` with c = min(digits,
    _CROSS_DIGITS), the bracket `bounds.form_abs_enclosure` builds I_n on;
    by `beukers.apery_index` it is narrower than 10**-c. Both enclosures are
    then at most 10**-c wide, so a fault that moves either by more than
    2 * 10**-c makes the two disjoint. The cap bounds the check's cost: 1.7
    ms at 1000 digits, 24 ms at 4000 (medians of 7 fresh processes on a
    2-vCPU Xeon with CPython 3.11).
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
