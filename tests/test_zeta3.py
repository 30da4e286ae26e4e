import decimal
import math
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import overlaps, zeta3_direct
from zeta3forms import cli
from zeta3forms import zeta3 as zmod
from zeta3forms.exactnum import Enclosure, budget_bits
from zeta3forms.zeta3 import DisjointEnclosures, zeta3, zeta3_accelerated

F = Fraction

# Verified bracket for Apery's constant: the AZ series, Apery's convergents
# and the direct and central-binomial oracles all agree on it.
Z3_LO = F("1.2020569031595942853")
Z3_HI = F("1.2020569031595942854")


def _contains_true_value(enc: Enclosure) -> bool:
    return enc.lo < Z3_HI and enc.hi > Z3_LO


def test_direct_two_digits():
    enc = zeta3_direct(2)
    assert enc.width() <= F(1, 100)
    assert enc.contains(F("1.202"))


def test_direct_contains_reference_digits():
    enc = zeta3_direct(15)
    assert enc.width() <= F(1, 10**15)
    assert _contains_true_value(enc)


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_direct_width_contract(digits):
    enc = zeta3_direct(digits)
    assert enc.width() <= F(1, 10**digits)
    assert _contains_true_value(enc)


def test_direct_width_contract_over_its_whole_range():
    # 18 digits sum 2.2 million terms, as far as a test can afford to go
    for digits in range(1, 19):
        assert zeta3_direct(digits).width() <= F(1, 10**digits), digits


def test_accelerated_width_contract_on_the_coarse_grid():
    # rounding onto the 2**-budget_bits(digits) grid adds at most
    # 10**-digits / 8 to the series' own width
    for digits in [*range(1, 401), 1000, 3000]:
        assert zeta3_accelerated(digits).width() <= F(1, 10**digits), digits


# -- int references for the accelerated route ----------------------------------
# The Amdeberhan-Zeilberger (P, Q, T) recursion in CPython ints, rounded by
# Enclosure.round_out: the same rationals as zeta3_accelerated, without
# Decimal. Its field equality is the net for the Decimal machinery.


def _binsplit(a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) over [a, b) for t_k = a(k) prod_{j=1..k} (-j^5) / (32 (2j+1)^5)."""
    if b - a == 1:
        if a == 0:
            return 1, 1, 77
        p = -(a**5)
        return p, 32 * (2 * a + 1) ** 5, (205 * a * a + 250 * a + 77) * p
    m = (a + b) // 2
    pl, ql, tl = _binsplit(a, m)
    pr, qr, tr = _binsplit(m, b)
    return pl * pr, ql * qr, tl * qr + pl * tr


def _partial_sum(terms: int) -> tuple[int, int, int]:
    """(s, t, den) with S_K = sum_{k<=K} t_k / 64 = s/den and the signed next
    term t_{K+1} / 64 = t/den."""
    p, q, t = _binsplit(0, terms + 1)
    k = terms + 1
    t_next = (205 * k * k + 250 * k + 77) * p * -(k**5)
    q_next = 32 * (2 * k + 1) ** 5
    return t * q_next, t_next, 64 * q * q_next


def _reference_accelerated(digits: int) -> Enclosure:
    s, t_next, den = _partial_sum(digits // 3 + 2)
    ends = (s, s + t_next)
    return Enclosure(min(ends), max(ends), den).round_out(budget_bits(digits))


# The central-binomial series zeta(3) = (5/2) sum_{k>=1} (-1)^(k-1) / (k^3 C(2k,k)),
# split in ints: an independent series, and the net for the mathematics.


def _central_binomial_binsplit(a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) over [a, b) for term ratios p_j/q_j = -j^3 / (2 (j+1)^2 (2j+1))."""
    if b - a == 1:
        p = -(a**3)
        q = 2 * (a + 1) ** 2 * (2 * a + 1)
        return p, q, p
    m = (a + b) // 2
    pl, ql, tl = _central_binomial_binsplit(a, m)
    pr, qr, tr = _central_binomial_binsplit(m, b)
    return pl * pr, ql * qr, tl * qr + pl * tr


def _central_binomial_reference(digits: int) -> Enclosure:
    """(5/2)[S_K, S_K + t_{K+1}], unrounded, with |(5/2) t_{K+1}| <= 10**-digits."""
    # t_1 = 1/2; over [1, K+1) S_K = (Q + T - P)/2Q and t_{K+1} = P/2Q
    p, q, t = _central_binomial_binsplit(1, 1661 * digits // 1000 + 3)
    ends = (5 * (q + t - p), 5 * (q + t))
    return Enclosure(min(ends), max(ends), 4 * q)


def _fields(enc: Enclosure) -> tuple[int, int, int]:
    return enc.lo_num, enc.hi_num, enc.den


def test_accelerated_first_partial_brackets_from_above():
    # one term: S_0 = 77/64, next term -532/(64*7776); [S_1, S_0] brackets zeta(3)
    s, t_next, den = _partial_sum(0)
    assert F(s, den) == F(77, 64)
    assert F(t_next, den) == F(-532, 64 * 7776)
    assert zeta3_accelerated(10).hi < F(77, 64)
    assert zeta3_accelerated(10).lo > F(77, 64) - F(532, 64 * 7776)


# 2001 and 6000 digits check the Decimal bracket against the reference's
# exact floor division at a 32k-bit and a 96k-bit quotient; the splitting
# runs in one process below _FORK_DIGITS and in two from there on.
@given(st.integers(min_value=1, max_value=300))
@example(2001)
@example(zmod._FORK_DIGITS - 1)
@example(zmod._FORK_DIGITS)
@example(6000)
@example(20000)
@settings(max_examples=40, deadline=None)
def test_accelerated_matches_int_reference(digits):
    assert _fields(zeta3_accelerated(digits)) == _fields(_reference_accelerated(digits))


# Rounded onto the same 2**-budget_bits(digits) grid, the central-binomial
# bracket holds the accelerated enclosure at every size measured (1..3000,
# 6000, 20000): a bug in either series breaks the containment. Unrounded, the
# bracket is narrower than one step of that grid below about 20 digits, so
# the accelerated enclosure overhangs it at 1..17 and 20 digits, and lies
# inside it from 21 digits on.
@given(st.integers(min_value=1, max_value=300))
@example(2001)
@example(6000)
@example(20000)
@settings(max_examples=40, deadline=None)
def test_accelerated_lies_inside_the_central_binomial_bracket(digits):
    reference = _central_binomial_reference(digits)
    assert reference.width() <= F(1, 10**digits)
    enc = zeta3_accelerated(digits)
    assert reference.round_out(budget_bits(digits)).encloses(enc)
    if digits > 20:
        assert reference.encloses(enc)


@pytest.mark.parametrize("guard, sizes", [(40, (3, 60, 2001)), (0, (6, 6000))])
def test_accelerated_ignores_the_callers_decimal_context(monkeypatch, guard, sizes):
    # A 5-digit context that rounds silently would corrupt any operation that
    # fell back on it. Without guard digits the exact fallback runs too.
    monkeypatch.setattr(zmod, "_GUARD_DIGITS", guard)
    with decimal.localcontext(prec=5, traps=[]):
        got = [_fields(zeta3_accelerated(d)) for d in sizes]
    assert got == [_fields(_reference_accelerated(d)) for d in sizes]


# -- the upper part of the splitting in a forked child -------------------------


def _assert_no_unreaped_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_child_is_forked_from_the_threshold_on_and_reaped(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    zeta3_accelerated(zmod._FORK_DIGITS - 1)
    assert forks == []
    zeta3_accelerated(zmod._FORK_DIGITS)
    assert forks == [1]
    _assert_no_unreaped_child()


def test_a_fault_in_the_child_alone_is_an_internal_error(monkeypatch, capsys):
    parent, exact = os.getpid(), zmod._binsplit

    def faulty(a: int, b: int):
        if os.getpid() != parent:
            raise ArithmeticError("planted in the child")
        return exact(a, b)

    monkeypatch.setattr(zmod, "_binsplit", faulty)
    zeta3.cache_clear()
    try:
        code = cli.main(["zeta3", "--digits", "20000", "--quiet"])
    finally:
        zeta3.cache_clear()
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert len(err.splitlines()) == 1 and "internal error" in err
    _assert_no_unreaped_child()


@pytest.mark.parametrize("failing", ["pipe", "fork"])
def test_no_pipe_or_no_process_sums_in_one_process(monkeypatch, failing):
    pipes, pipe = [], os.pipe

    def spy_pipe():
        pipes.extend(pipe())
        return pipes[-2:]

    def refuse():
        raise OSError("planted")

    monkeypatch.setattr(os, "pipe", spy_pipe)
    monkeypatch.setattr(os, failing, refuse)
    digits = zmod._FORK_DIGITS
    assert _fields(zeta3_accelerated(digits)) == _fields(_reference_accelerated(digits))
    for fd in pipes:  # a pipe made before fork failed is closed again
        with pytest.raises(OSError):
            os.fstat(fd)
    _assert_no_unreaped_child()


@pytest.mark.parametrize("why", ["no fork", "another thread"])
def test_one_process_without_fork_or_beside_a_thread(monkeypatch, why):
    # every attempt at a child starts with its pipe
    attempts, pipe = [], os.pipe
    monkeypatch.setattr(os, "pipe", lambda: attempts.append(1) or pipe())
    release = threading.Event()
    worker = threading.Thread(target=release.wait, args=(30,))
    if why == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        worker.start()
    try:
        digits = zmod._FORK_DIGITS
        got = _fields(zeta3_accelerated(digits))
    finally:
        release.set()
        if worker.ident is not None:
            worker.join(timeout=30)
    assert not worker.is_alive()
    assert attempts == []
    assert got == _fields(_reference_accelerated(digits))



def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie, from /proc/<pid>/stat."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="ascii")
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_the_child_exits_when_its_parent_dies(tmp_path):
    # The parent forks a child onto a range it would take hours to sum, then
    # dies without unwinding; the closed lifeline must end the child. Output
    # goes to a file: the child inherits it, and a pipe would stay open.
    source = (
        "import os\n"
        "from zeta3forms.zeta3 import _fork_binsplit\n"
        "pid, pipe, lifeline = _fork_binsplit(0, 10**8)\n"
        "print(pid, flush=True)\n"
        "os._exit(0)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(zmod.__file__).parent.parent) + os.pathsep + env.get("PYTHONPATH", "")
    out = tmp_path / "out.txt"
    with out.open("w", encoding="ascii") as f:
        rc = subprocess.run([sys.executable, "-c", source], stdout=f, stderr=f, env=env, timeout=60).returncode
    text = out.read_text(encoding="ascii")
    assert rc == 0, text
    child = int(text)
    deadline = time.monotonic() + 5
    while _running(child) and time.monotonic() < deadline:
        time.sleep(0.01)
    if _running(child):
        os.kill(child, 9)
        pytest.fail(f"child {child} still ran 5 s after its parent died")

def test_exact_context_raises_instead_of_rounding():
    exact = zmod._EXACT
    assert all(exact.traps[s] for s in (decimal.Inexact, decimal.Rounded, decimal.InvalidOperation))
    with pytest.raises(decimal.Inexact):
        exact.to_integral_exact(decimal.Decimal("2.5"))
    # The same traps at a reachable precision: 1/3 is not rounded silently.
    # (At MAX_PREC itself libmpdec cannot allocate the quotient and raises
    # MemoryError, which is no way to test a trap.)
    narrow = exact.copy()
    narrow.prec = 5
    with pytest.raises(decimal.Inexact):
        narrow.divide(1, 3)
    with pytest.raises(decimal.Inexact):
        narrow.multiply(123456, 7)


# With the default 40 guard digits the bracket decides every endpoint; with
# none, both brackets straddle an integer at 6 and 6000 digits, so the exact
# divmod gives both endpoints, first the floor, then the ceiling.
@pytest.mark.parametrize(
    "guard, digits, fallbacks",
    [(40, 1, []), (40, 60, []), (40, 2001, []), (40, 6000, []), (0, 6, [False, True]), (0, 6000, [False, True])],
)
def test_exact_fallback_runs_only_when_the_bracket_straddles(monkeypatch, guard, digits, fallbacks):
    calls = []
    exact_round = zmod._exact_round

    def spy(n, scale, den, ceiling):
        calls.append(ceiling)
        return exact_round(n, scale, den, ceiling)

    monkeypatch.setattr(zmod, "_exact_round", spy)
    monkeypatch.setattr(zmod, "_GUARD_DIGITS", guard)
    got = _fields(zeta3_accelerated(digits))
    assert calls == fallbacks
    assert got == _fields(_reference_accelerated(digits))


@given(
    st.integers(min_value=1, max_value=10**60),
    st.integers(min_value=0, max_value=10**60),
    st.integers(min_value=1, max_value=10**60),
    st.integers(min_value=1, max_value=300),
    st.sampled_from([0, 40]),
)
@example(3, 0, 3, 4, 40)  # 3 * 2**4 / 3 = 16 exactly: floor and ceiling are both 16
@settings(max_examples=200, deadline=None)
def test_round_out_matches_int_floor_and_ceiling(lo, extra, den, bits, guard):
    hi = lo + extra
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zmod, "_GUARD_DIGITS", guard)
        got = zmod._round_out(decimal.Decimal(lo), decimal.Decimal(hi), decimal.Decimal(den), bits)
    assert got == ((lo << bits) // den, -((-hi << bits) // den))


@given(
    st.integers(min_value=1, max_value=10**80),
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=50),
)
@example(10**6 + 1, 1, 1)
@example(999, 20, 1)
# RU(den) = 2e6 and RD(2**84 / 1e6) = 1e19 each lose almost a unit in the last
# place: 2**85 / den ~ 3.87e19 exceeds r_down (1 + 2e) = 3e19, so the bound
# needs the e**2 term of (1 + e)**2.
@example(10**6 + 1, 85, 1)
@settings(max_examples=300, deadline=None)
def test_reciprocals_bound_the_quotient_from_both_sides(den, bits, prec):
    down = zmod._context(prec, decimal.ROUND_FLOOR, [decimal.InvalidOperation])
    up = zmod._context(prec, decimal.ROUND_CEILING, [decimal.InvalidOperation])
    r_down, r_up = zmod._reciprocals(zmod._EXACT.power(2, bits), decimal.Decimal(den), down, up)
    (p_down, q_down), (p_up, q_up) = r_down.as_integer_ratio(), r_up.as_integer_ratio()
    # r_down <= 2**bits / den <= r_up, cross-multiplied in integers
    assert p_down * den <= q_down << bits
    assert q_up << bits <= p_up * den
    # and r_up stays close: RU(r_down (1 + 3e)) <= r_down (1 + 3e)(1 + e) <= r_down (1 + 7e)
    assert p_up * q_down * 10 ** (prec - 1) <= p_down * q_up * (10 ** (prec - 1) + 7)


def test_round_out_rejects_a_non_positive_endpoint():
    one = decimal.Decimal(1)
    with pytest.raises(ArithmeticError, match="not positive"):
        zmod._round_out(decimal.Decimal(0), one, one, 16)


def test_accelerated_matches_direct():
    assert overlaps(zeta3_accelerated(15), zeta3_direct(15))


def _scaled_term(k: int) -> Fraction:
    """|t_k| / 64 from the factorial form (k!)^10 a(k) / (64 ((2k+1)!)^5)."""
    return F(math.factorial(k) ** 10 * (205 * k * k + 250 * k + 77), 64 * math.factorial(2 * k + 1) ** 5)


def test_accelerated_term_bound_holds_term_by_term():
    # the module docstring's lemma: |t_k| / 64 <= 8.32 * 1024^-k for k >= 1
    for k in range(1, 301):
        assert _scaled_term(k) <= F(832, 100) / 1024**k, k


@pytest.mark.parametrize("digits", [1, 2, 3, 4, 5, 17, 60, 333, 2000])
def test_accelerated_term_count_is_rigorous(digits):
    # the closed-form term count K = digits // 3 + 2 must leave the omitted
    # |t_{K+1}| / 64 <= 10^-digits, checked on the exact factorial form
    assert _scaled_term(digits // 3 + 3) <= F(1, 10**digits)
    assert zeta3_accelerated(digits).width() <= F(1, 10**digits)


@given(st.integers(min_value=1, max_value=300))
@settings(max_examples=20, deadline=None)
def test_accelerated_width_contract(digits):
    enc = zeta3_accelerated(digits)
    assert enc.width() <= F(1, 10**digits)
    assert _contains_true_value(enc)


@pytest.mark.parametrize("digits", [2, 5, 10, 50, 200, 1000])
def test_cross_methods_intersect(digits):
    enc = zeta3(digits)
    assert enc.width() <= F(1, 10**digits)
    assert _contains_true_value(enc)


def test_cross_six_digits_example():
    enc = zeta3(6)
    assert enc.width() <= F(1, 10**6)
    assert _contains_true_value(enc)


def test_cross_one_digit_example():
    enc = zeta3(1)
    assert enc.width() <= F(1, 10)
    assert _contains_true_value(enc)


def test_rejects_bad_digits():
    for fn in (zeta3, zeta3_accelerated):
        with pytest.raises(ValueError):
            fn(0)


def test_disjoint_methods_raise(monkeypatch):
    shifted = Enclosure(2 * 10**12, 2 * 10**12 + 1, 10**12)
    monkeypatch.setattr(zmod, "apery_bracket", lambda N: shifted)
    zeta3.cache_clear()  # an enclosure cached earlier would hide the disagreement
    try:
        with pytest.raises(DisjointEnclosures):
            zmod.zeta3(9)
    finally:
        zeta3.cache_clear()


@pytest.mark.parametrize("digits", [13, 600, 999, 1000])
def test_a_series_off_by_a_few_widths_is_caught(monkeypatch, digits):
    # AZ moved by 4 of its own widths is off by far less than 10**-12, and
    # Apery's bracket at min(digits, 1000) digits still misses it.
    exact = zmod.zeta3_accelerated

    def shifted(d: int) -> Enclosure:
        enc = exact(d)
        step = 4 * (enc.hi_num - enc.lo_num)
        return Enclosure(enc.lo_num + step, enc.hi_num + step, enc.den)

    monkeypatch.setattr(zmod, "zeta3_accelerated", shifted)
    zeta3.cache_clear()
    try:
        with pytest.raises(DisjointEnclosures):
            zmod.zeta3(digits)
    finally:
        zeta3.cache_clear()


@pytest.mark.parametrize("digits", [1, 2, 3, 12, 13, 60, 230, 999, 1000, 1001, 2000, 20000])
def test_the_cross_check_bracket_is_narrow_and_true(monkeypatch, digits):
    # the bracket zeta3 checks against: narrower than 10**-min(digits, 1000),
    # meeting AZ, and holding the central-binomial oracle's value
    exact, brackets = zmod.apery_bracket, []

    def spy(N: int) -> Enclosure:
        brackets.append(exact(N))
        return brackets[-1]

    monkeypatch.setattr(zmod, "apery_bracket", spy)
    zeta3.cache_clear()
    try:
        fast = zmod.zeta3(digits)
    finally:
        zeta3.cache_clear()
    (check,) = brackets
    cap = min(digits, 1000)
    assert check.width() < F(1, 10**cap)
    assert overlaps(check, fast)
    assert check.encloses(_central_binomial_reference(2 * cap + 10))


def _directed_tail_sum(k_first: int, count: int, bits: int = 100) -> tuple[Fraction, Fraction]:
    unit = 1 << bits
    acc = 0
    for k in range(k_first, k_first + count):
        acc += unit // (k * k * k)
    return F(acc, unit), F(acc + count, unit)


@pytest.mark.parametrize("K", [10, 100])
def test_direct_tail_bracket_is_rigorous(K):
    # sum_{k>K} k^-3 truncated to 10^6 terms lies strictly inside
    # (1/(2(K+1)^2), 1/(2K^2))
    lo, hi = _directed_tail_sum(K + 1, 10**6)
    assert F(1, 2 * (K + 1) ** 2) < lo
    assert hi < F(1, 2 * K**2)
