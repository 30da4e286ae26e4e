from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zeta3forms import bounds
from zeta3forms.beukers import linear_form
from zeta3forms.bounds import (
    CheckResult,
    CheckStatus,
    EnclosureLost,
    decay_table,
    deciding_rungs,
    form_abs_enclosure,
    ratio_enclosure,
    refinement_digits,
    rhs_bound,
    sandwich_status,
    shrink_enclosure,
    unit_pair,
    verify_form_bound,
    verify_ratio_bound,
)
from zeta3forms.cli import EXIT_UNKNOWN, main
from zeta3forms.exactnum import DIGITS_CACHE_SIZE, Enclosure, sqrt2_enclosure
from zeta3forms.zeta3 import zeta3, zeta3_accelerated, zeta3_direct

F = Fraction

# Oracle-computed reference brackets (60-digit independent evaluation).
ABS_I1 = (F("0.0205690315959428539"), F("0.0205690315959428540"))
RHS_1 = (F("0.0707705028061968769"), F("0.0707705028061968770"))
ABS_I2 = (F("0.000307861300765668361"), F("0.000307861300765668362"))
RHS_2 = (F("0.00208328909150524547"), F("0.00208328909150524548"))
T_5 = (F("0.0114787624115591973"), F("0.0114787624115591974"))
T_10 = (F("0.0000187987612113280265"), F("0.0000187987612113280266"))
T_50 = (F("1.99297290334789728e-12"), F("1.99297290334789729e-12"))


def _within(enc: Enclosure, bracket: tuple[Fraction, Fraction]) -> bool:
    lo, hi = bracket
    return lo <= enc.lo and enc.hi <= hi


# -- the single sqrt(2) dependency --------------------------------------------


def test_unit_pair_base_identity():
    # (sqrt(2)-1)^4 = 17 - 12*sqrt(2), expanded exactly
    assert unit_pair(1) == (17, -12)
    assert unit_pair(0) == (1, 0)


def test_unit_pair_multiplicative():
    def mul(x, y):
        return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    for n in range(1, 60):
        assert unit_pair(n + 1) == mul(unit_pair(n), unit_pair(1))


def test_shrink_enclosure_always_positive():
    # the algebraic bracket keeps the enclosure positive even at 1 digit
    for digits in (1, 2, 5):
        for n in (1, 5, 20, 50):
            enc = shrink_enclosure(n, digits)
            assert enc.lo > 0
            assert F(1, 34**n) <= enc.lo and enc.hi <= F(1, 33**n)


def test_shrink_enclosure_contains_true_value():
    # a + b*sqrt(2) with b < 0; a much tighter bracket of the same value must
    # meet the coarser enclosure
    s2 = sqrt2_enclosure(40)
    for n in (1, 2, 7):
        a, b = unit_pair(n)
        tight = Enclosure(a + b * s2.hi, a + b * s2.lo)
        enc = shrink_enclosure(n, 20)
        assert tight.width() < enc.width()
        assert enc.intersect(tight) is not None


def test_shrink_enclosure_raises_when_sqrt2_enclosure_misses(monkeypatch):
    # 17 - 12 * 3/2 = -1 lies outside the algebraic bracket (1/34, 1/33);
    # a raised error, unlike an assert, survives python -O
    monkeypatch.setattr(bounds, "sqrt2_enclosure", lambda digits: Enclosure.point(F(3, 2)))
    shrink_enclosure.cache_clear()
    try:
        with pytest.raises(EnclosureLost):
            shrink_enclosure(1, 20)
    finally:
        monkeypatch.undo()
        shrink_enclosure.cache_clear()
    assert shrink_enclosure(1, 20).lo > 0


def test_rhs_bound_value():
    assert _within(rhs_bound(1, 30), RHS_1)
    assert _within(rhs_bound(2, 30), RHS_2)


def test_rhs_bound_rejects_bad_n():
    with pytest.raises(ValueError):
        rhs_bound(0, 10)


# -- verification -----------------------------------------------------------------


def test_verify_form_bound_n1():
    res = verify_form_bound(1, 30)
    assert res.status is CheckStatus.HOLDS
    assert _within(res.lhs, ABS_I1)
    assert _within(res.rhs, RHS_1)
    assert res.digits_used == 30


def test_verify_form_bound_n2():
    res = verify_form_bound(2, 30)
    assert res.status is CheckStatus.HOLDS
    assert _within(res.lhs, ABS_I2)
    assert _within(res.rhs, RHS_2)


def test_ratio_bound_n1_value():
    # R_1 = |I_1| / (2 (sqrt(2)-1)^4) ~ 0.34937
    res = verify_ratio_bound(1, 30)
    assert res.status is CheckStatus.HOLDS
    assert _within(res.lhs, (F("0.3493707892526928118"), F("0.3493707892526928119")))


def test_one_digit_request_still_resolves():
    # the series enclosures overshoot their width contracts, so n=1 resolves
    # even from a 1-digit request
    refined = verify_form_bound(1, 1)
    assert refined.status is CheckStatus.HOLDS


def test_unknown_then_refined_at_high_n():
    # beta_50 ~ 1e74 amplifies the zeta(3) width, so 20 digits cannot
    # separate the enclosures; the retry loop must escalate
    single = sandwich_status(form_abs_enclosure(50, 20), rhs_bound(50, 20))
    assert single is CheckStatus.UNKNOWN
    refined = verify_form_bound(50, 20)
    assert refined.status is CheckStatus.HOLDS
    assert refined.digits_used > 20


def test_verify_rejects_bad_args():
    with pytest.raises(ValueError):
        verify_form_bound(0, 10)
    with pytest.raises(ValueError):
        verify_ratio_bound(1, 0)


def test_both_checks_hold_and_agree_up_to_20():
    for n in range(1, 21):
        fb = verify_form_bound(n, 40)
        rb = verify_ratio_bound(n, 40)
        assert fb.status is CheckStatus.HOLDS
        assert rb.status is CheckStatus.HOLDS


def test_sandwich_status_classification():
    holds = sandwich_status(Enclosure(1, 2), Enclosure(3, 4))
    fails_above = sandwich_status(Enclosure(5, 6), Enclosure(3, 4))
    fails_zero = sandwich_status(Enclosure(-1, 0), Enclosure(3, 4))
    unknown = sandwich_status(Enclosure(1, 3), Enclosure(2, 4))
    unknown_sign = sandwich_status(Enclosure(0, 1), Enclosure(2, 4))
    assert holds is CheckStatus.HOLDS
    assert fails_above is CheckStatus.FAILS
    assert fails_zero is CheckStatus.FAILS
    assert unknown is CheckStatus.UNKNOWN
    assert unknown_sign is CheckStatus.UNKNOWN


# The audit reports sandwich_status(R_n, zeta(3)) for every power step
# 0 < R_n^k < zeta(3)^k. That rests on this lemma: for a >= 0 and b > 0,
# x -> x^k keeps every comparison, so the status of (a**k, b**k) is that of
# (a, b). Each example is (a, b, status) as from_parts fields; they include
# a = [0, 0], a = [0, h], and a touching b from below (UNKNOWN) and from
# above (FAILS).
POWER_LEMMA_EXAMPLES = [
    ((0, 0, 1), (1, 2, 1), CheckStatus.FAILS),
    ((0, 3, 4), (1, 2, 1), CheckStatus.UNKNOWN),
    ((0, 5, 2), (1, 2, 1), CheckStatus.UNKNOWN),
    ((1, 3, 4), (1, 2, 1), CheckStatus.HOLDS),
    ((1, 2, 2), (1, 2, 1), CheckStatus.UNKNOWN),
    ((3, 5, 2), (1, 2, 1), CheckStatus.UNKNOWN),
    ((2, 3, 1), (1, 2, 1), CheckStatus.FAILS),
    ((7, 9, 3), (4, 5, 6), CheckStatus.FAILS),
]


def _status_of_every_power(a: Enclosure, b: Enclosure) -> CheckStatus:
    status = sandwich_status(a, b)
    for k in range(1, 7):
        assert sandwich_status(a**k, b**k) is status, (a, b, k)
    return status


@pytest.mark.parametrize(("a", "b", "status"), POWER_LEMMA_EXAMPLES)
def test_powers_keep_the_sandwich_status_on_examples(a, b, status):
    assert _status_of_every_power(Enclosure.from_parts(*a), Enclosure.from_parts(*b)) is status


@st.composite
def _enclosures_from(draw, lo_min: int) -> Enclosure:
    lo = draw(st.integers(lo_min, 60))
    return Enclosure.from_parts(lo, draw(st.integers(lo, 120)), draw(st.integers(1, 30)))


@given(_enclosures_from(0), _enclosures_from(1))
def test_powers_keep_the_sandwich_status(a, b):
    _status_of_every_power(a, b)


# -- decay -------------------------------------------------------------------------


def test_decay_table_spot_values():
    rows = decay_table(10, 60)
    assert [row.n for row in rows] == list(range(1, 11))
    assert rows[0].dn == 1
    assert rows[4].dn == 60
    assert rows[9].dn == 2520
    assert _within(rows[0].t_n, RHS_1)  # T_1 = rhs since d_1 = 1
    assert _within(rows[4].t_n, T_5)
    assert _within(rows[9].t_n, T_10)


def test_decay_monotone_form_decrease():
    # beta_50*10^-170 ~ 1e-96 leaves ample room below |I_50| ~ 1e-79
    encs = [form_abs_enclosure(n, 170) for n in range(1, 51)]
    for cur, nxt in zip(encs, encs[1:]):
        assert nxt.hi < cur.lo


def test_t50_certified_below_1e_minus_10():
    rows = decay_table(50, 220)
    last = rows[-1]
    assert last.dn == 3099044504245996706400
    assert last.t_n.hi < F(1, 10**10)
    assert _within(last.t_n, T_50)


def test_decay_rejects_bad_args():
    with pytest.raises(ValueError):
        decay_table(0, 10)
    with pytest.raises(ValueError):
        decay_table(5, 0)


def test_ratio_enclosure_strictly_inside_unit():
    for n in (1, 3, 9):
        enc = ratio_enclosure(n, 40)
        assert 0 < enc.lo and enc.hi < 1


def test_digit_keyed_caches_stay_bounded():
    caches = (
        ratio_enclosure,
        shrink_enclosure,
        form_abs_enclosure,
        unit_pair,
        linear_form,
        zeta3,
        zeta3_direct,
        zeta3_accelerated,
        sqrt2_enclosure,
    )
    assert all(fn.cache_info().maxsize == DIGITS_CACHE_SIZE for fn in caches)
    # more distinct (n, digits) keys than the cache holds, and as many digit counts
    for i in range(DIGITS_CACHE_SIZE + 20):
        shrink_enclosure(1 + i % 5, 10 + i)
    assert shrink_enclosure.cache_info().currsize <= DIGITS_CACHE_SIZE
    assert sqrt2_enclosure.cache_info().currsize <= DIGITS_CACHE_SIZE


def test_n_keyed_caches_stay_bounded_in_a_long_verify(capsys):
    assert main(["verify", "--n-max", "300", "--csv", "--quiet"]) == EXIT_UNKNOWN
    capsys.readouterr()
    caches = (linear_form, unit_pair, form_abs_enclosure, ratio_enclosure, shrink_enclosure)
    sizes = {fn.__name__: fn.cache_info().currsize for fn in caches}
    assert max(sizes.values()) <= DIGITS_CACHE_SIZE, sizes
    assert sizes["linear_form"] == DIGITS_CACHE_SIZE  # 300 forms were built


# -- the skip of rungs that cannot decide -----------------------------------------


def _full_ladder(n: int, digits: int, sides) -> CheckResult:
    """How _check_sandwich decided before it skipped rungs: every rung of the
    ladder is built and compared until one decides."""
    for dd in refinement_digits(digits):
        lhs, rhs = sides(dd)
        status = sandwich_status(lhs, rhs)
        if status is not CheckStatus.UNKNOWN:
            break
    return CheckResult(n=n, lhs=lhs, rhs=rhs, status=status, digits_used=dd)


def _outcome(res: CheckResult) -> tuple:
    return (
        res.status,
        res.digits_used,
        (res.lhs.lo_num, res.lhs.hi_num, res.lhs.den),
        (res.rhs.lo_num, res.rhs.hi_num, res.rhs.den),
    )


@pytest.mark.parametrize("digits", [1, 7, 30])
def test_skipping_rungs_matches_the_full_ladder(digits):
    # At each of these digit counts the sweep holds rows decided at the first
    # rung, rows decided higher up after skipped rungs, and rows still unknown
    # at the last rung, where every earlier rung was skipped.
    skipped = 0
    for n in range(1, 251):
        form = _full_ladder(n, digits, lambda dd: (form_abs_enclosure(n, dd), rhs_bound(n, dd)))
        ratio = _full_ladder(n, digits, lambda dd: (ratio_enclosure(n, dd), zeta3(dd)))
        assert _outcome(verify_form_bound(n, digits)) == _outcome(form), n
        assert _outcome(verify_ratio_bound(n, digits)) == _outcome(ratio), n
        skipped += len(list(refinement_digits(digits))) - len(list(deciding_rungs(n, digits)))
    assert skipped > 0


def test_deciding_rungs_skip_an_enclosure_touching_zero(monkeypatch):
    monkeypatch.setattr(bounds, "form_abs_enclosure", lambda n, digits: Enclosure.from_parts(0, 1, digits))
    # [0, h] with h > 0 cannot decide, but the last rung is always evaluated
    assert list(deciding_rungs(3, 10)) == [160]
    res = verify_form_bound(3, 10)
    assert (res.status, res.digits_used, res.lhs) == (CheckStatus.UNKNOWN, 160, Enclosure(0, F(1, 160)))


def test_deciding_rungs_keep_an_enclosure_that_is_exactly_zero(monkeypatch):
    # |I_n| enclosed by the point 0 decides at once: 0 < 0 fails
    monkeypatch.setattr(bounds, "form_abs_enclosure", lambda n, digits: Enclosure.point(0))
    assert list(deciding_rungs(3, 10)) == list(refinement_digits(10))
    ratio_enclosure.cache_clear()
    try:
        for check in (verify_form_bound, verify_ratio_bound):
            res = check(3, 10)
            assert (res.status, res.digits_used) == (CheckStatus.FAILS, 10)
    finally:
        ratio_enclosure.cache_clear()  # drop the R_3 built from the stub


def test_verify_builds_each_check_once_from_cold_caches(capsys, monkeypatch):
    # Every check of verify --n-max 200 builds its lhs and rhs only at the
    # deciding rungs up to the one it ends on. All but one end on the first
    # of them, so each is built once: the form check of n = 14 is unknown at
    # 30 digits, where |I_14| clears zero and its ratio check holds, and
    # holds at 60.
    for cached in (ratio_enclosure, shrink_enclosure, form_abs_enclosure, zeta3):
        cached.cache_clear()
    rhs_calls = []

    def counted_rhs_bound(n, digits):
        rhs_calls.append((n, digits))
        return rhs_bound(n, digits)

    monkeypatch.setattr(bounds, "rhs_bound", counted_rhs_bound)
    assert main(["verify", "--n-max", "200", "--csv", "--quiet"]) == EXIT_UNKNOWN
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    ratio_builds, shrink_builds = ratio_enclosure.cache_info().misses, shrink_enclosure.cache_info().misses

    def built(column: int) -> list[tuple[int, int]]:
        """(n, rung) of each deciding rung up to the one the check ended on."""
        return [(n, dd) for n, row in enumerate(rows, 1) for dd in deciding_rungs(n, 30) if dd <= int(row[column])]

    assert rhs_calls == built(5)
    assert ratio_builds == len(built(6))
    assert shrink_builds == len(set(built(5)) | set(built(6)))
    assert (len(rhs_calls), ratio_builds, shrink_builds) == (201, 200, 201)
