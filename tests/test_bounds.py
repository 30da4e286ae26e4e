from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import abs_, enclosure_of, growth_fields, overlaps, width
from zeta3forms import bounds
from zeta3forms.beukers import linear_form
from zeta3forms.bounds import (
    CheckStatus,
    _growth_enclosure,
    decay_table,
    form_abs_enclosure,
    ratio_enclosure,
    rhs_bound,
    sandwich_status,
    verify_form_bound,
    verify_ratio_bound,
)
from zeta3forms.chain import CoeffVector, _audit_once, audit
from zeta3forms.cli import EXIT_OK, main
from zeta3forms.exactnum import DIGITS_CACHE_SIZE, Enclosure
from zeta3forms.zeta3 import zeta3

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


def _zeta3_route_form_abs(n: int, digits: int) -> Enclosure:
    """|A_n + B_n*zeta(3)| / d_n^3 from the certified zeta(3) enclosure: the
    oracle route, which loses about 3.07n digits to cancellation."""
    form = linear_form(n)
    return abs_((zeta3(digits) * form.B + form.A) / form.dn3)


# -- (17+12*sqrt(2))^n, the single sqrt(2) dependency ---------------------


def unit_pair(n: int, digits: int = 1) -> tuple[int, int]:
    """(a, c) with (17+12*sqrt(2))^n = a + c*sqrt(2), read back from the fields
    of _growth_enclosure(n, digits) = [r*c + a*s, (r+1)*c + a*s] / s."""
    g = _growth_enclosure(n, digits)
    c = g.hi_num - g.lo_num
    a, rem = divmod(g.lo_num - isqrt(2 * g.den**2) * c, g.den)
    assert rem == 0 and g.den == 10**digits
    return a, c


def test_unit_pair_base_identity():
    # (sqrt(2)-1)^-4 = 17 + 12*sqrt(2), expanded exactly
    assert unit_pair(1) == (17, 12)
    assert unit_pair(0) == (1, 0)


def test_unit_pair_multiplicative():
    def mul(x, y):
        return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    for n in range(1, 60):
        pair = unit_pair(n + 1)
        assert pair == mul(unit_pair(n), unit_pair(1)) == unit_pair(n + 1, 30)
        assert pair[0] ** 2 - 2 * pair[1] ** 2 == 1  # a unit of Z[sqrt(2)]: Pell's equation


@pytest.mark.parametrize("digits", [1, 2, 3, 30, 60, 230, 960, 2500])
def test_growth_enclosure_matches_the_stepwise_reference(digits):
    ref = growth_fields(300, digits)
    for n in range(301):
        g = _growth_enclosure(n, digits)
        assert (g.lo_num, g.hi_num, g.den) == ref[n], (n, digits)


def test_growth_enclosure_rejects_a_negative_power():
    # digits < 1 is test_exactnum.test_sqrt2_rejects_bad_digits
    with pytest.raises(ValueError):
        _growth_enclosure(-1, 10)


def test_shrink_enclosure_always_positive():
    # 1/(a + c sqrt(2)) has no cancellation, so it is positive even at 1 digit
    for digits in (1, 2, 5):
        for n in (1, 5, 20, 50):
            enc = _growth_enclosure(n, digits).reciprocal()
            assert enc.lo > 0
            assert width(enc) < enc.lo / 10**digits


def test_shrink_enclosure_contains_true_value():
    # (sqrt(2)-1)^(4n) = a - c*sqrt(2) loses about 1.53n digits to
    # cancellation, so at 60 digits it is a much tighter bracket of the same
    # value for these n, and it must meet the coarser enclosure
    scale = 10**60
    root = isqrt(2 * scale * scale)
    for n in (1, 2, 7):
        a, c = unit_pair(n)
        tight = enclosure_of(F(a * scale - c * (root + 1), scale), F(a * scale - c * root, scale))
        enc = _growth_enclosure(n, 20).reciprocal()
        assert width(tight) < width(enc)
        assert overlaps(enc, tight)


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


def test_unknown_then_refined_at_high_n(ratio_touches_zero):
    # verify decides at the requested digits: beta_50 ~ 1e74 would amplify a
    # 20-digit zeta(3) width past |I_50| ~ 1e-79, but the convergent route
    # has relative width 1e-20 at every n
    assert sandwich_status(_zeta3_route_form_abs(50, 20), rhs_bound(50, 20)) is CheckStatus.UNKNOWN
    res = verify_form_bound(50, 20)
    assert (res.status, res.digits_used) == (CheckStatus.HOLDS, 20)
    # so does the audit: R_50 ~ 1e-70 is rounded onto a grid relative to its
    # size, so the power steps hold at 3 digits
    vector = CoeffVector((-6, 5))
    natural = audit(50, vector, 3)
    assert (natural.step("power_1").numeric, natural.digits_used) == (CheckStatus.HOLDS, 3)
    # with R_50 at [0, h] below 12 digits, the ladder climbs until the power
    # steps decide
    ratio_touches_zero(12)
    assert _audit_once(50, vector, 3).step("power_1").numeric is CheckStatus.UNKNOWN
    refined = audit(50, vector, 3)
    assert (refined.step("power_1").numeric, refined.digits_used) == (CheckStatus.HOLDS, 12)


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
# (a, b). On such enclosures x**k is [lo_num**k, hi_num**k] / den**k, as
# chain._audit_once states. Each example is (a, b, status) as Enclosure
# fields; they include a = [0, 0], a = [0, h], and a touching b from below
# (UNKNOWN) and from above (FAILS).
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
        a_k = Enclosure(a.lo_num**k, a.hi_num**k, a.den**k)
        b_k = Enclosure(b.lo_num**k, b.hi_num**k, b.den**k)
        assert sandwich_status(a_k, b_k) is status, (a, b, k)
    return status


@pytest.mark.parametrize(("a", "b", "status"), POWER_LEMMA_EXAMPLES)
def test_powers_keep_the_sandwich_status_on_examples(a, b, status):
    assert _status_of_every_power(Enclosure(*a), Enclosure(*b)) is status


@st.composite
def _enclosures_from(draw, lo_min: int) -> Enclosure:
    lo = draw(st.integers(lo_min, 60))
    return Enclosure(lo, draw(st.integers(lo, 120)), draw(st.integers(1, 30)))


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
    # |I_n| shrinks by about 34x per step, far above a relative width of 1e-170
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


def test_bounds_records_are_immutable_tuples():
    check = verify_form_bound(2, 20)
    row = decay_table(2, 20)[-1]
    form = linear_form(2)
    for record in (check, row, form):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None  # no instance dict
    assert check == tuple(check) and check._fields[-1] == "digits_used"
    assert row._fields == ("n", "dn", "form_abs", "rhs", "ratio", "t_n")
    assert (form.n, form.alpha) == (2, F(form.A, form.dn3))


def test_digit_keyed_caches_stay_bounded():
    caches = (
        ratio_enclosure,
        form_abs_enclosure,
        _growth_enclosure,
        zeta3,
    )
    assert all(fn.cache_info().maxsize == DIGITS_CACHE_SIZE for fn in caches)
    # more distinct (n, digits) keys than the cache holds, and as many digit counts
    for i in range(DIGITS_CACHE_SIZE + 20):
        ratio_enclosure(1 + i % 5, 10 + i)
    assert ratio_enclosure.cache_info().currsize <= DIGITS_CACHE_SIZE
    assert _growth_enclosure.cache_info().currsize <= DIGITS_CACHE_SIZE


def test_n_keyed_caches_stay_bounded_in_a_long_verify(capsys):
    assert main(["verify", "--n-max", "300", "--csv", "--quiet"]) == EXIT_OK
    capsys.readouterr()
    caches = (_growth_enclosure, form_abs_enclosure, ratio_enclosure)
    sizes = {fn.__name__: fn.cache_info().currsize for fn in caches}
    assert max(sizes.values()) <= DIGITS_CACHE_SIZE, sizes
    assert sizes["form_abs_enclosure"] == DIGITS_CACHE_SIZE  # 300 forms were built


# -- one evaluation per check ------------------------------------------------------


@pytest.mark.parametrize("digits", [1, 2, 7, 30, 200])
def test_form_abs_relative_width_is_below_the_requested_digits(digits):
    for n in (1, 2, 3, 10, 57, 200, 601):
        enc = form_abs_enclosure(n, digits)
        assert enc.lo_num > 0
        assert (enc.hi_num - enc.lo_num) * 10**digits <= enc.lo_num, (n, digits)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.sampled_from([1, 5, 30]))
def test_form_abs_meets_the_zeta3_route(n, digits):
    # at 3.1n + 60 digits the zeta(3) route is tight despite its cancellation
    oracle = _zeta3_route_form_abs(n, 31 * n // 10 + 60)
    assert oracle.lo_num > 0
    assert overlaps(form_abs_enclosure(n, digits), oracle)


def test_every_check_holds_at_one_digit_up_to_300():
    for n in range(1, 301):
        assert verify_form_bound(n, 1).status is CheckStatus.HOLDS, n
        assert verify_ratio_bound(n, 1).status is CheckStatus.HOLDS, n


def test_verify_builds_each_check_once_from_cold_caches(capsys, monkeypatch):
    # Every check of verify --n-max 200 builds its lhs and rhs once, at the
    # requested digits, and every row holds.
    for cached in (ratio_enclosure, form_abs_enclosure, _growth_enclosure, zeta3):
        cached.cache_clear()
    calls = {name: [] for name in ("rhs_bound", "ratio_enclosure", "linear_form")}

    def spy(name):
        fn = getattr(bounds, name)

        def counted(*args):
            calls[name].append(args)
            return fn(*args)

        monkeypatch.setattr(bounds, name, counted)

    # form_abs_enclosure calls linear_form once per build, and verify calls
    # ratio_enclosure once per row, so these spies count builds; rhs_bound
    # and ratio_enclosure share each (17+12*sqrt(2))^n through its cache
    for name in calls:
        spy(name)
    assert main(["verify", "--n-max", "200", "--csv", "--quiet"]) == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert all(row[1:3] == ["holds", "holds"] and row[5:] == ["30", "30"] for row in rows)
    assert "±" not in "".join(cell for row in rows for cell in row)
    assert calls["rhs_bound"] == [(n, 30) for n in range(1, 201)]
    builds = [len(calls[name]) for name in ("ratio_enclosure", "linear_form")]
    assert builds + [_growth_enclosure.cache_info().misses] == [200, 200, 200]
