from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import KernelMoment, binom, enclosure_of, moment, moment_series_oracle, overlaps
from zeta3forms import beukers
from zeta3forms.beukers import IntegralityViolation, apery_bracket, dn_cubed, linear_form
from zeta3forms.zeta3 import zeta3, zeta3_accelerated

F = Fraction


# -- closed-form moments ---------------------------------------------------------


def test_moment_examples():
    assert moment(0, 0) == KernelMoment(0, 0, F(0), 2)
    assert moment(1, 0) == KernelMoment(1, 0, F(1), 0)
    assert moment(1, 1) == KernelMoment(1, 1, F(-2), 2)
    assert moment(2, 1) == KernelMoment(2, 1, F(1, 4), 0)


def test_moment_symmetry():
    for r in range(31):
        for s in range(31):
            a, b = moment(r, s), moment(s, r)
            assert (a.rat, a.zeta3_coef) == (b.rat, b.zeta3_coef)


def test_moment_zeta3_coefficient_diagonal_only():
    for r in range(20):
        for s in range(20):
            assert moment(r, s).zeta3_coef == (2 if r == s else 0)


# -- series oracle ----------------------------------------------------------------


def _naive_partial_sum(r: int, s: int, terms: int) -> Fraction:
    a, b = r + 1, s + 1
    total = Fraction(0)
    for k in range(terms):
        total += Fraction(1, (k + a) ** 2 * (k + b)) + Fraction(1, (k + a) * (k + b) ** 2)
    return total


@pytest.mark.parametrize("r,s,terms", [(1, 0, 50), (0, 3, 80), (4, 2, 33), (7, 7, 64), (0, 0, 10)])
def test_oracle_partial_sum_matches_naive_summation(r, s, terms):
    got = moment_series_oracle(r, s, terms)
    naive = _naive_partial_sum(r, s, terms)
    if r == s:
        # directed fixed-point summation: floor per term
        slack = Fraction(terms, 2**oracles._ORACLE_BITS)
        assert got.lo <= naive <= got.lo + slack
    else:
        # telescoped block sum is the exact partial sum
        assert got.lo == naive
    assert got.hi >= naive + 0  # tail bound is nonnegative


def test_oracle_example_one_zero():
    enc = moment_series_oracle(1, 0, 1000)
    assert enc.contains(1)
    assert enc.width() <= F(1, 10**6) + F(1, 1000**2)  # ~1e-6


def test_oracle_example_zero_zero_contains_two_zeta3():
    enc = moment_series_oracle(0, 0, 1000)
    assert enc.encloses(zeta3(30) * 2)


def test_oracle_example_two_one():
    assert moment_series_oracle(2, 1, 10).contains(F(1, 4))


def test_oracle_rejects_bad_terms():
    with pytest.raises(ValueError):
        moment_series_oracle(1, 1, 0)


def test_closed_form_lies_in_oracle_quick():
    # full 30x30 sweep at 10^5 terms runs in the acceptance suite
    z = zeta3(30)
    for r in range(11):
        for s in range(11):
            closed = moment(r, s).value_enclosure(z)
            assert moment_series_oracle(r, s, 3000).encloses(closed)


# -- linear forms -------------------------------------------------------------------


def test_linear_form_n0():
    form = linear_form(0)
    assert (form.alpha, form.beta, form.A, form.B, form.dn3) == (F(0), 2, 0, 2, 1)


def test_linear_form_n1():
    form = linear_form(1)
    assert (form.alpha, form.beta, form.A, form.B, form.dn3) == (F(-12), 10, -12, 10, 1)


def test_linear_form_n2():
    form = linear_form(2)
    assert (form.alpha, form.beta, form.A, form.B, form.dn3) == (F(-351, 2), 146, -1404, 1168, 8)


def test_integrality_up_to_50():
    # alpha_n = -2 a_n from the Fraction recurrence, a route that never sees
    # the integer table: d_n^3 * alpha_n must be an integer, and it must be A_n.
    for n, a_n in enumerate(_fraction_apery_a(50)):
        form = linear_form(n)
        assert form.dn3 == dn_cubed(n)
        scaled = -2 * a_n * form.dn3
        assert scaled.denominator == 1
        assert scaled.numerator == form.A
        assert form.B == form.beta * form.dn3


def test_beta_two_oracle_equivalence():
    for n in range(51):
        form = linear_form(n)
        coeff_sum = 2 * sum((binom(n, k) * binom(n + k, k)) ** 2 for k in range(n + 1))
        assert form.beta == coeff_sum


def test_apery_oracle_seeds_and_step():
    assert linear_form(0).beta // 2 == 1
    assert linear_form(1).beta // 2 == 5
    assert linear_form(2).beta // 2 == 73


def test_form_enclosure_excludes_zero_up_to_30():
    z = zeta3(120)
    for n in range(31):
        form = linear_form(n)
        enc = z * form.beta + enclosure_of(form.alpha, form.alpha)
        assert not enc.contains(0)


# -- Apery's convergent bracket of zeta(3) ------------------------------------------


def test_casoratian_and_ninefold_growth_over_the_table():
    # a_k b_{k-1} - a_{k-1} b_k = 6/k^3 with a_k = Y_k / (2 d_k^3), multiplied
    # by 2 d_k^3 k^3 to stay in integers, and the lemma b_k >= 9 b_{k-1} behind
    # apery_bracket's tail bound, both exactly for 2 <= k <= 1500.
    beukers._grow_apery(1500)
    b, y = beukers._APERY, beukers._APERY_Y
    for k in range(2, 1501):
        step = dn_cubed(k) // dn_cubed(k - 1)
        assert k**3 * (y[k] * b[k - 1] - y[k - 1] * b[k] * step) == 12 * dn_cubed(k), k
        assert b[k] >= 9 * b[k - 1], k


def test_apery_bracket_meets_zeta3():
    z = zeta3_accelerated(3000)  # the series zeta3 checks against this bracket
    for N in (1, 2, 5, 30, 200, 1500):
        enc = apery_bracket(N)
        assert enc.lo_num < enc.hi_num
        assert overlaps(enc, z), N
    # the bracket shrinks by more than 81 per step
    assert apery_bracket(40).width() * 81 < apery_bracket(39).width()


def test_apery_bracket_lower_end_is_the_convergent():
    for N in (1, 2, 10):
        form = linear_form(N)
        assert apery_bracket(N).lo == F(-form.A, form.B)
    with pytest.raises(ValueError):
        apery_bracket(0)


def test_integrality_violation_on_corrupted_moment():
    def bad_moment(r: int, s: int) -> KernelMoment:
        if r == s == 0:
            return KernelMoment(0, 0, F(1, 7), 2)
        return moment(r, s)

    with pytest.raises(IntegralityViolation):
        oracles._assemble(1, bad_moment)


def test_linear_form_matches_moment_double_sum_up_to_60():
    # alpha and beta by two routes: the recurrence tables and the moment sum
    for n in range(61):
        assert linear_form(n) == oracles._assemble(n, moment)


def test_integrality_violation_on_corrupted_recurrence_table(monkeypatch):
    n = 6
    linear_form(n)  # grow the tables past n
    # Truncate both tables to n entries and add 1 to Y_{n-1}. d_6 = d_5, so the
    # growth step at n = 6 changes by P(6) = 5665, and 5665 % 6**3 = 49.
    apery_y = beukers._APERY_Y[:n]
    apery_y[n - 1] += 1
    monkeypatch.setattr(beukers, "_APERY", beukers._APERY[:n])
    monkeypatch.setattr(beukers, "_APERY_Y", apery_y)
    try:
        with pytest.raises(IntegralityViolation, match="n=6"):
            linear_form(n)
    finally:
        monkeypatch.undo()
    assert linear_form(n) == oracles._assemble(n, moment)


def _fraction_apery_a(n_max: int) -> list[Fraction]:
    """a_0..a_{n_max} from the recurrence in Fraction arithmetic, as the
    production table was built before it held the integers Y_n."""
    a = [F(0), F(6)]
    for k in range(2, n_max + 1):
        step = (34 * k**3 - 51 * k**2 + 27 * k - 5) * a[k - 1] - (k - 1) ** 3 * a[k - 2]
        a.append(step / k**3)
    return a


def test_integer_table_matches_fraction_recurrence_up_to_300():
    linear_form(300)
    for n, a_n in enumerate(_fraction_apery_a(300)):
        assert beukers._APERY_Y[n] == 2 * dn_cubed(n) * a_n
        form = linear_form(n)
        assert (form.A, form.alpha) == (-beukers._APERY_Y[n], -2 * a_n)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=40))
def test_beta_positive_even(n):
    form = linear_form(n)
    assert form.beta > 0
    assert form.beta % 2 == 0
