from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta3forms import zeta3 as zmod
from zeta3forms.exactnum import Enclosure
from zeta3forms.zeta3 import (
    DisjointEnclosures,
    Method,
    Zeta3Request,
    _partial_sum,
    zeta3,
    zeta3_accelerated,
    zeta3_direct,
)

F = Fraction

# Verified bracket for Apery's constant: both series methods agree on it and
# the digits are pinned by the two-method intersection tests below.
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


def test_direct_term_guard():
    with pytest.raises(ValueError):
        zeta3_direct(25)


def test_accelerated_first_partial_brackets_from_above():
    # one term: S_1 = 1/2, next term -1/48; (5/2)*[1/2 - 1/48, 1/2] = [115/96, 5/4]
    s, t_next, den = _partial_sum(1)
    assert F(s, den) == F(1, 2)
    assert F(t_next, den) == F(-1, 48)
    assert zeta3_accelerated(10).hi < F(5, 4)
    assert zeta3_accelerated(10).lo > F(115, 96)


def test_accelerated_matches_direct():
    assert zeta3_accelerated(15).intersect(zeta3_direct(15)) is not None


@pytest.mark.parametrize("digits", [1, 5, 17, 60, 333])
def test_accelerated_term_count_is_rigorous(digits):
    # the closed-form term count must leave (5/2)|t_{K+1}| <= 10^-digits;
    # cross-check against the exact factorial form of the omitted term
    import math

    K = 1661 * digits // 1000 + 2
    t_next = F(math.factorial(K) ** 2, (K + 1) * math.factorial(2 * K + 2))
    assert F(5, 2) * t_next <= F(1, 10**digits)


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
    for fn in (zeta3, zeta3_direct, zeta3_accelerated):
        with pytest.raises(ValueError):
            fn(0)


def test_disjoint_methods_raise(monkeypatch):
    shifted = Enclosure(F(2), F(2) + F(1, 10**12))
    monkeypatch.setattr(zmod, "zeta3_direct", lambda digits: shifted)
    with pytest.raises(DisjointEnclosures):
        zmod.zeta3(9)


def test_request_dispatch():
    assert Zeta3Request(8, Method.DIRECT).evaluate() == zeta3_direct(8)
    assert Zeta3Request(8, Method.ACCELERATED).evaluate() == zeta3_accelerated(8)
    assert Zeta3Request(8, Method.CROSS).evaluate() == zeta3(8)


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
