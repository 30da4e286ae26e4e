import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zeta3forms.exactnum import (
    Enclosure,
    Trichotomy,
    budget_bits,
    floor_div_scaled,
    rat_str,
    sqrt2_enclosure,
    trichotomy,
)

F = Fraction


def enc(lo, hi) -> Enclosure:
    return Enclosure(F(lo), F(hi))


# -- pinned example cases -------------------------------------------------------


def test_add_identity():
    assert enc(0, 0) + enc(1, 2) == enc(1, 2)


def test_add_exact_rationals():
    assert enc(F(1, 2), F(1, 2)) + enc(F(1, 3), F(1, 3)) == enc(F(5, 6), F(5, 6))


def test_add_symmetric():
    assert enc(-1, 1) + enc(-1, 1) == enc(-2, 2)


def test_mul_absorbing_zero():
    assert enc(2, 3) * enc(0, 0) == enc(0, 0)


def test_mul_mixed_signs():
    # endpoint products are 3, -1, -6, 2
    assert enc(-1, 2) * enc(-3, 1) == enc(-6, 3)


def test_mul_identity():
    assert enc(1, 1) * enc(F(-5, 7), F(22, 3)) == enc(F(-5, 7), F(22, 3))


def test_pow_zero_is_one():
    assert enc(2, 3) ** 0 == enc(1, 1)


def test_pow_even_image_rule():
    # image of x**2 over [-2, 1] is [0, 4], not the naive product [-2, 4]
    assert enc(-2, 1) ** 2 == enc(0, 4)


def test_pow_monotone_positive():
    assert enc(F(1, 2), F(2, 3)) ** 3 == enc(F(1, 8), F(8, 27))


def test_abs_cases():
    assert abs(enc(3, 5)) == enc(3, 5)
    assert abs(enc(-5, -3)) == enc(3, 5)
    assert abs(enc(-2, 1)) == enc(0, 2)


def test_trichotomy_cases():
    assert trichotomy(enc(F(1, 7), F(1, 3))) is Trichotomy.POSITIVE
    assert trichotomy(enc(-1, 1)) is Trichotomy.CONTAINS_ZERO
    assert trichotomy(enc(-3, -2)) is Trichotomy.NEGATIVE
    assert trichotomy(enc(0, 1)) is Trichotomy.CONTAINS_ZERO
    assert trichotomy(enc(-1, 0)) is Trichotomy.CONTAINS_ZERO


def test_inverted_endpoints_rejected():
    with pytest.raises(ValueError):
        enc(1, 0)


def test_serialization():
    assert rat_str(F(-3, 2)) == "-3/2"
    assert rat_str(F(4)) == "4"
    assert str(enc(F(-1, 2), 3)) == "[-1/2, 3]"


# -- sqrt(2) ------------------------------------------------------------------


def test_sqrt2_one_digit():
    s = sqrt2_enclosure(1)
    assert s.width() <= F(1, 10)
    assert s.lo**2 <= 2 <= s.hi**2


def test_sqrt2_five_digits():
    s = sqrt2_enclosure(5)
    assert s.width() <= F(1, 10**5)
    assert s.contains(F("1.41421"))


@given(st.integers(min_value=1, max_value=80))
def test_sqrt2_defining_property(digits):
    s = sqrt2_enclosure(digits)
    assert s.lo**2 <= 2 <= s.hi**2
    assert s.width() <= F(1, 10**digits)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_sqrt2_enclosures_consistent(d1, d2):
    # successive precisions need not nest, but they share the true point
    assert sqrt2_enclosure(d1).intersect(sqrt2_enclosure(d2)) is not None


def test_sqrt2_rejects_bad_digits():
    with pytest.raises(ValueError):
        sqrt2_enclosure(0)


# -- containment, the load-bearing property -----------------------------------


def _random_rat(rng: random.Random) -> Fraction:
    return F(rng.randint(-500, 500), rng.randint(1, 60))


def _enclosing(rng: random.Random, x: Fraction) -> Enclosure:
    pad_lo = F(rng.randint(0, 40), rng.randint(1, 25))
    pad_hi = F(rng.randint(0, 40), rng.randint(1, 25))
    return Enclosure(x - pad_lo, x + pad_hi)


def test_containment_random_sweep():
    # 10^4 random rational pairs with random enclosing intervals, all four ops
    rng = random.Random(987123)
    for _ in range(10_000):
        x, y = _random_rat(rng), _random_rat(rng)
        a, b = _enclosing(rng, x), _enclosing(rng, y)
        assert (a + b).contains(x + y)
        assert (a * b).contains(x * y)
        k = rng.randint(0, 5)
        assert (a**k).contains(x**k)
        assert abs(a).contains(abs(x))


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=200)
pads = st.fractions(min_value=0, max_value=5, max_denominator=50)


@given(rationals, rationals, pads, pads, pads, pads)
def test_containment_division(x, y, p1, p2, p3, p4):
    a = Enclosure(x - p1, x + p2)
    b = Enclosure(y - p3, y + p4)
    if b.lo <= 0 <= b.hi:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b).contains(x / y)


@given(rationals, rationals, pads, pads, pads, pads)
def test_width_monotonicity(x, y, p1, p2, widen_lo, widen_hi):
    a = Enclosure(x - p1, x + p2)
    wide = Enclosure(a.lo - widen_lo, a.hi + widen_hi)
    b = Enclosure(y, y + 1)
    for op in (lambda u, v: u + v, lambda u, v: u * v, lambda u, v: u - v):
        assert op(wide, b).encloses(op(a, b))
    assert abs(wide).encloses(abs(a))
    assert (wide**2).encloses(a**2)
    assert (wide**3).encloses(a**3)


@given(rationals, pads, pads)
def test_trichotomy_positive_certifies_endpoints(x, p1, p2):
    a = Enclosure(x - p1, x + p2)
    if trichotomy(a) is Trichotomy.POSITIVE:
        assert a.lo > 0 and a.hi > 0
    if trichotomy(a) is Trichotomy.NEGATIVE:
        assert a.lo < 0 and a.hi < 0


@given(rationals, pads, pads, st.integers(min_value=4, max_value=64))
def test_round_out_preserves_containment(x, p1, p2, bits):
    a = Enclosure(x - p1, x + p2)
    rounded = a.round_out(bits)
    assert rounded.encloses(a)
    assert rounded.width() <= a.width() + F(2, 2**bits)
    assert rounded.lo.denominator <= 2**bits
    assert rounded.hi.denominator <= 2**bits


def test_budget_bits_scale():
    assert budget_bits(10) == 160
    assert budget_bits(0) == 16  # floor of one digit


# -- misc operator coverage ----------------------------------------------------


def test_scalar_mixing():
    a = enc(1, 2)
    assert a + 1 == enc(2, 3)
    assert 1 + a == enc(2, 3)
    assert a - 1 == enc(0, 1)
    assert 3 - a == enc(1, 2)
    assert a * F(-1, 2) == enc(-1, F(-1, 2))
    assert 2 / enc(1, 2) == enc(1, 2)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        enc(1, 2) ** -1


def test_intersect():
    assert enc(0, 2).intersect(enc(1, 3)) == enc(1, 2)
    assert enc(0, 1).intersect(enc(2, 3)) is None
    assert enc(0, 1).intersect(enc(1, 2)) == enc(1, 1)


def test_point_queries():
    p = Enclosure.point(F(3, 7))
    assert p.is_point()
    assert p.width() == 0
    assert p.midpoint() == F(3, 7)


# -- the integer kernel against the Fraction endpoint formulas -----------------
#
# Reference: the endpoint rules of the Fraction-endpoint kernel this package
# used before enclosures became integer numerators over one unreduced
# denominator. Every operation must return endpoints equal in value.


def _ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _ref_sub(a, b):
    return a[0] - b[1], a[1] - b[0]


def _ref_mul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def _ref_reciprocal(a):
    if a[0] <= 0 <= a[1]:
        return None
    return 1 / a[1], 1 / a[0]


def _ref_pow(a, k):
    if k == 0:
        return F(1), F(1)
    plo, phi = a[0] ** k, a[1] ** k
    if k % 2 == 1 or a[0] >= 0:
        return plo, phi
    if a[1] <= 0:
        return phi, plo
    return F(0), max(plo, phi)


def _ref_abs(a):
    if a[0] >= 0:
        return a
    if a[1] <= 0:
        return -a[1], -a[0]
    return F(0), max(-a[0], a[1])


def _ref_intersect(a, b):
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return None if lo > hi else (lo, hi)


def _ref_round_out(a, bits):
    scale = 1 << bits
    lo = F((a[0].numerator * scale) // a[0].denominator, scale)
    hi = F(-((-a[1].numerator * scale) // a[1].denominator), scale)
    return lo, hi


def _ends(e: Enclosure) -> tuple[Fraction, Fraction]:
    return e.lo, e.hi


@st.composite
def small_enclosures(draw):
    """Small arbitrary rationals, stored over an unreduced common denominator."""
    x = draw(rationals)
    lo, hi = x - draw(pads), x + draw(pads)
    den = lo.denominator * hi.denominator * draw(st.integers(min_value=1, max_value=1000))
    return Enclosure.from_parts(
        lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den
    )


@st.composite
def dyadic_enclosures(draw):
    """Endpoints on a 2**-bits grid, bits in the audit's range 960..4800."""
    bits = draw(st.sampled_from((960, 1920, 2880, 3840, 4800)) | st.integers(960, 4800))
    bound = 4 << bits
    lo = draw(st.integers(min_value=-bound, max_value=bound))
    width = draw(st.integers(min_value=0, max_value=bound)) >> draw(st.integers(0, bits))
    return Enclosure.from_parts(lo, lo + width, 1 << bits)


enclosures = small_enclosures() | dyadic_enclosures()
int_scalars = st.integers(min_value=-(10**30), max_value=10**30)


@given(enclosures, enclosures)
def test_binary_ops_match_fraction_reference(a, b):
    ra, rb = _ends(a), _ends(b)
    assert _ends(a + b) == _ref_add(ra, rb)
    assert _ends(a - b) == _ref_sub(ra, rb)
    assert _ends(a * b) == _ref_mul(ra, rb)
    both = a.intersect(b)
    assert (None if both is None else _ends(both)) == _ref_intersect(ra, rb)
    inv = _ref_reciprocal(rb)
    if inv is None:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert _ends(a / b) == _ref_mul(ra, inv)
        assert _ends(b.reciprocal()) == inv


@given(enclosures, st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=5000))
def test_unary_ops_match_fraction_reference(a, k, bits):
    ra = _ends(a)
    assert _ends(a**k) == _ref_pow(ra, k)
    assert _ends(abs(a)) == _ref_abs(ra)
    assert _ends(-a) == (-ra[1], -ra[0])
    assert _ends(a.round_out(bits)) == _ref_round_out(ra, bits)


@given(enclosures, int_scalars, rationals)
def test_scalar_ops_match_fraction_reference(a, k, q):
    ra = _ends(a)
    for s in (k, q):
        p = (F(s), F(s))
        assert _ends(a + s) == _ends(s + a) == _ref_add(ra, p)
        assert _ends(a - s) == _ref_sub(ra, p)
        assert _ends(s - a) == _ref_sub(p, ra)
        assert _ends(a * s) == _ends(s * a) == _ref_mul(ra, p)
        if s == 0:
            with pytest.raises(ZeroDivisionError):
                a / s
        else:
            assert _ends(a / s) == _ref_mul(ra, _ref_reciprocal(p))


@given(enclosures, enclosures)
def test_strict_comparisons_match_fraction_reference(a, b):
    assert a.lies_below(b) == (a.hi < b.lo)
    assert a.lies_at_or_above(b) == (a.lo >= b.hi)
    assert a.encloses(b) == (a.lo <= b.lo and b.hi <= a.hi)
    expected = (
        Trichotomy.POSITIVE if a.lo > 0 else Trichotomy.NEGATIVE if a.hi < 0 else Trichotomy.CONTAINS_ZERO
    )
    assert trichotomy(a) is expected


@given(enclosures, st.integers(min_value=2, max_value=10**12))
def test_equality_and_hash_ignore_unreduced_denominators(a, k):
    scaled = Enclosure.from_parts(a.lo_num * k, a.hi_num * k, a.den * k)
    reduced = Enclosure(a.lo, a.hi)
    for same in (scaled, reduced):
        assert same == a and a == same
        assert hash(same) == hash(a)
    assert {a, scaled, reduced} == {a}
    assert Enclosure.from_parts(a.lo_num * k, a.hi_num * k + 1, a.den * k) != a


def test_arithmetic_computes_no_gcd(monkeypatch):
    import math

    a = Enclosure.from_parts(-3, 5, 12)
    b = Enclosure.from_parts(7, 9, 8)
    third = F(1, 3)

    def forbidden(*args):
        raise AssertionError("an enclosure operation computed a gcd")

    monkeypatch.setattr(math, "gcd", forbidden)
    results = [a + b, a - b, a * b, b * a, a / b, 2 / b, a**3, b**2, abs(a), -a]
    results += [a + 1, a * -2, a / -3, a * third, a + third, a.round_out(8), a.intersect(b - 1)]
    assert all(isinstance(r, Enclosure) for r in results)
    assert a.lies_below(b) and not a.lies_at_or_above(b) and b.encloses(b)
    assert trichotomy(a) is Trichotomy.CONTAINS_ZERO
    assert a.is_point() is False and a == Enclosure.from_parts(-6, 10, 24)


def test_unreduced_fields_and_fraction_views():
    a = Enclosure.from_parts(6, 10, 4)
    assert (a.lo_num, a.hi_num, a.den) == (6, 10, 4)  # kept as given
    assert (a.lo, a.hi) == (F(3, 2), F(5, 2))
    assert a.width() == 1 and a.midpoint() == 2
    assert str(a) == "[3/2, 5/2]"
    # endpoints are aligned without a gcd: to the larger denominator when it is
    # a multiple of the other, else to the product
    assert Enclosure(F(1, 4), F(1, 2)).den == 4
    assert Enclosure(F(1, 6), F(1, 4)).den == 24


def test_enclosure_is_immutable_and_validated():
    a = Enclosure.from_parts(1, 2, 3)
    with pytest.raises(AttributeError):
        a.lo_num = 0
    with pytest.raises(ValueError):
        Enclosure.from_parts(2, 1, 3)
    with pytest.raises(ValueError):
        Enclosure.from_parts(1, 2, 0)
    with pytest.raises(TypeError):
        Enclosure(0.5, 1)


def test_copy_and_pickle_keep_the_fields():
    import copy
    import pickle

    a = Enclosure.from_parts(6, 10, 4)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert (b.lo_num, b.hi_num, b.den) == (6, 10, 4)


# -- outward rounding on large operands ------------------------------------------
#
# Quotients and divisors of about 35k bits, the size of a ratio_enclosure
# rounding at 2200 digits. Each case must give the Fraction reference endpoints.

_BIG = 34768


def _large_cases() -> dict[str, tuple[Enclosure, int]]:
    rng = random.Random(20261018)
    odd = rng.getrandbits(_BIG) | (1 << (_BIG - 1)) | 1
    a, b = sorted(rng.getrandbits(_BIG + 900) for _ in range(2))
    inv = pow(2, -_BIG, odd)  # (inv << _BIG) % odd == 1
    # numerators near odd**2 / 2**1001: the quotients have _BIG - 1 bits
    near = rng.getrandbits(2 * _BIG - 1001) | (1 << (2 * _BIG - 1002))
    return {
        "mixed-signs": (Enclosure.from_parts(-a, b, odd), _BIG),
        "negative": (Enclosure.from_parts(-b, -a, odd), _BIG),
        "power-of-two-den": (Enclosure.from_parts(-a, b, 1 << (_BIG + 3)), _BIG),
        "den-barely-above-quotient": (Enclosure.from_parts(-near, near, odd), 1000),
        # shifted numerators are exact multiples of den: remainder 0
        "exact-multiple": (Enclosure.from_parts(-5 * odd, 7 * odd, odd), _BIG),
        # shifted numerators are k*den - 1: remainder den - 1
        "k-den-minus-one": (Enclosure.from_parts(3 * odd - inv, 5 * odd + inv, odd), _BIG),
    }


LARGE_CASES = _large_cases()


@pytest.mark.parametrize("name", list(LARGE_CASES))
def test_round_out_matches_reference_on_large_operands(name):
    a, bits = LARGE_CASES[name]
    rounded = a.round_out(bits)
    assert _ends(rounded) == _ref_round_out(_ends(a), bits)
    assert rounded.den == 1 << bits


# Remainders 0 and den - 1 are where an inexact division would err first.
def test_newton_edge_cases_have_the_named_remainders():
    a, bits = LARGE_CASES["exact-multiple"]
    assert a.round_out(bits) == Enclosure.from_parts(-5 << bits, 7 << bits, 1 << bits)
    a, bits = LARGE_CASES["k-den-minus-one"]
    for n in (a.lo_num << bits, (-a.hi_num) << bits):
        assert n % a.den == a.den - 1


# -- cancelling the denominator's power of two -------------------------------------
#
# round_out divides by den's odd part after cancelling its factor 2**k. The
# cases put k below, at and above the grid exponent.


def _numerators(bits: int, den: int, remainder: str, rng: random.Random) -> tuple[int, int]:
    """(a, c) with a * 2**bits and -c * 2**bits both leaving the named
    remainder modulo den: "zero", "max" (den - gcd(2**bits, den), the largest
    possible) or "random"."""
    g = math.gcd(1 << bits, den)
    m = den // g
    if remainder == "random":
        return rng.getrandbits(m.bit_length()), rng.getrandbits(m.bit_length())
    r = 0 if remainder == "zero" else -pow((1 << bits) // g, -1, m) % m
    return r, -r


@pytest.mark.parametrize("bits", (1, 7, 160, 3000))
@pytest.mark.parametrize("k", ("0", "bits-1", "bits", "bits+7"))
@pytest.mark.parametrize("signs", ("mixed", "negative"))
@pytest.mark.parametrize("remainder", ("random", "zero", "max"))
def test_round_out_cancels_the_power_of_two_in_den(bits, k, signs, remainder):
    rng = random.Random(f"{bits}-{k}-{signs}-{remainder}")
    shift = {"0": 0, "bits-1": bits - 1, "bits": bits, "bits+7": bits + 7}[k]
    den = (rng.getrandbits(bits + 40) | 1) << shift
    m = den // math.gcd(1 << bits, den)
    a, c = _numerators(bits, den, remainder, rng)
    j1, j2 = sorted(rng.getrandbits(bits + 60) + 2 for _ in range(2))
    if signs == "mixed":
        lo, hi = a - j2 * m, c + j1 * m
    else:
        lo, hi = a - (j2 + 2) * m, c - j1 * m
    e = Enclosure.from_parts(lo, hi, den)
    assert lo < 0 and (hi > 0) == (signs == "mixed")
    assert (den & -den) == 1 << shift
    rounded = e.round_out(bits)
    assert _ends(rounded) == _ref_round_out(_ends(e), bits)
    assert rounded.den == 1 << bits


@given(
    st.integers(min_value=-(10**60), max_value=10**60),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=10**20),
    st.integers(min_value=0, max_value=220),
)
def test_floor_div_scaled_is_the_exact_floor(n, bits, odd, k):
    den = odd << k
    assert floor_div_scaled(n, bits, den) == (n * 2**bits) // den
