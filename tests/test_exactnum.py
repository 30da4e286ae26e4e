import decimal
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import abs_, add, contains, enclosure_of, encloses, is_point, midpoint, mul, neg, overlaps, width
from zeta3forms import exactnum
from zeta3forms.bounds import _growth_enclosure
from zeta3forms.exactnum import Enclosure, budget_bits, floor_div_scaled

F = Fraction
SRC = str(Path(__file__).resolve().parent.parent / "src")


def enc(lo, hi) -> Enclosure:
    return enclosure_of(F(lo), F(hi))


# -- pinned example cases -------------------------------------------------------


def test_add_identity():
    assert enc(1, 2) + 0 == enc(1, 2)
    assert add(enc(0, 0), enc(1, 2)) == enc(1, 2)
    with pytest.raises(TypeError):
        enc(0, 0) + enc(1, 2)


def test_add_exact_rationals():
    assert enc(F(1, 2), F(5, 6)) + 1 == enc(F(3, 2), F(11, 6))
    assert add(enc(F(1, 2), F(1, 2)), enc(F(1, 3), F(1, 3))) == enc(F(5, 6), F(5, 6))


def test_add_symmetric():
    assert enc(-1, 1) + -1 == enc(-2, 0)
    assert add(enc(-1, 1), enc(-1, 1)) == enc(-2, 2)


def test_mul_absorbing_zero():
    assert enc(2, 3) * enc(0, 0) == enc(0, 0)
    assert enc(0, 0) * enc(-2, 3) == enc(0, 0)


def test_mul_mixed_signs():
    # a non-negative left factor: endpoint products 0, 0, -6, 4
    assert enc(0, 2) * enc(-3, 2) == enc(-6, 4)
    # any signs, through the oracle: endpoint products 3, -1, -6, 2
    assert mul(enc(-1, 2), enc(-3, 1)) == enc(-6, 3)
    with pytest.raises(ValueError):
        enc(-1, 2) * enc(-3, 1)


def test_mul_identity():
    assert enc(1, 1) * enc(F(-5, 7), F(22, 3)) == enc(F(-5, 7), F(22, 3))


def test_abs_cases():
    assert abs_(enc(3, 5)) == enc(3, 5)
    assert abs_(enc(-5, -3)) == enc(3, 5)
    assert abs_(enc(-2, 1)) == enc(0, 2)
    with pytest.raises(TypeError):
        abs(enc(3, 5))


def test_removed_forms_raise():
    e = enc(1, 2)
    for form in (lambda: e + e, lambda: 1 + e, lambda: 2 * e, lambda: -e, lambda: abs(e)):
        with pytest.raises(TypeError):
            form()
    with pytest.raises(ValueError):
        Enclosure(-1, 1) * e
    for name in ("__radd__", "__rmul__", "__neg__", "__abs__"):
        assert not hasattr(Enclosure, name)
    assert not hasattr(exactnum, "_scales")


def test_a_left_factor_below_zero_raises_under_python_O():
    code = (
        "import sys\n"
        "from zeta3forms.exactnum import Enclosure\n"
        "try:\n"
        "    Enclosure(-1, 1) * Enclosure(1, 2)\n"
        "except ValueError:\n"
        "    sys.exit(10 + sys.flags.optimize)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, env=env)
    # 10 for the ValueError, plus 1 for the asserts that -O strips
    assert (proc.returncode, proc.stderr) == (11, b"")


def test_contains_zero_cases():
    assert not contains(enc(F(1, 7), F(1, 3)), 0)
    assert contains(enc(-1, 1), 0)
    assert not contains(enc(-3, -2), 0)
    assert contains(enc(0, 1), 0)
    assert contains(enc(-1, 0), 0)


def test_inverted_endpoints_rejected():
    with pytest.raises(ValueError):
        enc(1, 0)


def test_serialization():
    assert str(enc(F(-3, 2), 4)) == "[-3/2, 4]"
    assert str(enc(F(-1, 2), 3)) == "[-1/2, 3]"


# -- sqrt(2), as bounds._growth_enclosure brackets it --------------------------


def _sqrt2(digits: int) -> Enclosure:
    """The bracket [r, r+1] / 10**digits of sqrt(2) that bounds._growth_enclosure
    builds 17 + 12*sqrt(2) on, read back from its fields."""
    g = _growth_enclosure(1, digits)
    r, rem = divmod(g.lo_num - 17 * g.den, 12)
    assert rem == 0 and g.hi_num - g.lo_num == 12
    return Enclosure(r, r + 1, g.den)


def test_sqrt2_one_digit():
    s = _sqrt2(1)
    assert width(s) <= F(1, 10)
    assert s.lo**2 <= 2 <= s.hi**2


def test_sqrt2_five_digits():
    s = _sqrt2(5)
    assert width(s) <= F(1, 10**5)
    assert contains(s, F("1.41421"))


@given(st.integers(min_value=1, max_value=80))
def test_sqrt2_defining_property(digits):
    s = _sqrt2(digits)
    assert s.lo**2 <= 2 <= s.hi**2
    assert width(s) <= F(1, 10**digits)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_sqrt2_enclosures_consistent(d1, d2):
    # successive precisions need not nest, but they share the true point
    assert overlaps(_sqrt2(d1), _sqrt2(d2))


def test_sqrt2_rejects_bad_digits():
    with pytest.raises(ValueError):
        _growth_enclosure(1, 0)


# -- containment, the load-bearing property -----------------------------------


def _random_rat(rng: random.Random) -> Fraction:
    return F(rng.randint(-500, 500), rng.randint(1, 60))


def _enclosing(rng: random.Random, x: Fraction) -> Enclosure:
    pad_lo = F(rng.randint(0, 40), rng.randint(1, 25))
    pad_hi = F(rng.randint(0, 40), rng.randint(1, 25))
    return enclosure_of(x - pad_lo, x + pad_hi)


def test_containment_random_sweep():
    # 10^4 random rational pairs with random enclosing intervals: Enclosure's
    # + int and *, and the oracles' +, * and abs
    rng = random.Random(987123)
    for _ in range(10_000):
        x, y = _random_rat(rng), _random_rat(rng)
        a, b = _enclosing(rng, x), _enclosing(rng, y)
        k = x.numerator  # an int shift, drawn without moving rng's sequence
        assert contains(a + k, x + k)
        for u, v, p, q in ((a, b, x, y), (b, a, y, x)):
            if u.lo_num >= 0:
                assert contains(u * v, p * q)
            else:
                with pytest.raises(ValueError):
                    u * v
        assert contains(add(a, b), x + y)
        assert contains(mul(a, b), x * y)
        assert contains(abs_(a), abs(x))


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=200)
pads = st.fractions(min_value=0, max_value=5, max_denominator=50)


@given(rationals, rationals, pads, pads, pads, pads)
def test_containment_division(x, y, p1, p2, p3, p4):
    a = enclosure_of(x - p1, x + p2)
    b = enclosure_of(y - p3, y + p4)
    if b.lo <= 0 <= b.hi:
        with pytest.raises(ZeroDivisionError):
            a / b
    elif a.lo < 0:
        with pytest.raises(ValueError):
            a / b
    else:
        assert contains(a / b, x / y)


@given(rationals, rationals, pads, pads, pads, pads)
def test_width_monotonicity(x, y, p1, p2, widen_lo, widen_hi):
    a = enclosure_of(x - p1, x + p2)
    wide = enclosure_of(a.lo - widen_lo, a.hi + widen_hi)
    b = enclosure_of(y, y + 1)
    assert encloses(wide + 3, a + 3)
    if wide.lo >= 0:
        assert encloses(wide * b, a * b)
    if b.lo >= 0:
        assert encloses(b * wide, b * a)
    for op in (add, mul):
        assert encloses(op(wide, b), op(a, b))
    assert encloses(abs_(wide), abs_(a))


@given(rationals, pads, pads, st.integers(min_value=4, max_value=64))
def test_round_out_preserves_containment(x, p1, p2, bits):
    a = enclosure_of(x - p1, x + p2)
    rounded = a.round_out(bits)
    assert encloses(rounded, a)
    assert width(rounded) <= width(a) + F(2, 2**bits)
    assert rounded.lo.denominator <= 2**bits
    assert rounded.hi.denominator <= 2**bits


def test_budget_bits_scale():
    assert budget_bits(10) == 44
    assert budget_bits(0) == 8  # floor of one digit


@pytest.mark.parametrize("digits", [1, 2, 3, 10, 100, 20000])
def test_budget_rounding_widens_by_at_most_an_eighth_of_the_digits(digits):
    # round_out adds at most 2**(1 - bits) to a width
    assert F(2, 2 ** budget_bits(digits)) <= F(1, 8 * 10**digits)


# -- misc operator coverage ----------------------------------------------------


def test_scalar_mixing():
    a = enc(1, 2)
    assert a + 1 == enc(2, 3)
    assert a * -2 == enc(-4, -2)
    assert a / -2 == enc(-1, F(-1, 2))
    with pytest.raises(TypeError):
        1 + a
    with pytest.raises(TypeError):
        2 * a


@pytest.mark.parametrize("scalar", [F(1, 2), F(3), 0.5, 2.0])
def test_non_int_scalars_are_refused(scalar):
    a = enc(1, 2)
    with pytest.raises(TypeError):
        a + scalar
    with pytest.raises(TypeError):
        scalar + a
    with pytest.raises(TypeError):
        a * scalar
    with pytest.raises(TypeError):
        scalar * a
    with pytest.raises(TypeError):
        a / scalar


def test_point_queries():
    p = Enclosure(3, 3, 7)
    assert is_point(p) and Enclosure(3, 3).den == 1
    assert width(p) == 0
    assert midpoint(p) == F(3, 7)


# -- the integer kernel against the Fraction endpoint formulas -----------------
#
# Reference: the endpoint rules of the Fraction-endpoint kernel this package
# used before enclosures became integer numerators over one unreduced
# denominator. Every operation must return endpoints equal in value.


def _ref_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _ref_mul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def _ref_reciprocal(a):
    if a[0] <= 0 <= a[1]:
        return None
    return 1 / a[1], 1 / a[0]


def _ref_abs(a):
    if a[0] >= 0:
        return a
    if a[1] <= 0:
        return -a[1], -a[0]
    return F(0), max(-a[0], a[1])


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
    return Enclosure(
        lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den
    )


@st.composite
def dyadic_enclosures(draw):
    """Endpoints on a 2**-bits grid, bits in the audit's range 960..4800."""
    bits = draw(st.sampled_from((960, 1920, 2880, 3840, 4800)) | st.integers(960, 4800))
    bound = 4 << bits
    lo = draw(st.integers(min_value=-bound, max_value=bound))
    width = draw(st.integers(min_value=0, max_value=bound)) >> draw(st.integers(0, bits))
    return Enclosure(lo, lo + width, 1 << bits)


enclosures = small_enclosures() | dyadic_enclosures()
int_scalars = st.integers(min_value=-(10**30), max_value=10**30)


@given(enclosures, enclosures)
def test_binary_ops_match_fraction_reference(a, b):
    ra, rb = _ends(a), _ends(b)
    assert _ends(add(a, b)) == _ref_add(ra, rb)
    assert _ends(mul(a, b)) == _ref_mul(ra, rb)
    with pytest.raises(TypeError):
        a + b
    if ra[0] >= 0:
        assert _ends(a * b) == _ref_mul(ra, rb)
    else:
        with pytest.raises(ValueError):
            a * b
    inv = _ref_reciprocal(rb)
    if inv is None:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert _ends(b.reciprocal()) == inv
        if ra[0] >= 0:
            assert _ends(a / b) == _ref_mul(ra, inv)
        else:
            with pytest.raises(ValueError):
                a / b


@given(enclosures, st.integers(min_value=1, max_value=5000))
def test_unary_ops_match_fraction_reference(a, bits):
    ra = _ends(a)
    assert _ends(abs_(a)) == _ref_abs(ra)
    assert _ends(neg(a)) == (-ra[1], -ra[0])
    assert _ends(a.round_out(bits)) == _ref_round_out(ra, bits)
    with pytest.raises(TypeError):
        abs(a)
    with pytest.raises(TypeError):
        -a


@given(enclosures, int_scalars)
def test_scalar_ops_match_fraction_reference(a, s):
    ra = _ends(a)
    p = (F(s), F(s))
    assert _ends(a + s) == _ref_add(ra, p)
    assert _ends(a * s) == _ref_mul(ra, p)
    with pytest.raises(TypeError):
        s + a
    with pytest.raises(TypeError):
        s * a
    if s == 0:
        with pytest.raises(ZeroDivisionError):
            a / s
    else:
        assert _ends(a / s) == _ref_mul(ra, _ref_reciprocal(p))


@given(enclosures, enclosures)
def test_strict_comparisons_match_fraction_reference(a, b):
    assert a.lies_below(b) == (a.hi < b.lo)
    assert a.lies_at_or_above(b) == (a.lo >= b.hi)
    assert encloses(a, b) == (a.lo <= b.lo and b.hi <= a.hi)
    assert contains(a, 0) == (a.lo <= 0 <= a.hi)


@given(enclosures, st.integers(min_value=2, max_value=10**12))
def test_equality_and_hash_ignore_unreduced_denominators(a, k):
    scaled = Enclosure(a.lo_num * k, a.hi_num * k, a.den * k)
    reduced = enclosure_of(a.lo, a.hi)
    for same in (scaled, reduced):
        assert same == a and a == same
        assert hash(same) == hash(a)
    assert {a, scaled, reduced} == {a}
    assert Enclosure(a.lo_num * k, a.hi_num * k + 1, a.den * k) != a


def test_hash_builds_no_fraction():
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from zeta3forms.exactnum import Enclosure\n"
        "assert hash(Enclosure(6, 10, 4)) == hash(Enclosure(3, 5, 2))\n"
        "assert hash(Enclosure(0, 0, 7)) == hash(Enclosure(0, 0))\n"
        "print('fractions' in sys.modules)\n"
    )
    argv = [sys.executable, "-I", "-S", "-B", "-c", code, SRC]
    proc = subprocess.run(argv, capture_output=True, encoding="utf-8")
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")


def test_arithmetic_computes_no_gcd(monkeypatch):
    import math

    a = Enclosure(-3, 5, 12)
    b = Enclosure(7, 9, 8)

    def forbidden(*args):
        raise AssertionError("an enclosure operation computed a gcd")

    monkeypatch.setattr(math, "gcd", forbidden)
    results = [b * a, b / b, b.reciprocal(), a + 1, a * -2, a / -3, a.round_out(8)]
    assert all(isinstance(r, Enclosure) for r in results)
    assert a.lies_below(b) and not a.lies_at_or_above(b) and encloses(b, b)
    assert contains(a, 0)
    assert is_point(a) is False and a == Enclosure(-6, 10, 24)


def test_unreduced_fields_and_fraction_views():
    a = Enclosure(6, 10, 4)
    assert (a.lo_num, a.hi_num, a.den) == (6, 10, 4)  # kept as given
    assert (a.lo, a.hi) == (F(3, 2), F(5, 2))
    assert width(a) == 1 and midpoint(a) == 2
    assert str(a) == "[3/2, 5/2]"
    # no gcd: an int shift keeps the denominator, a product multiplies them
    assert (a + 1).den == 4
    assert (a * Enclosure(1, 1, 2)).den == 8


def test_enclosure_is_immutable_and_validated():
    a = Enclosure(1, 2, 3)
    with pytest.raises(AttributeError):
        a.lo_num = 0
    with pytest.raises(ValueError):
        Enclosure(2, 1, 3)
    with pytest.raises(ValueError):
        Enclosure(1, 2, 0)
    with pytest.raises(ValueError):
        Enclosure(1, 2, -1)
    with pytest.raises(TypeError):
        Enclosure(0.5, 1)


@pytest.mark.parametrize("bad", [0.5, 1.0, F(1, 2), F(1), decimal.Decimal(1), "1"])
@pytest.mark.parametrize("field", [0, 1, 2])
def test_constructor_refuses_non_int_fields(bad, field):
    fields = [0, 1, 1]
    fields[field] = bad
    with pytest.raises(TypeError):
        Enclosure(*fields)


def test_copy_and_pickle_keep_the_fields():
    import copy
    import pickle

    a = Enclosure(6, 10, 4)
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
        "mixed-signs": (Enclosure(-a, b, odd), _BIG),
        "negative": (Enclosure(-b, -a, odd), _BIG),
        "power-of-two-den": (Enclosure(-a, b, 1 << (_BIG + 3)), _BIG),
        "den-barely-above-quotient": (Enclosure(-near, near, odd), 1000),
        # shifted numerators are exact multiples of den: remainder 0
        "exact-multiple": (Enclosure(-5 * odd, 7 * odd, odd), _BIG),
        # shifted numerators are k*den - 1: remainder den - 1
        "k-den-minus-one": (Enclosure(3 * odd - inv, 5 * odd + inv, odd), _BIG),
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
    assert a.round_out(bits) == Enclosure(-5 << bits, 7 << bits, 1 << bits)
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
    e = Enclosure(lo, hi, den)
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
