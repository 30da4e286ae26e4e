"""Exact rational and interval (enclosure) arithmetic.

Every real quantity in this package is carried either as an exact rational
(`Rat`, an alias of `fractions.Fraction`) or as an `Enclosure`, a closed
interval guaranteed to contain the true value. Endpoints are never floats,
so a strict inequality certified through enclosures is an exact fact, not a
rounding artifact.

Representation: an enclosure is three integers, numerators
``lo_num <= hi_num`` over one shared positive denominator ``den``; its
endpoints are the exact rationals lo_num/den and hi_num/den. The
denominator is never reduced, and no operation on enclosures computes a
gcd:

* ``+`` and ``-`` align denominators: when one divides the other both are
  scaled to the larger, otherwise to their product;
* ``*`` multiplies the denominators and picks endpoints by sign cases (two
  products when a factor is non-negative, four with min/max otherwise);
* ``**k`` raises numerators and denominator to the k-th power, and
  ``reciprocal`` maps [a/d, b/d] to [d*a, d*b] / (a*b);
* comparisons cross-multiply integers.

Sizes stay bounded because long computations round outward onto a 2**-bits
grid (`Enclosure.round_out`). A request for ``digits`` decimal digits gets
``budget_bits(digits)`` = 4 * digits + 4 bits: 16**-digits <= 10**-digits,
so operands stay about as long as the digits asked for, and rounding adds
at most 10**-digits / 8 to a width. R_n (about 10**(-1.3 n)) goes onto a
grid that many bits below its own size (``bounds.ratio_enclosure``). Each
endpoint is one exact floor division, `floor_div_scaled`: floor(n * 2**bits
/ den) with the power of two that ``den`` carries cancelled first, which
leaves the same rational and so the same quotient. ``zeta3_direct`` sums in
units of a power of two, and ``bounds.form_abs_enclosure`` divides by its
full denominator once per (n, digits). Reduced `Fraction`s are built only
when an endpoint is read (``lo``, ``hi``, ``width``, ``midpoint``) and by
``__hash__`` and ``__str__``; the CLI's decimal printer reads the integers
instead. See Moore, *Interval Analysis* (1966), for the interval rules.

All operations are pure and all values immutable; sharing across threads is
safe.
"""

from __future__ import annotations

import sys
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Optional, Union

# Exact serialization of arbitrarily large integers is part of this package's
# contract; CPython's default 4300-digit str() guard would break it.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

Rat = Fraction

Scalar = Union[int, Fraction]

# Outward-rounding budget: bits of denominator granularity granted per
# requested decimal digit. 4 bits/digit is a grid of 16**-digits <=
# 10**-digits, and `budget_bits` adds 4 bits, so rounding onto it widens an
# enclosure by at most 2**(1 - bits) <= 10**-digits / 8.
BITS_PER_DIGIT = 4


def budget_bits(digits: int) -> int:
    return BITS_PER_DIGIT * max(1, digits) + 4


# Size of every production cache, keyed by requested digits or by n, so long
# runs stay bounded.
DIGITS_CACHE_SIZE = 256


def rat_str(x: Scalar) -> str:
    """Serialize a rational as ``p/q``, or just ``p`` when q = 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Trichotomy(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    CONTAINS_ZERO = "contains_zero"


def _scales(d: int, e: int) -> tuple[int, int, int]:
    """(s, t, den) with d*s == e*t == den: the larger of d and e when it is a
    multiple of the other, else d*e."""
    if d == e:
        return 1, 1, d
    if d > e:
        if d % e == 0:
            return 1, d // e, d
    elif e % d == 0:
        return e // d, 1, e
    return e, d, d * e


class Enclosure:
    """Closed interval [lo_num/den, hi_num/den] with integers lo_num <= hi_num
    and den > 0.

    Arithmetic is containment-sound: if x is in ``a`` and y is in ``b`` then
    x op y is in ``a op b``. Scalars (int or Fraction) mix freely with
    enclosures and are treated as zero-width intervals. ``==`` and ``hash``
    compare values, so the same interval over two unreduced denominators is
    one value.
    """

    __slots__ = ("lo_num", "hi_num", "den")

    lo_num: int
    hi_num: int
    den: int

    def __init__(self, lo: Scalar, hi: Scalar) -> None:
        lo, hi = _scalar(lo), _scalar(hi)
        s, t, den = _scales(lo.denominator, hi.denominator)
        lo_num, hi_num = lo.numerator * s, hi.numerator * t
        _check_order(lo_num, hi_num, den)
        _set_lo(self, lo_num)
        _set_hi(self, hi_num)
        _set_den(self, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Enclosure is immutable; cannot set {name!r}")

    def __reduce__(self):
        return Enclosure.from_parts, (self.lo_num, self.hi_num, self.den)

    @staticmethod
    def point(x: Scalar) -> Enclosure:
        x = _scalar(x)
        return _raw(x.numerator, x.numerator, x.denominator)

    @staticmethod
    def from_parts(lo_num: int, hi_num: int, den: int) -> Enclosure:
        """[lo_num/den, hi_num/den] from integers, kept unreduced."""
        if den < 1:
            raise ValueError("den must be >= 1")
        _check_order(lo_num, hi_num, den)
        return _raw(lo_num, hi_num, den)

    # -- exact endpoints, built on access ---------------------------------

    @property
    def lo(self) -> Rat:
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Rat:
        return Fraction(self.hi_num, self.den)

    # -- queries ----------------------------------------------------------

    def width(self) -> Rat:
        return Fraction(self.hi_num - self.lo_num, self.den)

    def midpoint(self) -> Rat:
        return Fraction(self.lo_num + self.hi_num, 2 * self.den)

    def is_point(self) -> bool:
        return self.lo_num == self.hi_num

    def contains(self, x: Scalar) -> bool:
        x = _scalar(x)
        p, q = x.numerator * self.den, x.denominator
        return self.lo_num * q <= p <= self.hi_num * q

    def encloses(self, other: Enclosure) -> bool:
        """True when ``other`` lies entirely inside ``self``."""
        d, e = self.den, other.den
        return self.lo_num * e <= other.lo_num * d and other.hi_num * d <= self.hi_num * e

    def lies_below(self, other: Enclosure) -> bool:
        """Every point of ``self`` is strictly below every point of ``other``."""
        d, e = self.den, other.den
        if d == e:
            return self.hi_num < other.lo_num
        return self.hi_num * e < other.lo_num * d

    def lies_at_or_above(self, other: Enclosure) -> bool:
        """Every point of ``self`` is at or above every point of ``other``."""
        d, e = self.den, other.den
        if d == e:
            return self.lo_num >= other.hi_num
        return self.lo_num * e >= other.hi_num * d

    def intersect(self, other: Enclosure) -> Optional[Enclosure]:
        """Common part of two enclosures, or None when they are disjoint."""
        s, t, den = _scales(self.den, other.den)
        lo_self = self.lo_num * s >= other.lo_num * t
        hi_self = self.hi_num * s <= other.hi_num * t
        if lo_self and hi_self:
            return self
        if not lo_self and not hi_self:
            return other
        lo = self.lo_num * s if lo_self else other.lo_num * t
        hi = self.hi_num * s if hi_self else other.hi_num * t
        if lo > hi:
            return None
        return _raw(lo, hi, den)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Enclosure):
            return NotImplemented
        d, e = self.den, other.den
        return self.lo_num * e == other.lo_num * d and self.hi_num * e == other.hi_num * d

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Union[Enclosure, Scalar]) -> Enclosure:
        if type(other) is int:
            shift = other * self.den
            return _raw(self.lo_num + shift, self.hi_num + shift, self.den)
        o = other if type(other) is Enclosure else _coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return _raw(self.lo_num + o.lo_num, self.hi_num + o.hi_num, self.den)
        s, t, den = _scales(self.den, o.den)
        return _raw(self.lo_num * s + o.lo_num * t, self.hi_num * s + o.hi_num * t, den)

    __radd__ = __add__

    def __neg__(self) -> Enclosure:
        return _raw(-self.hi_num, -self.lo_num, self.den)

    def __sub__(self, other: Union[Enclosure, Scalar]) -> Enclosure:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: Scalar) -> Enclosure:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: Union[Enclosure, Scalar]) -> Enclosure:
        if type(other) is int:
            if other >= 0:
                return _raw(self.lo_num * other, self.hi_num * other, self.den)
            return _raw(self.hi_num * other, self.lo_num * other, self.den)
        o = other if type(other) is Enclosure else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.lo_num, self.hi_num, o.lo_num, o.hi_num
        den = self.den * o.den
        if c < 0 <= a:
            a, b, c, d = c, d, a, b  # put the non-negative factor second
        if c >= 0:
            # [c, d] >= 0: the low end pairs a with c (a >= 0) or d (a < 0),
            # the high end pairs b with d (b >= 0) or c (b < 0).
            return _raw(a * (c if a >= 0 else d), b * (d if b >= 0 else c), den)
        products = (a * c, a * d, b * c, b * d)
        return _raw(min(products), max(products), den)

    __rmul__ = __mul__

    def reciprocal(self) -> Enclosure:
        a, b, d = self.lo_num, self.hi_num, self.den
        if a <= 0 <= b:
            raise ZeroDivisionError("reciprocal of an enclosure containing zero")
        # [d/b, d/a] over the common denominator a*b > 0
        return _raw(d * a, d * b, a * b)

    def __truediv__(self, other: Union[Enclosure, Scalar]) -> Enclosure:
        if type(other) is int and other != 0:
            if other > 0:
                return _raw(self.lo_num, self.hi_num, self.den * other)
            return _raw(-self.hi_num, -self.lo_num, -self.den * other)
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other: Scalar) -> Enclosure:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.reciprocal()

    def __pow__(self, k: int) -> Enclosure:
        """Tight image of x -> x**k over the interval, k a non-negative int.

        Even powers of a zero-straddling interval use the image rule
        [-2, 1]**2 = [0, 4], not the looser repeated product [-2, 4].
        """
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative powers not supported; use reciprocal()")
        if k == 0:
            return _raw(1, 1, 1)
        plo, phi, den = self.lo_num**k, self.hi_num**k, self.den**k
        if k % 2 == 1 or self.lo_num >= 0:
            return _raw(plo, phi, den)
        if self.hi_num <= 0:
            return _raw(phi, plo, den)
        return _raw(0, max(plo, phi), den)

    def __abs__(self) -> Enclosure:
        if self.lo_num >= 0:
            return self
        if self.hi_num <= 0:
            return -self
        return _raw(0, max(-self.lo_num, self.hi_num), self.den)

    def round_out(self, bits: int) -> Enclosure:
        """Outward-round endpoints onto the grid of multiples of 2**-bits.

        Containment is preserved; the width grows by at most 2**(1-bits).
        Used to stop endpoint sizes from blowing up across long
        computations.
        """
        if bits < 1:
            raise ValueError("bits must be >= 1")
        lo = floor_div_scaled(self.lo_num, bits, self.den)
        hi = -floor_div_scaled(-self.hi_num, bits, self.den)
        return _raw(lo, hi, 1 << bits)

    def __str__(self) -> str:
        return f"[{rat_str(self.lo)}, {rat_str(self.hi)}]"

    def __repr__(self) -> str:
        return f"Enclosure(lo={self.lo!r}, hi={self.hi!r})"


# Slot setters that bypass the immutability guard, for construction only.
_set_lo = Enclosure.lo_num.__set__
_set_hi = Enclosure.hi_num.__set__
_set_den = Enclosure.den.__set__
_new = object.__new__


def floor_div_scaled(n: int, bits: int, den: int) -> int:
    """floor(n * 2**bits / den), exactly, for bits >= 0 and den > 0.

    The power of two 2**t dividing den is cancelled first: floor(floor(x/2**t)
    / odd) = floor(x / (2**t * odd)) for integer x, so shifting n * 2**bits
    right by t and dividing by den's odd part gives the same quotient from a
    shorter divisor.
    """
    t = (den & -den).bit_length() - 1
    return ((n << bits) >> t) // (den >> t)


def _raw(lo_num: int, hi_num: int, den: int) -> Enclosure:
    """Enclosure from already valid fields: lo_num <= hi_num, den > 0."""
    e = _new(Enclosure)
    _set_lo(e, lo_num)
    _set_hi(e, hi_num)
    _set_den(e, den)
    return e


def _scalar(x: object) -> Scalar:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"enclosure endpoints must be int or Fraction, not {type(x).__name__}")


def _check_order(lo_num: int, hi_num: int, den: int) -> None:
    if lo_num > hi_num:
        raise ValueError(
            f"inverted enclosure: lo={Fraction(lo_num, den)} > hi={Fraction(hi_num, den)}"
        )


def _coerce(x: object) -> Optional[Enclosure]:
    if isinstance(x, Enclosure):
        return x
    if isinstance(x, (int, Fraction)):
        return _raw(x.numerator, x.numerator, x.denominator)
    return None


def trichotomy(a: Enclosure) -> Trichotomy:
    """Certified sign of every value in the enclosure.

    POSITIVE iff lo > 0, NEGATIVE iff hi < 0, CONTAINS_ZERO otherwise
    (exactly when lo <= 0 <= hi). It and `bounds.sandwich_status` are the
    package's decision procedures for strict inequalities. The denominator
    is positive, so an endpoint has the sign of its numerator.
    """
    if a.lo_num > 0:
        return Trichotomy.POSITIVE
    if a.hi_num < 0:
        return Trichotomy.NEGATIVE
    return Trichotomy.CONTAINS_ZERO


@lru_cache(maxsize=DIGITS_CACHE_SIZE)
def sqrt2_enclosure(digits: int) -> Enclosure:
    """Enclosure of sqrt(2) of width <= 10**-digits.

    Built from the integer square root of 2*10**(2*digits), so the defining
    property lo**2 <= 2 <= hi**2 holds exactly by construction.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    scale = 10**digits
    root = isqrt(2 * scale * scale)
    return Enclosure.from_parts(root, root + 1, scale)
