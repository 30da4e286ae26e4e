"""Exact rational and interval (enclosure) arithmetic.

Every real quantity in this package is carried either as an exact rational
(a `fractions.Fraction`) or as an `Enclosure`, a closed interval guaranteed
to contain the true value. Endpoints are never floats, so a strict
inequality certified through enclosures is an exact fact, not a rounding
artifact.

Representation: an enclosure is three integers, numerators
``lo_num <= hi_num`` over one shared positive denominator ``den``; its
endpoints are the exact rationals lo_num/den and hi_num/den. The
denominator is never reduced, and no operation on enclosures computes a
gcd:

* ``+`` aligns denominators: when one divides the other both are scaled
  to the larger, otherwise to their product;
* ``*`` multiplies the denominators and picks endpoints by sign cases (two
  products when a factor is non-negative, four with min/max otherwise);
* ``reciprocal`` maps [a/d, b/d] to [d*a, d*b] / (a*b);
* comparisons cross-multiply integers.

Sizes stay bounded because long computations round outward onto a 2**-bits
grid (`Enclosure.round_out`). A request for ``digits`` decimal digits gets
``budget_bits(digits)`` = 4 * digits + 4 bits: 16**-digits <= 10**-digits,
so operands stay about as long as the digits asked for, and rounding adds
at most 10**-digits / 8 to a width. R_n (about 10**(-1.3 n)) goes onto a
grid that many bits below its own size (``bounds.ratio_enclosure``). Each
endpoint is one exact floor division, `floor_div_scaled`: floor(n * 2**bits
/ den) with the power of two that ``den`` carries cancelled first, which
leaves the same rational and so the same quotient.
``bounds.form_abs_enclosure`` divides by its full denominator once per (n,
digits). Reduced `Fraction`s are built only when an endpoint is read
(``lo``, ``hi``, ``width``, ``midpoint``) and by ``__hash__`` and
``__str__``; the CLI's decimal printer reads the integers instead. See
Moore, *Interval Analysis* (1966), for the interval rules.

All operations are pure and all values immutable; sharing across threads is
safe.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Union

# Exact serialization of arbitrarily large integers is part of this package's
# contract; CPython's default 4300-digit str() guard would break it.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

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


def _scales(d: int, e: int) -> tuple[int, int, int]:
    """(s, t, den) with d*s == e*t == den: the larger of d and e when it is a
    multiple of the other, else d*e."""
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
    x op y is in ``a op b``. Int scalars mix with enclosures in ``+``, ``*``
    and ``/`` as zero-width intervals. ``==`` and ``hash`` compare values, so
    the same interval over two unreduced denominators is one value.
    """

    __slots__ = ("lo_num", "hi_num", "den")

    lo_num: int
    hi_num: int
    den: int

    def __init__(self, lo_num: int, hi_num: int, den: int = 1) -> None:
        """[lo_num/den, hi_num/den] from integers, kept unreduced."""
        for field in (lo_num, hi_num, den):
            if not isinstance(field, int):
                raise TypeError(f"enclosure fields must be int, not {type(field).__name__}")
        if den < 1:
            raise ValueError("den must be >= 1")
        if lo_num > hi_num:
            raise ValueError(
                f"inverted enclosure: lo={Fraction(lo_num, den)} > hi={Fraction(hi_num, den)}"
            )
        _set_lo(self, lo_num)
        _set_hi(self, hi_num)
        _set_den(self, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Enclosure is immutable; cannot set {name!r}")

    def __reduce__(self):
        return Enclosure, (self.lo_num, self.hi_num, self.den)

    # -- exact endpoints, built on access ---------------------------------

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, self.den)

    # -- queries ----------------------------------------------------------

    def width(self) -> Fraction:
        return Fraction(self.hi_num - self.lo_num, self.den)

    def midpoint(self) -> Fraction:
        return Fraction(self.lo_num + self.hi_num, 2 * self.den)

    def is_point(self) -> bool:
        return self.lo_num == self.hi_num

    def contains(self, x: int | Fraction) -> bool:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"contains expects an int or Fraction, not {type(x).__name__}")
        p, q = x.numerator * self.den, x.denominator
        return self.lo_num * q <= p <= self.hi_num * q

    def encloses(self, other: Enclosure) -> bool:
        """True when ``other`` lies entirely inside ``self``."""
        d, e = self.den, other.den
        return self.lo_num * e <= other.lo_num * d and other.hi_num * d <= self.hi_num * e

    def lies_below(self, other: Enclosure) -> bool:
        """Every point of ``self`` is strictly below every point of ``other``."""
        return self.hi_num * other.den < other.lo_num * self.den

    def lies_at_or_above(self, other: Enclosure) -> bool:
        """Every point of ``self`` is at or above every point of ``other``."""
        return self.lo_num * other.den >= other.hi_num * self.den

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Enclosure):
            return NotImplemented
        d, e = self.den, other.den
        return self.lo_num * e == other.lo_num * d and self.hi_num * e == other.hi_num * d

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Union[Enclosure, int]) -> Enclosure:
        if isinstance(other, int):
            shift = other * self.den
            return _raw(self.lo_num + shift, self.hi_num + shift, self.den)
        if not isinstance(other, Enclosure):
            return NotImplemented
        s, t, den = _scales(self.den, other.den)
        return _raw(self.lo_num * s + other.lo_num * t, self.hi_num * s + other.hi_num * t, den)

    __radd__ = __add__

    def __neg__(self) -> Enclosure:
        return _raw(-self.hi_num, -self.lo_num, self.den)

    def __mul__(self, other: Union[Enclosure, int]) -> Enclosure:
        if isinstance(other, int):
            if other >= 0:
                return _raw(self.lo_num * other, self.hi_num * other, self.den)
            return _raw(self.hi_num * other, self.lo_num * other, self.den)
        if not isinstance(other, Enclosure):
            return NotImplemented
        a, b, c, d = self.lo_num, self.hi_num, other.lo_num, other.hi_num
        den = self.den * other.den
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

    def __truediv__(self, other: Union[Enclosure, int]) -> Enclosure:
        if isinstance(other, int):
            if other > 0:
                return _raw(self.lo_num, self.hi_num, self.den * other)
            if other < 0:
                return _raw(-self.hi_num, -self.lo_num, -self.den * other)
            raise ZeroDivisionError("division of an enclosure by zero")
        if not isinstance(other, Enclosure):
            return NotImplemented
        return self * other.reciprocal()

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
        return f"[{self.lo}, {self.hi}]"

    def __repr__(self) -> str:
        return f"Enclosure({self.lo_num}, {self.hi_num}, {self.den})"


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

