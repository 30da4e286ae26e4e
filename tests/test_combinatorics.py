from fractions import Fraction

import pytest

from oracles import binom, dn_cubed, harmonic, prime_power_lcm, primes_up_to
from zeta3forms.beukers import d

F = Fraction


# -- binomials -----------------------------------------------------------------


def test_binom_examples():
    assert binom(4, 2) == 6
    assert binom(10, 0) == 1
    assert binom(20, 10) == 184756
    assert binom(3, 5) == 0


def test_binom_rejects_negatives():
    with pytest.raises(ValueError):
        binom(-1, 0)
    with pytest.raises(ValueError):
        binom(3, -2)


def test_binom_against_pascal_triangle():
    row = [1]
    for n in range(31):
        for k in range(n + 1):
            assert binom(n, k) == row[k]
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]


# -- harmonic numbers ----------------------------------------------------------


def test_harmonic_examples():
    assert harmonic(0, 3) == 0
    assert harmonic(2, 2) == F(5, 4)
    assert harmonic(3, 3) == F(251, 216)  # 1 + 1/8 + 1/27


def test_harmonic_difference_property():
    for order in (2, 3):
        for r in range(1, 501):
            assert harmonic(r, order) - harmonic(r - 1, order) == F(1, r**order)


def test_harmonic_rejects_bad_args():
    with pytest.raises(ValueError):
        harmonic(-1, 2)
    with pytest.raises(ValueError):
        harmonic(3, 0)


# -- d_n = lcm(1..n) -----------------------------------------------------------


def test_d_small_values():
    assert d(1) == 1
    assert d(2) == 2
    assert d(3) == 6
    assert d(4) == 12
    assert d(10) == 2520


def test_d_cube():
    assert d(10) == 2520
    assert dn_cubed(10) == 2520**3


def test_d_prime_power_oracle_value():
    # 2^3 * 3^2 * 5 * 7
    assert prime_power_lcm(10) == 8 * 9 * 5 * 7


def test_d_rejects_zero():
    with pytest.raises(ValueError):
        d(0)


def test_two_method_equivalence_up_to_200():
    for n in range(1, 201):
        assert d(n) == prime_power_lcm(n)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime_power_base(n: int):
    """The prime p when n = p^a (a >= 1), else None."""
    for p in primes_up_to(n):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    return None


def test_divisibility_chain():
    for n in range(1, 200):
        lo, hi = d(n), d(n + 1)
        assert hi % lo == 0
        q = hi // lo
        base = _prime_power_base(n + 1)
        if base is None:
            assert q == 1
        else:
            assert q == base and _is_prime(q)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
