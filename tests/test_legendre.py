from fractions import Fraction

import pytest

from oracles import binom, coeffs, rodrigues_coeffs

F = Fraction


def test_small_coefficient_sequences():
    assert coeffs(0).coeffs == (1,)
    assert coeffs(1).coeffs == (1, -2)
    assert coeffs(2).coeffs == (1, -6, 6)


def test_structural_coefficients():
    for n in range(40):
        c = coeffs(n).coeffs
        assert c[0] == 1
        assert c[n] == (-1) ** n * binom(2 * n, n)


def test_matches_rodrigues_oracle():
    for n in range(31):
        assert coeffs(n).coeffs == rodrigues_coeffs(n)


def test_evaluate_examples():
    assert coeffs(1).evaluate(F(1, 2)) == 0  # odd case is antisymmetric about 1/2
    assert coeffs(2).evaluate(F(0)) == 1
    assert coeffs(2).evaluate(F(1)) == 1  # 1 - 6 + 6


def _exact_inner_product(m: int, n: int) -> Fraction:
    # integral over [0,1] of P_m P_n via exact monomial integration
    a, b = coeffs(m).coeffs, coeffs(n).coeffs
    total = Fraction(0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            total += Fraction(ai * bj, i + j + 1)
    return total


def test_orthogonality():
    for m in range(13):
        for n in range(m, 13):
            expected = Fraction(1, 2 * n + 1) if m == n else Fraction(0)
            assert _exact_inner_product(m, n) == expected


def test_bounded_by_one_on_grid():
    grid = [Fraction(k, 64) for k in range(65)]
    for n in range(13):
        p = coeffs(n)
        for x in grid:
            assert abs(p.evaluate(x)) <= 1


def test_rejects_negative_degree():
    with pytest.raises(ValueError):
        coeffs(-1)
    with pytest.raises(ValueError):
        rodrigues_coeffs(-1)
