"""Unit tests for exact rationals read in Q_p and their small matrices."""

import random
from fractions import Fraction

import pytest

from padic_spectra.padics import (
    PAdicError,
    PAdicNumber,
    matrix_det,
    matrix_norm,
    matrix_sub_identity,
)


def test_from_int_valuation_and_unit():
    x = PAdicNumber(5, 50)
    assert x.valuation == 2
    assert x.value / 5**x.valuation == 2
    assert x.norm() == Fraction(1, 25)
    assert not x.is_zero


def test_from_int_unit_case():
    x = PAdicNumber(5, 7)
    assert x.valuation == 0
    assert x.norm() == 1


def test_zero():
    z = PAdicNumber(5, 0)
    assert z.is_zero
    assert z.valuation is None
    assert z.norm() == 0


def test_from_rational_residue():
    # 1/3 = 42 mod 125 because 42 * 3 = 126 = 1 + 125
    y = PAdicNumber(5, Fraction(1, 3))
    assert y.residue(3) == 42
    assert y.norm() == 1


def test_from_rational_negative_valuation():
    y = PAdicNumber(5, Fraction(3, 5))
    assert y.valuation == -1
    assert y.norm() == 5
    with pytest.raises(PAdicError, match="not a p-adic integer"):
        y.residue(1)


def test_addition_keeps_min_valuation():
    a = PAdicNumber(5, 50)   # val 2
    b = PAdicNumber(5, 7)    # val 0
    assert (a + b).valuation == 0
    assert (a + b).residue(3) == 57


def test_multiplication_adds_valuations():
    a = PAdicNumber(5, 50)
    assert (a * a).valuation == 4


def test_subtraction_normal_case():
    d = PAdicNumber(5, 57) - PAdicNumber(5, 7)
    assert d.valuation == 2
    assert d.residue(3) == 50


def test_mixed_prime_arithmetic_rejected():
    a = PAdicNumber(5, 1)
    b = PAdicNumber(7, 1)
    with pytest.raises(PAdicError, match="mixed primes"):
        a + b


# -- matrix helpers --------------------------------------------------------


def _mat(rows, p=5):
    return [[PAdicNumber(p, v) for v in row] for row in rows]


def test_matrix_norm_is_max_entry_norm():
    assert matrix_norm(_mat([[2, 5], [0, 3]])) == 1
    assert matrix_norm(_mat([[25, 50], [125, 0]])) == Fraction(1, 25)


def test_matrix_det_two_by_two():
    d = matrix_det(_mat([[2, 5], [0, 3]]))
    assert d.valuation == 0
    assert d.value == 6


def test_matrix_det_singular_mod_p():
    # 5*20 - 10*10 = 0: equal products cancel to the exact zero
    assert matrix_det(_mat([[5, 10], [10, 20]])).is_zero


@pytest.mark.parametrize("p", [5, 7])
def test_matrix_det_two_by_two_matches_the_difference_of_products(p):
    # the cofactor expansion covers 2 x 2 exactly; every third matrix has
    # proportional rows, so its products cancel
    rng = random.Random(p)
    zeros = 0
    for i in range(3000):
        a, b, k = (Fraction(rng.randrange(-p**4, p**4), rng.randrange(1, p**2)) for _ in range(3))
        c, d = (a * k, b * k) if i % 3 == 0 else (Fraction(rng.randrange(p**4)) for _ in range(2))
        det = matrix_det(_mat([[a, b], [c, d]], p))
        assert det.p == p and det.value == a * d - b * c
        zeros += det.is_zero
    assert zeros >= 1000


def test_matrix_sub_identity():
    m = matrix_sub_identity(_mat([[1, 5], [0, 1]]))
    assert m[0][0].is_zero and m[1][1].is_zero
    assert m[0][1].norm() == Fraction(1, 5)
    assert matrix_norm(matrix_sub_identity(_mat([[2, 0], [0, 1]]))) == 1
