"""Unit tests for truncated p-adic arithmetic."""

import random
from fractions import Fraction

import pytest

from padic_spectra.padics import (
    PAdicNumber,
    PrecisionError,
    matrix_det,
    matrix_norm,
    matrix_sub_identity,
)


def test_from_int_valuation_and_unit():
    x = PAdicNumber.from_int(50, 5, 8)
    assert x.valuation == 2
    assert x.unit == 2
    assert x.norm() == Fraction(1, 25)
    assert not x.is_zero


def test_from_int_unit_case():
    x = PAdicNumber.from_int(7, 5, 8)
    assert x.valuation == 0
    assert x.norm() == 1


def test_zero():
    z = PAdicNumber.zero(5, 8)
    assert z.is_zero
    assert z.norm() == 0


def test_from_rational_residue():
    # 1/3 = 42 mod 125 because 42 * 3 = 126 = 1 + 125
    y = PAdicNumber.from_rational(Fraction(1, 3), 5, 6)
    assert y.residue(3) == 42
    assert y.norm() == 1


def test_from_rational_negative_valuation():
    y = PAdicNumber.from_rational(Fraction(3, 5), 5, 6)
    assert y.valuation == -1
    assert y.norm() == 5


def test_addition_keeps_min_valuation():
    a = PAdicNumber.from_int(50, 5, 8)   # val 2
    b = PAdicNumber.from_int(7, 5, 8)    # val 0
    assert (a + b).valuation == 0
    assert (a + b).residue(3) == 57


def test_multiplication_adds_valuations():
    a = PAdicNumber.from_int(50, 5, 8)
    assert (a * a).valuation == 4


def test_negation_roundtrip():
    a = PAdicNumber.from_int(7, 5, 8)
    assert (-(-a)).agrees_with(a)


def test_subtracting_equal_values_raises():
    # the difference vanishes to full precision and cannot be told from 0
    a = PAdicNumber.from_int(7, 5, 8)
    with pytest.raises(PrecisionError):
        a - a


def test_subtraction_normal_case():
    a = PAdicNumber.from_int(57, 5, 8)
    b = PAdicNumber.from_int(7, 5, 8)
    d = a - b
    assert d.valuation == 2
    assert d.unit % 5 == 2


def test_agrees_with_respects_shared_precision():
    a = PAdicNumber.from_int(7, 5, 8)
    b = PAdicNumber.from_int(7 + 5**3, 5, 8)
    b3 = PAdicNumber.from_int(7 + 5**3, 5, 3)
    assert PAdicNumber.from_int(7, 5, 3).agrees_with(b3)
    assert a.agrees_with(b3)
    assert not a.agrees_with(b)


def test_mixed_prime_arithmetic_rejected():
    a = PAdicNumber.from_int(1, 5, 4)
    b = PAdicNumber.from_int(1, 7, 4)
    with pytest.raises(Exception):
        a + b


# -- matrix helpers --------------------------------------------------------


def _mat(rows, p=5, prec=8):
    return [[PAdicNumber.from_int(v, p, prec) for v in row] for row in rows]


def test_matrix_norm_is_max_entry_norm():
    assert matrix_norm(_mat([[2, 5], [0, 3]])) == 1
    assert matrix_norm(_mat([[25, 50], [125, 0]])) == Fraction(1, 25)


def test_matrix_det_two_by_two():
    d = matrix_det(_mat([[2, 5], [0, 3]]))
    assert d.valuation == 0
    assert d.unit % 5 == 1  # 2*3 - 5*0 = 6


def test_matrix_det_singular_mod_p():
    d = matrix_det(_mat([[5, 10], [10, 20]]))
    # 5*20 - 10*10 = 0; equal products cancel to an honest zero
    assert d.is_zero or d.norm() < Fraction(1, 5**4)


def _two_by_two_det(rows):
    """The 2 x 2 determinant as a dedicated branch once computed it: one
    difference of products, a full cancellation collapsed to exact zero."""
    a = rows[0][0] * rows[1][1]
    b = rows[0][1] * rows[1][0]
    try:
        return a - b
    except PrecisionError:
        return PAdicNumber.zero(a.p, min(a.precision, b.precision))


def _random_entry(rng, p):
    precision = rng.randint(1, 6)
    if rng.random() < 0.15:
        return PAdicNumber.zero(p, precision)
    value = rng.randrange(1, p**precision) * p ** rng.randint(0, 2)
    return PAdicNumber.from_int(value, p, precision)


@pytest.mark.parametrize("p", [5, 7])
def test_matrix_det_two_by_two_matches_the_difference_of_products(p):
    # the cofactor expansion covers 2 x 2 exactly, zero precision included;
    # every third matrix has proportional rows, so its products cancel
    rng = random.Random(p)
    zeros = 0
    for i in range(3000):
        a, b, k = (_random_entry(rng, p) for _ in range(3))
        if i % 3:
            c, d = _random_entry(rng, p), _random_entry(rng, p)
        else:
            c, d = a * k, b * k
        rows = [[a, b], [c, d]]
        det = matrix_det(rows)
        assert det == _two_by_two_det(rows), rows
        zeros += det.is_zero
    assert zeros > 1000


def test_matrix_sub_identity():
    m = matrix_sub_identity(_mat([[1, 5], [0, 1]]))
    assert m[0][0].is_zero and m[1][1].is_zero
    assert m[0][1].norm() == Fraction(1, 5)
    assert matrix_norm(matrix_sub_identity(_mat([[2, 0], [0, 1]]))) == 1
