"""Finite field arithmetic and additive character tables."""

import numpy as np
import pytest

from padic_spectra.padics import PAdicError
from padic_spectra.fields import (
    FiniteField,
    additive_character_table,
)


def test_prime_field_is_arithmetic_mod_p():
    F = FiniteField(13)
    assert F.q == 13 and F.f == 1
    a, b = F(7), F(9)
    assert (a + b).code == 3
    assert (a * b).code == (7 * 9) % 13
    assert (a / b) * b == a


@pytest.mark.parametrize("p, f", [(13, 1), (5, 2)])
def test_addition_is_coefficientwise(p, f):
    # sums, differences and negations agree with the coefficient vectors
    # added mod p, on the direct prime-field path and on F_(p^f)
    F = FiniteField(p, f)
    elems = list(F.elements())
    for x in elems:
        assert (-x).code == F.element_from_coeffs([-a % p for a in x.coeffs()]).code
        for y in elems:
            pairs = list(zip(x.coeffs(), y.coeffs()))
            assert (x + y) == F.element_from_coeffs([(a + b) % p for a, b in pairs])
            assert (x - y) == F.element_from_coeffs([(a - b) % p for a, b in pairs])


def test_extension_field_size_and_inverses():
    F = FiniteField(7, 2)
    elems = list(F.elements())
    assert len(elems) == 49
    for x in elems:
        if x.code != 0:
            assert (x / x).code == 1


def test_field_factory_is_cached():
    assert FiniteField(7, 2) is FiniteField(7, 2)


def test_elements_from_different_fields_do_not_mix():
    a = FiniteField(5)(2)
    b = FiniteField(7)(2)
    with pytest.raises(Exception):
        a + b


def test_trace_is_additive_and_lands_in_prime_field():
    F = FiniteField(7, 2)
    for x in F.elements():
        for y in (F(3), F(19)):
            assert (x + y).trace() == (x.trace() + y.trace()) % 7


def test_trace_of_one_is_extension_degree():
    assert FiniteField(7, 2)(1).trace() == 2
    assert FiniteField(5, 1)(1).trace() == 1


def test_trace_frobenius_invariance():
    # Tr(x^p) = Tr(x) since Frobenius permutes the conjugates
    F = FiniteField(5, 2)
    for x in F.elements():
        assert (x ** 5).trace() == x.trace()


def test_trace_surjective_onto_prime_field():
    F = FiniteField(7, 2)
    assert {x.trace() for x in F.elements()} == set(range(7))


def test_squares_split_the_units_in_half():
    for F, half in ((FiniteField(13), 6), (FiniteField(5, 2), 12)):
        assert len({(x * x).code for x in F.elements()} - {0}) == half


def test_element_from_coeffs_roundtrip():
    F = FiniteField(7, 2)
    x = F.element_from_coeffs([3, 4])
    assert x == F.element_from_coeffs([3, 4])
    assert x - F.element_from_coeffs([3, 0]) == F.element_from_coeffs([0, 4])


def test_element_from_coeffs_refuses_more_than_f_coefficients():
    with pytest.raises(PAdicError, match="length 3 exceeds f=2"):
        FiniteField(5, 2).element_from_coeffs([1, 1, 1])


# -- character tables --------------------------------------------------------


def test_character_table_rows_are_orthonormal():
    T = additive_character_table(5)
    G = T @ T.conj().T / 5
    assert np.abs(G - np.eye(5)).max() < 1e-12


def test_character_table_trivial_row():
    T = additive_character_table(7)
    assert np.abs(T[0] - 1).max() < 1e-14


def test_nontrivial_rows_are_mean_zero():
    for p, f in [(5, 1), (7, 1), (5, 2)]:
        T = additive_character_table(p, f)
        sums = T[1:].sum(axis=1)
        assert np.abs(sums).max() < 1e-10


def test_character_values_are_pth_roots_of_unity():
    T = additive_character_table(5, 2)
    assert T.shape == (25, 25)
    assert np.abs(np.abs(T) - 1).max() < 1e-12
    assert np.abs(T**5 - 1).max() < 1e-10


def test_characters_are_multiplicative_in_the_argument():
    # psi_j(x + y) = psi_j(x) psi_j(y): check on the prime field by indexing
    T = additive_character_table(7)
    for j in range(7):
        for x in range(7):
            for y in range(7):
                assert abs(T[j, (x + y) % 7] - T[j, x] * T[j, y]) < 1e-12
