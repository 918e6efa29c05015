"""Polynomial maps, Newton inversion, equalising numbers, and the repair
transform.

Expected equalising numbers were computed by exhaustive modular brute force
over all ball centers at levels 0..3 with a two-digit certification margin,
independently of the library (see the per-map notes).
"""

import random
from fractions import Fraction

import pytest

from padic_spectra.equalising import (
    NOT_EQUALISING,
    ball_image_is_equal_radius,
    check_composite_identity,
    equalise_pair,
    equalising_number_of_map,
)
from padic_spectra.models import Atlas
from padic_spectra.padics import (
    PAdicNumber,
    PrecisionError,
    matrix_norm,
    matrix_sub_identity,
)
from padic_spectra.polymaps import (
    POLYMAP_SCHEMA,
    NewtonInverse,
    PolynomialMap,
    identity_map,
    polymap_from_json_dict,
    polymap_to_json_dict,
)


def _map1(coeffs, p=5, prec=8, domain=("disc",)):
    return PolynomialMap(p, [coeffs], domain, prec)


# x + x^2 has a critical point at x = 2 mod 5 (derivative 1 + 2x vanishes),
# so balls around 2 contract; brute force says every level 0..3 fails.
def test_critical_point_map_never_equalises():
    F = _map1({(1,): 1, (2,): 1})
    assert equalising_number_of_map(F, (0, 3)) is NOT_EQUALISING


# x + 5x^2 is an isometry: F(x)-F(y) = (x-y)(1 + 5(x+y)), second factor a
# unit.  Brute force: every level passes, so e = 0.
def test_unit_derivative_perturbation_equalises_at_zero():
    F = _map1({(1,): 1, (2,): 5})
    assert equalising_number_of_map(F, (0, 3)) == 0


# 2x is an isometry (|2| = 1) even though its linear part is far from I.
def test_unit_scaling_equalises_at_zero():
    F = _map1({(1,): 2})
    assert equalising_number_of_map(F, (0, 3)) == 0


# 5x contracts every radius by 1/5: no level ever passes.
def test_p_scaling_never_equalises():
    F = _map1({(1,): 5})
    assert equalising_number_of_map(F, (0, 3)) is NOT_EQUALISING


# One transition that never equalises makes the whole atlas non-equalising.
def test_atlas_with_a_non_equalising_transition():
    atlas = Atlas({(0, 1): identity_map(5, 1, 8), (1, 0): _map1({(1,): 5})})
    assert atlas.equalising_number((0, 3)) is NOT_EQUALISING


def test_higher_order_small_terms_keep_e_zero():
    F = _map1({(1,): 1, (3,): 25})
    assert equalising_number_of_map(F, (0, 3)) == 0


def test_identity_map_equalises_everywhere():
    F = identity_map(5, 2, 8)
    assert equalising_number_of_map(F, (0, 2)) == 0


def test_sphere_domain_has_no_radius_one_ball():
    # |x| = 1 contains no ball of radius 1, so level 0 fails and e = 1
    F = PolynomialMap(5, [{(1,): 1}], ("sphere",), 8)
    assert equalising_number_of_map(F, (0, 2)) == 1


def test_probing_beyond_precision_raises():
    F = PolynomialMap(5, [{(1,): 1}], ("disc",), 3)
    with pytest.raises(PrecisionError):
        equalising_number_of_map(F, (0, 3))


def test_bad_radius_range_rejected():
    F = identity_map(5, 1, 8)
    with pytest.raises(ValueError):
        equalising_number_of_map(F, (2, 1))


def test_ball_image_equal_radius_spot_checks():
    iso = _map1({(1,): 1, (2,): 5})
    assert ball_image_is_equal_radius(iso, (0,), 1)
    assert ball_image_is_equal_radius(iso, (3,), 2)
    crit = _map1({(1,): 1, (2,): 1})
    assert not ball_image_is_equal_radius(crit, (2,), 1)


# -- evaluation and inversion ------------------------------------------------


def test_evaluate_matches_plain_arithmetic():
    F = _map1({(0,): 3, (1,): 2, (2,): 1})
    x = PAdicNumber.from_int(4, 5, 8)
    (y,) = F.evaluate((x,))
    assert y.residue(4) == (3 + 2 * 4 + 16) % 5**4


def test_rational_coefficients_evaluate_exactly():
    F = _map1({(1,): Fraction(1, 2)})
    x = PAdicNumber.from_int(6, 5, 8)
    (y,) = F.evaluate((x,))
    assert y.residue(2) == 3


def test_linear_part_reads_off_degree_one_terms():
    F = PolynomialMap(
        5,
        [{(1, 0): 2, (0, 1): 5, (2, 0): 25}, {(1, 0): 0, (0, 1): 1}],
        ("disc", "disc"),
        8,
    )
    A = F.linear_part()
    assert A[0][0].residue(2) == 2
    assert A[0][1].norm() == Fraction(1, 5)
    assert A[1][1].residue(2) == 1


def test_newton_inverse_inverts_on_samples():
    F = _map1({(1,): 2, (2,): 25})
    inv = NewtonInverse(F).residue_function(6)
    fwd = F.residue_function(6)
    rng = random.Random(3)
    for _ in range(25):
        x = (rng.randrange(5**6),)
        assert inv(fwd(x)) == x


# -- repair transform ---------------------------------------------------------


def test_equalise_pair_fixes_far_from_identity_map():
    F = _map1({(1,): 2})
    H, shift, psi = equalise_pair(F)
    assert shift == 1
    assert matrix_norm(matrix_sub_identity(H.linear_part())) < 1
    assert check_composite_identity(F, H, psi, samples=50) == 0
    for c in range(5):
        assert ball_image_is_equal_radius(H, (c,), 1)


def test_equalise_pair_leaves_near_identity_maps_alone():
    F = _map1({(1,): 1, (2,): 5})
    H, shift, psi = equalise_pair(F)
    assert H is F
    assert shift == float("-inf")


def test_equalise_pair_two_dimensional():
    # linear part [[3, 1], [1, 3]] has unit determinant 8
    F = PolynomialMap(
        5, [{(1, 0): 3, (0, 1): 1}, {(1, 0): 1, (0, 1): 3, (1, 1): 25}],
        ("disc", "disc"), 8,
    )
    H, shift, psi = equalise_pair(F)
    assert matrix_norm(matrix_sub_identity(H.linear_part())) < 1
    assert check_composite_identity(F, H, psi, samples=40) == 0


# -- serialization -------------------------------------------------------------


def test_json_roundtrip_plain_polynomial():
    F = _map1({(1,): 2, (2,): Fraction(25, 3)})
    doc = polymap_to_json_dict(F)
    assert doc["schema"] == POLYMAP_SCHEMA
    G = polymap_from_json_dict(doc)
    fx, gx = F.residue_function(5), G.residue_function(5)
    for x in range(0, 5**5, 311):
        assert fx((x,)) == gx((x,))


def test_json_roundtrip_keeps_domain_and_precision():
    F = PolynomialMap(7, [{(1, 0): 1}, {(0, 1): 1}], ("sphere", "disc"), 6)
    G = polymap_from_json_dict(polymap_to_json_dict(F))
    assert G.p == 7 and G.domain == ("sphere", "disc") and G.precision == 6


def test_json_rejects_unknown_schema():
    doc = polymap_to_json_dict(identity_map(5, 1, 4))
    doc["schema"] = "something-else"
    with pytest.raises(ValueError):
        polymap_from_json_dict(doc)
