"""Polynomial maps, Newton inversion, equalising numbers, and the repair
transform.

Expected equalising numbers were computed by exhaustive modular brute force
over all ball centers at levels 0..3 with a two-digit certification margin,
independently of the library (see the per-map notes).
"""

import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from padic_spectra import equalising
from padic_spectra.equalising import (
    CERTIFY_DIGITS,
    DEFAULT_SAMPLE_SEED,
    NOT_EQUALISING,
    SAMPLE_SIZE,
    NotInvertibleError,
    _ball_images_are_equal_balls,
    _centers_for_level,
    _jacobians_are_units,
    _pointwise_blocks,
    ball_image_is_equal_radius,
    check_composite_identity,
    equalise_pair,
    equalising_number_of_map,
)
from padic_spectra.models import (
    Atlas,
    build_projective_model,
    build_Y_model,
    verify_ball_transition_consistency,
)
from padic_spectra.padics import (
    PAdicError,
    PrecisionError,
    matrix_norm,
    matrix_sub_identity,
)
from padic_spectra.polymaps import (
    POLYMAP_SCHEMA,
    DomainError,
    NewtonConvergenceError,
    NewtonInverse,
    PolynomialMap,
    _inverse_block,
    _poly_derivative,
    _solve_linear_residue,
    _solve_linear_residue_block,
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
    (y,) = F.residue_function(4)((4,))
    assert y == (3 + 2 * 4 + 16) % 5**4


def test_rational_coefficients_evaluate_exactly():
    F = _map1({(1,): Fraction(1, 2)})
    (y,) = F.residue_function(2)((6,))
    assert y == 3


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


def test_scale_and_add_identity_drops_a_cancelled_identity_term():
    # -x + 25x^2 at m = 0: the x coefficient -1 + 1 is exactly 0
    F = _map1({(1,): -1, (2,): 25})
    ((numer, _),) = F.scale_and_add_identity(0).components
    assert numer == {(2,): 25}


@pytest.mark.parametrize("samples", [0, -3])
def test_composite_identity_needs_a_sample(samples):
    # no sample would report zero mismatches for an unchecked identity
    F = _map1({(1,): 2})
    H, _, psi = equalise_pair(F)
    with pytest.raises(ValueError, match="at least one sample"):
        check_composite_identity(F, H, psi, samples)


# -- serialization -------------------------------------------------------------


def test_json_roundtrip_plain_polynomial():
    F = _map1({(1,): 2, (2,): Fraction(25, 3)})
    doc = polymap_to_json_dict(F)
    assert doc["schema"] == POLYMAP_SCHEMA
    G = polymap_from_json_dict(doc)
    fx, gx = F.residue_function(5), G.residue_function(5)
    for x in range(0, 5**5, 311):
        assert fx((x,)) == gx((x,))


def test_json_states_exact_coefficients():
    F = _map1({(1,): Fraction(7, 2), (2,): -14, (3,): 5**9 + 1})
    assert polymap_to_json_dict(F)["components"][0]["numerator"] == {
        "1": "7/2", "2": "-14", "3": "1953126"
    }


def test_residues_beyond_the_map_precision_raise():
    F = _map1({(1,): 1, (2,): 25}, prec=3)
    assert F.residue_function(3)((7,)) == ((7 + 25 * 49) % 125,)
    with pytest.raises(PrecisionError, match="known mod p\\^3, need mod p\\^4"):
        F.residue_function(4)
    with pytest.raises(PAdicError, match="not a p-adic integer"):
        _map1({(1,): Fraction(1, 5)}).residue_function(2)


def test_json_roundtrip_keeps_domain_and_precision():
    F = PolynomialMap(7, [{(1, 0): 1}, {(0, 1): 1}], ("sphere", "disc"), 6)
    G = polymap_from_json_dict(polymap_to_json_dict(F))
    assert G.p == 7 and G.domain == ("sphere", "disc") and G.precision == 6


def test_json_rejects_unknown_schema():
    doc = polymap_to_json_dict(identity_map(5, 1, 4))
    doc["schema"] = "something-else"
    with pytest.raises(ValueError):
        polymap_from_json_dict(doc)


def test_map_needs_one_component_per_coordinate():
    with pytest.raises(PAdicError, match="1 components for a map of dimension 2"):
        PolynomialMap(5, [{(1, 0): 1}], ("disc", "disc"), 8)
    with pytest.raises(PAdicError, match="2 components for a map of dimension 1"):
        PolynomialMap(5, [{(1,): 1}, {(1,): 2}], ("disc",), 8)


# -- the compiled evaluators and the ball probe against the old code ----------
#
# Test-local copies of the per-point residue evaluator, of the two-set ball
# probe that the compiled term lists and the one-pass probe replaced, and of
# the one-pass loop over single points that the block probe replaced.


def _old_poly_eval_residue(coeffs_mod, point, modulus):
    total = 0
    for exps, c in coeffs_mod.items():
        term = c
        for x, e in zip(point, exps):
            if e == 1:
                term = term * x % modulus
            elif e:
                term = term * pow(x, e, modulus) % modulus
        total = (total + term) % modulus
    return total


def _old_residues(coeffs, p, k):
    modulus = p**k
    return {exps: c.numerator * pow(c.denominator, -1, modulus) % modulus
            for exps, c in coeffs.items() if c}


def _old_residue_function(F, k):
    modulus = F.p**k
    tables = [(_old_residues(numer, F.p, k), _old_residues(denom, F.p, k))
              for numer, denom in F.components]

    def apply(point):
        out = []
        for num_tab, den_tab in tables:
            num = _old_poly_eval_residue(num_tab, point, modulus)
            den = _old_poly_eval_residue(den_tab, point, modulus)
            if den % F.p == 0:
                raise DomainError("denominator not a unit at this point")
            out.append(num * pow(den, -1, modulus) % modulus)
        return tuple(out)

    return apply


def _old_jacobian_residue_function(F, k):
    modulus = F.p**k
    rows = [[_old_residues(_poly_derivative(numer, j), F.p, k) for j in range(F.dimension)]
            for numer, _ in F.components]
    return lambda point: [[_old_poly_eval_residue(e, point, modulus) for e in row]
                          for row in rows]


def _old_ball_probe(apply_f, p, n, center, level, probe):
    modulus = p**probe
    step = p**level
    span = p ** (probe - level)
    y0 = apply_f(center)
    image = set()
    target = set()
    for t in itertools.product(range(span), repeat=n):
        x = tuple((center[i] + step * t[i]) % modulus for i in range(n))
        image.add(apply_f(x))
        target.add(tuple((y0[i] + step * t[i]) % modulus for i in range(n)))
    return image == target


def _loop_ball_probe(apply_f, p, n, center, level, probe):
    modulus = p**probe
    step = p**level
    span = p ** (probe - level)
    y0 = apply_f(center)
    axes = [[(center[i] + step * t) % modulus for t in range(span)] for i in range(n)]
    seen = bytearray(span**n)
    for x in itertools.product(*axes):
        index = 0
        for y, y_c in zip(apply_f(x), y0):
            digits, off = divmod((y - y_c) % modulus, step)
            if off:
                return False
            index = index * span + digits
        if seen[index]:
            return False
        seen[index] = 1
    return True


def _outcome(apply, point):
    try:
        return apply(point)
    except DomainError:
        return DomainError


def _random_poly(rng, p, n, terms, unit_constant=None):
    coeffs = {}
    for _ in range(terms):
        exps = tuple(rng.randrange(4) for _ in range(n))
        coeffs[exps] = rng.choice([
            rng.randrange(-p**8, p**8),
            Fraction(rng.randrange(1, p**4), rng.choice([1, 2, 3, 4, 6]) + p * rng.randrange(5)),
            0,
        ])
    if unit_constant is not None:
        coeffs[(0,) * n] = unit_constant
    return coeffs


def _evaluator_cases(precision=8):
    rng = random.Random(4112)
    cases = []
    for p in (5, 7):
        for n in (1, 2, 3):
            domain = (("disc", "sphere", "disc") if p == 5 else ("sphere", "disc", "sphere"))[:n]
            slot = domain.index("sphere") if "sphere" in domain else None
            on_sphere = {tuple(int(j == slot) for j in range(n)): 1} if slot is not None else None
            polys = [_random_poly(rng, p, n, 5) for _ in range(n)]
            denominators = [
                {(0,) * n: Fraction(3, 2)},  # constant unit
                _random_poly(rng, p, n, 3, unit_constant=1 + p),  # non-constant, a unit
                on_sphere or {(0,) * n: 1},  # a sphere coordinate, a unit
                {(0,) * n: p},  # constant, not a unit
                _random_poly(rng, p, n, 3, unit_constant=p),  # a unit at some points only
            ]
            cases.append(PolynomialMap(p, polys, domain, precision))
            cases.append(PolynomialMap(p, list(zip(polys, denominators)), domain, precision))
            cases.append(PolynomialMap(p, [(polys[0], denominators[len(cases) % 5])] + polys[1:],
                                       domain, precision))
    return cases


@pytest.mark.parametrize("index", range(18))
def test_compiled_residue_function_matches_the_per_point_evaluator(index):
    F = _evaluator_cases()[index]
    rng = random.Random(index)
    for k in range(1, 9):
        new, old = F.residue_function(k), _old_residue_function(F, k)
        modulus = F.p**k
        for _ in range(60):
            x = tuple(rng.randrange(3 * modulus) for _ in range(F.dimension))
            assert _outcome(new, x) == _outcome(old, x)
        for x in itertools.islice(F.ball_centers(min(k, 2)), 40):
            assert _outcome(new, x) == _outcome(old, x)


def _block_outcomes(F, k, points):
    """Per point, the block evaluator's image, or DomainError where its mask
    marks a non-unit denominator."""
    images, bad = F.residue_block_function(k)([np.array(x) for x in zip(*points)])
    return [DomainError if bad is not None and bad[j] else tuple(int(y[j]) for y in images)
            for j in range(len(points))]


@pytest.mark.parametrize("index", range(18))
def test_block_evaluator_matches_the_per_point_evaluator(index):
    # int64 up to p^k < 2^31 (5^13 is the last such power of 5), Python
    # integers past it
    rng = random.Random(index)
    cases = [(_evaluator_cases()[index], range(1, 9)),
             (_evaluator_cases(16)[index], (13, 14, 16))]
    for F, ks in cases:
        for k in ks:
            modulus = F.p**k
            points = [tuple(rng.randrange(3 * modulus) for _ in range(F.dimension))
                      for _ in range(60)]
            points += itertools.islice(F.ball_centers(min(k, 2)), 40)
            apply_f = F.residue_function(k)
            assert _block_outcomes(F, k, points) == [_outcome(apply_f, x) for x in points]


def test_constant_non_unit_denominator_raises_on_every_point():
    F = PolynomialMap(5, [({(1,): 1}, {(0,): 10})], ("disc",), 8)
    apply_f = F.residue_function(3)
    for x in range(0, 125, 7):
        with pytest.raises(DomainError):
            apply_f((x,))
    _, bad = F.residue_block_function(3)([np.arange(0, 125, 7)])
    assert bad.all()


@pytest.mark.parametrize("index", range(0, 18, 3))
def test_compiled_jacobian_matches_the_per_point_evaluator(index):
    F = _evaluator_cases()[index]
    rng = random.Random(index)
    for k in range(1, 9):
        new, old = F.jacobian_residue_function(k), _old_jacobian_residue_function(F, k)
        for _ in range(40):
            x = tuple(rng.randrange(2 * F.p**k) for _ in range(F.dimension))
            assert new(x) == old(x)


def _int_det(A):
    if len(A) == 1:
        return A[0][0]
    return sum((-1) ** j * A[0][j] * _int_det([row[:j] + row[j + 1:] for row in A[1:]])
               for j in range(len(A)))


def _far_from_identity_map(rng, n, p=5):
    """The benchmark's seeded map: a unit-determinant linear part far from
    I plus one small quadratic term per component."""
    while True:
        A = [[rng.randrange(p**4) for _ in range(n)] for _ in range(n)]
        if _int_det(A) % p and any(
            (A[i][j] - (i == j)) % p for i in range(n) for j in range(n)
        ):
            break
    comps = []
    for i in range(n):
        coeffs = {tuple(int(k == j) for k in range(n)): A[i][j] for j in range(n)}
        e = [0] * n
        e[rng.randrange(n)] += 1
        e[rng.randrange(n)] += 1
        coeffs[tuple(e)] = coeffs.get(tuple(e), 0) + p**2 * rng.randrange(p**2)
        comps.append(coeffs)
    return PolynomialMap(p, comps, ("disc",) * n, 8)


def _probe_maps():
    rng = random.Random(2718)
    maps = {}
    for n in (1, 2, 3):
        F = _far_from_identity_map(rng, n)
        maps[f"far-dim{n}"] = F
        maps[f"repaired-dim{n}"] = equalise_pair(F)[0]
    maps["p-x"] = _map1({(1,): 5})
    maps["x-squared"] = _map1({(2,): 1})
    maps["inverse-on-sphere"] = PolynomialMap(5, [({(0,): 1}, {(1,): 1})], ("sphere",), 8)
    return maps


def _probe_balls(F, rng):
    """Every ball at levels 0-2 in dimension 1, every ball at levels 0-1
    and 8 seeded ones at level 2 in dimension 2, and the level-0 ball plus
    2 seeded balls at each of levels 1 and 2 in dimension 3 (an exhaustive
    dim-3 ball costs the two-set copy about 0.2 s)."""
    sampled = {1: {}, 2: {2: 8}, 3: {1: 2, 2: 2}}[F.dimension]
    balls = []
    for level in (0, 1, 2):
        centers = list(F.ball_centers(level))
        if level in sampled:
            centers = rng.sample(centers, sampled[level])
        balls += [(c, level) for c in centers]
    return balls


@pytest.mark.parametrize("name", list(_probe_maps()))
def test_one_pass_probe_matches_the_two_set_probe(name):
    # the block probe against both oracles: the two-set probe and the loop
    # over single points; sphere balls at level 0 and off the sphere raise
    F = _probe_maps()[name]
    rng = random.Random(name)
    balls = _probe_balls(F, rng)
    if "sphere" in F.domain:
        balls += _sphere_level_zero_balls(F) + [((0,), 1), ((5,), 2)]
    answers = set()
    for center, level in balls:
        probe = level + 2
        expected = _result(_old_ball_probe, _old_residue_function(F, probe), F.p, F.dimension,
                           center, level, probe)
        assert _result(ball_image_is_equal_radius, F, center, level) == expected, (center, level)
        assert _result(_loop_answer, F, center, level) == expected, (center, level)
        answers.add((level, expected))
    if name == "inverse-on-sphere":
        assert {answer for _, answer in answers} == {True, DomainError}
    if name == "p-x":
        assert answers == {(0, False), (1, False), (2, False)}
    if name.startswith("repaired"):
        assert all(ok for level, ok in answers if level)
    if name == "x-squared":
        # singular Jacobian mod p at centres = 0: that ball is not injective
        assert not ball_image_is_equal_radius(F, (0,), 1)
        assert not ball_image_is_equal_radius(F, (0,), 2)
        assert ball_image_is_equal_radius(F, (1,), 1)


def _one_ball(apply_block, p, n, center, level, probe):
    """The grid probe's answer on the one ball (center mod p^level)."""
    return next(_ball_images_are_equal_balls(apply_block, p, n, [center], level, probe))


def _digit_map(p, probe, leave):
    """A bijection of residues mod p^probe on base-p digits: leave=True adds
    digit 1 to digit 0 mod p, so points leave their level-1 ball while the
    digits above stay distinct; leave=False reverses the digits from 1
    upward, which keeps each level-1 ball."""
    modulus = p**probe

    def apply(x):
        digits = [x[0] // p**i % p for i in range(probe)]
        if leave:
            digits[0] = (digits[0] + digits[1]) % p
        else:
            digits[1:] = digits[:0:-1]
        return (sum(d * p**i for i, d in enumerate(digits)) % modulus,)

    return apply


@pytest.mark.parametrize("leave", [True, False])
def test_one_pass_probe_on_images_outside_the_ball(leave):
    p, level, probe = 5, 1, 3
    apply_f = _digit_map(p, probe, leave)
    for c in range(p):
        expected = _old_ball_probe(apply_f, p, 1, (c,), level, probe)
        block = _pointwise_blocks(apply_f)
        assert _one_ball(block, p, 1, (c,), level, probe) == expected
        assert _loop_ball_probe(apply_f, p, 1, (c,), level, probe) == expected
        assert expected is not leave


# -- the Hensel certificate against the exhaustive probe ----------------------


def _result(call, *args):
    """call(*args), or the type of the error it raised."""
    try:
        return call(*args)
    except (PAdicError, ArithmeticError) as err:
        return type(err)


def _jacobian_is_unit(apply_f, p, n, center, level):
    """The per-point Hensel certificate, the oracle of the block form: reads
    J(center) mod p from the n + 1 images of center and center + p^level
    e_j, and returns False when one of those images leaves the ball around
    F(center) or when J(center) is singular mod p."""
    step = p**level
    modulus = p * step
    y0 = apply_f(center)
    jacobian = [[] for _ in range(n)]
    for j in range(n):
        x = list(center)
        x[j] += step
        for row, y, y_c in zip(jacobian, apply_f(tuple(x)), y0):
            digit, off = divmod((y - y_c) % modulus, step)
            if off:
                return False
            row.append(digit)
    try:
        _solve_linear_residue(jacobian, [0] * n, p, p)
    except DomainError:
        return False
    return True


def _certificate(F, center, level):
    apply_f = F.residue_function(level + CERTIFY_DIGITS)
    return _jacobian_is_unit(apply_f, F.p, F.dimension, center, level)


def _assert_certificate_matches_probe(F, balls):
    answers = set()
    for center, level in balls:
        expected = _result(ball_image_is_equal_radius, F, center, level)
        assert _result(_certificate, F, center, level) == expected, (center, level)
        answers.add(expected)
    return answers


def _search_balls(F, n_max):
    """The balls at levels 1..n_max that equalising_number_of_map(F, (0, n_max))
    decides, drawn from the same seeded centres."""
    rng = random.Random(DEFAULT_SAMPLE_SEED)
    balls = []
    for level in range(n_max + 1):
        centers = _centers_for_level(F, level, rng)
        if level:
            balls += [(c, level) for c in centers]
    return balls


ATLASES = {
    "P1(5) m3": lambda: build_projective_model(5, 1, 3)[1],
    "P2(5) m3": lambda: build_projective_model(5, 2, 3)[1],
    "Y2(5) m2": lambda: build_Y_model(5, 2, 2)[1],
}


@pytest.mark.parametrize("name", list(ATLASES))
def test_certificate_matches_probe_on_atlas_transitions(name):
    for tau in ATLASES[name]().transitions.values():
        assert _assert_certificate_matches_probe(tau, _search_balls(tau, 3)) == {True}


@pytest.mark.parametrize("name", list(_probe_maps()))
def test_certificate_matches_probe_on_probe_maps(name):
    # an exhaustive dim-3 ball costs 5^6 evaluations, so dimension 3 takes
    # 8 seeded balls of the level search
    F = _probe_maps()[name]
    rng = random.Random(name)
    balls = [(c, level) for c, level in _probe_balls(F, rng) if level]
    search = _search_balls(F, 3)
    if F.dimension == 3:
        search = rng.sample(search, 8)
    answers = _assert_certificate_matches_probe(F, balls + search)
    if name == "x-squared":
        assert answers == {True, False}
    if name == "inverse-on-sphere":
        # a centre outside the domain raises the same error on both sides
        assert _assert_certificate_matches_probe(F, [((0,), 1), ((5,), 2)]) == {DomainError}
        coarse = PolynomialMap(5, [({(0,): 1}, {(1,): 1})], ("sphere",), 3)
        assert _assert_certificate_matches_probe(coarse, [((1,), 2)]) == {PrecisionError}


def test_certificate_matches_probe_on_the_chart_change_psi():
    # psi(z) = p^m z + F^-1(z) is evaluated through a Newton inverse; its
    # exhaustive probe costs p^(2n) Newton solves per ball, so dimension 3
    # gets one seeded ball per level
    rng = random.Random(31)
    maps = [_map1({(1,): 2})] + [F for name, F in _probe_maps().items()
                                 if name.startswith("far")]
    for F in maps:
        _, _, psi = equalise_pair(F)
        per_level = {1: None, 2: 6, 3: 1}[F.dimension]
        balls = []
        for level in (1, 2):
            centers = list(F.ball_centers(level))
            if per_level is not None:
                centers = rng.sample(centers, per_level)
            balls += [(c, level) for c in centers]
        assert _assert_certificate_matches_probe(psi, balls) == {True}


def test_certificate_refuses_the_maps_that_must_fail():
    shrink, square, critical = _map1({(1,): 5}), _map1({(2,): 1}), _map1({(1,): 1, (2,): 1})
    for level in (1, 2, 3):
        for c in range(0, 5**level, 7):
            assert not _certificate(shrink, (c,), level)
        # x^2 has Jacobian 2x, singular mod p at centre 0 only
        assert not _certificate(square, (0,), level)
        assert _certificate(square, (1,), level)
        # x + x^2 has Jacobian 1 + 2x, singular mod p at centre 2
        assert not _certificate(critical, (2,), level)
    assert equalising_number_of_map(shrink, (1, 3)) is NOT_EQUALISING
    assert equalising_number_of_map(critical, (1, 3)) is NOT_EQUALISING
    # level 0 stays exhaustive: J(0) = 1 is a unit, but x + x^2 identifies
    # x with -1 - x on the unit disc
    assert _certificate(critical, (0,), 0)
    assert not ball_image_is_equal_radius(critical, (0,), 0)
    assert equalising_number_of_map(critical, (0, 0)) is NOT_EQUALISING


def test_certificate_refuses_images_outside_the_ball():
    apply_f = _digit_map(5, 3, leave=True)
    for c in range(5):
        assert not _jacobian_is_unit(apply_f, 5, 1, (c,), 1)


class _CountingMap:
    """A map whose residue evaluators count the points they evaluate, one
    at a time or in blocks; not a PolynomialMap, so the exhaustive probe
    fills its blocks point by point."""

    def __init__(self, F):
        self.F = F
        self.evaluations = 0

    def __getattr__(self, name):
        return getattr(self.F, name)

    def residue_function(self, k):
        apply_f = self.F.residue_function(k)

        def counted(point):
            self.evaluations += 1
            return apply_f(point)

        return counted

    def residue_block_function(self, k):
        apply_block = self.F.residue_block_function(k)

        def counted(xs):
            self.evaluations += np.broadcast(*xs).size
            return apply_block(xs)

        return counted


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_a_certified_ball_costs_n_plus_one_evaluations(n, level):
    # a silent fall-back to the exhaustive probe would cost p^(2n) per ball
    F = _CountingMap(identity_map(5, n, 8))
    assert equalising_number_of_map(F, (level, level)) == level
    balls = min(5 ** (n * level), SAMPLE_SIZE)
    assert F.evaluations == (n + 1) * balls


def test_atlas_numbers_past_p_five_within_budget():
    # the exhaustive level search took 2.4 s on P2(7) m3 and 20 s on
    # P2(11) m2; the certificate takes milliseconds
    start = time.perf_counter()
    for p, level in ((7, 3), (11, 2)):
        _, atlas, _ = build_projective_model(p, 2, level)
        assert atlas.equalising_number((0, 3)) == 1
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("radius_range", [(2, 1), (-3, 1)])
def test_atlas_rejects_a_bad_radius_range_with_or_without_transitions(radius_range):
    for atlas in (Atlas({}), Atlas({(0, 1): identity_map(5, 1, 8)})):
        with pytest.raises(ValueError, match="bad radius range"):
            atlas.equalising_number(radius_range)
    assert Atlas({}).equalising_number((1, 3)) == 1


# -- the block probe against the one-pass loop ---------------------------------


def _loop_answer(F, center, level):
    probe = level + CERTIFY_DIGITS
    apply_f = F.residue_function(probe)
    return _loop_ball_probe(apply_f, F.p, F.dimension, center, level, probe)


def _assert_block_probe_matches_the_loop(F, balls):
    answers = set()
    for center, level in balls:
        expected = _result(_loop_answer, F, center, level)
        answer = _result(ball_image_is_equal_radius, F, center, level)
        assert answer == expected, (center, level)
        answers.add(expected)
    return answers


def _sphere_level_zero_balls(F):
    """Level-0 balls of a map with a sphere factor, which ball_centers(0)
    omits: the walk from centre (c, ..., c) meets a non-unit residue."""
    return [((c,) * F.dimension, 0) for c in range(F.p)]


# (5x)/x is the constant 5 on units: from centre 1 the second residue
# collides before the walk reaches the non-unit 5; from centre 4 the
# second residue is 5
FIVE_OVER_ONE = PolynomialMap(5, [({(1,): 5}, {(1,): 1})], ("sphere",), 8)


@pytest.mark.parametrize("name", list(ATLASES))
def test_block_probe_matches_the_loop_on_atlas_transitions(name):
    # every depth-1 ball, 8 seeded depth-2 and 2 seeded depth-3 balls per
    # transition, the level-0 balls, and centres off the unit sphere
    rng = random.Random(name)
    answers = set()
    for tau in ATLASES[name]().transitions.values():
        balls = _sphere_level_zero_balls(tau) + [(c, 1) for c in tau.ball_centers(1)]
        for level, count in ((2, 8), (3, 2)):
            balls += [(c, level) for c in rng.sample(list(tau.ball_centers(level)), count)]
        slot = tau.domain.index("sphere")
        balls += [(tuple(5 * (i == slot) for i in range(tau.dimension)), 1)]
        answers |= _assert_block_probe_matches_the_loop(tau, balls)
    assert answers == {True, DomainError}


def test_block_probe_decides_by_the_first_failing_residue():
    balls = [((c,), 0) for c in range(1, 5)] + [((1,), 1), ((2,), 2)]
    answers = [_result(ball_image_is_equal_radius, FIVE_OVER_ONE, c, level)
               for c, level in balls]
    assert answers == [False, False, False, DomainError, False, False]
    assert _assert_block_probe_matches_the_loop(FIVE_OVER_ONE, balls) == {False, DomainError}
    # (1/u, 1/u) with u the sphere coordinate: the last coordinate runs
    # fastest, so from (1, 1) the walk along it meets a collision (u = x0)
    # or the non-unit 5 (u = x1) first
    for slot, expected in ((0, False), (1, DomainError)):
        u = tuple(int(i == slot) for i in range(2))
        domain = ("sphere", "disc") if slot == 0 else ("disc", "sphere")
        F = PolynomialMap(5, [({(0, 0): 1}, {u: 1})] * 2, domain, 8)
        assert _assert_block_probe_matches_the_loop(F, [((1, 1), 0)]) == {expected}


def test_block_probe_matches_the_loop_on_the_chart_change_psi():
    # psi goes through the per-point adapter, one Newton solve per residue
    rng = random.Random(47)
    maps = [_map1({(1,): 2})] + [F for name, F in _probe_maps().items()
                                 if name in ("far-dim1", "far-dim2")]
    for F in maps:
        _, _, psi = equalise_pair(F)
        balls = [(c, 0) for c in F.ball_centers(0)]
        for level, count in ((1, 2), (2, 1)):
            balls += [(c, level) for c in rng.sample(list(F.ball_centers(level)), count)]
        assert _assert_block_probe_matches_the_loop(psi, balls) == {True}


def test_block_probe_with_small_blocks_matches_the_loop(monkeypatch):
    # blocks of 7 residues put collisions, exits from the ball and non-unit
    # denominators on every side of a block boundary
    monkeypatch.setattr(equalising, "_PROBE_BLOCK", 7)
    maps = _probe_maps()
    cases = [
        (maps["x-squared"], [((c,), level) for level in (0, 1, 2) for c in range(5)]),
        (maps["p-x"], [((0,), 0), ((3,), 1)]),
        (maps["repaired-dim2"], [((0, 0), 0), ((3, 1), 1), ((7, 11), 2)]),
        (maps["inverse-on-sphere"], _sphere_level_zero_balls(maps["inverse-on-sphere"])),
        (FIVE_OVER_ONE, [((c,), 0) for c in range(1, 5)]),
        (build_projective_model(5, 2, 2)[1].transitions[(0, 1)],
         [((1, 1), 0), ((2, 3), 1), ((0, 0), 1)]),
    ]
    answers = set()
    for F, balls in cases:
        answers |= _assert_block_probe_matches_the_loop(F, balls)
    assert answers == {True, False, DomainError}


def _product_residue(code, n, span):
    """The residue of point number `code` in itertools.product order of a
    centre-0, level-0 ball."""
    digits = []
    for _ in range(n):
        code, d = divmod(code, span)
        digits.append(d)
    return tuple(reversed(digits))


@pytest.mark.parametrize("pair", ["boundary", "first-and-last"])
def test_block_probe_finds_a_collision_split_across_two_blocks(pair):
    # dimension 3, 25^3 residues: one residue takes the image of a residue
    # of another block, the last of the block before or the very first
    p, n, level, probe = 5, 3, 0, 2
    total = 25**n
    first = next(equalising._sub_grids((25,) * n, equalising._PROBE_BLOCK))
    boundary = math.prod(len(range(25)[axis]) for axis in first)  # its residues
    assert boundary < total
    earlier, later = {"boundary": (boundary - 1, boundary),
                      "first-and-last": (0, total - 1)}[pair]
    earlier, later = _product_residue(earlier, n, 25), _product_residue(later, n, 25)

    def apply_f(x):
        return earlier if x == later else x

    for f, expected in ((apply_f, False), (lambda x: x, True)):
        assert _loop_ball_probe(f, p, n, (0,) * n, level, probe) is expected
        block = _pointwise_blocks(f)
        assert _one_ball(block, p, n, (0,) * n, level, probe) is expected


@pytest.mark.parametrize("block_size", [25, 7])
def test_pointwise_blocks_raise_only_past_the_first_failure(monkeypatch, block_size):
    # a per-point map that raises at one residue and sends another onto the
    # centre's image: walking from centre 1, the loop raises unless the
    # collision comes first, and so does the adapter, whether the raising
    # residue is the centre, opens a block or sits inside one; with blocks
    # of 7, residue 8 opens the second block and collides with the centre
    # in the first just before residue 9 raises.  The error raised is the
    # map's own, as in the loop
    monkeypatch.setattr(equalising, "_PROBE_BLOCK", block_size)
    p, level, probe = 5, 0, 2
    cases = itertools.product(((7, 3), (3, 7), (9, 8), (9, None), (8, None), (0, None),
                               (1, None)), (DomainError, NewtonConvergenceError))
    for (raise_at, collide_at), error in cases:
        def apply_f(x):
            if x[0] == raise_at:
                raise error("no image here")
            return (1,) if x[0] == collide_at else x

        expected = _result(_loop_ball_probe, apply_f, p, 1, (1,), level, probe)
        block = _pointwise_blocks(apply_f)
        assert _result(_one_ball, block, p, 1, (1,), level, probe) == expected
        assert expected == (False if collide_at in (3, 8) else error)


def test_block_probe_over_python_integers_matches_the_loop():
    # p^(level + 2) = 5^14 > 2^31: the probe and the evaluator switch to
    # dtype=object
    F = PolynomialMap(5, [{(1,): 2, (2,): 25, (3,): 5}], ("disc",), 16)
    G = PolynomialMap(5, [{(1,): 1, (2,): 1}], ("disc",), 16)
    balls = [((c,), 12) for c in (0, 2, 5**11 + 2, 7 * 5**10)]
    assert _assert_block_probe_matches_the_loop(F, balls) == {True}
    assert _assert_block_probe_matches_the_loop(G, balls) == {True, False}


class _CountingBlockMap(PolynomialMap):
    """A polynomial map whose block evaluators count the points they get."""

    __slots__ = ("points",)

    def residue_block_function(self, k):
        apply_block = super().residue_block_function(k)

        def counted(xs):
            self.points += np.broadcast(*xs).size
            return apply_block(xs)

        return counted


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_block_probe_evaluates_every_residue(n):
    # all p^(2n) residues of a ball that passes, each once (the centre's
    # image is read from the grid), counted as the broadcast size of the
    # evaluator's axis-shaped inputs
    F = _CountingBlockMap(5, identity_map(5, n, 8).components, ("disc",) * n, 8)
    F.points = 0
    assert ball_image_is_equal_radius(F, (3,) * n, 1)
    assert F.points == 5 ** (2 * n)
    F.points = 0
    assert equalising_number_of_map(F, (0, 0)) == 0
    assert F.points == 5 ** (2 * n)
    # a map with only a per-point residue_function goes through the adapter
    G = _CountingMap(identity_map(5, n, 8))
    assert equalising_number_of_map(G, (0, 0)) == 0
    assert G.evaluations == 5 ** (2 * n)


@pytest.mark.parametrize(
    "center, level, match",
    [((0, 0, 0), 1, "3 coordinates, the map takes 2"),
     ((0,), 1, "1 coordinates, the map takes 2"),
     ((0, 0), -1, "level must be >= 0")],
)
def test_ball_probe_checks_its_inputs(center, level, match):
    F = identity_map(5, 2, 8)
    with pytest.raises(ValueError, match=match):
        ball_image_is_equal_radius(F, center, level)


# -- the grid probe and its batches against the walk over single points --------


def _sphere_reciprocals(n, slot):
    """(1/u, ..., 1/u) with u = x_slot on the unit sphere: from (1, ..., 1) at
    level 0 the walk meets a collision first when slot < n - 1 (the last
    coordinate runs fastest), and the non-unit 5 first when slot = n - 1."""
    u = tuple(int(i == slot) for i in range(n))
    domain = tuple("sphere" if i == slot else "disc" for i in range(n))
    return PolynomialMap(5, [({(0,) * n: 1}, {u: 1})] * n, domain, 8)


def _grid_maps(n, rng, precision=8):
    """A map that passes, its repair, a contraction (p x), a square in the
    first coordinate (collisions at centres 0 mod p), and the two sphere
    reciprocals."""
    far = _far_from_identity_map(rng, n)
    far = PolynomialMap(5, [numer for numer, _ in far.components], far.domain, precision)
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    square = [{(2,) + (0,) * (n - 1): 1}] + [{unit[j]: 1} for j in range(1, n)]
    return [far, equalise_pair(far)[0],
            PolynomialMap(5, [{unit[j]: 5} for j in range(n)], ("disc",) * n, precision),
            PolynomialMap(5, square, ("disc",) * n, precision),
            _sphere_reciprocals(n, 0), _sphere_reciprocals(n, n - 1)]


@pytest.mark.parametrize("small_blocks", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_probe_matches_the_walk_at_levels_zero_to_two(monkeypatch, n, small_blocks):
    # every answer and error of the grid probe equals the walk's, with whole
    # balls per call or many sub-grids per ball (runs of 7 residues, or one
    # 25 x 25 plane in dimension 3, which also takes fewer balls)
    if small_blocks:
        monkeypatch.setattr(equalising, "_PROBE_BLOCK", 625 if n == 3 else 7)
    rng = random.Random(n)
    answers = set()
    for F in _grid_maps(n, rng):
        balls = [((0,) * n, 0), ((1,) * n, 0)]
        for level in (1, 2):
            centers = list(F.ball_centers(level))
            balls += [(c, level) for c in rng.sample(centers, 2 if n == 3 else 4)]
            balls += [((0,) * n, level)]  # off the sphere when F has one
        answers |= _assert_block_probe_matches_the_loop(F, balls)
    assert answers == {True, False, DomainError}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_grid_probe_over_python_integers_matches_the_walk(n):
    # p^(level + 2) = 5^14 > 2^31: the axes and the images are dtype=object
    rng = random.Random(40 + n)
    answers = set()
    for F in _grid_maps(n, rng, precision=16)[:4]:
        centers = [tuple(rng.randrange(5**12) for _ in range(n)) for _ in range(2)]
        answers |= _assert_block_probe_matches_the_loop(F, [(c, 12) for c in centers])
    assert answers == {True, False}


def _shifted_digit_map(n, leave):
    """_digit_map on the last coordinate, the identity on the others."""
    last = _digit_map(5, 3, leave)
    return lambda x: x[:-1] + last(x[-1:])


@pytest.mark.parametrize("n", [2, 3])
def test_grid_probe_on_images_outside_the_ball(n):
    # test_one_pass_probe_on_images_outside_the_ball in more dimensions,
    # through the adapter: leave=True sends points out of their level-1
    # ball, leave=False keeps each ball
    rng = random.Random(n)
    for leave in (True, False):
        apply_f = _shifted_digit_map(n, leave)
        for c in [(0,) * n] + [tuple(rng.randrange(5) for _ in range(n)) for _ in range(2)]:
            expected = _loop_ball_probe(apply_f, 5, n, c, 1, 3)
            assert _one_ball(_pointwise_blocks(apply_f), 5, n, c, 1, 3) is expected
            assert expected is not leave


def test_grid_probe_batch_matches_the_walk_ball_by_ball(monkeypatch):
    # one batch of balls of mixed outcomes, in groups of whole balls or one
    # ball in sub-grids, gives each ball the walk's answer until the first
    # ball that raises, and raises there
    rng = random.Random(3)
    F = FIVE_OVER_ONE
    for block in (8192, 50, 7):
        monkeypatch.setattr(equalising, "_PROBE_BLOCK", block)
        for _ in range(6):
            centers = [(rng.randrange(1, 25),) for _ in range(6)]
            expected = [_result(_loop_answer, F, c, 0) for c in centers]
            apply_block = F.residue_block_function(2)
            answers = []
            try:
                for ok in _ball_images_are_equal_balls(apply_block, 5, 1, centers, 0, 2):
                    answers.append(ok)
            except DomainError:
                answers.append(DomainError)
            assert answers == expected[:len(answers)]
            assert len(answers) == len(expected) or answers[-1] is DomainError


@pytest.mark.parametrize("block", [8192, 7])
def test_level_zero_search_decides_by_the_first_ball_that_does_not_pass(monkeypatch, block):
    # 5x/x from centre 1 collides before it meets a non-unit, from centre 4
    # it meets the non-unit 5 first: the first of them in order decides e(A)
    # at level 0, as all() over single probes did
    monkeypatch.setattr(equalising, "_PROBE_BLOCK", block)
    F = FIVE_OVER_ONE
    for centers in ([(1,), (4,)], [(4,), (1,)], [(2,), (4,), (3,)], [(4,)]):
        monkeypatch.setattr(equalising, "_centers_for_level", lambda F, level, rng: centers)
        expected = _result(lambda: all(_loop_answer(F, c, 0) for c in centers))
        answer = _result(equalising_number_of_map, F, (0, 0))
        assert answer == (NOT_EQUALISING if expected is False else expected), centers
        assert expected == (DomainError if centers[0] == (4,) else False)


def _loop_transition_check(model, atlas, max_depth):
    """The transition check as a loop over single balls, each walked point
    by point: the oracle of the batches."""
    checked, failures = 0, []
    for (i, j), tau in atlas.transitions.items():
        charts = [k for k in model.chart_ids if k != i]
        for depth in range(1, min(max_depth, model.level) + 1):
            for centre in tau.ball_centers(depth):
                region = frozenset([i] + [k for k, x in zip(charts, centre) if x % model.p])
                if region not in model._census:
                    continue
                checked += 1
                if not _loop_answer(tau, centre, depth):
                    failures.append(((i, j), depth, centre))
    return checked, failures


def test_transition_check_batches_match_the_loop():
    # x^2 / (x - 3) on the sphere: its ball at centre 1 contracts (False)
    # before the ball at centre 3, where the denominator is not a unit,
    # raises; x + x^2 fails at the centres 2 mod 5 only
    model, atlas, _ = build_projective_model(5, 1, 2)
    raising = PolynomialMap(5, [({(2,): 1}, {(1,): 1, (0,): -3})], ("sphere",), 8)
    critical = PolynomialMap(5, [{(1,): 1, (2,): 1}], ("sphere",), 8)
    cases = [(atlas, None), (Atlas({(0, 1): raising}), DomainError),
             (Atlas({(0, 1): critical, (1, 0): atlas.transitions[(1, 0)]}), None)]
    for case, error in cases:
        expected = _result(_loop_transition_check, model, case, 2)
        assert _result(verify_ball_transition_consistency, model, case, 2) == expected
        if error is not None:
            assert expected is error
    checked, failures = verify_ball_transition_consistency(model, cases[2][0], 2)
    assert failures == [((0, 1), depth, c) for depth, c in
                        [(1, (2,))] + [(2, (c,)) for c in range(2, 25, 5)]]
    assert not _loop_answer(raising, (1,), 1)


def _grid_axes(rng, n, lengths, bound):
    """n integer arrays of the given lengths, each shaped to vary along its
    own axis only."""
    return [np.array([rng.randrange(bound) for _ in range(m)]).reshape(
                tuple(m if j == i else 1 for j in range(n)))
            for i, m in enumerate(lengths[:n])]


@pytest.mark.parametrize("index", range(18))
def test_broadcast_inputs_evaluate_as_the_same_points_flat(index):
    # axis-shaped inputs give the images and the bad mask of the broadcast
    # points passed as flat arrays, in int64 and in Python integers (5^14)
    rng = random.Random(index)
    for F, k in ((_evaluator_cases()[index], 3), (_evaluator_cases(16)[index], 14)):
        apply_block = F.residue_block_function(k)
        xs = _grid_axes(rng, F.dimension, (4, 3, 5), 3 * F.p**k)
        images, bad = apply_block(xs)
        flat_images, flat_bad = apply_block([x.ravel() for x in np.broadcast_arrays(*xs)])
        shape = np.broadcast(*xs).shape
        assert [y.shape for y in images] == [shape] * F.dimension
        assert [y.ravel().tolist() for y in images] == [y.tolist() for y in flat_images]
        assert (bad is None) == (flat_bad is None)
        if bad is not None:
            assert bad.shape == shape and bad.ravel().tolist() == flat_bad.tolist()


@pytest.mark.parametrize("p, k", [(5, 1), (5, 4), (7, 3)])
def test_lifted_inverse_matches_pow_on_every_unit(p, k):
    modulus = p**k
    residues = np.arange(modulus)
    units = residues[residues % p != 0]
    assert _inverse_block(units, p, modulus).tolist() == [
        pow(int(u), -1, modulus) for u in units]
    # a non-unit gives some residue, which the caller masks
    assert len(_inverse_block(residues[::p], p, modulus)) == len(residues[::p])


@pytest.mark.parametrize("p, k", [(5, 13), (5, 16)])
def test_lifted_inverse_matches_pow_near_and_past_int64(p, k):
    # 5^13 < 2^31 is the largest power of 5 in int64 arithmetic, 5^16 is
    # dtype=object; a seeded sample of units and the extremes
    modulus = p**k
    rng = random.Random(k)
    units = [1, 2, modulus - 1] + [u for u in (rng.randrange(modulus) for _ in range(3000))
                                   if u % p]
    d = np.array(units, equalising._residue_dtype(modulus))
    assert _inverse_block(d, p, modulus).tolist() == [pow(u, -1, modulus) for u in units]


def test_a_dim_three_probe_stays_small_and_imports_nothing(child_env):
    # the probe path loads no module the package had not loaded, and one
    # warm dim-3 level-2 probe traces at most 1 MB
    code = """
import sys, tracemalloc
import padic_spectra
from padic_spectra.equalising import ball_image_is_equal_radius
from padic_spectra.polymaps import PolynomialMap
F = PolynomialMap(5, [{(1, 0, 0): 2, (0, 1, 0): 1}, {(0, 1, 0): 3, (2, 0, 0): 25},
                      {(0, 0, 1): 1, (1, 1, 0): 5}], ("disc",) * 3, 8)
S = PolynomialMap(5, [({(0,): 1}, {(1,): 1})], ("sphere",), 16)
before = set(sys.modules)
assert ball_image_is_equal_radius(F, (1, 2, 3), 2)
assert ball_image_is_equal_radius(S, (1,), 12)
try:
    ball_image_is_equal_radius(S, (1,), 0)
except padic_spectra.DomainError:
    pass
print(sorted(set(sys.modules) - before))
tracemalloc.start()
assert ball_image_is_equal_radius(F, (1, 2, 3), 2)
print(tracemalloc.get_traced_memory()[1])
"""
    out = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[0] == "[]"
    assert int(out[1]) <= 2**20


def test_equalise_pair_refuses_a_linear_part_singular_mod_p():
    # 5x and [[1, 1], [1, 6]] (det 5) are invertible over Q_p, not over Z_p
    singular = [_map1({(1,): 5}),
                PolynomialMap(5, [{(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 6}],
                              ("disc", "disc"), 8)]
    for F in singular:
        with pytest.raises(NotInvertibleError, match="not a p-adic unit"):
            equalise_pair(F)


# -- the block Newton inverse, composite check and certificate against the
# -- per-point forms ------------------------------------------------------------


def _raised(call, *args):
    """call(*args), or the type and message of the error it raised."""
    try:
        return call(*args)
    except (PAdicError, ArithmeticError) as err:
        return type(err), str(err)


def _loop_composite(F, H, psi, samples, seed):
    """The per-point composite check, the oracle of the block form: one
    sample at a time, F, then psi, then H."""
    k = F.precision
    rng = random.Random(seed)
    apply_f, apply_h, apply_psi = (G.residue_function(k) for G in (F, H, psi))
    mismatches = 0
    for _ in range(samples):
        x = equalising._random_center(F, k, rng)
        if apply_psi(apply_f(x)) != apply_h(x):
            mismatches += 1
    return mismatches


def _assert_composite_matches_the_loop(F, H, psi, samples, seeds):
    answers = []
    for seed in seeds:
        expected = _raised(_loop_composite, F, H, psi, samples, seed)
        assert _raised(check_composite_identity, F, H, psi, samples, seed) == expected, seed
        answers.append(expected)
    return answers


def _repair_matches_the_loop(F, samples=100, seeds=(DEFAULT_SAMPLE_SEED,)):
    return _assert_composite_matches_the_loop(F, *equalise_pair(F)[::2], samples, seeds)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_composite_check_matches_the_loop_on_the_benchmark_recipe(n):
    # _far_from_identity_map draws as the benchmark's far_from_identity_map
    # with one quadratic term per component; each map is checked at its seed
    for seed in range(40):
        F = _far_from_identity_map(random.Random(seed), n)
        assert _repair_matches_the_loop(F, seeds=(seed,)) == [0]


def test_block_composite_check_matches_the_loop_on_criterion_three():
    # the 20 repairs of acceptance criterion 3, drawn in its order: each map
    # is followed by 5 ball centres of F.dimension coordinates
    from test_acceptance import _random_far_from_identity_map

    rng = random.Random(7321)
    for i in range(20):
        F = _random_far_from_identity_map(rng)
        assert _repair_matches_the_loop(F, seeds=(i,)) == [0]
        for b in range(5):
            for _ in range(F.dimension):
                rng.randrange(F.p ** (1 + b % 2))


@pytest.mark.parametrize("block_size", [2048, 3])
def test_block_composite_check_raises_what_the_loop_raises(monkeypatch, block_size):
    # 2x + x^2 has J = 2 + 2x, singular at x = 4 mod 5; the Newton inverse
    # of 2x + a x^2 + 4x^3 first fails to converge (a = 2, 3, 7) or first
    # meets a singular Jacobian; blocks of 3 put failures on every side of a
    # block boundary
    monkeypatch.setattr(equalising, "_SAMPLE_BLOCK", block_size)
    maps = [_map1({(1,): 2, (2,): 1})] + [_map1({(1,): 2, (2,): a, (3,): 4}) for a in range(8)]
    answers = set()
    for F in maps:
        answers |= set(_repair_matches_the_loop(F, samples=40, seeds=range(4)))
    assert {answer[0] for answer in answers if isinstance(answer, tuple)} == {
        DomainError, NewtonConvergenceError}


@pytest.mark.parametrize("block_size", [2048, 3])
def test_block_composite_check_orders_failures_of_f_psi_and_h(monkeypatch, block_size):
    # 1/x is not a unit at x = 0 mod 5: F, psi or H fail there, in the order
    # F, psi, H within a sample; a polynomial psi marks, a Newton psi raises
    monkeypatch.setattr(equalising, "_SAMPLE_BLOCK", block_size)
    one, reciprocal = identity_map(5, 1, 8), PolynomialMap(5, [({(0,): 1}, {(1,): 1})],
                                                           ("disc",), 8)
    triples = [(reciprocal, reciprocal, one), (one, reciprocal, reciprocal),
               (one, one, reciprocal), (reciprocal, reciprocal, reciprocal)]
    for F, H, psi in triples:
        answers = _assert_composite_matches_the_loop(F, H, psi, 30, range(3))
        assert {answer[0] for answer in answers} == {DomainError}


def test_block_composite_check_through_a_registered_polynomial_inverse():
    # (2x, 3y + x^2) has the polynomial inverse (x/2, (y - x^2/4)/3); a
    # registered map that is no inverse gives mismatches, and one with a
    # non-unit denominator raises where F(x) = 0 mod 5
    domain = ("disc", "disc")
    F = PolynomialMap(5, [{(1, 0): 2}, {(0, 1): 3, (2, 0): 1}], domain, 8)
    F.inverse = PolynomialMap(5, [{(1, 0): Fraction(1, 2)},
                                  {(0, 1): Fraction(1, 3), (2, 0): Fraction(-1, 12)}], domain, 8)
    assert _repair_matches_the_loop(F, samples=300, seeds=range(3)) == [0, 0, 0]
    F.inverse = PolynomialMap(5, [{(1, 0): 3}, {(0, 1): 2}], domain, 8)
    assert all(count > 0 for count in _repair_matches_the_loop(F, seeds=range(3)))
    F.inverse = PolynomialMap(5, [({(0, 0): 1}, {(1, 0): 1}), {(0, 1): 1}], domain, 8)
    assert {answer[0] for answer in _repair_matches_the_loop(F, seeds=range(3))} == {
        DomainError}


def test_block_composite_check_matches_the_loop_in_dimension_four():
    for seed in range(6):
        F = _far_from_identity_map(random.Random(seed), 4)
        assert _repair_matches_the_loop(F, seeds=(seed,)) == [0]


@pytest.mark.parametrize("samples", [1, 2047, 2048, 2049, 5000])
def test_block_composite_check_counts_across_block_edges(samples):
    # 2x + 2x^3 over Z_5 has a unit Jacobian everywhere but sends 0 and 2 to
    # 0 mod 5, so Newton meets the wrong preimage from some samples
    for F in (_map1({(1,): 2, (2,): 25}), _map1({(1,): 2, (3,): 2})):
        _repair_matches_the_loop(F, samples=samples, seeds=(samples,))


def test_block_composite_check_counts_a_map_not_injective_mod_p():
    F = _map1({(1,): 2, (3,): 2})
    H, _, psi = equalise_pair(F)
    assert check_composite_identity(F, H, psi, 100, 1) == 40
    assert _loop_composite(F, H, psi, 100, 1) == 40


def test_block_composite_check_working_set_does_not_grow_with_samples():
    # 2 * 10^5 dim-3 samples: without blocks the sample points alone would
    # take about 20 MB as tuples and 4.8 MB per coordinate array
    import tracemalloc

    F = _far_from_identity_map(random.Random(11), 3)
    H, _, psi = equalise_pair(F)
    tracemalloc.start()
    try:
        assert check_composite_identity(F, H, psi, samples=200_000) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**22


def _random_systems(rng, n, size, p, modulus):
    """size random n x n systems mod p^k; every third has a matrix singular
    mod p (its last row is a multiple of p plus a combination of the
    others)."""
    systems = []
    for s in range(size):
        m = [[rng.randrange(modulus) for _ in range(n)] for _ in range(n)]
        if s % 3 == 0:
            m[-1] = [(sum(m[r][j] for r in range(n - 1)) + p * rng.randrange(modulus)) % modulus
                     for j in range(n)]
        systems.append((m, [rng.randrange(modulus) for _ in range(n)]))
    return systems


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_block_solve_matches_the_per_point_solve(n):
    # int64 residues for 5^8, Python integers for 5^16
    rng = random.Random(n)
    for p, k in ((5, 1), (5, 8), (7, 3), (5, 16)):
        modulus = p**k
        systems = _random_systems(rng, n, 60, p, modulus)
        matrix = [[np.array([m[i][j] for m, _ in systems]) for j in range(n)] for i in range(n)]
        rhs = [np.array([b[i] for _, b in systems]) for i in range(n)]
        solution, singular = _solve_linear_residue_block(matrix, rhs, p, modulus)
        for s, (m, b) in enumerate(systems):
            expected = _result(_solve_linear_residue, m, b, p, modulus)
            if expected is DomainError:
                assert singular[s]
            else:
                assert not singular[s] and [int(x[s]) for x in solution] == expected
        assert singular[::3].all() if n > 1 else singular.any()


def _newton_cases():
    """Recipe maps of dimensions 1-4, the three cases of the composite tests,
    and one map whose residues past 5^13 are Python integers."""
    rng = random.Random(5)
    maps = [_far_from_identity_map(rng, n) for n in (1, 2, 3, 4)]
    maps += [_map1({(1,): 2, (2,): 1}), _map1({(1,): 2, (2,): 1, (3,): 1}),
             _map1({(1,): 2, (3,): 2}), _map1({(1,): 2, (2,): 25}, prec=16)]
    return maps


def _block_answer(apply_block, points):
    """A block evaluator's images as one tuple per point, or the type and
    message of the error it raised."""
    try:
        images, bad = apply_block([np.array(c) for c in zip(*points)])
    except (PAdicError, ArithmeticError) as err:
        return type(err), str(err)
    assert bad is None
    return [tuple(int(c[j]) for c in images) for j in range(len(points))]


@pytest.mark.parametrize("index", range(8))
def test_block_newton_inverse_matches_the_per_point_newton(index):
    # each point alone, then the whole block, which raises what the
    # per-point form raises at its first failing point
    F = _newton_cases()[index]
    inverse = NewtonInverse(F)
    k = F.precision
    per_point, block = inverse.residue_function(k), inverse.residue_block_function(k)
    rng = random.Random(index)
    points = [tuple(rng.randrange(F.p**k) for _ in range(F.dimension)) for _ in range(200)]
    outcomes = [_raised(per_point, y) for y in points]
    failures = [answer for answer in outcomes if isinstance(answer[0], type)]
    for y, expected in zip(points, outcomes):
        answer = _block_answer(block, [y])
        assert answer == (expected if expected in failures else [expected])
    assert _block_answer(block, points) == (failures[0] if failures else outcomes)
    # on points that are not images of F, the maps of degree 2 and 3 also
    # meet singular Jacobians and fail to converge
    expected = ([set()] * 4 + [{DomainError, NewtonConvergenceError}] * 2
                + [{NewtonConvergenceError}, set()])
    assert {answer[0] for answer in failures} == expected[index]


# every built-in atlas family over Q_5, and one atlas past p = 5
BUILTIN_ATLASES = {
    **ATLASES,
    "Y1(5) m3": lambda: build_Y_model(5, 1, 3)[1],
    "P2(7) m3": lambda: build_projective_model(7, 2, 3)[1],
}


def _loop_certificate(F, centers, level):
    """The per-point certificate over centres in order, as the level search
    ran it: the first centre that fails decides."""
    apply_f = F.residue_function(level + CERTIFY_DIGITS)
    return all(_jacobian_is_unit(apply_f, F.p, F.dimension, c, level) for c in centers)


def _block_certificate(F, centers, level):
    apply_block = F.residue_block_function(level + CERTIFY_DIGITS)
    return _jacobians_are_units(apply_block, F.p, F.dimension, centers, level)


def _assert_block_certificate_matches_the_loop(F, centers, level):
    expected = _result(_loop_certificate, F, centers, level)
    assert _result(_block_certificate, F, centers, level) == expected, (centers, level)
    for c in centers:
        assert _result(_block_certificate, F, [c], level) == _result(
            _loop_certificate, F, [c], level), (c, level)
    return expected


@pytest.mark.parametrize("name", list(BUILTIN_ATLASES))
def test_block_certificate_matches_the_loop_on_every_atlas_transition(name):
    rng = random.Random(DEFAULT_SAMPLE_SEED)
    for tau in BUILTIN_ATLASES[name]().transitions.values():
        for level in (1, 2, 3):
            centers = _centers_for_level(tau, level, rng)
            assert _assert_block_certificate_matches_the_loop(tau, centers, level) is True


def test_block_certificate_decides_by_the_first_failing_centre():
    # (x^3 + x^2) / x is x + x^2 where x is a unit: its Jacobian 1 + 2x is
    # singular at centre 2, and its denominator is not a unit at centre 0
    F = PolynomialMap(5, [({(3,): 1, (2,): 1}, {(1,): 1})], ("disc",), 8)
    cases = [([(1,), (3,)], True), ([(2,), (5,)], False), ([(5,), (2,)], DomainError),
             ([(1,), (7,), (10,)], False), ([(4,), (0,), (7,)], DomainError)]
    for level in (1, 2):
        for centers, expected in cases:
            assert _assert_block_certificate_matches_the_loop(F, centers, level) == expected
    for F in _probe_maps().values():
        for level in (1, 2, 3):
            centers = _centers_for_level(F, level, random.Random(level))
            _assert_block_certificate_matches_the_loop(F, centers, level)
    # through the per-point adapter: the images of leave=True leave the
    # ball, and leave=False moves digit 1 of x + 5 to digit 2, so J = 0
    centers = [(c,) for c in range(5)]
    for leave in (True, False):
        apply_f = _digit_map(5, 3, leave)
        assert not any(_jacobian_is_unit(apply_f, 5, 1, c, 1) for c in centers)
        assert _jacobians_are_units(_pointwise_blocks(apply_f), 5, 1, centers, 1) is False
