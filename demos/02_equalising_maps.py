"""
Equalising numbers and the repair of bi-analytic maps
=====================================================

A map between polydiscs is equalising when it sends every sufficiently
small ball to a ball of the same radius; the equalising number is the
radius exponent where that starts.  Transition maps of the standard
atlases are equalising from radius p^-1 on, and any map with an invertible
linear part can be repaired into an equalising one.
"""

from padic_spectra import (
    NOT_EQUALISING,
    PolynomialMap,
    build_projective_model,
    check_composite_identity,
    equalise_pair,
    equalising_number_of_map,
)

PRECISION = 8

# The standard atlases: worst case over all transition maps is e(A) = 1.
for n in (1, 2):
    _, atlas, _ = build_projective_model(5, n, 3)
    e = atlas.equalising_number((0, 3))
    print(f"P^{n}(Q_5) atlas: e(A) = {e}")

# Past level 0 a ball is certified by the Jacobian mod p at its centre
# (n + 1 evaluations), not by all p^(2n) residues, so larger primes are
# as quick as p = 5.
for p, level in ((7, 3), (11, 2)):
    _, atlas, _ = build_projective_model(p, 2, level)
    e = atlas.equalising_number((0, 3))
    print(f"P^2(Q_{p}) atlas at level {level}: e(A) = {e}")

# Isometries of the disc equalise immediately (e = 0) ...
double = PolynomialMap(5, [{(1,): 2}], ("disc",), PRECISION)
print("x -> 2x:", equalising_number_of_map(double, (0, 4)))

# ... while x -> 5x halves no radius gap: it is not equalising at any level.
shrink = PolynomialMap(5, [{(1,): 5}], ("disc",), PRECISION)
result = equalising_number_of_map(shrink, (0, 4))
print("x -> 5x:", result)
assert result is NOT_EQUALISING

# A quadratic with a critical point inside the disc cannot equalise either.
bad = PolynomialMap(5, [{(1,): 1, (2,): 1}], ("disc",), PRECISION)
print("x -> x + x^2:", equalising_number_of_map(bad, (0, 4)))

# Repair: x -> 2x has ||A - I|| = 1, so it gets rescaled.  equalise_pair
# returns H(x) = p^m F(x) + x together with the chart change psi with
# psi . F = H, and the composite identity is checked pointwise.
H, shift, psi = equalise_pair(double)
mismatches = check_composite_identity(double, H, psi, samples=200, seed=1)
print()
print("repair of x -> 2x: shift exponent m =", shift,
      " composite mismatches:", mismatches)
assert mismatches == 0

# A two-dimensional example: linear part [[3, 1], [1, 3]] (a unit away from
# the identity) plus a quadratic tail that is already small.
wild = PolynomialMap(
    5,
    [
        {(1, 0): 3, (0, 1): 1, (2, 0): 25},
        {(1, 0): 1, (0, 1): 3, (0, 2): 25},
    ],
    ("disc", "disc"),
    PRECISION,
)
H2, shift2, psi2 = equalise_pair(wild)
print("2-dim repair: shift exponent m =", shift2,
      " mismatches:", check_composite_identity(wild, H2, psi2, samples=100, seed=2))

# Maps already below the threshold come back untouched (m = -infinity).
tame = PolynomialMap(5, [{(1,): 1, (2,): 5}], ("disc",), PRECISION)
_, shift3, _ = equalise_pair(tame)
print("x -> x + 5x^2 needs no repair:", shift3 == float("-inf"))
