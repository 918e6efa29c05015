"""Equalising numbers of p-adic analytic maps, and the repair transform.

A map is equalising at radius p^(-N) when every radius-p^(-N) ball inside
its domain is carried onto a ball of exactly the same radius.  The
equalising number is the smallest N for which this holds at N and at every
larger probed N'.  Maps that shrink radii (x -> p*x) never equalise.

A bi-analytic map F with invertible linear part A can always be repaired:
H(x) = p^m F(x) + x has linear part A' = p^m A + I with ||A' - I|| < 1 once
m makes ||p^m A|| < 1, and H = psi . F for the post-composition
psi(z) = p^m z + F^{-1}(z).  Replacing the codomain coordinate by psi turns
F into an equalising transition without moving the underlying points.

Ball images are certified in residue arithmetic two digits below the ball
radius: a probe modulus p^(level+2) detects any expansion and any
contraction visible within two digits, which covers every polynomial map
exercised here (their radius distortion is by a bounded power of p).
"""

from __future__ import annotations

import itertools
import random

from .padics import (
    PAdicError,
    PAdicNumber,
    PrecisionError,
    matrix_det,
    matrix_norm,
    matrix_sub_identity,
)
from .polymaps import NewtonInverse, identity_map

__all__ = [
    "NOT_EQUALISING",
    "NotEqualising",
    "NotInvertibleError",
    "EqualisingPostComposition",
    "equalising_number_of_map",
    "equalise_pair",
    "ball_image_is_equal_radius",
    "check_composite_identity",
]

CERTIFY_DIGITS = 2
SAMPLE_SIZE = 32
DEFAULT_SAMPLE_SEED = 20240517


class NotInvertibleError(PAdicError):
    """The linear part of a map is singular at working precision."""


class NotEqualising:
    """Sentinel result: no radius in the probed range equalises."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotEqualising"

    def __bool__(self):
        return False


NOT_EQUALISING = NotEqualising()


def _random_center(F, level, rng):
    coords = []
    modulus = F.p**level
    for d in F.domain:
        c = rng.randrange(modulus)
        if d == "sphere":
            while c % F.p == 0:
                c = rng.randrange(modulus)
        coords.append(c)
    return tuple(coords)


def _centers_for_level(F, level, rng):
    if level == 0:
        return list(F.ball_centers(0))
    total = 1
    for d in F.domain:
        if d == "sphere":
            total *= (F.p - 1) * F.p ** (level - 1)
        else:
            total *= F.p**level
    if total <= SAMPLE_SIZE:
        return list(F.ball_centers(level))
    seen = set()
    while len(seen) < SAMPLE_SIZE:
        seen.add(_random_center(F, level, rng))
    return sorted(seen)


def _ball_image_is_equal_ball(apply_f, p, n, center, level, probe):
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


def ball_image_is_equal_radius(F, center, level):
    """Whether F maps the ball (center mod p^level) onto an equal-radius ball.

    Exhaustive over the ball's residues modulo p^(level + CERTIFY_DIGITS).
    """
    probe = level + CERTIFY_DIGITS
    apply_f = F.residue_function(probe)
    return _ball_image_is_equal_ball(apply_f, F.p, F.dimension, center, level, probe)


def equalising_number_of_map(F, radius_range):
    """Smallest N in radius_range = (N_min, N_max) at which F equalises.

    For each level N the tested balls are every ball of the domain when
    there are at most SAMPLE_SIZE of them, otherwise SAMPLE_SIZE random
    centers drawn with the fixed seed DEFAULT_SAMPLE_SEED.  A level passes
    when each tested ball maps onto a ball of exactly its own radius; the
    result is the start of the trailing run of passing levels, or
    NOT_EQUALISING when N_max itself fails (levels with no ball inside the
    domain, such as radius 1 in a sphere factor, never pass).

    Raises PrecisionError when coefficients carry fewer than
    N_max + CERTIFY_DIGITS digits.
    """
    n_min, n_max = radius_range
    if n_min < 0 or n_max < n_min:
        raise ValueError(f"bad radius range [{n_min}, {n_max}]")
    needed = n_max + CERTIFY_DIGITS
    if F.precision < needed:
        raise PrecisionError(
            f"probing radius p^-{n_max} needs {needed} digits,"
            f" map carries {F.precision}"
        )
    rng = random.Random(DEFAULT_SAMPLE_SEED)
    works = {}
    for level in range(n_min, n_max + 1):
        probe = level + CERTIFY_DIGITS
        centers = _centers_for_level(F, level, rng)
        if not centers:
            works[level] = False
            continue
        apply_f = F.residue_function(probe)
        works[level] = all(
            _ball_image_is_equal_ball(apply_f, F.p, F.dimension, c, level, probe)
            for c in centers
        )
    result = None
    for level in range(n_max, n_min - 1, -1):
        if not works[level]:
            break
        result = level
    return NOT_EQUALISING if result is None else result


class EqualisingPostComposition:
    """The codomain change z -> p^m z + F^{-1}(z) produced by equalise_pair.

    Not a polynomial in general (it contains F^{-1}); exposes the same
    evaluation interface as PolynomialMap.  evaluate() works modulo
    p^precision and lifts, so feed it p-adic integers.
    """

    __slots__ = ("p", "dimension", "shift", "inverse", "precision", "domain")

    def __init__(self, p, dimension, shift, inverse, precision, domain):
        self.p = p
        self.dimension = dimension
        self.shift = shift
        self.inverse = inverse
        self.precision = precision
        self.domain = domain

    def residue_function(self, k):
        inv = self.inverse.residue_function(k)
        modulus = self.p**k
        scale = self.p**self.shift

        def apply(point):
            w = inv(point)
            return tuple(
                (scale * point[i] + w[i]) % modulus for i in range(self.dimension)
            )

        return apply

    def evaluate(self, point):
        fn = self.residue_function(self.precision)
        z = tuple(x.residue(self.precision) for x in point)
        return tuple(
            PAdicNumber.from_int(v, self.p, self.precision) for v in fn(z)
        )


def equalise_pair(F):
    """Repair F into an equalising map: returns (H, m, chart_postcompose).

    H(x) = p^m F(x) + x with m the smallest exponent making ||p^m A|| < 1
    for the linear part A of F, and chart_postcompose the map
    psi(z) = p^m z + F^{-1}(z) satisfying psi . F = H on the domain.  When
    ||A - I|| < 1 already, F needs no repair: the result is
    (F, -inf, identity).

    psi evaluates through F's registered inverse, or through Newton
    iteration when none is registered (this needs the Jacobian to be a unit
    along the orbit, which holds for the maps built here).

    Raises NotInvertibleError when A is singular at working precision.
    """
    A = F.linear_part()
    n = F.dimension
    if matrix_norm(matrix_sub_identity(A)) < 1:
        return F, float("-inf"), identity_map(F.p, n, F.precision, F.domain)
    if matrix_det(A).is_zero:
        raise NotInvertibleError("linear part is singular at working precision")
    norm_a = matrix_norm(A)
    m = 0
    if norm_a >= 1:
        e = 0
        v = int(norm_a)
        while v > 1:
            v //= F.p
            e += 1
        m = e + 1
    H = F.scale_and_add_identity(m)
    inverse = F.inverse if F.inverse is not None else NewtonInverse(F)
    psi = EqualisingPostComposition(F.p, n, m, inverse, F.precision, F.domain)
    return H, m, psi


def check_composite_identity(F, H, psi, samples=100, k=None, seed=DEFAULT_SAMPLE_SEED):
    """Number of sampled domain points where psi(F(x)) != H(x) mod p^k.

    Zero means the identity holds at working precision on every sample.
    """
    if k is None:
        k = F.precision
    rng = random.Random(seed)
    apply_f = F.residue_function(k)
    apply_h = H.residue_function(k)
    apply_psi = psi.residue_function(k)
    mismatches = 0
    for _ in range(samples):
        x = _random_center(F, k, rng)
        if apply_psi(apply_f(x)) != apply_h(x):
            mismatches += 1
    return mismatches
