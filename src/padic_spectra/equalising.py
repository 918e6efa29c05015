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

The level search certifies a ball of level N >= 1 by the multivariate
Hensel lemma (Igusa, An Introduction to the Theory of Local Zeta Functions,
2000, section 2.2).  Let F have p-adic integral coefficients and a
denominator that is a unit at the centre c; since N >= 1 it is then a unit
on the whole ball.  Then F(c + p^N t) = F(c) + p^N G(t) with G(t) = J(c) t
mod p, and G is a bijection modulo every p^d exactly when det J(c) is a
unit.  So the ball maps onto the equal-radius ball around F(c) exactly when
J(c) is invertible mod p, which n + 1 evaluations decide: F(c) and
F(c + p^N e_j), whose differences divided by p^N are the columns of J(c)
mod p.  The search evaluates these points for all centres of a level in
one numpy block, and one batched solve mod p marks the singular J(c).  At
level 0 the quadratic terms of F reach mod p, so there the
search keeps the exhaustive probe.  That probe, ball_image_is_equal_radius,
evaluates the map at all p^(2n) residues of the ball, and certifies the ball
when every image lies in the equal-radius ball around the centre's image
and no two residues collide; it is the certificate's oracle.  The residues
of the ball (c mod p^N) modulo p^(N+2) form the product grid c_i + p^N t_i,
t_i < p^2, so the evaluator gets one p^2-long array per axis and
broadcasts: a linear term costs one pass along its axis, and only products
of several variables and the sums reach the grid's size.  One engine takes
a batch of balls with a ball axis in front (whole balls per numpy call,
or one ball in sub-grids when it is large), reads each centre's image at
t = 0, and counts the image offsets of every ball in one np.bincount: a
ball passes when each count is 1.  A ball that meets a non-unit
denominator is decided in itertools.product order, as a loop over single
points would decide it.  The same engine serves one probe, the level-0
balls of the level search, and the transition check of a model.

The composite check psi . F = H of a repair also runs on numpy blocks of
sample points: psi's Newton inverse of F takes its steps on a whole block,
with one batched solve mod p^k per step.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .padics import (
    PAdicError,
    PrecisionError,
    matrix_det,
    matrix_norm,
    matrix_sub_identity,
)
from .polymaps import (
    DomainError,
    NewtonInverse,
    PolynomialMap,
    _residue_dtype,
    _solve_linear_residue_block,
    identity_map,
)

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
_PROBE_BLOCK = 8192  # residues per sub-grid of the exhaustive probe
_SAMPLE_BLOCK = 2048  # sample points per block of the composite check


class NotInvertibleError(PAdicError):
    """The linear part of a map is not invertible over the p-adic integers."""


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


def _pointwise_blocks(apply_f):
    """The block form of a per-point residue function, filled one point at a
    time over the broadcast shape of its inputs.  A point where apply_f
    raises is marked in the bad mask, except in a block of one point, where
    the error propagates: the probe evaluates the residue that decides a
    ball alone, so a per-point map raises its own error there."""

    def apply(xs):
        xs = np.broadcast_arrays(*xs)
        points = list(zip(*(x.ravel().tolist() for x in xs)))
        images, bad = [], np.zeros(len(points), bool)
        for j, x in enumerate(points):
            try:
                images.append(apply_f(x))
            except (PAdicError, ArithmeticError):
                if len(points) == 1:
                    raise
                images.append((0,) * len(xs))
                bad[j] = True
        shape = xs[0].shape
        return ([np.array(y, xs[0].dtype).reshape(shape) for y in zip(*images)],
                bad.reshape(shape))

    return apply


def _residue_blocks(F, k):
    """F's block evaluator modulo p^k for the exhaustive probe.  Any other
    map (psi, whose Newton block form raises at its first failing point
    instead of marking it, and takes flat blocks only) is filled point by
    point."""
    if isinstance(F, PolynomialMap):
        return F.residue_block_function(k)
    return _pointwise_blocks(F.residue_function(k))


def _sub_grids(shape, limit):
    """The sub-grids, as tuples of slices, that tile an array of `shape` in
    C order with at most max(limit, 1) cells each: whole trailing axes, a
    run along the axis before them, and single indices along the leading
    ones.  Each flattens to a contiguous range of the C order, and the
    first starts at the origin."""
    whole, cells = len(shape), 1
    while whole and cells * shape[whole - 1] <= limit:
        whole -= 1
        cells *= shape[whole]
    if not whole:
        yield (slice(None),) * len(shape)
        return
    run = max(1, limit // cells)
    tail = (slice(None),) * (len(shape) - whole)
    for lead in itertools.product(*(range(m) for m in shape[:whole - 1])):
        for s in range(0, shape[whole - 1], run):
            yield tuple(slice(i, i + 1) for i in lead) + (slice(s, s + run),) + tail


def _ball_images_are_equal_balls(apply_block, p, n, centers, level, probe):
    """For each centre c in order, whether the span^n residues x of the ball
    (c mod p^level) mod p^probe map onto the equal-radius ball around F(c):
    exactly when every F(x) is F(c) mod p^level and no two share an image,
    since both sides have span^n points.  Yields True or False per ball,
    and raises at a ball decided by a non-unit denominator, as a loop over
    single points in itertools.product order would: there the first
    failing residue (an image outside the ball, a collision with an earlier
    image, or a non-unit denominator) decides.

    The residues of a ball are the grid c_i + p^level t_i, t_i < span, and
    the evaluator gets it as axis-shaped arrays with a ball axis in front:
    whole balls, as many as fit in _PROBE_BLOCK residues, or one ball in
    sub-grids of at most _PROBE_BLOCK residues walked in order.  The
    centre's image is read at t = 0, and a ball is a bijection when the
    counts of its image offsets, one np.bincount, are all 1.  Only a ball
    with a non-unit denominator needs the order: it raises when the
    residues before its first such residue all stay in the ball and are
    distinct."""
    modulus = p**probe
    step = p**level
    span = p ** (probe - level)
    cells = span**n
    dtype = _residue_dtype(modulus)
    t = np.arange(span).astype(dtype) * step
    axes = [(np.array([c % modulus for c in coordinate], dtype)[:, None] + t) % modulus
            for coordinate in zip(*centers)]
    group = max(1, _PROBE_BLOCK // cells)  # whole balls per call, or one in sub-grids
    for first in range(0, len(centers), group):
        balls = slice(first, min(first + group, len(centers)))
        size = balls.stop - first
        counts = np.zeros((size, cells), np.int64)  # per ball, image offsets met so far
        failed = np.zeros(size, bool)
        raise_at = {}  # ball -> the non-unit residue that decides it
        for number, part in enumerate(_sub_grids((span,) * n, _PROBE_BLOCK)):
            xs = [axis[balls, part[i]].reshape((size,) + tuple(-1 if j == i else 1
                                                                 for j in range(n)))
                  for i, axis in enumerate(axes)]
            ys, bad = apply_block(xs)
            ys = [y.reshape(size, -1) for y in ys]
            if not number:
                rest0 = [y[:, :1] % step for y in ys]  # F(c) mod p^level, at t = 0
            outside = np.zeros(ys[0].shape, bool)
            index = 0
            for y, r in zip(ys, rest0):
                digit = y // step
                outside |= y - digit * step != r
                index = index * span + digit
            del ys, y, digit  # the images go before the counts are made
            index = index.astype(np.int64, copy=False)
            if bad is not None:
                bad = bad.reshape(size, -1)
                for b in np.flatnonzero(bad.any(axis=1)):
                    j = np.argmax(bad[b])
                    before = np.bincount(index[b, :j], minlength=cells) + counts[b]
                    if not outside[b, :j].any() and before.max() <= 1:
                        shape = np.broadcast_shapes(*(x.shape[1:] for x in xs))
                        raise_at[b] = [np.broadcast_to(x[b], shape).flat[j] for x in xs]
                failed |= bad.any(axis=1)
            index += np.arange(0, size * cells, cells)[:, None]
            counts += np.bincount(index.ravel(), minlength=size * cells).reshape(size, cells)
            failed |= outside.any(axis=1) | (counts > 1).any(axis=1)
            if failed.all():
                break
        for b in range(size):
            if b in raise_at:
                apply_block([np.array([x]) for x in raise_at[b]])
                raise DomainError("denominator not a unit at this point")
            yield not failed[b]


def _jacobians_are_units(apply_block, p, n, centers, level):
    """The Hensel certificate of the balls (c mod p^level), level >= 1, of
    every centre c at once.  Evaluates the block of the centres and of the
    points c + p^level e_j, reads each J(c) mod p from the image digits,
    and takes the singular mask of one batched solve mod p.  Returns True
    when every ball passes; otherwise the first failing centre in order
    decides, as a loop over single centres would: False where an image
    leaves the ball around F(c) or J(c) is singular mod p, DomainError
    where a denominator is not a unit, each in the order centre, then
    c + p^level e_1, ..., c + p^level e_n."""
    step = p**level
    modulus = p * step
    size = len(centers)
    dtype = _residue_dtype(p ** (level + CERTIFY_DIGITS))
    cs = [np.array(c, dtype) for c in zip(*centers)]
    ys, bad = apply_block([np.concatenate([c] + [c + step * (i == j) for j in range(n)])
                           for i, c in enumerate(cs)])
    y0 = [y[:size] for y in ys]
    outcomes = []  # (mask, raises) in the order one centre meets them
    jacobian = [[None] * n for _ in range(n)]
    for j in range(n + 1):
        part = slice(j * size, (j + 1) * size)
        if bad is not None:
            outcomes.append((bad[part], True))
        if j:
            off = np.zeros(size, bool)
            for row, y, y_c in zip(jacobian, ys, y0):
                row[j - 1], rest = np.divmod((y[part] - y_c) % modulus, step)
                off |= rest != 0
            outcomes.append((off, False))
    zeros = [np.zeros(size, np.int64)] * n
    outcomes.append((_solve_linear_residue_block(jacobian, zeros, p, p)[1], False))
    fail = np.logical_or.reduce([mask for mask, _ in outcomes])
    if not fail.any():
        return True
    first = np.argmax(fail)
    if next(raises for mask, raises in outcomes if mask[first]):
        raise DomainError("denominator not a unit at this point")
    return False


def ball_image_is_equal_radius(F, center, level):
    """Whether F maps the ball (center mod p^level) onto an equal-radius ball.

    Exhaustive over the ball's residues modulo p^(level + CERTIFY_DIGITS),
    evaluated as their product grid: the oracle of the Hensel certificate that
    equalising_number_of_map uses at levels >= 1.  Raises ValueError when
    the centre does not have F.dimension coordinates or the level is
    negative, and DomainError when the first residue that decides the ball
    has a non-unit denominator.
    """
    if len(center) != F.dimension:
        raise ValueError(
            f"centre has {len(center)} coordinates, the map takes {F.dimension}"
        )
    if level < 0:
        raise ValueError(f"ball level must be >= 0, got {level}")
    probe = level + CERTIFY_DIGITS
    apply_block = _residue_blocks(F, probe)
    return next(_ball_images_are_equal_balls(apply_block, F.p, F.dimension, [center], level,
                                             probe))


def _check_radius_range(radius_range):
    """(N_min, N_max) when 0 <= N_min <= N_max, else ValueError."""
    n_min, n_max = radius_range
    if n_min < 0 or n_max < n_min:
        raise ValueError(f"bad radius range [{n_min}, {n_max}]")
    return n_min, n_max


def equalising_number_of_map(F, radius_range):
    """Smallest N in radius_range = (N_min, N_max) at which F equalises.

    For each level N the tested balls are every ball of the domain when
    there are at most SAMPLE_SIZE of them, otherwise SAMPLE_SIZE random
    centers drawn with the fixed seed DEFAULT_SAMPLE_SEED.  A level passes
    when each tested ball maps onto a ball of exactly its own radius; the
    result is the start of the trailing run of passing levels, or
    NOT_EQUALISING when N_max itself fails (levels with no ball inside the
    domain, such as radius 1 in a sphere factor, never pass).

    At level 0 each ball is probed exhaustively, since there the quadratic
    terms of F reach mod p.  At a level N >= 1 a ball passes exactly when
    the Jacobian of F at its centre is invertible mod p (the multivariate
    Hensel lemma, see the module docstring): n + 1 evaluations of F modulo
    p^(N + CERTIFY_DIGITS) instead of p^(n * CERTIFY_DIGITS), with the same
    answer as the exhaustive probe.

    Raises PrecisionError when coefficients carry fewer than
    N_max + CERTIFY_DIGITS digits.
    """
    n_min, n_max = _check_radius_range(radius_range)
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
        if level == 0:
            works[level] = all(_ball_images_are_equal_balls(
                _residue_blocks(F, probe), F.p, F.dimension, centers, level, probe))
        else:
            works[level] = _jacobians_are_units(
                F.residue_block_function(probe), F.p, F.dimension, centers, level
            )
    result = None
    for level in range(n_max, n_min - 1, -1):
        if not works[level]:
            break
        result = level
    return NOT_EQUALISING if result is None else result


class EqualisingPostComposition:
    """The codomain change z -> p^m z + F^{-1}(z) produced by equalise_pair.

    Not a polynomial in general (it contains F^{-1}); it is evaluated on
    residues only, through residue_function on one point or
    residue_block_function on a numpy block of points.
    """

    __slots__ = ("p", "dimension", "shift", "inverse")

    def __init__(self, p, dimension, shift, inverse):
        self.p = p
        self.dimension = dimension
        self.shift = shift
        self.inverse = inverse

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

    def residue_block_function(self, k):
        """The evaluator of residue_function(k) on a block of points: p^m z
        plus the inverse's own block evaluator.  Returns (images, bad) as
        that evaluator does: a polynomial inverse marks its non-unit
        denominators in bad, a Newton inverse raises at its first failing
        point."""
        inv = self.inverse.residue_block_function(k)
        modulus = self.p**k
        scale = self.p**self.shift % modulus

        def apply(zs):
            ws, bad = inv(zs)
            return [(scale * z + w) % modulus for z, w in zip(zs, ws)], bad

        return apply


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

    Raises NotInvertibleError when det A is not a p-adic unit: a
    bi-analytic map of the polydisc has a unit Jacobian everywhere, so such
    an F (x -> p*x, say) has no inverse to repair it with.
    """
    A = F.linear_part()
    n = F.dimension
    if matrix_norm(matrix_sub_identity(A)) < 1:
        return F, float("-inf"), identity_map(F.p, n, F.precision, F.domain)
    if matrix_det(A).valuation != 0:
        raise NotInvertibleError(
            "linear part is not invertible mod p: det A is not a p-adic unit"
        )
    norm_a = matrix_norm(A)
    m = 0
    while norm_a >= F.p**m:  # ||p^m A|| = ||A|| / p^m
        m += 1
    H = F.scale_and_add_identity(m)
    inverse = F.inverse if F.inverse is not None else NewtonInverse(F)
    psi = EqualisingPostComposition(F.p, n, m, inverse)
    return H, m, psi


def check_composite_identity(F, H, psi, samples=100, seed=DEFAULT_SAMPLE_SEED):
    """Number of sampled domain points where psi(F(x)) != H(x) modulo
    p^k, k = F.precision.

    Zero means the identity holds at working precision on every sample.
    The samples are drawn one after another from random.Random(seed) and
    evaluated in numpy blocks of _SAMPLE_BLOCK points, so the working set
    does not grow with `samples`: F and H through their block evaluators,
    psi through its own (a Newton inverse solves the block in batches).
    When an evaluation fails, the first failing sample in order decides,
    and within it F, then psi, then H: the error is what a loop over
    single samples raises (DomainError at a non-unit denominator or a
    Jacobian singular mod p, NewtonConvergenceError when Newton does not
    converge).
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    k = F.precision
    rng = random.Random(seed)
    dtype = _residue_dtype(F.p**k)
    apply_f = F.residue_block_function(k)
    apply_h = H.residue_block_function(k)
    apply_psi = psi.residue_block_function(k)
    mismatches = 0
    for start in range(0, samples, _SAMPLE_BLOCK):
        size = min(_SAMPLE_BLOCK, samples - start)
        points = [_random_center(F, k, rng) for _ in range(size)]
        xs = [np.array(c, dtype) for c in zip(*points)]
        fx, f_bad = apply_f(xs)
        hx, h_bad = apply_h(xs)
        f_first, h_first = _first(f_bad, size), _first(h_bad, size)
        # psi runs up to the first sample where F or H fails, so that its
        # own first failure (it raises) is the first failure in order
        reach = min(f_first, h_first + 1)
        ws, psi_bad = apply_psi([y[:reach] for y in fx])
        if min(f_first, _first(psi_bad, reach), h_first) < size:
            raise DomainError("denominator not a unit at this point")
        mismatches += int(np.logical_or.reduce([w != h for w, h in zip(ws, hx)]).sum())
    return mismatches


def _first(mask, size):
    """The index of the first True of a block mask, or `size` when there is
    none."""
    if mask is None or not mask.any():
        return size
    return int(np.argmax(mask))
