"""Elliptic curves with good reduction: point counts, cell model, hearing.

The model of E(K) at level m has one top ball per point of the reduced
curve over F_q, each of measure 1/q and subdivided q-ary down to depth m.
Top balls carry a reduction-type label:

* ``a``: the fiber over the point at infinity (the kernel of reduction),
  lying only in chart 0 (the chart avoiding the branch fibers);
* ``c``: the three fibers over the affine branch points (y = 0), lying
  only in chart 1 (the chart avoiding the infinity fiber);
* ``b``: all other fibers, lying in both charts.

One sweep of F_q per curve, kept on the ``CurveSpec`` as an int64 array
(16 bytes a point), finds the affine points; the point count, the Serre
invariant, the branch-point test and the model's top balls all read it.
The sweep is one path for every f: numpy arrays of the integer codes of
all q elements at once, products as digit convolutions reduced by the
field's modulus and a square-root table filled by one scatter, so it
makes no per-element Python object.  It costs O(f^2 q) integer work in a
few dozen array passes; a q past ``MAX_SWEEP_Q`` = 2^22 is refused before
any array is made.

This region structure produces the two-vertex nerve with weights
(N-3)/q, (N-1)/q and edge (N-4)/q, where N is the point count, and the
generic path metric then reproduces the curve's distance case table:
a<->b at (N-3)/q, a<->c at N/q, b<->c and c<->c at (N-1)/q, b<->b at
(N-4)/q.

Wavelet eigenvalues come in closed form from the engine behind every
model's spectrum: one function of a census and its region distance table
(``spectral._census_eigenvalues``, which ``class_eigenvalues`` also calls).
Here it runs on the fiber census {a: 1, b: N-4, c: 3} without building a
model, so ``kappa_term``, ``closed_form_eigenvalue`` and ``lambda0`` read
the same rate table as a model does.  The distances come from the nerve
path search, whose paths are enumerated once for the curve's region shape
and reused for every N.  The published constants fail their own s = 0
consistency gate (at s = 0 every eigenvalue must equal the total measure
N/q), so ``closed_form_eigenvalue`` does not use them;
``published_eigenvalue`` preserves the literal printed ones for
discrepancy reporting.

Hearing the point count inverts lambda0: a bisection over the Hasse
window on the forward map N -> lambda0, unique because that map is
strictly monotone in N, and exact (Fraction against Fraction) for integer
s.  The printed closed-form inversions (the s = 1 formula, the s > 1
sandwich, the t0 expressions) are attached to every result as
diagnostics, never used for the inversion itself.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction

import numpy as np

from .fields import FiniteField, FqElement
from .models import CellModel, _census_table
from .spectral import _ball_eigenvalue, _census_eigenvalues, _cross_top_parts, _is_integral, _power

__all__ = [
    "MAX_SWEEP_Q",
    "CurveSpec",
    "HearingResult",
    "HypothesisError",
    "HearingError",
    "NoMatchError",
    "AmbiguousMatchError",
    "count_points_bruteforce",
    "serre_invariant",
    "branch_points_rational",
    "build_elliptic_model",
    "closed_form_eigenvalue",
    "published_eigenvalue",
    "kappa_term",
    "published_kappa",
    "closed_form_discrepancies",
    "lambda0",
    "hasse_window",
    "hear_points",
]

class HypothesisError(ValueError):
    """A curve violates the hypotheses needed by the model (branch points)."""


class HearingError(ValueError):
    """Point-count inversion failed."""


class NoMatchError(HearingError):
    """No integer in the Hasse window reproduces the given lambda0."""


class AmbiguousMatchError(HearingError):
    """Two integers match within tolerance; the tolerance is too loose."""


class CurveSpec:
    """Short Weierstrass curve y^2 = x^3 + A x + B over F_q, q = p^f, p >= 5.

    A and B may be given as integers (reduced mod p), coefficient lists, or
    FqElement.  Nonsingularity 4A^3 + 27B^2 != 0 is enforced.
    """

    __slots__ = ("p", "f", "field", "A", "B", "_points")

    def __init__(self, p, a4, a6, f=1):
        if p in (2, 3):
            raise ValueError("residue characteristic 2 and 3 are not supported")
        self.p = p
        self.f = f
        self.field = FiniteField(p, f)
        self.A = self._coerce(a4)
        self.B = self._coerce(a6)
        disc = (
            self._const(4) * self.A * self.A * self.A
            + self._const(27) * self.B * self.B
        )
        if not disc:
            raise ValueError("singular curve: 4A^3 + 27B^2 = 0")
        self._points = None

    def _const(self, n):
        """Integer constant, embedded through the prime subfield."""
        return self.field(n % self.p)

    def _coerce(self, value):
        if isinstance(value, FqElement):
            if value.field is not self.field:
                raise ValueError("coefficient from a different field")
            return value
        if isinstance(value, (list, tuple)):
            return self.field.element_from_coeffs(list(value))
        return self._const(int(value))

    @property
    def q(self):
        return self.field.q

    def rhs(self, x):
        return x * x * x + self.A * x + self.B

    def __repr__(self):
        return f"CurveSpec(p={self.p}, f={self.f}, A={self.A.code}, B={self.B.code})"


# the largest q swept: the sweep peaks near 40 bytes an element (about
# 150 MB at the limit), codes fit int32, and every digit product stays
# below 2^46, exact in int64
MAX_SWEEP_Q = 2**22


def _sweep_points(field, a4, a6):
    """The affine points of y^2 = x^3 + a4 x + a6 over `field`, as one int64
    array of sorted (x, y) codes, flat: x0, y0, x1, y1, ...

    Every element at once, as an (f, q) array of its base-p digits: a
    product is the digit convolution reduced by the field's modulus (for
    f = 1, a * b % p), a sum goes digit by digit.  A root table has two
    slots per square code, filled by scattering every y at 2 * code(y^2),
    plus one if -y has the smaller code: the roots of a square in ascending
    order, 0 once.  The right-hand side (x^2 + a4) x + a6 of each x then
    reads its roots in that order.  Each array is dropped once read, which
    keeps the peak near five q-long int64 arrays.  ValueError past
    MAX_SWEEP_Q, before any array is made.
    """
    p, f, q = field.p, field.f, field.q
    if q > MAX_SWEEP_Q:
        raise ValueError(f"q = {q} exceeds the F_q sweep limit {MAX_SWEEP_Q}")
    place = p ** np.arange(f)
    modulus = np.array(field.modulus)[:, None]

    def mul(a, b):
        prod = np.zeros((2 * f - 1, q), dtype=np.int64)
        np.multiply(a[0], b, out=prod[:f])
        for i in range(1, f):
            prod[i : i + f] += a[i] * b
        for k in range(2 * f - 2, f - 1, -1):  # x^f = -(the modulus's lower terms)
            prod[k - f : k] -= prod[k] % p * modulus
        prod = prod[:f]
        prod %= p
        return prod

    x = np.arange(q) // place[:, None] % p
    square = mul(x, x)
    slot = place @ square
    slot *= 2
    square += np.array(a4)[:, None]
    rhs = mul(square, x)
    del square
    rhs += np.array(a6)[:, None]
    rhs %= p
    rhs = place @ rhs
    # the second slot for y when -y has the smaller code (never for 0)
    np.negative(x, out=x)
    x %= p
    neg = place @ x
    del x
    slot += np.arange(q) > neg
    del neg
    roots = np.full(2 * q, -1, dtype=np.int32)
    roots[slot] = np.arange(q)
    del slot
    found = roots.reshape(q, 2)[rhs]
    del roots, rhs
    slots = np.flatnonzero(found >= 0)
    points = np.empty((slots.size, 2), dtype=np.int64)
    points[:, 1] = found.ravel()[slots]
    slots //= 2
    points[:, 0] = slots
    return points.ravel()


def _affine_points(curve):
    """The curve's affine F_q-points as `_sweep_points` gives them, swept at
    most once per curve and kept on it (16 bytes a point)."""
    if curve._points is None:
        curve._points = _sweep_points(curve.field, curve.A.coeffs(), curve.B.coeffs())
    return curve._points


def count_points_bruteforce(curve):
    """N = 1 + #{(x, y) in F_q^2 : y^2 = x^3 + Ax + B}, by exhaustion.

    The point at infinity contributes the leading 1.  Reads the curve's one
    sweep of F_q: numpy passes over all q elements the first time (O(f^2 q)
    integer operations), free after.
    """
    return 1 + len(_affine_points(curve)) // 2


def serre_invariant(curve):
    """The point count modulo q - 1."""
    return count_points_bruteforce(curve) % (curve.q - 1)


def branch_points_rational(curve):
    """Whether x^3 + Ax + B splits into linear factors over F_q.

    Nonsingularity makes the roots distinct, so splitting is equivalent to
    three points with y = 0 in the curve's one sweep of F_q.
    """
    return int(np.count_nonzero(_affine_points(curve)[1::2] == 0)) == 3


REGION_CHARTS = {"a": frozenset([0]), "b": frozenset([0, 1]), "c": frozenset([1])}


def _require_split(curve):
    """HypothesisError unless the cubic splits: the fiber census needs it."""
    if not branch_points_rational(curve):
        raise HypothesisError(
            "the cubic does not split over F_q; the fiber census needs"
            " rational branch points"
        )


def build_elliptic_model(curve, level):
    """Construct the good-reduction model at a level >= 2.

    Requires rational branch points (three affine roots of the cubic), so
    that the fiber census is exactly one a-fiber, three c-fibers and N-4
    b-fibers; raises HypothesisError otherwise.
    """
    if level < 2:
        raise ValueError("elliptic models need level >= 2")
    _require_split(curve)
    ys = _affine_points(curve)[1::2]
    index = np.concatenate(([0], np.where(ys != 0, 1, 2)))  # a, then b or c by y != 0
    return CellModel(
        f"E(q={curve.q}): y^2 = x^3 + {curve.A.code}x + {curve.B.code}",
        curve.p, curve.f, 1, level, tuple(REGION_CHARTS.values()), tuple(REGION_CHARTS), index,
        (0, 1), False,
    )


# -- closed-form eigenvalues -------------------------------------------------


def _level_of_measure(mu_B, q):
    mu_B = Fraction(mu_B)
    if mu_B.numerator != 1:
        raise ValueError(f"ball measure {mu_B} is not a power of 1/q")
    level = 0
    d = mu_B.denominator
    while d > 1:
        if d % q:
            raise ValueError(f"ball measure {mu_B} is not a power of 1/q")
        d //= q
        level += 1
    if level < 1:
        raise ValueError("ball measure must be at most 1/q")
    return level


def _fiber_census(N, q):
    """The fiber census {a: 1, b: N - 4, c: 3} by chart region, and its
    distance table from the nerve path search over the curve's two charts."""
    if N < 6:
        raise HypothesisError("need at least 6 points for the fiber census terms")
    census = dict(zip(REGION_CHARTS.values(), (1, N - 4, 3)))
    return census, _census_table(census, q)


def kappa_term(region, s, N, q):
    """Cross-fiber part of the eigenvalue: sum of d^(-s) * (fiber measure).

    The closed-form engine's cross-top part on the fiber census.
    """
    census, table = _fiber_census(N, q)
    if region not in REGION_CHARTS:
        raise ValueError(f"unknown region {region!r}")
    return _cross_top_parts(census, table, q, s, _is_integral(s))[REGION_CHARTS[region]]


def closed_form_eigenvalue(mu_B, region, s, N, q):
    """Wavelet eigenvalue for a ball of measure mu_B = q^(-l) in a region.

    mu_B^(1-s), plus the same-fiber shell sum (1 - 1/q) * sum_{j<l}
    q^(j(s-1)), plus the cross-fiber kappa term: the closed-form engine of
    spectral.class_eigenvalues on the fiber census.  Exact Fraction for
    integer s.  Collapses to N/q at s = 0 for every region and level; see
    published_eigenvalue for the literal printed constants.
    """
    q = int(q)
    level = _level_of_measure(mu_B, q)
    kappa = kappa_term(region, s, N, q)
    return _ball_eigenvalue(level, kappa, q, s, _is_integral(s))


def published_kappa(region, s, N, q):
    """The printed constants a(s), b(s), c(s), kept verbatim as diagnostics."""
    q = int(q)
    exact = _is_integral(s)

    def term(num, exponent):
        return _power(Fraction(num, q), exponent, exact)

    if region == "a":
        return term(N - 3, -s) * Fraction(N - 4, q) + term(N, 1 - s)
    if region == "b":
        return (
            term(N - 4, -s) * Fraction(N - 5, q)
            + term(N - 1, 1 - s)
            + term(N - 3, 1 - s)
        )
    if region == "c":
        return term(N - 1, -s) * Fraction(N - 2, q) + term(N, 1 - s)
    raise ValueError(f"unknown region {region!r}")


def published_eigenvalue(mu_B, region, s, N, q):
    """The literal printed eigenvalue 1 + (1 - q^(1-s)) mu_B^(1-s) + kappa.

    Fails its own s = 0 gate (the value should be N/q); reported alongside
    the corrected form, never used for computation.
    """
    q = int(q)
    _level_of_measure(mu_B, q)
    exact = _is_integral(s)
    return (
        1
        + (1 - _power(q, 1 - s, exact)) * _power(mu_B, 1 - s, exact)
        + published_kappa(region, s, N, q)
    )


def _class_values(N, q, s, level):
    """Closed-form eigenvalue of every (ball level, region) class, levels
    1 .. level - 1, keyed (level, region) in that order."""
    census, table = _fiber_census(N, q)
    values = _census_eigenvalues(census, table, q, level, s, _is_integral(s))
    return {(ell, label): values[(ell, charts)]
            for ell in range(1, level) for label, charts in REGION_CHARTS.items()}


def closed_form_discrepancies(N, q, s):
    """Where the printed form deviates from the corrected one, per class of
    a level-2 model (one class per region, on the balls of measure 1/q).

    Returns a list of dicts {mu_B, region, corrected, published, delta};
    empty only if the printed constants happen to agree at this s.
    """
    out = []
    for (ell, region), corrected in _class_values(N, q, s, 2).items():
        mu_B = Fraction(1, q**ell)
        published = published_eigenvalue(mu_B, region, s, N, q)
        delta = published - corrected
        if delta:
            out.append(
                {
                    "mu_B": mu_B,
                    "region": region,
                    "corrected": corrected,
                    "published": published,
                    "delta": delta,
                }
            )
    return out


def lambda0(source, q=None, s=2, level=2):
    """Smallest wavelet eigenvalue over all (ball measure, region) classes.

    `source` is a CurveSpec (counted by brute force; HypothesisError if its
    cubic does not split, as for its model) or the integer point count N
    with q supplied.  For s > 1 the minimum sits on the maximal balls
    mu_B = 1/q; HearingError if it does not.
    """
    if isinstance(source, CurveSpec):
        _require_split(source)
        N = count_points_bruteforce(source)
        q = source.q
    else:
        N = int(source)
        if q is None:
            raise ValueError("q is required when passing a raw point count")
    values = _class_values(N, q, s, level)
    best = min(values.values())
    if float(s) > 1:
        argmin_levels = {k[0] for k, v in values.items() if v == best}
        if argmin_levels != {1}:
            raise HearingError("minimum not on the maximal balls")
    return best


def hasse_window(q):
    """Integer window [q+1-ceil(2*sqrt(q)), q+1+ceil(2*sqrt(q))] for N."""
    bound = math.isqrt(4 * q - 1) + 1
    return q + 1 - bound, q + 1 + bound


class HearingResult:
    """Outcome of inverting lambda0 to a point count."""

    __slots__ = ("s", "lambda0", "N", "method", "window", "paper_formulas", "notes")

    def __init__(self, s, lam, N, window, paper_formulas, notes):
        self.s = s
        self.lambda0 = lam
        self.N = N
        self.method = "forward-search"
        self.window = window
        self.paper_formulas = paper_formulas
        self.notes = notes

    def to_json_dict(self):
        return {
            "s": float(self.s),
            "lambda0": float(self.lambda0),
            "N_recovered": self.N,
            "hasse_window": list(self.window),
            "paper_formulas": {
                k: (None if v is None else float(v))
                for k, v in self.paper_formulas.items()
            },
            "notes": self.notes,
        }

    def __repr__(self):
        return f"HearingResult(N={self.N}, s={self.s}, lambda0={float(self.lambda0):.6g})"


def _paper_formula_diagnostics(lam, q, s, N):
    """The printed inversion formulas evaluated on the data, with notes.

    None marks a branch whose formula is undefined at these arguments.
    t0 is solved from the printed s >> 1 display given the recovered N; the
    note records whether it falls in the printed interval (0, 5).
    """
    lam = float(lam)
    s = float(s)
    notes = []
    s1 = None
    if abs(3.0 - lam) > 1e-15:
        s1 = (6.0 - 4.0 * lam) / (3.0 - lam)
        if s != 1:
            notes.append("s1 formula evaluated away from s=1; diagnostic only")
    sandwich_lo = sandwich_hi = t0 = None
    if s > 1:
        m_hat = lam - float(q) ** (s - 1.0)
        if m_hat > 0:
            root = 1.0 / (s - 1.0)
            sandwich_lo = (2.0 / m_hat) ** root + q
            sandwich_hi = (3.0 / m_hat) ** root + 5.0 + q
            t0 = N - q - (3.0 / m_hat) ** root
            if sandwich_lo < N < sandwich_hi:
                notes.append("sandwich bounds contain the recovered N")
            else:
                notes.append("sandwich bounds do NOT contain the recovered N")
            if not 0.0 < t0 < 5.0:
                notes.append(f"t0 = {t0:.4f} outside the printed interval (0, 5)")
        else:
            notes.append("lambda0 <= q^(s-1): printed s>1 formulas undefined")
    return {"s1": s1, "sandwich_lo": sandwich_lo, "sandwich_hi": sandwich_hi, "t0": t0}, notes


def hear_points(lambda0_value, q, s, tolerance=1e-9, level=2):
    """Recover the point count from lambda0 by bisection on the forward map.

    The forward map N -> lambda0(N, q=q, s=s, level=level) is strictly
    monotone over the Hasse window (N >= 6).  Its direction comes from the
    two window ends; equal ends raise HearingError.  A bisection, memoised
    within the call, finds the first N whose forward value is not below
    lambda0 in that direction: about log2 of the window in evaluations.

    An exact lambda0 (int or Fraction) at integer s is compared exactly:
    the N whose exact forward value equals it, or NoMatchError, and the
    tolerance is not used.  Otherwise the values are compared as floats:
    from the bisection point the search walks outward while
    |forward(N) - lambda0| < tolerance.  NoMatchError when nothing matches
    (inconsistent lambda0 or violated hypotheses), AmbiguousMatchError when
    two candidates do (the tolerance is too loose).  The printed inversion
    formulas ride along as diagnostics.  A tolerance that is not positive
    and finite raises a plain ValueError.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    lo, hi = hasse_window(q)
    first = max(lo, 6)
    exact = _is_integral(s) and isinstance(lambda0_value, (int, Fraction))
    target = lambda0_value if exact else float(lambda0_value)

    @functools.cache
    def forward(N):
        value = lambda0(N, q=q, s=s, level=level)
        return value if exact else float(value)

    direction = (forward(hi) > forward(first)) - (forward(hi) < forward(first))
    if not direction:
        raise HearingError("forward map not monotone across the window")
    N = first + bisect.bisect_left(
        range(first, hi + 1), direction * target, key=lambda n: direction * forward(n)
    )
    if exact:
        if N > hi or forward(N) != target:
            raise NoMatchError(f"no N in [{first}, {hi}] has exact lambda0 = {target}")
    else:
        def near(n):
            return first <= n <= hi and abs(forward(n) - target) < tolerance

        below, above = N - 1, N
        while near(below):
            below -= 1
        while near(above):
            above += 1
        candidates = list(range(below + 1, above))
        if not candidates:
            raise NoMatchError(
                f"no N in [{first}, {hi}] matches lambda0 = {target!r}"
                f" within {tolerance}"
            )
        if len(candidates) > 1:
            raise AmbiguousMatchError(
                f"candidates {candidates} all match within {tolerance}"
            )
        N = candidates[0]
    paper_formulas, notes = _paper_formula_diagnostics(target, q, s, N)
    return HearingResult(s, lambda0_value, N, (lo, hi), paper_formulas, notes)
