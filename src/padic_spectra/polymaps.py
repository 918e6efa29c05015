"""Analytic maps between polydiscs given by polynomial (or rational) formulas.

A :class:`PolynomialMap` sends a product of unit discs and unit spheres in
Q_p^n to Q_p^n.  Each component is a polynomial, or a ratio of polynomials
whose denominator is a unit everywhere on the stated domain (the projective
transition maps need ratios; everything else is plain polynomials).

Coefficients are exact rationals (``Fraction``), and precision belongs to
the map alone: a map is known modulo p^precision.  Point evaluation
(ball-image enumeration, Newton inversion) runs in residue arithmetic modulo
p^k for k up to that precision, which agrees with the p-adic arithmetic on
p-adic integers and is far cheaper; ball probes, the composite check and
the Hensel certificate evaluate numpy blocks of points from the same
compiled term lists (a ball probe passes axis-shaped arrays that broadcast to
its grid of residues), and a block Newton inversion solves the linear systems
of all its points in one batch per step.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .padics import PAdicError, PAdicNumber, PrecisionError, _is_prime, _residue

__all__ = [
    "DomainError",
    "NewtonConvergenceError",
    "MAX_PRECISION",
    "PolynomialMap",
    "NewtonInverse",
    "identity_map",
    "polymap_to_json_dict",
    "polymap_from_json_dict",
    "POLYMAP_SCHEMA",
]

DISC = "disc"
SPHERE = "sphere"

# The most digits a map document may state: equalise's cost grows faster
# than the digit count (0.5 s at 1000 digits for 3x + 25x^2 over Z_5), while
# the benchmark maps carry 8 digits and the model atlases level + 4.
MAX_PRECISION = 64


class DomainError(PAdicError):
    """A point or ball lies outside a map's stated domain."""


class NewtonConvergenceError(PAdicError, ArithmeticError):
    """Newton inversion did not reach a preimage within its rounds."""


def _residue_dtype(modulus):
    """The array dtype of residues mod `modulus`: int64 while a product of
    two residues fits in it, else Python integers (object)."""
    return np.int64 if modulus < 2**31 else object


def _eval_terms(terms, point):
    """Exact integer value of a term list at an integer point; the caller
    reduces it once."""
    total = 0
    for c, variables in terms:
        for i in variables:
            c *= point[i]
        total += c
    return total


def _eval_terms_block(terms, xs, modulus, dtype):
    """The residues mod `modulus` of a term list on a block of points (n
    arrays of residues that broadcast to one shape), reduced after each
    product.  Each term is formed at the shape of its own variables, so a
    term in one variable of an axis-shaped grid costs one pass along that
    axis; only the sum reaches the full shape."""
    total = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in xs)), dtype)
    for c, variables in terms:
        term = c
        for i in variables:
            term = term * xs[i] % modulus
        total += term  # fewer than 2^32 residues below 2^31 fit in int64
    return total % modulus


def _inverse_block(d, p, modulus):
    """The elementwise inverse of the units among the residues `d` modulo
    p^k = modulus: the inverse mod p, d^(p - 2) by repeated squaring, then
    Newton's lift x <- x (2 - d x), which takes an inverse mod p^e to one
    mod p^(2e).  A non-unit gives a meaningless residue, which the caller
    masks."""
    x, base, e = np.ones_like(d), d % p, p - 2
    while e:
        if e & 1:
            x = x * base % p
        base = base * base % p
        e >>= 1
    known = p
    while known < modulus:
        x = x * (2 - d * x % modulus) % modulus
        known *= known
    return x


def _unit_exponent(i, dimension):
    """The exponent key of the monomial x_i."""
    return tuple(int(j == i) for j in range(dimension))


def _poly_derivative(coeffs, var):
    """The partial derivative of a coefficient dict in variable `var`."""
    return {
        exps[:var] + (exps[var] - 1,) + exps[var + 1:]: c * exps[var]
        for exps, c in coeffs.items()
        if exps[var]
    }


class PolynomialMap:
    """A map of polydiscs with polynomial or rational components.

    Parameters
    ----------
    p : prime
    components : sequence of coefficient dicts, or (numerator, denominator)
        pairs of coefficient dicts; keys are exponent tuples of length
        ``dimension``, values are exact rationals (int / Fraction / str),
        stored as Fraction.
    domain : per-coordinate descriptors, each "disc" (|x| <= 1) or
        "sphere" (|x| = 1).
    precision : the map is known modulo p^precision; residues are served
        modulo p^k for k <= precision only.
    inverse : optional registered inverse (a PolynomialMap or a
        NewtonInverse); required by callers that post-compose with F^{-1}.
    """

    __slots__ = ("p", "dimension", "components", "domain", "precision", "inverse")

    def __init__(self, p, components, domain, precision, inverse=None):
        if not _is_prime(p) or p < 5:
            raise PAdicError(f"p must be a prime >= 5, got {p}")
        if precision < 1:
            raise PrecisionError(f"precision must be at least 1 digit, got {precision}")
        self.p = p
        self.dimension = len(domain)
        for d in domain:
            if d not in (DISC, SPHERE):
                raise DomainError(f"unknown domain descriptor {d!r}")
        self.domain = tuple(domain)
        normalized = []
        for comp in components:
            if isinstance(comp, tuple):
                numer, denom = comp
            else:
                numer, denom = comp, {(0,) * self.dimension: 1}
            numer = {tuple(e): Fraction(c) for e, c in numer.items()}
            denom = {tuple(e): Fraction(c) for e, c in denom.items()}
            if not any(denom.values()):
                raise PAdicError(f"component {len(normalized)} has a zero denominator")
            normalized.append((numer, denom))
        if len(normalized) != self.dimension:
            raise PAdicError(f"{len(normalized)} components for a map of dimension {self.dimension}")
        self.components = tuple(normalized)
        self.precision = precision
        self.inverse = inverse

    # -- domain handling -----------------------------------------------------

    def ball_centers(self, level):
        """All canonical ball centers (residues mod p^level) inside the domain."""
        modulus = self.p**level
        points = [()]
        for d in self.domain:
            if d == SPHERE:
                if level < 1:
                    return
                values = [v for v in range(modulus) if v % self.p != 0]
            else:
                values = range(modulus)
            points = [pt + (v,) for pt in points for v in values]
        yield from points

    # -- evaluation ------------------------------------------------------------

    def _residue_tables(self, k):
        """Per component, the numerator's term list modulo p^k and the
        denominator's, or None when the denominator is a constant unit,
        which is folded into the numerator's coefficients."""
        p = self.p
        modulus = p**k
        tables = []
        for numer, denom in self.components:
            num, den = self._terms(numer, k), self._terms(denom, k)
            if len(den) == 1 and not den[0][1] and den[0][0] % p:
                inv = pow(den[0][0], -1, modulus)
                num, den = [(c * inv % modulus, v) for c, v in num], None
            tables.append((num, den))
        return tables

    def residue_function(self, k):
        """A fast evaluator on integer residue tuples modulo p^k.

        Each component is compiled once into a term list (coefficient mod
        p^k, variable indices repeated by exponent); a point is evaluated in
        exact integers and reduced mod p^k once per component, which gives
        the residue of the p-adic value.  A constant unit denominator is
        folded into the numerator's coefficients; any other denominator is
        evaluated and inverted per point, and raises DomainError where it is
        not a unit.  Raises PrecisionError when k exceeds the map's
        precision, and PAdicError when a coefficient is not a p-adic
        integer.
        """
        p = self.p
        modulus = p**k
        tables = self._residue_tables(k)
        inverse_memo = {}

        def apply(point):
            out = []
            for num, den in tables:
                value = _eval_terms(num, point)
                if den is not None:
                    d = _eval_terms(den, point) % modulus
                    inv = inverse_memo.get(d)
                    if inv is None:
                        if d % p == 0:
                            raise DomainError("denominator not a unit at this point")
                        inv = pow(d, -1, modulus)
                        inverse_memo[d] = inv
                    value *= inv
                out.append(value % modulus)
            return tuple(out)

        return apply

    def residue_block_function(self, k):
        """The evaluator of residue_function(k) on a block of points.

        Takes n integer arrays, one per coordinate, that broadcast to one
        shape: equal-length flat arrays, or the axes of a grid of points
        (coordinate i varying along its own axis only).  Returns (images,
        bad): the n arrays of image residues mod p^k, each of the broadcast
        shape, and None or the boolean mask of the points where a
        denominator is not a unit (their images are meaningless).  Uses the
        same term lists, reduced after each product, in int64 when p^k <
        2^31 (a product of two residues fits) and in Python integers
        (dtype=object) otherwise; a term is formed at the shape of its own
        variables, so on a grid a linear term costs one pass along its
        axis.  A denominator other than a constant unit is inverted
        elementwise, mod p and then by Newton's lift to p^k.
        """
        p = self.p
        modulus = p**k
        dtype = _residue_dtype(modulus)
        tables = self._residue_tables(k)

        def apply(xs):
            xs = [np.asarray(x, dtype) % modulus for x in xs]
            images, bad, inverses = [], None, {}
            for num, den in tables:
                value = _eval_terms_block(num, xs, modulus, dtype)
                if den is not None:
                    key = tuple(den)  # components often share a denominator
                    if key not in inverses:
                        d = _eval_terms_block(den, xs, modulus, dtype)
                        not_unit = d % p == 0
                        bad = not_unit if bad is None else bad | not_unit
                        inverses[key] = _inverse_block(d, p, modulus)
                    value = value * inverses[key] % modulus
                images.append(value)
            return images, bad

        return apply

    def _terms(self, coeffs, k):
        """The term list of a coefficient dict modulo p^k: (coefficient
        residue, variable indices repeated by exponent) per nonzero term."""
        if k > self.precision:
            raise PrecisionError(f"map known mod p^{self.precision}, need mod p^{k}")
        out = []
        for exps, c in coeffs.items():
            residue = _residue(c, self.p, k)
            if residue:
                out.append((residue, tuple(i for i, e in enumerate(exps) for _ in range(e))))
        return out

    def jacobian_residue_function(self, k):
        """Evaluator returning the Jacobian matrix mod p^k (polynomial maps
        only), from compiled term lists of the partial derivatives."""
        modulus = self.p**k
        rows = self._jacobian_terms(k)

        def apply(point):
            return [[_eval_terms(entry, point) % modulus for entry in row] for row in rows]

        return apply

    def _jacobian_terms(self, k):
        """The term lists mod p^k of the partial derivatives, row i column j
        for d F_i / d x_j (polynomial maps only)."""
        self._require_polynomial()
        return [
            [self._terms(_poly_derivative(numer, j), k) for j in range(self.dimension)]
            for numer, _ in self.components
        ]

    # -- structure ---------------------------------------------------------------

    def _require_polynomial(self):
        one = {(0,) * self.dimension: 1}
        for _, denom in self.components:
            if {e: c for e, c in denom.items() if c} != one:
                raise PAdicError("operation requires polynomial components")

    def linear_part(self):
        """The n x n matrix of degree-1 coefficients (polynomial maps only),
        as PAdicNumber entries."""
        self._require_polynomial()
        n = self.dimension
        return [
            [PAdicNumber(self.p, numer.get(_unit_exponent(j, n), 0)) for j in range(n)]
            for numer, _ in self.components
        ]

    def scale_and_add_identity(self, m):
        """The map x -> p^m F(x) + x, as a new PolynomialMap.  A coefficient
        of x_i in component i that cancels to exactly 0 is dropped."""
        self._require_polynomial()
        scale = self.p**m
        comps = []
        for i, (numer, _) in enumerate(self.components):
            scaled = {exps: c * scale for exps, c in numer.items()}
            key = _unit_exponent(i, self.dimension)
            scaled[key] = scaled.get(key, 0) + 1
            if not scaled[key]:
                del scaled[key]
            comps.append(scaled)
        return PolynomialMap(self.p, comps, self.domain, self.precision)


class NewtonInverse:
    """Registered inverse of a bi-analytic polynomial map, solved by Newton.

    Evaluates F^{-1}(y) in residue arithmetic: starting from x = y, each
    step applies x -= J(x)^{-1} (F(x) - y) modulo p^k.  With a unit
    Jacobian the iteration at least doubles the number of correct digits,
    so log2(k) + 2 rounds suffice; the result is verified by substitution,
    and a point still moving after the last round raises
    NewtonConvergenceError instead of returning junk.  residue_function runs
    the iteration on one point; residue_block_function runs it on a numpy
    block of points at once, with one batched solve per step.
    """

    __slots__ = ("target",)

    def __init__(self, target):
        target._require_polynomial()
        self.target = target

    def residue_function(self, k):
        F = self.target
        p, n = F.p, F.dimension
        modulus = p**k
        apply_f = F.residue_function(k)
        apply_jac = F.jacobian_residue_function(k)
        rounds = max(4, k.bit_length() + 2)

        def solve(y):
            x = list(y)
            for r in range(rounds + 1):
                fx = apply_f(tuple(x))
                residual = [(fx[i] - y[i]) % modulus for i in range(n)]
                if not any(residual):
                    return tuple(x)
                if r == rounds:
                    raise NewtonConvergenceError("Newton inversion did not converge")
                step = _solve_linear_residue(apply_jac(tuple(x)), residual, p, modulus)
                x = [(x[i] - step[i]) % modulus for i in range(n)]

        return solve

    def residue_block_function(self, k):
        """The evaluator of residue_function(k) on a block of points.

        Takes n equal-length integer arrays, one per coordinate, and returns
        (images, None) as PolynomialMap.residue_block_function does.  Every
        point runs the same iteration at once: a point leaves the block
        when its residual vanishes (converged) or when J(x) is singular mod
        p, and each step takes J(x) from block-evaluated term lists of the
        partial derivatives and solves all systems in one batch.  A point
        still moving after the last round has not converged.  The block
        raises what residue_function raises at its first point, in order,
        that did not converge: DomainError at a singular Jacobian,
        NewtonConvergenceError after the last round.
        """
        F = self.target
        p = F.p
        modulus = p**k
        dtype = _residue_dtype(modulus)
        apply_f = F.residue_block_function(k)
        jacobian = F._jacobian_terms(k)
        rounds = max(4, k.bit_length() + 2)

        def solve(ys):
            ys = [np.asarray(y, dtype) % modulus for y in ys]
            xs = [y.copy() for y in ys]
            singular = np.zeros(len(ys[0]), bool)
            live = np.arange(len(ys[0]))  # the points still iterating
            for r in range(rounds + 1):
                x = [c[live] for c in xs]
                fx, _ = apply_f(x)
                residual = [(a - y[live]) % modulus for a, y in zip(fx, ys)]
                moving = np.logical_or.reduce([c != 0 for c in residual])
                live = live[moving]
                if r == rounds or not len(live):
                    break
                x = [c[moving] for c in x]
                matrix = [[_eval_terms_block(entry, x, modulus, dtype) for entry in row]
                          for row in jacobian]
                step, stuck = _solve_linear_residue_block(
                    matrix, [c[moving] for c in residual], p, modulus)
                singular[live[stuck]] = True
                keep = ~stuck
                live = live[keep]
                for c, x_i, step_i in zip(xs, x, step):
                    c[live] = (x_i[keep] - step_i[keep]) % modulus
            failed = singular.copy()
            failed[live] = True
            if failed.any():
                if singular[np.argmax(failed)]:
                    raise DomainError("Jacobian is singular modulo p")
                raise NewtonConvergenceError("Newton inversion did not converge")
            return xs, None

        return solve


def _solve_linear_residue(matrix, rhs, p, modulus):
    """Solve M x = rhs mod p^k by Gaussian elimination with unit pivots.

    Raises DomainError when M is singular mod p: a Jacobian read there
    leaves the map without a local inverse at that point."""
    n = len(rhs)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p != 0), None)
        if pivot is None:
            raise DomainError("Jacobian is singular modulo p")
        m[col], m[pivot] = m[pivot], m[col]
        inv = pow(m[col][col], -1, modulus)
        m[col] = [v * inv % modulus for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [(m[r][i] - factor * m[col][i]) % modulus for i in range(n + 1)]
    return [m[i][n] for i in range(n)]


def _solve_linear_residue_block(matrix, rhs, p, modulus):
    """_solve_linear_residue on a block of systems, one per point.

    The n x n entries of `matrix` and the n entries of `rhs` are equal-length
    arrays over the points.  Each point eliminates with its own unit pivot,
    the first in its column as in the per-point form.  Returns (solution,
    singular): the n solution arrays mod p^k, and the mask of the points
    where M is singular mod p, whose solutions are meaningless."""
    n = len(rhs)
    m = np.array([list(row) + [b] for row, b in zip(matrix, rhs)], _residue_dtype(modulus))
    points = np.arange(m.shape[2])
    singular = np.zeros(m.shape[2], bool)
    for col in range(n):
        units = m[col:, col] % p != 0
        singular |= ~units.any(axis=0)
        pivot = col + np.argmax(units, axis=0)
        row = m[pivot, :, points].T  # each point's pivot row
        m[pivot, :, points] = m[col].T
        m[col] = row * _inverse_block(row[col], p, modulus) % modulus
        for r in range(n):
            if r != col:
                m[r] = (m[r] - m[r, col] * m[col]) % modulus
    return list(m[:, n]), singular


def identity_map(p, dimension, precision, domain=None):
    if domain is None:
        domain = (DISC,) * dimension
    comps = [{_unit_exponent(i, dimension): 1} for i in range(dimension)]
    return PolynomialMap(p, comps, domain, precision)


# -- JSON round trip ----------------------------------------------------------

POLYMAP_SCHEMA = "padic-spectra/polymap-v1"


def _coeffs_to_json(coeffs):
    return dict(sorted((",".join(str(e) for e in exps), str(c)) for exps, c in coeffs.items()))


def _int_from_json(data, field):
    value = data.get(field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise PAdicError(f"{field} must be an integer, got {value!r}")
    return value


def _coeffs_from_json(data, dimension, field):
    if not isinstance(data, dict):
        raise PAdicError(f"{field} must be an object of coefficients, got {data!r}")
    out = {}
    keys = {}
    for key, value in data.items():
        try:
            exps = tuple(int(e) for e in key.split(",")) if key else ()
        except ValueError:
            raise PAdicError(
                f"{field} exponent key {key!r} is not a comma-separated list of integers"
            ) from None
        if len(exps) != dimension:
            raise PAdicError(f"exponent key {key!r} has wrong arity for dimension {dimension}")
        if min(exps) < 0:
            raise PAdicError(f"{field} exponent key {key!r} has a negative exponent")
        if exps in keys:
            raise PAdicError(
                f"{field} exponent keys {keys[exps]!r} and {key!r} give the same monomial"
            )
        keys[exps] = key
        fault = (f"{field} coefficient {key!r} must be an integer or a rational string,"
                 f" got {value!r}")
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise PAdicError(fault)
        try:
            out[exps] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise PAdicError(fault) from None
    return out


def polymap_to_json_dict(f, include_inverse=True):
    """Serialize a map losslessly: its precision, and each coefficient as
    the exact rational string it is stored as.  A registered polynomial
    inverse is embedded; a Newton inverse is marked for reconstruction.
    """
    out = {
        "schema": POLYMAP_SCHEMA,
        "p": f.p,
        "dimension": f.dimension,
        "precision": f.precision,
        "domain": list(f.domain),
        "components": [
            {"numerator": _coeffs_to_json(numer), "denominator": _coeffs_to_json(denom)}
            for numer, denom in f.components
        ],
    }
    if include_inverse and f.inverse is not None:
        if isinstance(f.inverse, PolynomialMap):
            out["inverse"] = polymap_to_json_dict(f.inverse, include_inverse=False)
        else:
            out["inverse"] = "newton"
    return out


def polymap_from_json_dict(data):
    if not isinstance(data, dict) or data.get("schema") != POLYMAP_SCHEMA:
        raise PAdicError(f"not a {POLYMAP_SCHEMA} document")
    p, dimension, precision = (_int_from_json(data, field)
                               for field in ("p", "dimension", "precision"))
    if dimension < 1:
        raise PAdicError(f"dimension must be at least 1, got {dimension}")
    if not 1 <= precision <= MAX_PRECISION:
        raise PrecisionError(
            f"precision must be between 1 and {MAX_PRECISION} digits, got {precision}"
        )
    domain = data.get("domain") or [DISC] * dimension
    if not isinstance(domain, list) or len(domain) != dimension:
        raise PAdicError(f"domain {domain!r} does not list {dimension} coordinate descriptors")
    raw = data["components"]
    if not isinstance(raw, list) or not all(isinstance(comp, dict) for comp in raw):
        raise PAdicError("components must be a list of {numerator, denominator} objects")
    components = []
    for comp in raw:
        numer = _coeffs_from_json(comp.get("numerator"), dimension, "numerator")
        if comp.get("denominator"):
            denom = _coeffs_from_json(comp["denominator"], dimension, "denominator")
        else:
            denom = {(0,) * dimension: Fraction(1)}
        components.append((numer, denom))
    inverse = None
    raw_inverse = data.get("inverse")
    if isinstance(raw_inverse, dict):
        inverse = polymap_from_json_dict(raw_inverse)
    f = PolynomialMap(p, components, domain, precision, inverse=inverse)
    if raw_inverse == "newton":
        f.inverse = NewtonInverse(f)
    return f
