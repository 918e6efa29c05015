"""Analytic maps between polydiscs given by polynomial (or rational) formulas.

A :class:`PolynomialMap` sends a product of unit discs and unit spheres in
Q_p^n to Q_p^n.  Each component is a polynomial, or a ratio of polynomials
whose denominator is a unit everywhere on the stated domain (the projective
transition maps need ratios; everything else is plain polynomials).

Coefficients are :class:`~padic_spectra.padics.PAdicNumber`.  Bulk point
evaluation (ball-image enumeration, Newton inversion) runs in residue
arithmetic modulo p^k, which agrees with the p-adic arithmetic on p-adic
integers and is far cheaper.
"""

from __future__ import annotations

from fractions import Fraction

from .padics import PAdicError, PAdicNumber, PrecisionError

__all__ = [
    "DomainError",
    "PolynomialMap",
    "NewtonInverse",
    "identity_map",
    "polymap_to_json_dict",
    "polymap_from_json_dict",
    "POLYMAP_SCHEMA",
]

DISC = "disc"
SPHERE = "sphere"


class DomainError(PAdicError):
    """A point or ball lies outside a map's stated domain."""


def _as_padic(value, p, precision):
    if isinstance(value, PAdicNumber):
        return value
    return PAdicNumber.from_rational(value, p, precision)


def _poly_eval_padic(coeffs, point, p, precision):
    total = PAdicNumber.zero(p, precision)
    for exps, c in coeffs.items():
        term = c
        for x, e in zip(point, exps):
            for _ in range(e):
                term = term * x
        try:
            total = total + term
        except PrecisionError:
            total = PAdicNumber.zero(p, precision)
    return total


def _poly_eval_residue(coeffs_mod, point, modulus):
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


def _poly_derivative(coeffs, var):
    out = {}
    for exps, c in coeffs.items():
        e = exps[var]
        if e == 0:
            continue
        new = list(exps)
        new[var] = e - 1
        key = tuple(new)
        scaled = c * PAdicNumber.from_int(e, c.p, c.precision)
        if key in out:
            out[key] = out[key] + scaled
        else:
            out[key] = scaled
    return out


class PolynomialMap:
    """A map of polydiscs with polynomial or rational components.

    Parameters
    ----------
    p : prime
    components : sequence of coefficient dicts, or (numerator, denominator)
        pairs of coefficient dicts; keys are exponent tuples of length
        ``dimension``, values are PAdicNumber / int / Fraction.
    domain : per-coordinate descriptors, each "disc" (|x| <= 1) or
        "sphere" (|x| = 1).
    precision : working precision for coefficients given as plain numbers.
    inverse : optional registered inverse (a PolynomialMap or a
        NewtonInverse); required by callers that post-compose with F^{-1}.
    """

    __slots__ = ("p", "dimension", "components", "domain", "precision", "inverse")

    def __init__(self, p, components, domain, precision, inverse=None):
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
            numer = {tuple(e): _as_padic(c, p, precision) for e, c in numer.items()}
            denom = {tuple(e): _as_padic(c, p, precision) for e, c in denom.items()}
            normalized.append((numer, denom))
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

    def evaluate(self, point):
        """Evaluate at a tuple of PAdicNumber."""
        out = []
        for numer, denom in self.components:
            num = _poly_eval_padic(numer, point, self.p, self.precision)
            den = _poly_eval_padic(denom, point, self.p, self.precision)
            out.append(num / den)
        return tuple(out)

    def residue_function(self, k):
        """A fast evaluator on integer residue tuples modulo p^k.

        Valid because all coefficients are p-adic integers at sufficient
        precision; raises PrecisionError otherwise.
        """
        modulus = self.p**k
        tables = []
        for numer, denom in self.components:
            tables.append((self._residues(numer, k), self._residues(denom, k)))
        inverse_memo = {}

        def apply(point):
            out = []
            for num_tab, den_tab in tables:
                num = _poly_eval_residue(num_tab, point, modulus)
                den = _poly_eval_residue(den_tab, point, modulus)
                inv = inverse_memo.get(den)
                if inv is None:
                    if den % self.p == 0:
                        raise DomainError("denominator not a unit at this point")
                    inv = pow(den, -1, modulus)
                    inverse_memo[den] = inv
                out.append(num * inv % modulus)
            return tuple(out)

        return apply

    def _residues(self, coeffs, k):
        out = {}
        for exps, c in coeffs.items():
            if c.is_zero:
                continue
            if c.valuation < 0:
                raise PAdicError("coefficient with negative valuation in residue mode")
            if c.valuation + c.precision < k:
                raise PrecisionError(
                    f"coefficient known mod p^{c.valuation + c.precision},"
                    f" need mod p^{k}"
                )
            out[exps] = c.residue(k)
        return out

    def jacobian_residue_function(self, k):
        """Evaluator returning the Jacobian matrix mod p^k (polynomial maps only)."""
        self._require_polynomial()
        modulus = self.p**k
        rows = []
        for numer, _ in self.components:
            rows.append(
                [self._residues(_poly_derivative(numer, j), k) for j in range(self.dimension)]
            )

        def apply(point):
            return [
                [_poly_eval_residue(entry, point, modulus) for entry in row]
                for row in rows
            ]

        return apply

    # -- structure ---------------------------------------------------------------

    def _require_polynomial(self):
        for _, denom in self.components:
            keys = [e for e, c in denom.items() if not c.is_zero]
            if keys != [(0,) * self.dimension] or not denom[keys[0]].agrees_with(
                _as_padic(1, self.p, denom[keys[0]].precision)
            ):
                raise PAdicError("operation requires polynomial components")

    def linear_part(self):
        """The n x n matrix of degree-1 coefficients (polynomial maps only)."""
        self._require_polynomial()
        n = self.dimension
        zero = PAdicNumber.zero(self.p, self.precision)
        rows = []
        for numer, _ in self.components:
            row = []
            for j in range(n):
                key = tuple(1 if i == j else 0 for i in range(n))
                row.append(numer.get(key, zero))
            rows.append(row)
        return rows

    def scale_and_add_identity(self, m):
        """The map x -> p^m F(x) + x, as a new PolynomialMap."""
        self._require_polynomial()
        p_m = PAdicNumber.from_int(self.p**m, self.p, self.precision)
        one = PAdicNumber.from_int(1, self.p, self.precision)
        comps = []
        for i, (numer, _) in enumerate(self.components):
            scaled = {exps: c * p_m for exps, c in numer.items()}
            key = tuple(1 if j == i else 0 for j in range(self.dimension))
            if key in scaled:
                try:
                    scaled[key] = scaled[key] + one
                except PrecisionError:
                    del scaled[key]
            else:
                scaled[key] = one
            comps.append(scaled)
        return PolynomialMap(self.p, comps, self.domain, self.precision)


class NewtonInverse:
    """Registered inverse of a bi-analytic polynomial map, solved by Newton.

    Evaluates F^{-1}(y) in residue arithmetic: starting from the affine
    guess A^{-1}(y - a0), each step applies x -= J(x)^{-1} (F(x) - y)
    modulo p^k.  With a unit Jacobian the iteration at least doubles the
    number of correct digits, so log2(k) + 2 rounds suffice; the result is
    verified by substitution and a failure raises instead of returning junk.
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

        def solve(y):
            x = list(y)
            for _ in range(max(4, k.bit_length() + 2)):
                fx = apply_f(tuple(x))
                residual = [(fx[i] - y[i]) % modulus for i in range(n)]
                if all(r == 0 for r in residual):
                    return tuple(x)
                jac = apply_jac(tuple(x))
                step = _solve_linear_residue(jac, residual, p, modulus)
                x = [(x[i] - step[i]) % modulus for i in range(n)]
            fx = apply_f(tuple(x))
            if all((fx[i] - y[i]) % modulus == 0 for i in range(n)):
                return tuple(x)
            raise ArithmeticError("Newton inversion did not converge")

        return solve


def _solve_linear_residue(matrix, rhs, p, modulus):
    """Solve M x = rhs mod p^k by Gaussian elimination with unit pivots."""
    n = len(rhs)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p != 0), None)
        if pivot is None:
            raise ArithmeticError("Jacobian is singular modulo p")
        m[col], m[pivot] = m[pivot], m[col]
        inv = pow(m[col][col], -1, modulus)
        m[col] = [v * inv % modulus for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [(m[r][i] - factor * m[col][i]) % modulus for i in range(n + 1)]
    return [m[i][n] for i in range(n)]


def identity_map(p, dimension, precision, domain=None):
    if domain is None:
        domain = (DISC,) * dimension
    comps = []
    for i in range(dimension):
        key = tuple(1 if j == i else 0 for j in range(dimension))
        comps.append({key: 1})
    return PolynomialMap(p, comps, domain, precision)


# -- JSON round trip ----------------------------------------------------------

POLYMAP_SCHEMA = "padic-spectra/polymap-v1"


def _coeff_str(c):
    if c.is_zero:
        return "0"
    value = Fraction(c.unit) * Fraction(c.p) ** c.valuation
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _coeffs_to_json(coeffs):
    out = {}
    for exps, c in coeffs.items():
        out[",".join(str(e) for e in exps)] = _coeff_str(c)
    return dict(sorted(out.items()))


def _coeffs_from_json(data, dimension):
    out = {}
    for key, value in data.items():
        exps = tuple(int(e) for e in key.split(",")) if key else ()
        if len(exps) != dimension:
            raise PAdicError(f"exponent key {key!r} has wrong arity for dimension {dimension}")
        out[exps] = Fraction(value)
    return out


def polymap_to_json_dict(f, include_inverse=True):
    """Serialize a map losslessly at its stored precision.

    Coefficients become exact rational strings (unit * p^valuation is a
    rational carrying exactly the stored digits).  A registered polynomial
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
    if data.get("schema") != POLYMAP_SCHEMA:
        raise PAdicError(f"not a {POLYMAP_SCHEMA} document")
    p = int(data["p"])
    dimension = int(data["dimension"])
    precision = int(data["precision"])
    domain = data.get("domain") or [DISC] * dimension
    components = []
    for comp in data["components"]:
        numer = _coeffs_from_json(comp["numerator"], dimension)
        if comp.get("denominator"):
            denom = _coeffs_from_json(comp["denominator"], dimension)
        else:
            denom = {(0,) * dimension: Fraction(1)}
        components.append((numer, denom))
    inverse = None
    raw_inverse = data.get("inverse")
    if isinstance(raw_inverse, dict):
        inverse = polymap_from_json_dict(raw_inverse)
    f = PolynomialMap(p, components, domain, precision, inverse=inverse)
    if raw_inverse == "newton":
        f = PolynomialMap(p, components, domain, precision, inverse=NewtonInverse(f))
    return f
