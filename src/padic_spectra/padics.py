"""Finite-precision p-adic numbers over Q_p, p >= 5.

A nonzero value is stored as ``unit * p**valuation`` where ``unit`` is an
integer in [1, p**precision) coprime to p.  ``precision`` counts the known
digits of the unit, so the value is pinned down modulo
p**(valuation + precision).  Exact zero carries valuation +infinity and no
unit.  Instances are immutable.

Precision bookkeeping follows the usual rules: multiplication and division
keep the minimum relative precision of the operands, addition works at the
minimum *absolute* precision.  An addition whose result vanishes to the full
known absolute precision cannot be told apart from zero; that raises
:class:`PrecisionError` rather than silently returning a fake zero.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "PAdicError",
    "PrecisionError",
    "PAdicNumber",
    "matrix_norm",
    "matrix_sub_identity",
    "matrix_det",
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in _SMALL_PRIMES:
        if n % d == 0:
            return n == d
    d = 49
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


class PAdicError(ValueError):
    """Invalid p-adic construction or operation."""


class PrecisionError(PAdicError):
    """An operation would leave fewer than one known digit."""


class PAdicNumber:
    """An element of Q_p known to finite precision."""

    __slots__ = ("p", "valuation", "unit", "precision")

    def __init__(self, p, valuation, unit, precision):
        if not _is_prime(p) or p in (2, 3):
            raise PAdicError(f"p must be a prime >= 5, got {p}")
        if precision < 1:
            raise PrecisionError(f"precision must be at least 1 digit, got {precision}")
        if valuation is None:
            unit = None
        else:
            unit %= p**precision
            if unit % p == 0:
                raise PAdicError("unit part must be coprime to p (got a multiple of p)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, value):
        raise AttributeError("PAdicNumber is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p, precision=1):
        """Exact zero (valuation +infinity)."""
        return cls(p, None, None, precision)

    @classmethod
    def from_int(cls, value, p, precision):
        if value == 0:
            return cls.zero(p, precision)
        v = 0
        while value % p == 0:
            value //= p
            v += 1
        return cls(p, v, value % p**precision, precision)

    @classmethod
    def from_rational(cls, value, p, precision):
        """Embed a Fraction (or int) into Q_p at the given relative precision."""
        value = Fraction(value)
        if value == 0:
            return cls.zero(p, precision)
        num, den = value.numerator, value.denominator
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        modulus = p**precision
        unit = num * pow(den, -1, modulus) % modulus
        return cls(p, v, unit, precision)

    # -- predicates and views ----------------------------------------------

    @property
    def is_zero(self):
        return self.valuation is None

    def norm(self):
        """Exact p-adic absolute value as a Fraction (0 for exact zero)."""
        if self.is_zero:
            return Fraction(0)
        v = self.valuation
        return Fraction(1, self.p**v) if v >= 0 else Fraction(self.p ** (-v))

    def agrees_with(self, other):
        """Equality at the shared precision: no known digit distinguishes the two."""
        self._check_compatible(other)
        if self.is_zero or other.is_zero:
            # An exact zero agrees with nothing nonzero: any known unit digit differs.
            return self.is_zero and other.is_zero
        if self.valuation != other.valuation:
            return False
        k = min(self.precision, other.precision)
        return (self.unit - other.unit) % self.p**k == 0

    def residue(self, k):
        """The value modulo p**k as a plain integer, for 0 <= k <= valuation+precision.

        Only meaningful for values with nonnegative valuation (p-adic integers).
        """
        if self.is_zero:
            return 0
        if self.valuation < 0:
            raise PAdicError("residue is defined for p-adic integers only")
        if k > self.valuation + self.precision:
            raise PrecisionError(f"residue mod p^{k} exceeds known precision")
        return self.unit * self.p**self.valuation % self.p**k

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, PAdicNumber):
            raise TypeError(f"expected PAdicNumber, got {type(other).__name__}")
        if other.p != self.p:
            raise PAdicError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other):
        self._check_compatible(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        p = self.p
        v = min(self.valuation, other.valuation)
        abs_prec = min(self.valuation + self.precision, other.valuation + other.precision)
        modulus = p ** (abs_prec - v)
        total = (
            self.unit * p ** (self.valuation - v)
            + other.unit * p ** (other.valuation - v)
        ) % modulus
        if total == 0:
            raise PrecisionError(
                "sum vanishes to full known precision; cannot distinguish from zero"
            )
        shift = 0
        while total % p == 0:
            total //= p
            shift += 1
        return PAdicNumber(p, v + shift, total, abs_prec - v - shift)

    def __neg__(self):
        if self.is_zero:
            return self
        return PAdicNumber(self.p, self.valuation, -self.unit, self.precision)

    def __sub__(self, other):
        self._check_compatible(other)
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        if self.is_zero or other.is_zero:
            return PAdicNumber.zero(self.p, min(self.precision, other.precision))
        k = min(self.precision, other.precision)
        return PAdicNumber(
            self.p,
            self.valuation + other.valuation,
            self.unit * other.unit % self.p**k,
            k,
        )

    def __truediv__(self, other):
        self._check_compatible(other)
        if other.is_zero:
            raise ZeroDivisionError("division by exact p-adic zero")
        if self.is_zero:
            return PAdicNumber.zero(self.p, min(self.precision, other.precision))
        k = min(self.precision, other.precision)
        modulus = self.p**k
        return PAdicNumber(
            self.p,
            self.valuation - other.valuation,
            self.unit * pow(other.unit, -1, modulus) % modulus,
            k,
        )

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("only integer powers are defined")
        if exponent < 0:
            base = PAdicNumber.from_int(1, self.p, self.precision) / self
            exponent = -exponent
        else:
            base = self
        result = PAdicNumber.from_int(1, self.p, base.precision)
        for _ in range(exponent):
            result = result * base
        return result

    def __eq__(self, other):
        # Structural equality; use agrees_with() for precision-aware comparison.
        if not isinstance(other, PAdicNumber):
            return NotImplemented
        return (
            self.p == other.p
            and self.valuation == other.valuation
            and self.unit == other.unit
            and self.precision == other.precision
        )

    def __hash__(self):
        return hash((self.p, self.valuation, self.unit, self.precision))

    def __repr__(self):
        if self.is_zero:
            return f"PAdic(0; p={self.p})"
        return (
            f"PAdic({self.unit}*{self.p}^{self.valuation}"
            f" + O({self.p}^{self.valuation + self.precision}))"
        )


# -- small matrices of p-adic numbers ---------------------------------------
#
# The equalisation routines work with the linear part of a polynomial map,
# an n x n matrix given as a list of rows of PAdicNumber.  n <= 3 here, so
# plain list-of-lists arithmetic is all that is needed.


def matrix_norm(rows):
    """Max norm of a matrix: the largest p-adic norm among its entries."""
    return max(entry.norm() for row in rows for entry in row)


def _difference_or_zero(a, b):
    """a - b, collapsing a full cancellation to the exact zero.

    Matrix helpers only feed norms and singularity checks, where a value
    vanishing to full known precision behaves like zero anyway.
    """
    try:
        return a - b
    except PrecisionError:
        return PAdicNumber.zero(a.p, min(a.precision, b.precision))


def matrix_sub_identity(rows):
    """A - I for a square matrix of PAdicNumber."""
    n = len(rows)
    p = rows[0][0].p
    prec = min(entry.precision for row in rows for entry in row)
    one = PAdicNumber.from_int(1, p, prec)
    out = []
    for i in range(n):
        out.append(
            [
                _difference_or_zero(rows[i][j], one) if i == j else rows[i][j]
                for j in range(n)
            ]
        )
    return out


def matrix_det(rows):
    """Determinant by cofactor expansion (matrices here are at most 3 x 3)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    p = rows[0][0].p
    prec = min(entry.precision for row in rows for entry in row)
    det = PAdicNumber.zero(p, prec)
    sign = 1
    for j in range(n):
        minor = [
            [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        term = rows[0][j] * matrix_det(minor)
        try:
            det = det + term if sign > 0 else det - term
        except PrecisionError:
            det = PAdicNumber.zero(p, prec)
        sign = -sign
    return det
