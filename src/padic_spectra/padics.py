"""p-adic valuations and residues of exact rationals over Q_p, p >= 5.

Every map in this package has exact rational coefficients, and precision is
a property of a map, not of a number: a map is known modulo p**precision
(see :mod:`padic_spectra.polymaps`).  A :class:`PAdicNumber` is an exact
rational read in Q_p.  It carries p into the valuations, norms and residues
of the small matrices that the equalising repair reads.
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
    """A residue was asked for more digits than a map is known to."""


def _ord(n, p):
    """The number of factors p in a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _residue(value, p, k):
    """A rational p-adic integer modulo p**k, as an integer in [0, p**k)."""
    if value.denominator % p == 0:
        raise PAdicError(f"{value} is not a p-adic integer: no residue mod p^{k}")
    modulus = p**k
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


class PAdicNumber:
    """An exact rational read in Q_p."""

    __slots__ = ("p", "value")

    def __init__(self, p, value):
        self.p = p
        self.value = Fraction(value)

    @property
    def is_zero(self):
        return self.value == 0

    @property
    def valuation(self):
        """ord_p of the value; None for zero (valuation +infinity)."""
        if self.is_zero:
            return None
        return _ord(self.value.numerator, self.p) - _ord(self.value.denominator, self.p)

    def norm(self):
        """Exact p-adic absolute value as a Fraction (0 for zero)."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.p) ** -self.valuation

    def residue(self, k):
        """The value modulo p**k as a plain integer (p-adic integers only)."""
        return _residue(self.value, self.p, k)

    def _value_of(self, other):
        if other.p != self.p:
            raise PAdicError(f"mixed primes {self.p} and {other.p}")
        return other.value

    def __add__(self, other):
        return PAdicNumber(self.p, self.value + self._value_of(other))

    def __sub__(self, other):
        return PAdicNumber(self.p, self.value - self._value_of(other))

    def __mul__(self, other):
        return PAdicNumber(self.p, self.value * self._value_of(other))


# -- small matrices of p-adic numbers ---------------------------------------
#
# The linear part of a polynomial map, n x n with n <= 3, as a list of rows
# of PAdicNumber: plain list-of-lists arithmetic is all that is needed.


def matrix_norm(rows):
    """Max norm of a matrix: the largest p-adic norm among its entries."""
    return max(entry.norm() for row in rows for entry in row)


def matrix_sub_identity(rows):
    """A - I for a square matrix of PAdicNumber."""
    return [
        [PAdicNumber(entry.p, entry.value - (i == j)) for j, entry in enumerate(row)]
        for i, row in enumerate(rows)
    ]


def matrix_det(rows):
    """Determinant by cofactor expansion (matrices here are at most 3 x 3)."""
    if len(rows) == 1:
        return rows[0][0]
    det = PAdicNumber(rows[0][0].p, 0)
    for j, entry in enumerate(rows[0]):
        term = entry * matrix_det([row[:j] + row[j + 1:] for row in rows[1:]])
        det = det + term if j % 2 == 0 else det - term
    return det
