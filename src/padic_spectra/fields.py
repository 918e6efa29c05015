"""Arithmetic in F_q, q = p^f, with a deterministic modulus choice.

Elements are integers 0 <= code < q encoding coefficient vectors base p:
code = c_0 + c_1*p + ... + c_{f-1}*p^{f-1} represents
c_0 + c_1*x + ... + c_{f-1}*x^{f-1} modulo the field's irreducible polynomial.

The modulus is the lexicographically smallest monic irreducible of degree f,
found by sieving candidates x^f + c_{f-1}x^{f-1} + ... + c_0 in increasing
order of the tuple (c_{f-1}, ..., c_0).  For f = 1 this yields the polynomial
x, i.e. the prime field with its usual representatives.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .padics import PAdicError, _is_prime

__all__ = [
    "FiniteField",
    "FqElement",
    "additive_character_table",
]


def _poly_mulmod(a, b, modulus, p):
    """Product of coefficient lists a, b reduced modulo a monic modulus."""
    f = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^f = -(modulus without leading term)
    for k in range(len(prod) - 1, f - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(f):
                prod[k - f + j] = (prod[k - f + j] - c * modulus[j]) % p
    out = prod[:f]
    out += [0] * (f - len(out))
    return out


def _poly_powmod(a, e, modulus, p):
    result = [1] + [0] * (len(modulus) - 2)
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return result


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(a, b, p):
    """Remainder of a modulo b (b nonzero), coefficient lists low-first."""
    r = _trim(a)
    inv = pow(b[-1], -1, p)
    while len(r) >= len(b):
        factor = r[-1] * inv % p
        shift = len(r) - len(b)
        for i, bi in enumerate(b):
            r[shift + i] = (r[shift + i] - factor * bi) % p
        r = _trim(r)
    return r


def _poly_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _is_irreducible(coeffs, f, p):
    """Rabin's test for a monic degree-f polynomial given by low coefficients."""
    if f == 1:
        return True
    modulus = list(coeffs) + [1]
    # x^(p^f) == x mod g
    xq = _poly_powmod([0, 1] + [0] * (f - 2), p**f, modulus, p)
    target = [0, 1] + [0] * (f - 2)
    if xq != target:
        return False
    for r in {d for d in range(2, f + 1) if f % d == 0 and _is_prime(d)}:
        xe = _poly_powmod([0, 1] + [0] * (f - 2), p ** (f // r), modulus, p)
        diff = [(xe[i] - target[i]) % p for i in range(f)]
        g = _poly_gcd(diff, modulus, p)
        if len(g) != 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _find_modulus(p, f):
    """Low coefficients (c_0..c_{f-1}) of the chosen irreducible x^f + ..."""
    if f == 1:
        return (0,)
    # Numeric order of M = sum c_i p^i is lexicographic order on the tuple
    # (c_{f-1}, ..., c_0), so scanning M upward realizes the sieve.
    for m_code in range(p**f):
        digits, kk = [], m_code
        for _ in range(f):
            digits.append(kk % p)
            kk //= p
        coeffs = tuple(digits)
        if _is_irreducible(coeffs, f, p):
            return coeffs
    raise ArithmeticError("no irreducible polynomial found (unreachable)")


@functools.lru_cache(maxsize=None)
def FiniteField(p, f=1):
    """Cached field descriptor for F_{p^f}."""
    return _FiniteField(p, f)


class _FiniteField:
    __slots__ = ("p", "f", "q", "modulus")

    def __init__(self, p, f):
        if not _is_prime(p) or p in (2, 3):
            raise PAdicError(f"p must be a prime >= 5, got {p}")
        if f < 1:
            raise PAdicError(f"extension degree must be positive, got {f}")
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = _find_modulus(p, f)

    def __call__(self, code):
        return FqElement(self, code % self.q if isinstance(code, int) else code)

    def element_from_coeffs(self, coeffs):
        if len(coeffs) > self.f:
            raise PAdicError(f"coefficient vector of length {len(coeffs)} exceeds f={self.f}")
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c % self.p
        return FqElement(self, code)

    def elements(self):
        return (FqElement(self, k) for k in range(self.q))

    def __repr__(self):
        return f"FiniteField(p={self.p}, f={self.f})"


class FqElement:
    """Immutable element of F_{p^f}."""

    __slots__ = ("field", "code")

    def __init__(self, field, code):
        if not 0 <= code < field.q:
            raise PAdicError(f"element code {code} out of range for q={field.q}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "code", code)

    def __setattr__(self, name, value):
        raise AttributeError("FqElement is immutable")

    def coeffs(self):
        p, f = self.field.p, self.field.f
        out, k = [], self.code
        for _ in range(f):
            out.append(k % p)
            k //= p
        return out

    def _wrap(self, coeffs):
        return self.field.element_from_coeffs(coeffs)

    def _check(self, other):
        if not isinstance(other, FqElement):
            raise TypeError(f"expected FqElement, got {type(other).__name__}")
        if other.field is not self.field:
            raise PAdicError("elements of different fields")

    def __add__(self, other):
        self._check(other)
        fld = self.field
        if fld.f == 1:
            return FqElement(fld, (self.code + other.code) % fld.p)
        return self._wrap([(a + b) % fld.p for a, b in zip(self.coeffs(), other.coeffs())])

    def __neg__(self):
        fld = self.field
        if fld.f == 1:
            return FqElement(fld, -self.code % fld.p)
        return self._wrap([-a % fld.p for a in self.coeffs()])

    def __sub__(self, other):
        self._check(other)
        fld = self.field
        if fld.f == 1:
            return FqElement(fld, (self.code - other.code) % fld.p)
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        fld = self.field
        if fld.f == 1:
            return FqElement(fld, self.code * other.code % fld.p)
        modulus = list(fld.modulus) + [1]
        return self._wrap(_poly_mulmod(self.coeffs(), other.coeffs(), modulus, fld.p))

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        fld = self.field
        if fld.f == 1:
            return FqElement(fld, pow(self.code, e, fld.p))
        modulus = list(fld.modulus) + [1]
        return self._wrap(_poly_powmod(self.coeffs(), e, modulus, fld.p))

    def inverse(self):
        if self.code == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __eq__(self, other):
        return (
            isinstance(other, FqElement)
            and other.field is self.field
            and other.code == self.code
        )

    def __hash__(self):
        return hash((self.field.p, self.field.f, self.code))

    def __bool__(self):
        return self.code != 0

    def trace(self):
        """Absolute trace down to F_p, returned as an int in [0, p)."""
        fld = self.field
        acc = self
        total = self
        for _ in range(fld.f - 1):
            acc = acc ** fld.p
            total = total + acc
        coeffs = total.coeffs()
        if any(c for c in coeffs[1:]):
            raise ArithmeticError("trace left the prime field (broken modulus)")
        return coeffs[0]

    def __repr__(self):
        return f"Fq({self.code}; q={self.field.q})"


def additive_character_table(p, f=1):
    """q x q complex table T[j, k] = exp(2*pi*i * Tr(g_j * g_k) / p).

    Row j is the additive character attached to g_j, evaluated on all field
    elements in code order.  Row 0 is the trivial character; every other row
    sums to zero and distinct rows are orthogonal under the standard inner
    product (both properties are exercised in the tests).
    """
    field = FiniteField(p, f)
    q = field.q
    traces = np.empty((q, q), dtype=np.int64)
    elements = [field(k) for k in range(q)]
    for j in range(q):
        gj = elements[j]
        for k in range(j, q):
            t = (gj * elements[k]).trace()
            traces[j, k] = t
            traces[k, j] = t
    return np.exp(2j * math.pi / p * traces)
