"""Reference answers the benchmark checks every operation against.

Each oracle is computed by the benchmark itself, outside every timed span,
by another route than the code path it checks: point counts by the Euler
criterion, wavelet eigenvalues by the ultrametric closed form (from top-ball
layouts fixed in this file, not from the program's distances), the semigroup
by the closed-form decay of wavelets, nerve weights by their published
values, kernels by mass identities, sampled laws by total variation against
the heat row.  A check returns None when the output is right and a short
reason string when it is not.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from padic_spectra.padics import matrix_norm, matrix_sub_identity

TV_BOUND = 0.02
MASS_TOL = 1e-9
FLOAT_REL_TOL = 1e-12
SEMIGROUP_TOL = 1e-12


def _pow_mod(base, exponent, modulus):
    """Elementwise base**exponent % modulus for int64 arrays (modulus < 3e9)."""
    result = np.ones_like(base)
    base = base % modulus
    while exponent:
        if exponent & 1:
            result = result * base % modulus
        base = base * base % modulus
        exponent >>= 1
    return result


def euler_point_count(q, a4, a6):
    """#E(F_q) for y^2 = x^3 + a4 x + a6 over a prime field, by Euler's criterion.

    N = 1 + sum_x (1 + chi(x^3 + a4 x + a6)), with chi(v) = v^((q-1)/2) mod q
    read as +1 or -1, and chi(0) = 0.
    """
    x = np.arange(q, dtype=np.int64)
    rhs = ((x * x % q) * x + (a4 % q) * x + a6 % q) % q
    chi = _pow_mod(rhs, (q - 1) // 2, q)
    chi = np.where(chi == q - 1, -1, chi)
    return int(1 + q + chi.sum())


def split_cubic(q, r1, r2):
    """Coefficients (a4, a6) of (x - r1)(x - r2)(x - r3) with r1 + r2 + r3 = 0."""
    r3 = (-r1 - r2) % q
    a4 = (r1 * r2 + r1 * r3 + r2 * r3) % q
    a6 = (-r1 * r2 * r3) % q
    return a4, a6


def check_count(payload, q, a4, a6):
    N = euler_point_count(q, a4, a6)
    lo, hi = payload["hasse_window"]
    if payload["N"] != N:
        return f"N = {payload['N']}, Euler criterion gives {N}"
    if payload["serre_invariant"] != N % (q - 1):
        return "Serre invariant is not N mod (q - 1)"
    if payload["branch_points_rational"] is not True:
        return "split cubic reported without rational branch points"
    if not lo <= N <= hi:
        return "N outside the reported Hasse window"
    return None


def check_hear(payload, q, a4, a6):
    N = euler_point_count(q, a4, a6)
    if not payload["N_bruteforce"] == N == payload["N_recovered"]:
        return (
            f"N_bruteforce {payload['N_bruteforce']}, N_recovered"
            f" {payload['N_recovered']}, Euler criterion {N}"
        )
    if payload["agree"] is not True:
        return "hearing round trip reports disagreement"
    return None


# -- spectra ---------------------------------------------------------------------

# Top-ball layout of each deep model, fixed here so that the spectrum and
# semigroup oracles do not take the distances from the program they check.
# Key (kind, shape, p); the level does not change the layout.  For each chart
# region: the number of top balls with that region, and, from one such top
# T, the count of other tops T' at each c * d_g(T, T').
#
# c * d_g(T, T') is the number of tops covered by the cheapest chain of nerve
# simplices from sigma(T) to sigma(T'), where a simplex covers the tops whose
# region contains it; on P^n, two tops that share a chart lie in that chart's
# ball instead, which covers its p^n tops.  By hand:
#   P1(p): p - 1 tops in both charts and one in each chart alone; any two
#     tops share a chart (p tops) except [1:0] and [0:1], whose chain
#     {0} - {0,1} - {1} covers all p + 1.
#   E(13), y^2 = x^3 - x: 1 top in chart 0 alone, 3 in chart 1 alone, 4 in
#     both, so {0} covers 5, {1} covers 7, {0,1} covers 4, {0} - {0,1} - {1}
#     covers 8.
#   Y2(5): 1 top in each chart alone and 4 in each pair of charts, so {i}
#     covers 9, {i,j} covers 4, and {i} - {i,j} - {j} covers 14.
TOP_LAYOUTS = {
    ("elliptic", (-1, 0), 13): {
        (0,): (1, {5: 4, 8: 3}),
        (1,): (3, {7: 6, 8: 1}),
        (0, 1): (4, {4: 3, 5: 1, 7: 3}),
    },
    ("projective", 1, 5): {
        (0,): (1, {5: 4, 6: 1}),
        (1,): (1, {5: 4, 6: 1}),
        (0, 1): (4, {5: 5}),
    },
    ("projective", 1, 7): {
        (0,): (1, {7: 6, 8: 1}),
        (1,): (1, {7: 6, 8: 1}),
        (0, 1): (6, {7: 7}),
    },
    ("Y", 2, 5): {
        **{(i,): (1, {9: 8, 14: 6}) for i in range(3)},
        **{pair: (4, {4: 3, 9: 10, 14: 1}) for pair in ((0, 1), (0, 2), (1, 2))},
    },
}


def closed_form_class_eigenvalue(c, depth, profile, s):
    """lambda(delta, T) = c^(delta(s-1)) + (1 - 1/c) sum_{0<j<delta} c^(j(s-1))
    + (1/c) sum_{T' != T} d_g(T, T')^(-s), with profile {c * d_g: count}:
    exact Fraction for integer s."""
    if isinstance(s, int):
        cf = Fraction(c)
        value = cf ** (depth * (s - 1))
        value += (1 - Fraction(1, c)) * sum(cf ** (j * (s - 1)) for j in range(1, depth))
        value += Fraction(1, c) * sum(n * Fraction(k, c) ** -s for k, n in profile.items())
        return value
    value = float(c) ** (depth * (s - 1))
    value += (1 - 1 / c) * sum(float(c) ** (j * (s - 1)) for j in range(1, depth))
    value += (1 / c) * sum(n * (k / c) ** -s for k, n in profile.items())
    return value


class SpectrumOracle:
    """Closed-form class eigenvalues of one deep model, cached per exponent."""

    def __init__(self, spec):
        kind, shape, p, level = spec
        self.layout = TOP_LAYOUTS[(kind, shape, p)]
        self.c = p if kind == "elliptic" else p**shape
        self.level = level
        self.ntops = sum(n for n, _ in self.layout.values())
        for n, profile in self.layout.values():
            assert sum(profile.values()) == self.ntops - 1, "layout table is inconsistent"
        self.num_cells = self.ntops * self.c ** (level - 1)
        self._cache = {}

    def eigenvalue(self, depth, region, s):
        key = (depth, tuple(region), s)
        if key not in self._cache:
            profile = self.layout[tuple(region)][1]
            self._cache[key] = closed_form_class_eigenvalue(self.c, depth, profile, s)
        return self._cache[key]

    def check_spectrum(self, payload, s):
        c = self.c
        classes = payload["classes"]
        expected_classes = len(self.layout) * (self.level - 1)
        if len(classes) != expected_classes:
            return f"{len(classes)} classes, expected {expected_classes}"
        if payload["complement_dimension"] != self.ntops:
            return f"complement dimension {payload['complement_dimension']}, not {self.ntops} tops"
        total = payload["complement_dimension"] + sum(cls["multiplicity"] for cls in classes)
        if total != self.num_cells or payload["total_dimension"] != self.num_cells:
            return f"multiplicities add up to {total}, not {self.num_cells} cells"
        for cls in classes:
            region, depth = tuple(cls["region"]), cls["depth"]
            if region not in self.layout:
                return f"class on unknown chart region {list(region)}"
            mult = (c - 1) * self.layout[region][0] * c ** (depth - 1)
            if cls["multiplicity"] != mult:
                return f"class {depth}/{list(region)}: multiplicity {cls['multiplicity']} != {mult}"
            want = self.eigenvalue(depth, region, s)
            if isinstance(s, int):
                got = cls["eigenvalue_exact"]
                if got is None or Fraction(got) != want:
                    return f"class {depth}/{list(region)}: {got} != {want}"
            elif abs(cls["eigenvalue"] - want) > FLOAT_REL_TOL * abs(want):
                return f"class {depth}/{list(region)}: {cls['eigenvalue']!r} vs {want!r}"
        return None

    def wavelet(self, top, prefix, plus, minus):
        """A real wavelet on the ball (top, prefix): +1 on child `plus`, -1 on
        child `minus`, 0 elsewhere.  It lies in the span of the ball's
        character wavelets, so the operator just scales it."""
        per = self.c ** (self.level - 1)
        start, width = top * per, per
        for digit in prefix:
            width //= self.c
            start += digit * width
        child = width // self.c
        psi = np.zeros(self.num_cells)
        psi[start + plus * child:start + (plus + 1) * child] = 1.0
        psi[start + minus * child:start + (minus + 1) * child] = -1.0
        return psi


def expected_nerve_weights(kind, q, n, N=None):
    """Published nerve weights, keyed by sorted chart tuple."""
    if kind == "elliptic":
        return {(0,): Fraction(N - 3, q), (1,): Fraction(N - 1, q), (0, 1): Fraction(N - 4, q)}
    full = (1 - Fraction(1, q)) ** n
    out = {}
    charts = range(n + 1)
    for k in range(1, n + 2):
        for combo in itertools.combinations(charts, k):
            w = (1 - Fraction(1, q)) ** (k - 1)
            if kind == "Y":
                if k == n + 1:
                    continue
                w -= full
            out[combo] = w
    return out


def check_nerve(payload, expected):
    got = {
        tuple(entry["charts"]): Fraction(entry["weight"]) for entry in payload["simplices"]
    }
    if got != expected:
        return f"nerve weights {got} differ from {expected}"
    if payload["connected"] is not True:
        return "nerve reported disconnected"
    return None


def check_semigroup(out, expected):
    """exp(-tL) on a constant plus wavelets: the constant stays, each wavelet
    decays by exp(-t lambda) of its class."""
    out = np.asarray(out)
    if out.shape != expected.shape or not np.isfinite(out).all():
        return "semigroup output has the wrong shape or is not finite"
    error = float(np.abs(out - expected).max())
    if error > SEMIGROUP_TOL * float(np.abs(expected).max()):
        return f"semigroup output is {error!r} away from the closed-form decay"
    return None


# -- kernels and sampling --------------------------------------------------------------


def check_heat(payload, cell_measure):
    row = np.asarray(payload["row"])
    mass = float(row.sum()) * cell_measure
    if abs(mass - 1.0) > MASS_TOL or payload["mass_max_deviation"] > MASS_TOL:
        return f"heat row mass {mass!r}, max deviation {payload['mass_max_deviation']!r}"
    return None


def check_green(payload, cell_measure):
    row = np.asarray(payload["row"])
    integral = float(row.sum()) * cell_measure
    if abs(integral) > MASS_TOL:
        return f"Green row integrates to {integral!r}"
    return None


def ball_tv(law_a, law_b, cells_per_ball):
    """Total variation between two cell laws on the partition into balls."""
    a = np.asarray(law_a).reshape(-1, cells_per_ball).sum(axis=1)
    b = np.asarray(law_b).reshape(-1, cells_per_ball).sum(axis=1)
    return 0.5 * float(np.abs(a - b).sum())


def check_simulate(payload, heat_law, cells_per_ball, paths):
    law = np.asarray(payload["empirical_law"])
    if payload["num_paths"] != paths or not math.isclose(float(law.sum()), 1.0, abs_tol=1e-9):
        return "empirical law is not a probability vector over all paths"
    if heat_law is None:
        return "no heat row to compare the sampled law with"
    tv = ball_tv(law, heat_law, cells_per_ball)
    if not tv < TV_BOUND:
        return f"TV {tv:.4f} against the heat row on depth-2 balls"
    return None


# -- equalising --------------------------------------------------------------------


def check_equalise(payload, probes, repaired):
    if payload["composite_mismatches"] != 0:
        return f"{payload['composite_mismatches']} composite mismatches"
    if not all(probes):
        return "a probed ball is not mapped onto an equal-radius ball"
    if not matrix_norm(matrix_sub_identity(repaired.linear_part())) < 1:
        return "repaired linear part is not within 1 of the identity"
    return None
