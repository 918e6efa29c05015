"""
Wavelet spectra in closed form, and hearing a point count
=========================================================

The integral operator with kernel d_g(x,y)^(-s) is diagonalized by
hierarchical wavelets.  On an elliptic-curve model the eigenvalue of a
wavelet depends only on its ball's measure and the region its fiber sits
in, which gives a closed form; the smallest eigenvalue determines the
point count of the reduction, and a bisection over the Hasse window
inverts it.
"""

from fractions import Fraction

from padic_spectra import (
    CurveSpec,
    build_elliptic_model,
    closed_form_eigenvalue,
    count_points_bruteforce,
    enumerate_spectrum,
    hasse_window,
    hear_points,
    lambda0,
    published_eigenvalue,
    wavelet_eigenvalue_numeric,
)

curve = CurveSpec(13, -1, 0)
N = count_points_bruteforce(curve)
q = curve.q
print(f"y^2 = x^3 - x over F_13: N = {N} points, Hasse window {hasse_window(q)}")

model = build_elliptic_model(curve, 2)
summary = enumerate_spectrum(model, 2, exact=True)
print()
print("spectrum at s = 2 (exact):")
for cls in summary.classes:
    print(f"  depth {cls.depth}  mu_B = {cls.mu_B}  lambda = {cls.eigenvalue}"
          f"  (= {float(cls.eigenvalue):.6f})  multiplicity {cls.multiplicity}")

# Closed form against direct quadrature on the built model, exactly.
# Top 0 is the fiber over the point at infinity, region "a".
ball = model.ball(0)
direct = wavelet_eigenvalue_numeric(model, ball, 2, exact=True)
closed = closed_form_eigenvalue(Fraction(1, q), model.tops[0].label, 2, N, q)
print()
print("quadrature:", direct, " closed form:", closed, " equal:", direct == closed)

# The literal printed constants differ from the self-consistent closed form;
# the cleanest symptom is s = 0, where every eigenvalue must collapse to the
# total measure N/q.
print()
print("s = 0 collapse check (every region should give N/q =", Fraction(N, q), "):")
for label in ("a", "b", "c"):
    ok = closed_form_eigenvalue(Fraction(1, q), label, 0, N, q)
    literal = published_eigenvalue(Fraction(1, q), label, 0, N, q)
    print(f"  region {label}: closed form {ok},  printed constants {literal}")

# Hearing: lambda0 -> bisection over the Hasse window, exact at integer s.
# The printed sandwich bounds are kept as diagnostics and only contain N
# for counts comfortably above q.
for a4, a6 in ((-1, 0), (6, 6)):
    c = CurveSpec(13, a4, a6)
    n_true = count_points_bruteforce(c)
    for s in (2, 3):
        lam = lambda0(n_true, q, s)
        result = hear_points(lam, q, s)
        fm = result.paper_formulas
        print()
        print(f"y^2 = x^3 + {a4}x + {a6}, s = {s}:"
              f" lambda0 = {lam} = {float(lam):.6f}")
        print(f"  recovered N = {result.N} (true {n_true}),"
              f" sandwich ({fm['sandwich_lo']:.3f}, {fm['sandwich_hi']:.3f})")
        for note in result.notes:
            print("  note:", note)
