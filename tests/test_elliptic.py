"""Elliptic fiber models: point counts, closed-form spectra, hearing.

Point counts were recomputed with an independent Legendre-symbol sum
(N = 1 + sum over x of 1 + chi(x^3 + Ax + B)); the F_25 counts with
standalone arithmetic in Z[w]/(w^2 - 2) mod 5.  Closed-form eigenvalues
are frozen from exact rational quadrature of the distance kernel.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from padic_spectra import elliptic, spectral
from padic_spectra.elliptic import (
    AmbiguousMatchError,
    CurveSpec,
    HearingError,
    HypothesisError,
    NoMatchError,
    branch_points_rational,
    build_elliptic_model,
    closed_form_discrepancies,
    closed_form_eigenvalue,
    count_points_bruteforce,
    hasse_window,
    hear_points,
    kappa_term,
    lambda0,
    published_eigenvalue,
    serre_invariant,
)

# Legendre-sum oracle values
POINT_COUNTS = [
    (13, -1, 0, 8),
    (17, -1, 0, 16),
    (19, -1, 0, 20),
    (13, -7, 6, 16),
    (13, 6, 6, 16),
    (17, 3, 13, 20),
    (17, 8, 8, 24),
    (29, 22, 6, 32),
    (29, 14, 14, 36),
]

# exact quadrature, y^2 = x^3 - x over F_13, level 2 (N = 8):
# region -> {s: (depth-1 eigenvalue, depth-2 eigenvalue)}
E13_CLOSED = {
    "a": {
        2: (Fraction(25103, 1600), Fraction(293903, 1600)),
        3: (Fraction(11225487, 64000), Fraction(1838297487, 64000)),
    },
    "b": {
        2: (Fraction(328367, 19600), Fraction(3621167, 19600)),
        3: (Fraction(493239513, 2744000), Fraction(78828951513, 2744000)),
    },
    "c": {
        2: (Fraction(46397, 3136), Fraction(573245, 3136)),
        3: (Fraction(30256239, 175616), Fraction(5043741807, 175616)),
    },
}


# -- curve construction ------------------------------------------------------


def test_small_characteristic_rejected():
    for p in (2, 3):
        with pytest.raises(ValueError):
            CurveSpec(p, 1, 1)


def test_singular_curve_rejected():
    # 4 + 27*9 = 247 = 19*13
    with pytest.raises(ValueError):
        CurveSpec(13, 1, 3)


def test_coefficients_reduce_mod_p():
    a = CurveSpec(13, -1, 0)
    b = CurveSpec(13, 12, 13)
    assert a.A == b.A and a.B == b.B


def test_vector_coefficients_for_extension_fields():
    c1 = CurveSpec(5, 2, 1, f=2)
    c2 = CurveSpec(5, [2, 0], [1, 0], f=2)
    assert c1.A == c2.A and c1.B == c2.B
    assert c1.q == 25


@pytest.mark.parametrize("p,a4,a6,N", POINT_COUNTS)
def test_point_counts(p, a4, a6, N):
    assert count_points_bruteforce(CurveSpec(p, a4, a6)) == N


def test_point_count_extension_field():
    assert count_points_bruteforce(CurveSpec(5, -1, 0, f=2)) == 32
    assert count_points_bruteforce(CurveSpec(5, 2, 1, f=2)) == 35


def test_threaded_count_agrees():
    # the point count once had a thread-pool path; the plain count must
    # agree with an Euler-criterion count on the curve it was checked on
    curve = CurveSpec(29, 22, 6)
    euler = 1 + sum(
        1 + (0 if r == 0 else (1 if pow(r, 14, 29) == 1 else -1))
        for r in ((x**3 + 22 * x + 6) % 29 for x in range(29))
    )
    assert count_points_bruteforce(curve) == euler == 32


@pytest.mark.parametrize("p", [13, 29, 101, 157])
def test_point_counts_match_euler_criterion(p):
    # the prime-field sweep against N = 1 + sum_x (1 + chi(rhs(x))), with chi
    # by Euler's criterion in plain integers
    for a4, a6 in [(-1, 0), (2, 3), (5, 7), (p - 3, 1)]:
        if (4 * a4**3 + 27 * a6**2) % p == 0:
            continue
        euler = 1
        for x in range(p):
            r = (x**3 + a4 * x + a6) % p
            euler += 1 + (0 if r == 0 else (1 if pow(r, (p - 1) // 2, p) == 1 else -1))
        assert count_points_bruteforce(CurveSpec(p, a4, a6)) == euler, (a4, a6)


def test_serre_invariant():
    assert serre_invariant(CurveSpec(13, -1, 0)) == 8
    assert serre_invariant(CurveSpec(17, -1, 0)) == 0
    assert serre_invariant(CurveSpec(19, -1, 0)) == 2


def test_branch_points_rationality():
    assert branch_points_rational(CurveSpec(13, -1, 0))   # x^3 - x splits
    assert branch_points_rational(CurveSpec(13, -7, 6))   # (x-1)(x-2)(x+3)
    assert not branch_points_rational(CurveSpec(13, 0, 2))  # 11 is not a cube


def test_hasse_window():
    assert hasse_window(13) == (6, 22)
    assert hasse_window(17) == (9, 27)


# -- model construction ------------------------------------------------------


def test_fiber_census():
    model = build_elliptic_model(CurveSpec(13, -1, 0), 2)
    labels = [top.label for top in model.tops]
    assert labels.count("a") == 1
    assert labels.count("b") == 4
    assert labels.count("c") == 3
    assert model.num_cells == 104
    assert model.total_measure == Fraction(8, 13)


def test_nerve_weights_from_fiber_counts():
    # chart 0 covers a+b fibers, chart 1 covers b+c, the overlap is b
    model = build_elliptic_model(CurveSpec(13, -1, 0), 2)
    entries = {
        frozenset(e["charts"]): e["weight"] for e in model.nerve.to_json_entries()
    }
    assert entries[frozenset({0})] == "5/13"
    assert entries[frozenset({1})] == "7/13"
    assert entries[frozenset({0, 1})] == "4/13"


def _tops_by_double_loop(curve):
    """The fibers of the model by the x-by-y loop over F_q^2: the point at
    infinity, then every affine point in (x, y) code order, with the flat
    (x, y) code list of the affine points."""
    tops = [(0, "a", frozenset([0]))]
    affine = []
    field = curve.field
    for x in field.elements():
        rhs = curve.rhs(x)
        for y in field.elements():
            if y * y == rhs:
                affine.append((x.code, y.code, not rhs))
    affine.sort(key=lambda t: (t[0], t[1]))
    for xc, yc, is_branch in affine:
        label = "c" if is_branch else "b"
        charts = frozenset([1]) if is_branch else frozenset([0, 1])
        tops.append((len(tops), label, charts))
    return tops, [code for xc, yc, _ in affine for code in (xc, yc)]


@pytest.mark.parametrize(
    "curve",
    [CurveSpec(13, -1, 0), CurveSpec(17, -1, 0), CurveSpec(29, -1, 0),
     CurveSpec(5, -1, 0, f=2)],
    ids=["p13", "p17", "p29", "q25"],
)
def test_model_tops_match_double_loop(curve):
    # top k >= 1 is the fiber of affine point k - 1 of the sweep
    model = build_elliptic_model(curve, 2)
    tops, points = _tops_by_double_loop(curve)
    assert [(t.index, t.label, t.region) for t in model.tops] == tops
    assert list(elliptic._affine_points(curve)) == points
    assert len(model.tops) == count_points_bruteforce(curve)


def _affine_points_by_elements(curve):
    """The sorted flat (x, y) codes by a sweep of F_q one FqElement at a
    time: a table of square roots in ascending code order, then rhs once
    per x."""
    roots = [[] for _ in range(curve.q)]
    for y in curve.field.elements():
        roots[(y * y).code].append(y.code)
    points = []
    for x in curve.field.elements():
        for y in roots[curve.rhs(x).code]:
            points.extend((x.code, y))
    return points


# (p, f, a4, a6, whether the cubic splits); x^3 - x splits over every field
SWEEP_CASES = [
    (13, 1, -1, 0, True), (13, 1, 0, 2, False),
    (15013, 1, -1, 0, True), (15013, 1, 0, 2, False),
    (20011, 1, -1, 0, True), (20011, 1, 1, 1, False),
    (5, 2, -1, 0, True), (5, 2, [1, 2], [3, 1], False),
    (7, 2, -1, 0, True), (7, 2, [1, 2], [3, 1], True), (7, 2, [0, 1], [1], False),
    (11, 2, -1, 0, True), (11, 2, [1, 2], [3, 1], False),
    (5, 3, -1, 0, True), (5, 3, [1, 2], [3, 1], True), (5, 3, [0, 1], [1], False),
    (7, 5, -1, 0, True), (7, 5, [1, 2], [3, 1], False),
]


@pytest.mark.parametrize(
    "p, f, a4, a6, split", SWEEP_CASES,
    ids=[f"q{p**f}-{a4}-{a6}".replace(" ", "") for p, f, a4, a6, _ in SWEEP_CASES],
)
def test_sweep_matches_the_element_loop(p, f, a4, a6, split):
    curve = CurveSpec(p, a4, a6, f=f)
    expected = _affine_points_by_elements(curve)
    points = elliptic._affine_points(curve)
    assert points.dtype == np.int64 and points.shape == (len(expected),)
    assert points.tolist() == expected
    assert (expected[1::2].count(0) == 3) is split
    assert branch_points_rational(curve) is split
    assert count_points_bruteforce(curve) == 1 + len(expected) // 2


def test_sweep_peak_memory():
    # the points (16 bytes each) and a few q-long int64 arrays at a time
    curve = CurveSpec(20011, -1, 0)
    tracemalloc.start()
    try:
        points = elliptic._affine_points(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(points) == 2 * 20011
    assert peak <= 1.3e6, peak


def test_sweep_refuses_a_field_past_its_limit_before_any_array():
    curve = CurveSpec(7, 1, 1, f=8)  # q = 5764801: one int64 array is 46 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="q = 5764801 exceeds the F_q sweep limit 4194304"):
            count_points_bruteforce(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


def test_level_must_be_at_least_two():
    with pytest.raises(ValueError):
        build_elliptic_model(CurveSpec(13, -1, 0), 1)


def test_nonsplit_curve_refused():
    with pytest.raises(HypothesisError):
        build_elliptic_model(CurveSpec(13, 0, 2), 2)


# -- closed-form eigenvalues ----------------------------------------------------


@pytest.mark.parametrize("region", ["a", "b", "c"])
@pytest.mark.parametrize("s", [2, 3])
def test_closed_form_matches_rational_quadrature(region, s):
    lam1 = closed_form_eigenvalue(Fraction(1, 13), region, s, 8, 13)
    lam2 = closed_form_eigenvalue(Fraction(1, 169), region, s, 8, 13)
    assert lam1 == E13_CLOSED[region][s][0]
    assert lam2 == E13_CLOSED[region][s][1]


@pytest.mark.parametrize("region", ["a", "b", "c"])
def test_closed_form_collapses_at_s_zero(region):
    for mu in (Fraction(1, 13), Fraction(1, 169)):
        assert closed_form_eigenvalue(mu, region, 0, 8, 13) == Fraction(8, 13)


def test_closed_form_matches_model_quadrature_float():
    model = build_elliptic_model(CurveSpec(17, -1, 0), 2)
    for ti in range(len(model.tops)):
        region = model.tops[ti].label
        lam = spectral.wavelet_eigenvalue_numeric(model, model.ball(ti), 1.5)
        ref = closed_form_eigenvalue(Fraction(1, 17), region, 1.5, 16, 17)
        assert abs(lam - ref) <= 1e-10 * abs(ref)


def test_kappa_needs_at_least_six_points():
    with pytest.raises(HypothesisError):
        kappa_term("a", 2, 5, 13)


def _fiber_distance_table(N):
    """(distance numerator over q, fiber count) of the other fibers, as seen
    from a fiber of each region; N is the point count."""
    return {
        "a": [(N - 3, N - 4), (N, 3)],
        "b": [(N - 4, N - 5), (N - 1, 3), (N - 3, 1)],
        "c": [(N - 1, N - 2), (N, 1)],
    }


@pytest.mark.parametrize("s", [0, 2, 3])
def test_kappa_matches_fiber_distance_table(s):
    q = 13
    for N in range(6, 61):
        for region, parts in _fiber_distance_table(N).items():
            expected = sum(Fraction(d, q) ** -s * Fraction(k, q) for d, k in parts)
            assert kappa_term(region, s, N, q) == expected, (N, region)


def test_published_form_disagrees_with_quadrature():
    # the printed closed form misses the s=0 collapse in every region
    for region in ("a", "b", "c"):
        pub = published_eigenvalue(Fraction(1, 13), region, 0, 8, 13)
        assert pub != Fraction(8, 13)
    rows = closed_form_discrepancies(8, 13, 2)
    assert rows
    assert all(abs(r["delta"]) > 0 for r in rows)
    assert {r["region"] for r in rows} == {"a", "b", "c"}


# -- hearing --------------------------------------------------------------------


def test_lambda0_is_exact_for_integer_s():
    lam = lambda0(CurveSpec(13, -1, 0), s=2)
    assert lam == Fraction(46397, 3136)


def test_lambda0_refuses_a_cubic_that_does_not_split():
    # x^3 + x + 1 has no root mod 13: the fiber census does not apply
    curve = CurveSpec(13, 1, 1)
    assert not branch_points_rational(curve)
    with pytest.raises(HypothesisError):
        build_elliptic_model(curve, 2)
    with pytest.raises(HypothesisError):
        lambda0(curve, s=2)


def test_lambda0_raises_when_minimum_leaves_maximal_balls(monkeypatch):
    # a forward map whose minimum sits on the depth-2 balls breaks the s > 1
    # invariant; lambda0 raises a real error (not an assert, which -O strips)
    monkeypatch.setattr(
        elliptic, "_census_eigenvalues",
        lambda census, table, c, level, s, exact: {
            (ell, region): Fraction(1, c**ell) for ell in range(1, level) for region in census
        },
    )
    with pytest.raises(HearingError, match="maximal balls"):
        lambda0(8, q=13, s=2, level=3)


def test_hearing_round_trip_exact():
    lam = lambda0(CurveSpec(13, -1, 0), s=2)
    result = hear_points(float(lam), 13, 2)
    assert result.N == 8
    assert result.method == "forward-search"
    assert result.window == (6, 22)


@pytest.mark.parametrize("p,a4,a6,N", POINT_COUNTS[:7])
def test_hearing_round_trip_table(p, a4, a6, N):
    curve = CurveSpec(p, a4, a6)
    lam = lambda0(curve, s=2)
    assert hear_points(float(lam), p, 2).N == N


def test_hearing_float_exponent():
    curve = CurveSpec(13, -7, 6)
    model = build_elliptic_model(curve, 2)
    lam = spectral.enumerate_spectrum(model, 2.7).lambda_min_wavelet
    assert hear_points(lam, 13, 2.7).N == 16


def test_hearing_no_match_outside_window():
    with pytest.raises(NoMatchError):
        hear_points(1000.0, 13, 2)


def test_hearing_no_match_when_perturbed_beyond_tolerance():
    lam = float(lambda0(CurveSpec(13, -1, 0), s=2))
    with pytest.raises(NoMatchError):
        hear_points(lam + 1e-6, 13, 2)


def test_hearing_ambiguous_with_sloppy_tolerance():
    lam = float(lambda0(CurveSpec(13, -1, 0), s=2))
    with pytest.raises(AmbiguousMatchError):
        hear_points(lam, 13, 2, tolerance=10)


@pytest.mark.parametrize("tolerance", [0, -1, float("nan"), float("inf")])
def test_hearing_refuses_a_tolerance_not_positive_and_finite(tolerance):
    # a plain ValueError, not a HearingError: the input is wrong, not the
    # inversion (inf once made every N a candidate, the rest none)
    lam = float(lambda0(CurveSpec(13, 6, 6), s=2))
    with pytest.raises(ValueError, match="positive and finite") as exc:
        hear_points(lam, 13, 2, tolerance=tolerance)
    assert not isinstance(exc.value, HearingError)


def test_paper_formula_diagnostics_present():
    lam = float(lambda0(CurveSpec(13, -7, 6), s=2))
    result = hear_points(lam, 13, 2)
    pf = result.paper_formulas
    assert set(pf) == {"s1", "sandwich_lo", "sandwich_hi", "t0"}
    assert pf["sandwich_lo"] == pytest.approx(15.326473736292586)
    assert pf["sandwich_hi"] == pytest.approx(21.489710604438876)
    assert pf["t0"] == pytest.approx(-0.48971060443887815)
    assert any("contain the recovered N" in n for n in result.notes)


def test_sandwich_failure_is_reported_not_raised():
    # N = 16 < q + 1 = 18: the recovered count sits below the printed bounds
    lam = float(lambda0(CurveSpec(17, -1, 0), s=2))
    result = hear_points(lam, 17, 2)
    assert result.N == 16
    assert any("do NOT contain" in n for n in result.notes)


def test_hearing_result_serializes():
    lam = float(lambda0(CurveSpec(13, -1, 0), s=2))
    doc = hear_points(lam, 13, 2).to_json_dict()
    assert doc["N_recovered"] == 8
    assert doc["hasse_window"] == [6, 22]
    assert "paper_formulas" in doc and "notes" in doc


# -- hearing by bisection ---------------------------------------------------------


def _scan_hear(lambda0_value, q, s, tolerance=1e-9):
    """The full float scan of the Hasse window that hear_points once ran:
    every N pushed through the forward map, the unique match within
    tolerance wins.  Returns N or raises as that scan did."""
    lo, hi = hasse_window(q)
    target = float(lambda0_value)
    forward = {N: float(lambda0(N, q=q, s=s)) for N in range(max(lo, 6), hi + 1)}
    ordered = list(forward.values())
    deltas = [b - a for a, b in zip(ordered, ordered[1:])]
    if not (all(d > 0 for d in deltas) or all(d < 0 for d in deltas)):
        raise HearingError("forward map not monotone across the window")
    candidates = [N for N, value in forward.items() if abs(value - target) < tolerance]
    if not candidates:
        raise NoMatchError("no match")
    if len(candidates) > 1:
        raise AmbiguousMatchError("several matches")
    return candidates[0]


def _outcome(hear, *args, **kwargs):
    """The N a hearing returns, or the type of the error it raises."""
    try:
        found = hear(*args, **kwargs)
    except HearingError as err:
        return type(err)
    return getattr(found, "N", found)


# (q, N) of every curve the test suite builds
SUITE_COUNTS = sorted(
    {(p, N) for p, _, _, N in POINT_COUNTS}
    | {(c.q, count_points_bruteforce(c))
       for c in (CurveSpec(157, -1, 0), CurveSpec(701, -1, 0), CurveSpec(5, -1, 0, f=2))}
)


@pytest.mark.parametrize("s", [2, 3, 2.7])
@pytest.mark.parametrize("q, N", SUITE_COUNTS)
def test_bisection_agrees_with_the_full_scan(q, N, s):
    lam = lambda0(N, q=q, s=s)
    cases = [(float(lam), {}), (float(lam) + 1e-6, {}), (float(lam), {"tolerance": 10}),
             (1000.0, {}), (-1.0, {})]
    if isinstance(lam, Fraction):
        cases += [(lam, {}), (lam + Fraction(1, 10**6), {})]
    for value, kwargs in cases:
        found = _outcome(hear_points, value, q, s, **kwargs)
        assert found == _outcome(_scan_hear, value, q, s, **kwargs), (value, kwargs)
    assert hear_points(lam, q, s).N == N


@pytest.mark.parametrize("s", [2, 3, 2.7])
@pytest.mark.parametrize("q", sorted({q for q, _ in SUITE_COUNTS}))
def test_exact_forward_map_is_strictly_monotone_over_the_window(q, s):
    lo, hi = hasse_window(q)
    values = [lambda0(N, q=q, s=s) for N in range(max(lo, 6), hi + 1)]
    assert all(type(v) is (float if s == 2.7 else Fraction) for v in values)
    assert {(b > a) - (b < a) for a, b in zip(values, values[1:])} in ({1}, {-1})


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("q", [1000003, 10**8 + 7])
def test_hearing_exact_round_trip_at_large_q(q, s):
    # adjacent N share one float lambda0 here; the exact values still differ
    lo, hi = hasse_window(q)
    for N in (lo, q + 1, hi):
        lam = lambda0(N, q=q, s=s)
        assert hear_points(lam, q, s).N == N
        with pytest.raises(NoMatchError):
            hear_points(lam + Fraction(1, q**s), q, s)


def test_exact_hearing_ignores_the_tolerance():
    lam = lambda0(CurveSpec(13, -1, 0), s=2)
    assert hear_points(lam, 13, 2, tolerance=10).N == 8


@pytest.mark.parametrize("q", [13, 157, 1000003])
def test_exact_hearing_evaluates_the_forward_map_log_window_times(monkeypatch, q):
    lo, hi = hasse_window(q)
    N = q + 1
    lam = lambda0(N, q=q, s=2)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return lambda0(*args, **kwargs)

    monkeypatch.setattr(elliptic, "lambda0", counted)
    assert hear_points(lam, q, 2).N == N
    assert len(calls) <= math.ceil(math.log2(hi - lo + 1)) + 4


@pytest.mark.parametrize("s, level", [(-1, 3), (-0.5, 4), (3, 3)])
def test_hearing_reads_the_forward_map_at_the_model_level(s, level):
    # for s < 0 the least class sits on the deepest balls, so the level-2
    # forward map misses it
    lam = lambda0(8, q=13, s=s, level=level)
    assert hear_points(lam, 13, s, level=level).N == 8
