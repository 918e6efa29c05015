"""Operator assembly, wavelet spectra, kernels, and path sampling.

Reference values come from dense linear algebra run on matrices assembled
independently from scalar distance queries (numpy eigvalsh / scipy expm /
numpy pinv), from exact rational quadrature of the eigenvalue integral, and
from the exact rational pseudo-inverse.  scipy is a test-only dependency:
the library's reduced block comes from its region quotient, and the dense
`reduced_operator` with scipy's `expm` is the oracle it is checked against.
"""

import itertools
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from padic_spectra import builtin_models, spectral
from padic_spectra.elliptic import CurveSpec, build_elliptic_model
from padic_spectra.models import (
    ModelError,
    _region_table,
    build_projective_model,
    build_Y_model,
)

# dense eigvalsh of the s=2 operator on P1(F_5) at level 2, independent run
P1_DENSE_SPECTRUM = [
    (0.0, 1),
    (1.077777777778, 1),
    (1.2, 4),
    (5.938888888889, 8),
    (6.0, 16),
]

# exact rational quadrature on E: y^2 = x^3 - x over F_13 at level 2, s=2;
# keyed by region label, (depth-1 ball, depth-2 ball)
E13_S2_EXACT = {
    "a": (Fraction(25103, 1600), Fraction(293903, 1600)),
    "b": (Fraction(328367, 19600), Fraction(3621167, 19600)),
    "c": (Fraction(46397, 3136), Fraction(573245, 3136)),
}

# reduced top-block eigenvalues of the same model, dense reference
E13_S2_REDUCED = [
    0.0,
    2.0109442483753672,
    2.060267857142847,
    2.060267857142847,
    3.2586986087674945,
    4.565918367346935,
    4.565918367346935,
    4.565918367346935,
]

# scipy.linalg.expm / numpy pinv on the dense 104-cell operator
E13_HEAT_T07_00 = 3.0304346042147023
E13_HEAT_T07_013 = 1.1556920866319103
E13_GREEN_00 = 13.75504127599562
E13_GREEN_013 = -0.9037828947368313


@pytest.fixture(scope="module")
def p1_model():
    model, _, _ = build_projective_model(5, 1, 2)
    return model


@pytest.fixture(scope="module")
def e13_model():
    return build_elliptic_model(CurveSpec(13, -1, 0), 2)


def _region_label(model, top_index):
    region = model.tops[top_index].region
    return {frozenset({0}): "a", frozenset({0, 1}): "b", frozenset({1}): "c"}[
        frozenset(region)
    ]


# -- operator assembly ---------------------------------------------------------


def test_float_operator_rows_sum_to_zero(p1_model):
    L = spectral.assemble_operator(p1_model, 2)
    assert np.abs(L.sum(axis=1)).max() < 1e-12
    assert np.abs(L - L.T).max() == 0
    off = L[~np.eye(len(L), dtype=bool)]
    assert (off < 0).all()


def test_exact_operator_is_rational_and_balanced(p1_model):
    L = spectral.assemble_operator(p1_model, 2, exact=True)
    assert L.dtype == object
    for i in range(p1_model.num_cells):
        assert sum(L[i]) == 0
        assert isinstance(L[i, 0], Fraction)
    # d(0,1) = 1/5 (cells split at depth 1), mu_cell = 1/25
    assert L[0, 1] == -Fraction(1, 5) ** -2 * Fraction(1, 25)


def test_exact_and_float_operators_agree(e13_model):
    Lf = spectral.assemble_operator(e13_model, 2)
    Le = spectral.assemble_operator(e13_model, 2, exact=True)
    sample = [(0, 0), (0, 1), (0, 13), (5, 90), (103, 103)]
    for i, j in sample:
        assert Lf[i, j] == pytest.approx(float(Le[i, j]), rel=1e-14)


@pytest.mark.parametrize("s", [2000, 10**9])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_dense_operator_refuses_an_exponent_past_the_float_range(p1_model, exact, s):
    # rates formed outside the exponent guard: the float path warned of
    # overflow and held inf, the exact path did not return at s = 10^9
    with pytest.raises(ValueError, match="exponent s too large"):
        spectral.assemble_operator(p1_model, s, exact=exact)


def test_operator_cell_limit():
    model, _, _ = build_projective_model(5, 2, 2)
    with pytest.raises(ModelError):
        spectral.assemble_operator(model, 2, max_cells=100)


# -- wavelet classes ------------------------------------------------------------


def test_wavelets_are_eigenvectors(p1_model):
    L = spectral.assemble_operator(p1_model, 2)
    ball = p1_model.ball(0)
    W = spectral.wavelet_family(p1_model, ball)
    lam = spectral.wavelet_eigenvalue_numeric(p1_model, ball, 2)
    assert W.shape == (4, p1_model.num_cells)
    for w in W:
        assert np.abs(L @ w - float(lam) * w).max() < 1e-10
    lo, hi = ball.cell_range
    outside = np.ones(p1_model.num_cells, dtype=bool)
    outside[lo:hi] = False
    assert np.abs(W[:, outside]).max() == 0


def test_wavelets_are_mean_zero(p1_model):
    W = spectral.wavelet_family(p1_model, p1_model.ball(0))
    assert np.abs(W.sum(axis=1)).max() < 1e-10


def test_single_cell_balls_carry_no_wavelets(p1_model):
    with pytest.raises(ModelError):
        spectral.wavelet_family(p1_model, p1_model.ball(0, (1,)))


def test_exact_eigenvalues_match_rational_quadrature(e13_model):
    for ti in range(len(e13_model.tops)):
        label = _region_label(e13_model, ti)
        lam1 = spectral.wavelet_eigenvalue_numeric(e13_model, e13_model.ball(ti), 2)
        assert lam1 == E13_S2_EXACT[label][0]


def _oracle_models():
    f2_model, _, _ = build_projective_model(5, 1, 2, f=2)
    return builtin_models() + [("P1(25) level 2", f2_model)]


ORACLE_MODELS = _oracle_models()


def _model_ids(models):
    return [label.replace("/", "").replace(" level ", "-m") for label, _ in models]


@pytest.mark.parametrize("s", [0, 1, 2, 3, 1.5])
@pytest.mark.parametrize("label,model", ORACLE_MODELS, ids=_model_ids(ORACLE_MODELS))
def test_class_eigenvalues_match_quadrature_oracle(label, model, s):
    # closed form per class against per-cell quadrature on the class's
    # representative ball: the first top of the region, leftmost prefix
    values = spectral.class_eigenvalues(model, s)
    regions = {t.region for t in model.tops}
    assert set(values) == {(d, r) for d in range(1, model.level) for r in regions}
    for (depth, region), lam in values.items():
        top = next(t.index for t in model.tops if t.region == region)
        ball = model.ball(top, (0,) * (depth - 1))
        ref = spectral.wavelet_eigenvalue_numeric(model, ball, s)
        if isinstance(s, int):
            assert isinstance(lam, Fraction) and lam == ref, (depth, sorted(region))
        else:
            assert abs(lam - ref) <= 1e-12 * abs(ref), (depth, sorted(region))


def test_class_enumeration_matches_dense_spectrum(p1_model):
    summary = spectral.enumerate_spectrum(p1_model, 2)
    got = sorted(
        [(round(float(c.eigenvalue), 9), c.multiplicity) for c in summary.classes]
    )
    # two single-chart poles are spectrally degenerate: 4 + 4 at 1069/180
    assert got == [(5.938888889, 4), (5.938888889, 4), (6.0, 16)]
    assert summary.total_dimension == p1_model.num_cells
    assert summary.complement_dimension == len(p1_model.tops)


def test_full_dense_spectrum_reconstruction(p1_model):
    L = spectral.assemble_operator(p1_model, 2)
    dense = np.sort(np.linalg.eigvalsh(L))
    expected = np.sort(
        np.concatenate([[v] * m for v, m in P1_DENSE_SPECTRUM])
    )
    assert np.abs(dense - expected).max() < 1e-9


def test_reduced_block_eigenvalues_frozen(e13_model):
    got = spectral.reduced_block_eigenvalues(e13_model, 2)
    assert np.abs(np.sort(got) - np.array(E13_S2_REDUCED)).max() < 1e-9


def test_reduced_block_can_sit_below_wavelet_minimum(e13_model):
    summary = spectral.enumerate_spectrum(e13_model, 2)
    nonzero = [v for v in summary.reduced_eigenvalues if v > 1e-10]
    assert min(nonzero) < summary.lambda_min_wavelet


def test_spectrum_json_carries_exact_values(e13_model):
    doc = spectral.enumerate_spectrum(e13_model, 2).to_json_dict()
    exacts = {c["eigenvalue_exact"] for c in doc["classes"]}
    assert "46397/3136" in exacts
    assert doc["total_dimension"] == 104


# -- the reduced block from its region quotient ----------------------------------


QUOTIENT_MODELS = ORACLE_MODELS + [
    ("E157 level 2", build_elliptic_model(CurveSpec(157, -1, 0), 2)),
    ("E1009 level 2", build_elliptic_model(CurveSpec(1009, -1, 0), 2)),
]


def _max_rel(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def _top_block(model, form):
    """f(L_red) on tops, expanded from the region form (idx, profile, block):
    block[a, b] between distinct tops; on a top's diagonal the mean of its
    kernel over the top, over c, since the wavelets have mean zero there."""
    idx, profile, block = form
    c, m = model.branching, model.level
    F = block[idx][:, idx]
    counts = [(c - 1) * c ** (m - 1 - d) for d in range(1, m)] + [1]
    np.fill_diagonal(F, profile[idx, 1:] @ counts / c**m)
    return F


@pytest.mark.parametrize("s", [1.5, 2, 3])
@pytest.mark.parametrize("label,model", QUOTIENT_MODELS, ids=_model_ids(QUOTIENT_MODELS))
def test_quotient_matches_dense_reduced_block(label, model, s):
    # eigenvalues, exp(-tQ) and Q^+ against eigvalsh, scipy expm and the
    # Moore-Penrose conditions on the dense reduced operator
    Q = spectral.reduced_operator(model, s)
    got = spectral.reduced_block_eigenvalues(model, s)
    assert got[0] == 0.0
    assert _max_rel(got, np.linalg.eigvalsh(Q)) < 1e-13
    for t in (0.05, 0.7):
        block = _top_block(model, spectral._heat_parts(model, s, t))
        assert _max_rel(block, scipy.linalg.expm(-t * Q)) < 1e-13, t
    G = _top_block(model, spectral._green_parts(model, s))
    g, q = np.abs(G).max(), np.abs(Q).max()
    assert np.abs(G - G.T).max() <= 1e-13 * g
    assert np.abs(G.sum(axis=1)).max() <= 1e-12 * g
    assert np.abs(Q @ G @ Q - Q).max() <= 1e-12 * q
    assert np.abs(G @ Q @ G - G).max() <= 1e-12 * g


@pytest.mark.parametrize("s", [1.5, 2, 3])
@pytest.mark.parametrize("label,model", QUOTIENT_MODELS, ids=_model_ids(QUOTIENT_MODELS))
def test_flat_kernel_forms_match_dense_reduced_block(label, model, s):
    # complement=False keeps the constant mode P0 = J/#tops of the block
    # alone: exp(-tQ) P0 = P0, and Q^+ P0 = 0; the paper's constant term is
    # the bare 1/c
    Q = spectral.reduced_operator(model, s)
    P0 = np.full(Q.shape, 1.0 / len(Q))
    heat = _top_block(model, spectral._heat_parts(model, s, 0.7, complement=False))
    assert _max_rel(heat, scipy.linalg.expm(-0.7 * Q) @ P0) < 1e-13
    paper = _top_block(model, spectral._heat_parts(model, s, 0.7, paper_constant_term=True))
    assert _max_rel(paper, np.full(Q.shape, 1.0 / model.branching)) < 1e-13
    G = _top_block(model, spectral._green_parts(model, s))
    flat = _top_block(model, spectral._green_parts(model, s, complement=False))
    assert np.abs(flat).max() <= 1e-13 * np.abs(G).max()
    assert np.abs(G @ P0).max() <= 1e-13 * np.abs(G).max()


@pytest.mark.parametrize("label,model", QUOTIENT_MODELS, ids=_model_ids(QUOTIENT_MODELS))
def test_kernel_forms_are_region_sized(label, model):
    # one profile row and one block row per census region, for any number
    # of tops, in every variant of heat and Green
    r = len(model._census)
    forms = [
        spectral._heat_parts(model, 2, 0.7),
        spectral._heat_parts(model, 2, 0.7, complement=False),
        spectral._heat_parts(model, 2, 0.7, paper_constant_term=True),
        spectral._green_parts(model, 2),
        spectral._green_parts(model, 2, complement=False),
    ]
    for idx, profile, block in forms:
        assert idx.shape == (len(model.tops),)
        assert profile.shape == (r, model.level + 1)
        assert block.shape == (r, r)
        assert (profile[:, 0] == 0).all()


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("label,model", ORACLE_MODELS, ids=_model_ids(ORACLE_MODELS))
def test_quotient_green_matches_exact_pseudo_inverse(label, model, s):
    exact = np.array(spectral.green_reduced_exact(model, s), dtype=object).astype(float)
    G = _top_block(model, spectral._green_parts(model, s))
    assert _max_rel(G, exact) < 1e-13


def test_quotient_ignores_the_diagonal_of_a_single_top_region(e13_model, monkeypatch):
    # E13's region {0} holds one top: its same-region distance names no pair
    # of tops, so any value there leaves the reduced block unchanged
    regions, idx, table = _region_table(e13_model)
    lone = [a for a in range(len(regions)) if (idx == a).sum() == 1]
    assert lone
    before = [
        spectral.reduced_block_eigenvalues(e13_model, 2),
        *spectral._heat_parts(e13_model, 2, 0.7),
        *spectral._green_parts(e13_model, 2),
    ]
    altered = [row[:] for row in table]
    for a in lone:
        altered[a][a] = Fraction(1, 1000)
    monkeypatch.setattr(spectral, "_region_table", lambda model: (regions, idx, altered))
    after = [
        spectral.reduced_block_eigenvalues(e13_model, 2),
        *spectral._heat_parts(e13_model, 2, 0.7),
        *spectral._green_parts(e13_model, 2),
    ]
    for x, y in zip(before, after):
        assert np.array_equal(x, y)


def test_green_block_drops_the_null_mode_on_many_tops():
    # 712 tops: in floating point Q's null eigenvalue lands near 1e-16, above
    # a cut-off of 1e-15 times its largest, so only an exact zero for the
    # constant mode keeps it out of the pseudo-inverse
    model = build_elliptic_model(CurveSpec(701, -1, 0), 2)
    assert len(model.tops) == 712
    Q = spectral.reduced_operator(model, 2)
    G = _top_block(model, spectral._green_parts(model, 2))
    g, q = np.abs(G).max(), np.abs(Q).max()
    assert g < 10 * q  # no inverted null mode
    assert np.abs(G @ np.ones(len(G))).max() <= 1e-12 * g
    assert np.abs(Q @ G @ Q - Q).max() <= 1e-12 * q
    assert np.abs(G @ Q @ G - G).max() <= 1e-12 * g


# -- kernels ------------------------------------------------------------------


def test_heat_kernel_spot_values(e13_model):
    K = spectral.heat_kernel(e13_model, 2, 0.7)
    assert K[0, 0] == pytest.approx(E13_HEAT_T07_00, abs=1e-9)
    assert K[0, 13] == pytest.approx(E13_HEAT_T07_013, abs=1e-9)


def test_heat_kernel_matches_dense_exponential(e13_model):
    L = spectral.assemble_operator(e13_model, 2)
    mu = float(e13_model.cell_measure)
    for t in (0.1, 1.3):
        K = spectral.heat_kernel(e13_model, 2, t)
        ref = scipy.linalg.expm(-t * L) / mu
        assert np.abs(K - ref).max() < 1e-9


def test_heat_kernel_mass_and_symmetry(e13_model):
    mu = float(e13_model.cell_measure)
    K = spectral.heat_kernel(e13_model, 2, 0.4)
    assert np.abs((K * mu).sum(axis=1) - 1).max() < 1e-12
    assert np.abs(K - K.T).max() < 1e-12


def test_heat_kernel_at_time_zero_is_identity(e13_model):
    K = spectral.heat_kernel(e13_model, 2, 0.0)
    mu = float(e13_model.cell_measure)
    assert np.abs(K - np.eye(len(K)) / mu).max() < 1e-12


def test_heat_kernel_semigroup(e13_model):
    mu = float(e13_model.cell_measure)
    K1 = spectral.heat_kernel(e13_model, 2, 0.3)
    K2 = spectral.heat_kernel(e13_model, 2, 0.4)
    K3 = spectral.heat_kernel(e13_model, 2, 0.7)
    assert np.abs((K1 * mu) @ K2 - K3).max() < 1e-9


def test_heat_kernel_rejects_negative_time(e13_model):
    with pytest.raises(ValueError):
        spectral.heat_kernel(e13_model, 2, -0.1)


def test_literal_constant_term_loses_unit_mass(e13_model):
    mu = float(e13_model.cell_measure)
    total = float(e13_model.total_measure)
    K = spectral.heat_kernel(e13_model, 2, 0.7, paper_constant_term=True)
    Kref = spectral.heat_kernel(e13_model, 2, 0.7)
    # with the bare constant term the rows integrate to mu(X) = 8/13, not 1
    assert np.abs((K * mu).sum(axis=1) - total).max() < 1e-9
    assert np.abs(K - Kref).max() > 1e-3
    # both kernels share the wavelet part, so the gap is constant per top pair
    per = e13_model.cells_per_top
    ntops = len(e13_model.tops)
    D = (K - Kref).reshape(ntops, per, ntops, per)
    assert np.abs(D - D[:, :1, :, :1]).max() < 1e-10


def test_wavelet_only_heat_kernel_keeps_mass_drops_mixing(e13_model):
    mu = float(e13_model.cell_measure)
    per = e13_model.cells_per_top
    K = spectral.heat_kernel(e13_model, 2, 0.5, complement=False)
    # normalized constant term: rows still integrate to 1
    assert np.abs((K * mu).sum(axis=1) - 1).max() < 1e-12
    # but cross-fiber entries are frozen at the flat constant
    flat = e13_model.branching / len(e13_model.tops)
    assert np.abs(K[:per, per : 2 * per] - flat).max() < 1e-12
    # the bare-1 form carries no complement either, so the flag wins
    A = spectral.heat_kernel(e13_model, 2, 0.5, paper_constant_term=True, complement=False)
    B = spectral.heat_kernel(e13_model, 2, 0.5, paper_constant_term=True)
    assert (A == B).all()


def test_wavelet_only_semigroup_drops_cross_fiber_part(e13_model):
    rng = np.random.default_rng(13)
    h = rng.normal(size=e13_model.num_cells)
    per = e13_model.cells_per_top
    ntops = len(e13_model.tops)
    means = h.reshape(ntops, per).mean(axis=1)
    projected = h - np.repeat(means - means.mean(), per)
    L = spectral.assemble_operator(e13_model, 2)
    ref = scipy.linalg.expm(-0.4 * L) @ projected
    got = spectral.semigroup_apply(e13_model, 2, 0.4, h, complement=False)
    assert np.abs(got - ref).max() < 1e-9
    # on the spanned subspace both modes agree
    agree = spectral.semigroup_apply(e13_model, 2, 0.4, projected)
    assert np.abs(got - agree).max() < 1e-9


def test_wavelet_only_green_cross_fiber_zero(e13_model):
    per = e13_model.cells_per_top
    mu = float(e13_model.cell_measure)
    G = spectral.green_function(e13_model, 2, complement=False)
    assert np.abs(G[:per, per:]).max() == 0.0
    assert np.abs((G * mu).sum(axis=1)).max() < 1e-9


def test_green_function_spot_values(e13_model):
    G = spectral.green_function(e13_model, 2)
    assert G[0, 0] == pytest.approx(E13_GREEN_00, abs=1e-9)
    assert G[0, 13] == pytest.approx(E13_GREEN_013, abs=1e-9)


def test_green_inverts_off_constants(e13_model):
    L = spectral.assemble_operator(e13_model, 2)
    G = spectral.green_function(e13_model, 2)
    n = len(L)
    mu = float(e13_model.cell_measure)
    proj = np.eye(n) - np.full((n, n), 1.0 / n)
    assert np.abs(L @ G * mu - proj).max() < 1e-9


def test_green_warns_below_s_one(p1_model):
    with pytest.warns(UserWarning):
        spectral.green_function(p1_model, 1)


def test_reduced_green_exact_pseudoinverse(e13_model):
    Gp = spectral.green_reduced_exact(e13_model, 2)
    Q = spectral.reduced_operator(e13_model, 2, exact=True)
    k = len(Gp)
    for i in range(k):
        for j in range(k):
            prod = sum(Q[i, l] * Gp[l][j] for l in range(k))
            expected = (1 if i == j else 0) - Fraction(1, k)
            assert prod == expected


def test_reduced_green_exact_is_level_independent():
    curve = CurveSpec(13, -1, 0)
    g2 = spectral.green_reduced_exact(build_elliptic_model(curve, 2), 2)
    g3 = spectral.green_reduced_exact(build_elliptic_model(curve, 3), 2)
    assert g2 == g3


def test_semigroup_apply_matches_dense(e13_model):
    rng = np.random.default_rng(5)
    h = rng.normal(size=e13_model.num_cells)
    L = spectral.assemble_operator(e13_model, 2)
    for t in (0.2, 1.0):
        got = spectral.semigroup_apply(e13_model, 2, t, h)
        ref = scipy.linalg.expm(-t * L) @ h
        assert np.abs(got - ref).max() < 1e-9


def test_semigroup_apply_shape_check(e13_model):
    with pytest.raises(ValueError):
        spectral.semigroup_apply(e13_model, 2, 0.5, np.zeros(7))


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_semigroup_apply_rejects_non_finite_time(e13_model, t):
    with pytest.raises(ValueError, match="finite"):
        spectral.semigroup_apply(e13_model, 2, t, np.zeros(e13_model.num_cells))


def test_heat_past_the_float_range_of_t_lambda_is_the_stationary_law():
    # t * lambda overflows at s = 10, t = 1e280 on P1(5) m6: exp(-inf) = 0 is
    # the limit, with no overflow warning where warnings are errors
    model, _, _ = build_projective_model(5, 1, 6)
    t = 1e280
    mass = float(model.cell_measure) * model.num_cells  # mu(X)
    values = np.random.default_rng(3).normal(size=model.num_cells)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        form = spectral._heat_parts(model, 10, t)
        rows = spectral._kernel_rows(model, form, np.array([0, model.num_cells - 1]))
        out = spectral.semigroup_apply(model, 10, t, values)
    assert np.allclose(rows, 1 / mass, rtol=1e-12, atol=0)
    assert np.allclose(out, values.mean(), rtol=0, atol=1e-12)


def _semigroup_apply_by_averages(model, s, t, values, complement=True):
    """exp(-tL) v from a full-length copy of the ball means at every depth
    and one decay array per depth, the class weights looked up per top."""
    v = np.asarray(values)
    c, m, per = model.branching, model.level, model.cells_per_top
    ntops = len(model.tops)
    lams = spectral.class_eigenvalues(model, s, exact=False)
    weights = {key: np.exp(-t * float(lam)) for key, lam in lams.items()}
    block = _top_block(model, spectral._heat_parts(model, s, t, complement=complement))
    out = np.repeat(block @ v.reshape(ntops, per).mean(axis=1), per)
    averages = {m: v}
    for depth in range(m - 1, 0, -1):
        width = c ** (m - depth)
        averages[depth] = v.reshape(-1, width).mean(axis=1).repeat(width)
    for delta in range(1, m):
        detail = averages[delta + 1] - averages[delta]
        decay = np.repeat([weights[(delta, top.region)] for top in model.tops], per)
        out = out + decay * detail
    return out


@pytest.fixture(scope="module")
def deep_models():
    return {
        "P1(5) level 5": build_projective_model(5, 1, 5)[0],
        "P2(5) level 4": build_projective_model(5, 2, 4)[0],
        "E/F_13 level 4": build_elliptic_model(CurveSpec(13, -1, 0), 4),
    }


def _semigroup_input(model, dtype):
    rng = np.random.default_rng(17)
    h = rng.normal(size=model.num_cells).astype(dtype)
    if dtype is np.complex128:
        h += 1j * rng.normal(size=model.num_cells)
    return h


@pytest.mark.parametrize("label", ["P1(5) level 5", "P2(5) level 4", "E/F_13 level 4"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("complement", [True, False])
def test_semigroup_apply_matches_ball_average_synthesis(deep_models, label, dtype,
                                                        complement):
    model = deep_models[label]
    h = _semigroup_input(model, dtype)
    got = spectral.semigroup_apply(model, 2.5, 0.3, h, complement=complement)
    ref = _semigroup_apply_by_averages(model, 2.5, 0.3, h, complement=complement)
    assert got.dtype == ref.dtype
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


# semigroup_apply(model, 2.5, 0.3, h), h as in the ball-average test, at
# cells 0, n // 3 and n - 1, then its largest |entry|: the output of the
# synthesis on a tops x tops block, which the region-sized form replaced
SEMIGROUP_SPOTS = {
    ("P1(5) level 5", "float64", True): (
        -0.0292809083206204,
        -0.009398917634229863,
        0.035243072831253795,
        0.06114864013552545,
    ),
    ("P1(5) level 5", "float64", False): (
        0.012386456994197336,
        0.01825995913069135,
        0.01501948742929461,
        0.018259959130691353,
    ),
    ("P1(5) level 5", "complex128", True): (
        -0.029280908320620413+0.05913243047186964j,
        -0.009398917634229866+0.0395531570878911j,
        0.0352430728312538-0.04764409982437151j,
        0.07109423161646337,
    ),
    ("P1(5) level 5", "complex128", False): (
        0.012386456994197331+0.006177982257920404j,
        0.018259959130691346+0.0077247400432077125j,
        0.015019487429294607+0.007320037528961998j,
        0.01982669201328489,
    ),
    ("P2(5) level 4", "float64", True): (
        0.0017281488208503917,
        -0.00627640516493886,
        -0.01375943372301883,
        0.013759433723018834,
    ),
    ("P2(5) level 4", "float64", False): (
        -0.0009772808722061845,
        -0.0009772808722061821,
        -0.0009772808722061826,
        0.000977280872206187,
    ),
    ("P2(5) level 4", "complex128", True): (
        0.0017281488208503908+0.006669730836474641j,
        -0.006276405164938863+0.004414282855123547j,
        -0.01375943372301883+0.002386916090231965j,
        0.01615489301522883,
    ),
    ("P2(5) level 4", "complex128", False): (
        -0.0009772808722061845+0.004408761811069831j,
        -0.0009772808722061821+0.004408761811069834j,
        -0.0009772808722061826+0.004408761811069831j,
        0.004515778848651456,
    ),
    ("E/F_13 level 4", "float64", True): (
        0.0006909281341951505,
        0.00207828794873703,
        -0.0019787853368119566,
        0.01803449510383806,
    ),
    ("E/F_13 level 4", "float64", False): (
        0.001266900887581173,
        0.0012668842535469513,
        0.001266918398652843,
        0.0012669840803031759,
    ),
    ("E/F_13 level 4", "complex128", True): (
        0.0006909281341951459-0.007379122519015256j,
        0.00207828794873703-0.01390975378631576j,
        -0.0019787853368119553-0.02786914476910168j,
        0.028500172524167144,
    ),
    ("E/F_13 level 4", "complex128", False): (
        0.0012669008875811716-0.01482895064856676j,
        0.00126688425354695-0.01482895530801137j,
        0.0012669183986528418-0.014828966211779442j,
        0.014883057209635245,
    ),
}


@pytest.mark.parametrize("label", ["P1(5) level 5", "P2(5) level 4", "E/F_13 level 4"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("complement", [True, False])
def test_semigroup_apply_keeps_its_tops_block_output(deep_models, label, dtype, complement):
    model = deep_models[label]
    got = spectral.semigroup_apply(model, 2.5, 0.3, _semigroup_input(model, dtype),
                                   complement=complement)
    n = model.num_cells
    *spots, top = SEMIGROUP_SPOTS[label, np.dtype(dtype).name, complement]
    assert got.dtype == dtype
    assert np.abs(got).max() == pytest.approx(top, rel=1e-13)
    assert np.abs(got[[0, n // 3, n - 1]] - spots).max() <= 1e-13 * top


# -- path sampling ---------------------------------------------------------------


def test_sample_paths_requires_seed(e13_model):
    with pytest.raises(ValueError):
        spectral.sample_paths(e13_model, 2, 0.5, 100, seed=None)


def test_sample_paths_deterministic(e13_model):
    a = spectral.sample_paths(e13_model, 2, 0.5, 400, seed=11, start=0)
    b = spectral.sample_paths(e13_model, 2, 0.5, 400, seed=11, start=0)
    assert (a.empirical_law == b.empirical_law).all()
    assert (a.first_holding == b.first_holding).all()
    c = spectral.sample_paths(e13_model, 2, 0.5, 400, seed=12, start=0)
    assert (a.empirical_law != c.empirical_law).any()


def test_sample_paths_law_is_a_distribution(e13_model):
    r = spectral.sample_paths(e13_model, 2, 0.5, 300, seed=4)
    assert r.empirical_law.sum() == pytest.approx(1.0)
    assert (r.empirical_law >= 0).all()
    assert len(r.trajectories) <= 10
    assert (r.first_holding > 0).all()


def test_sample_paths_step_cap(e13_model):
    # the same error and message as the gathering sampler's
    errors = []
    for sampler in (spectral.sample_paths, _gathering_sample_paths):
        with pytest.raises(RuntimeError) as caught:
            sampler(e13_model, 2, 50.0, 500, seed=3, _rate_cap_steps=10)
        errors.append(str(caught.value))
    assert errors == ["simulation exceeded 10 jumps; t_max too large for these rates"] * 2


def _reference_trajectories(model, s, t_max, n_paths, seed, max_store):
    """The sampler with its former storage: one Python append per stored jump."""
    c, m, per = model.branching, model.level, model.cells_per_top
    ntops = len(model.tops)
    shells = [spectral._shell_rate(j, c, s, False) for j in range(1, m)]
    table = np.hstack([np.tile(shells, (ntops, 1)), -spectral.reduced_operator(model, s)])
    np.fill_diagonal(table[:, m - 1 :], 0.0)
    cum = np.cumsum(table, axis=1)
    rates = cum[:, -1]
    width = table.shape[1]
    flat = (cum / rates[:, None] + np.arange(ntops)[:, None]).ravel()
    last = width - 1 - np.argmax(table[:, ::-1] > 0, axis=1)
    child_width = np.array([c ** (m - 1 - j) for j in range(1, m)] + [per] * ntops)
    sizes = np.array([(c - 1) * c ** (m - 1 - j) for j in range(1, m)] + [per] * ntops)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    states = rng.integers(0, model.num_cells, size=n_paths)
    clocks = np.zeros(n_paths)
    store = min(max_store, n_paths)
    trajectories = [[(0.0, int(states[k]))] for k in range(store)]
    alive = np.ones(n_paths, dtype=bool)
    while alive.any():
        idx = np.nonzero(alive)[0]
        landed = clocks[idx] + rng.exponential(1.0 / rates[states[idx] // per])
        done = landed >= t_max
        clocks[idx] = np.where(done, t_max, landed)
        alive[idx[done]] = False
        movers = idx[~done]
        if movers.size:
            cells = states[movers]
            top = cells // per
            hit = np.searchsorted(flat, rng.random(movers.size) + top, side="right")
            hit = np.minimum(hit - top * width, last[top])
            r = rng.integers(0, sizes[hit])
            local = cells % per
            cw = child_width[hit]
            child = r // cw
            child += child >= local // cw % c
            inside = cells - local % (cw * c) + child * cw + r % cw
            states[movers] = np.where(hit < m - 1, inside, (hit - (m - 1)) * per + r)
            for k in movers[movers < store]:
                trajectories[k].append((float(clocks[k]), int(states[k])))
    return trajectories


@pytest.mark.parametrize("max_store", [7, 3000])
def test_stored_trajectories_match_per_jump_appends(max_store):
    model, _, _ = build_projective_model(5, 1, 3)
    n_paths = 3000
    r = spectral.sample_paths(model, 2, 0.5, n_paths, seed=17, max_store=max_store)
    ref = _reference_trajectories(model, 2, 0.5, n_paths, 17, max_store)
    assert len(r.trajectories) == min(max_store, n_paths)
    assert r.trajectories == ref
    assert sum(len(path) - 1 for path in ref) > 3 * len(ref)  # several jumps a path


def _gathering_sample_paths(model, s, t_max, n_paths, seed, start=None, max_store=10,
                            _rate_cap_steps=2_000_000, rng=None):
    """The sampler before it carried only its live paths: each round gathers
    the live paths' cells and clocks from arrays over all paths.  It draws
    from `rng` when given, else from a Generator seeded with `seed`."""
    c, m, per = model.branching, model.level, model.cells_per_top
    ntops = len(model.tops)
    shells = [spectral._shell_rate(j, c, s, False) for j in range(1, m)]
    table = np.hstack([np.tile(shells, (ntops, 1)), -spectral.reduced_operator(model, s)])
    np.fill_diagonal(table[:, m - 1 :], 0.0)
    cum = np.cumsum(table, axis=1)
    rates = cum[:, -1]
    width = table.shape[1]
    flat = (cum / rates[:, None] + np.arange(ntops)[:, None]).ravel()
    last = width - 1 - np.argmax(table[:, ::-1] > 0, axis=1)
    child_width = np.array([c ** (m - 1 - j) for j in range(1, m)] + [per] * ntops)
    sizes = np.array([(c - 1) * c ** (m - 1 - j) for j in range(1, m)] + [per] * ntops)
    n = model.num_cells
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if start is None:
        states = rng.integers(0, n, size=n_paths)
    else:
        states = np.full(n_paths, start, dtype=np.int64)
    clocks = np.zeros(n_paths)
    jumps = np.zeros(n_paths, dtype=np.int64)
    first_holding = None
    store = min(max_store, n_paths)
    kept = [(np.arange(store), np.zeros(store), states[:store].copy())]
    alive = np.ones(n_paths, dtype=bool)
    total_steps = 0
    while alive.any():
        idx = np.nonzero(alive)[0]
        waits = rng.exponential(1.0 / rates[states[idx] // per])
        if first_holding is None:
            first_holding = waits.copy()
        landed = clocks[idx] + waits
        done = landed >= t_max
        clocks[idx] = np.where(done, t_max, landed)
        alive[idx[done]] = False
        movers = idx[~done]
        if movers.size:
            cells = states[movers]
            top = cells // per
            hit = np.searchsorted(flat, rng.random(movers.size) + top, side="right")
            hit = np.minimum(hit - top * width, last[top])
            r = rng.integers(0, sizes[hit])
            local = cells % per
            cw = child_width[hit]
            child = r // cw
            child += child >= local // cw % c
            inside = cells - local % (cw * c) + child * cw + r % cw
            states[movers] = np.where(hit < m - 1, inside, (hit - (m - 1)) * per + r)
            jumps[movers] += 1
            stored = movers[: np.searchsorted(movers, store)]
            kept.append((stored, clocks[stored], states[stored]))
        total_steps += movers.size
        if total_steps > _rate_cap_steps:
            raise RuntimeError(
                f"simulation exceeded {_rate_cap_steps} jumps; t_max too"
                " large for these rates"
            )
    paths, times, visited = (np.concatenate(parts) for parts in zip(*kept))
    order = np.argsort(paths, kind="stable")
    steps = list(zip(times[order].tolist(), visited[order].tolist()))
    ends = np.cumsum(np.bincount(paths, minlength=store)).tolist()
    trajectories = [steps[a:b] for a, b in zip([0] + ends, ends)]
    law = np.bincount(states, minlength=n).astype(np.float64) / n_paths
    mean_holding = float(n_paths * t_max / (jumps.sum() + n_paths))
    return spectral.SimulationResult(
        model.name, s, t_max, seed, states, law, jumps, first_holding,
        mean_holding, trajectories
    )


# every built-in model, the benchmark's diffusion models at their horizons
# (about two jumps a path) and Y2(5) m3
SAMPLER_CASES = [(label, 0.05) for label, _ in builtin_models()] + [
    ("E/F_13 level 2", 0.15), ("P1(5) level 4", 0.024), ("P2(5) level 2", 0.075),
    ("E/F_13 level 3", 0.011), ("Y2(5) level 3", 0.005),
]
SAMPLER_IDS = [
    f"{label.replace('/', '').replace(' level ', '-m')}-t{t}" for label, t in SAMPLER_CASES
]


@pytest.fixture(scope="module")
def sampler_models():
    models = dict(builtin_models())
    models["P1(5) level 4"] = build_projective_model(5, 1, 4)[0]
    models["Y2(5) level 3"] = build_Y_model(5, 2, 3)[0]
    return models


@pytest.mark.parametrize("horizon", ["t", "0"])
@pytest.mark.parametrize("max_store", [0, 10, "all"])
@pytest.mark.parametrize("start", [None, "fixed"])
@pytest.mark.parametrize("label, t", SAMPLER_CASES, ids=SAMPLER_IDS)
def test_sampler_makes_the_gathering_sampler_draws(sampler_models, label, t, start, max_store,
                                                    horizon):
    model = sampler_models[label]
    n_paths = 1000
    kwargs = {
        "start": None if start is None else model.num_cells // 3 + 1,
        "max_store": n_paths if max_store == "all" else max_store,
    }
    t = t if horizon == "t" else 0.0
    got = spectral.sample_paths(model, 2, t, n_paths, seed=29, **kwargs)
    ref = _gathering_sample_paths(model, 2, t, n_paths, seed=29, **kwargs)
    for field in ("final_cells", "jump_counts", "first_holding", "empirical_law"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got.trajectories == ref.trajectories
    doc = got.to_json_dict()
    assert doc == ref.to_json_dict()
    assert doc["empirical_law"] == [float(x) for x in ref.empirical_law]
    if horizon == "t":
        assert got.jump_counts.max() > 1


def _blockwise_gathering_sample_paths(model, s, t_max, n_paths, seed, block, start=None,
                                      max_store=10):
    """The gathering sampler run on consecutive blocks of paths, one
    Generator for all of them, its results laid end to end."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    store = min(max_store, n_paths)
    parts = [
        _gathering_sample_paths(model, s, t_max, min(block, n_paths - lo), seed, start=start,
                                max_store=max(0, store - lo), rng=rng)
        for lo in range(0, n_paths, block)
    ]
    final_cells, jumps, first_holding = (
        np.concatenate([getattr(part, field) for part in parts])
        for field in ("final_cells", "jump_counts", "first_holding")
    )
    law = np.bincount(final_cells, minlength=model.num_cells).astype(np.float64) / n_paths
    mean_holding = float(n_paths * t_max / (jumps.sum() + n_paths))
    trajectories = [path for part in parts for path in part.trajectories]
    return spectral.SimulationResult(
        model.name, s, t_max, seed, final_cells, law, jumps, first_holding,
        mean_holding, trajectories
    )


@pytest.mark.parametrize("horizon", ["t", "0"])
@pytest.mark.parametrize("max_store", [0, 10, 300, "all"])
@pytest.mark.parametrize("start", [None, "fixed"])
@pytest.mark.parametrize("label, t", SAMPLER_CASES[-5:], ids=SAMPLER_IDS[-5:])
def test_sampler_draws_block_by_block(monkeypatch, sampler_models, label, t, start, max_store,
                                      horizon):
    # 640 paths in blocks of 256: two full blocks and a half one; 300 stored
    # paths cross the first block boundary
    block = 256
    monkeypatch.setattr(spectral, "_PATH_BLOCK", block)
    model = sampler_models[label]
    n_paths = 640
    kwargs = {
        "start": None if start is None else model.num_cells // 3 + 1,
        "max_store": n_paths if max_store == "all" else max_store,
    }
    t = t if horizon == "t" else 0.0
    got = spectral.sample_paths(model, 2, t, n_paths, seed=31, **kwargs)
    ref = _blockwise_gathering_sample_paths(model, 2, t, n_paths, 31, block, **kwargs)
    for field in ("final_cells", "jump_counts", "first_holding", "empirical_law"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got.trajectories == ref.trajectories
    assert len(got.trajectories) == min(kwargs["max_store"], n_paths)
    assert got.to_json_dict() == ref.to_json_dict()
    if horizon == "t":
        assert got.jump_counts.max() > 1


def test_sampler_refuses_a_negative_max_store(e13_model):
    with pytest.raises(ValueError, match="max_store"):
        spectral.sample_paths(e13_model, 2, 0.5, 100, seed=1, max_store=-1)


# many tops whose census regions interleave in top order, at horizons of
# about two jumps a path; P2(31) has m = 1, so no shell columns
WIDE_CASES = [("P2(7) level 2", 0.04), ("P2(31) level 1", 2.0)]


@pytest.fixture(scope="module")
def wide_models():
    return {
        "P2(7) level 2": build_projective_model(7, 2, 2)[0],
        "P2(31) level 1": build_projective_model(31, 2, 1)[0],
    }


@pytest.mark.parametrize("horizon", ["t", "0"])
@pytest.mark.parametrize("max_store", [0, 10])
@pytest.mark.parametrize("start", [None, "fixed"])
@pytest.mark.parametrize("label, t", WIDE_CASES)
def test_sampler_makes_the_gathering_draws_on_many_tops(wide_models, label, t, start,
                                                        max_store, horizon):
    model = wide_models[label]
    n_paths = 1000
    kwargs = {"start": None if start is None else model.num_cells // 3 + 1,
              "max_store": max_store}
    t = t if horizon == "t" else 0.0
    got = spectral.sample_paths(model, 2, t, n_paths, seed=37, **kwargs)
    ref = _gathering_sample_paths(model, 2, t, n_paths, seed=37, **kwargs)
    for field in ("final_cells", "jump_counts", "first_holding", "empirical_law"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got.trajectories == ref.trajectories
    assert got.to_json_dict() == ref.to_json_dict()
    if horizon == "t":
        assert got.jump_counts.max() > 1


def test_sampler_holds_one_rate_table(wide_models):
    # 10 paths on 993 tops: the ntops x (m - 1 + ntops) table and little else
    model = wide_models["P2(31) level 1"]
    ntops = len(model.region_index)
    table = ntops * (model.level - 1 + ntops) * 8
    tracemalloc.start()
    try:
        result = spectral.sample_paths(model, 2, 2.0, 10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.jump_counts.sum() > 0
    assert peak <= 1.25 * table + 2 * 2**20, (peak, table)


def test_sampler_drops_its_rate_table_before_the_law():
    # E1009 m2: 1040 tops and 1049360 cells.  The law and its int64 counts
    # take 8.4 MB each, so the 8.7 MB rate table must be gone by then
    model = build_elliptic_model(CurveSpec(1009, -1, 0), 2)
    tracemalloc.start()
    try:
        result = spectral.sample_paths(model, 2, 0.001, 10, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.empirical_law.sum() == pytest.approx(1.0)
    assert peak <= 18e6, peak


def test_sampler_refuses_a_start_cell_before_allocating(wide_models):
    model = wide_models["P2(31) level 1"]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="start cell"):
            spectral.sample_paths(model, 2, 2.0, 10, seed=1, start=model.num_cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_sampler_does_not_call_the_reduced_operator(monkeypatch, sampler_models, wide_models):
    def refuse(*args, **kwargs):
        raise AssertionError("the sampler reads the census region rates")

    monkeypatch.setattr(spectral, "reduced_operator", refuse)
    for model in [*sampler_models.values(), *wide_models.values()]:
        result = spectral.sample_paths(model, 2, 0.01, 100, seed=2)
        assert result.empirical_law.sum() == pytest.approx(1.0)


def _assert_sampler_working_set(n_paths, t):
    # E13 m2 (about 0.7 jumps a path at t = 0.05, two at 0.15): past the
    # three per-path results (24 bytes a path), the sampler holds one block
    # of paths.  Its allowance: 24 arrays of 8 bytes per block path alive at
    # once (the live index, cell and clock and their compacted copies, one
    # round's draws and temporaries) plus 1 MB for the rate tables, the law
    # and the stored trajectories.  A few live arrays over all 10^6 paths
    # would exceed it.
    model = build_elliptic_model(CurveSpec(13, -1, 0), 2)
    allowance = 24 * 8 * spectral._PATH_BLOCK + 1e6
    tracemalloc.start()
    try:
        result = spectral.sample_paths(model, 2, t, n_paths, seed=20240517)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.jump_counts.sum() < 2_000_000
    assert peak - 24 * n_paths < allowance, (peak, allowance)


def test_sampler_working_set_is_its_results_and_one_round():
    _assert_sampler_working_set(100_000, 0.15)


def test_sampler_working_set_stays_one_block_at_a_million_paths():
    _assert_sampler_working_set(1_000_000, 0.05)


def test_sample_paths_json_summary(e13_model):
    doc = spectral.sample_paths(e13_model, 2, 0.5, 200, seed=9).to_json_dict()
    for key in ("empirical_law", "jumps", "first_holding_mean", "trajectories"):
        assert key in doc


def test_sample_paths_at_time_zero_is_point_mass(e13_model):
    r = spectral.sample_paths(e13_model, 2, 0.0, 64, seed=6, start=5)
    assert r.empirical_law[5] == 1.0
    assert r.empirical_law.sum() == 1.0


def _first_jump_bins(model, x):
    """Cells of x's top one by one, cells of the other tops by depth-2 ball."""
    cells = np.arange(model.num_cells)
    same_top = cells // model.cells_per_top == x // model.cells_per_top
    ball = model.num_cells + cells // model.branching ** (model.level - 2)
    return np.unique(np.where(same_top, cells, ball), return_inverse=True)[1]


@pytest.mark.parametrize(
    "build, x",
    [
        # chart balls: cross-top distances differ with the shared chart
        (lambda: build_projective_model(5, 1, 3)[0], 4 * 25 + 3 * 5 + 2),
        (lambda: build_elliptic_model(CurveSpec(13, -1, 0), 3), 2 * 169 + 5 * 13 + 7),
    ],
    ids=["P1(5) m3", "E13 m3"],
)
def test_first_jump_law_matches_operator_row(build, x):
    # every path's first target against -L[x, .] / L[x, x]: Pearson chi^2
    # over the cells of x's top (both shell depths, every child) and the
    # depth-2 balls of the other tops (every cross-top move)
    model = build()
    L = spectral.assemble_operator(model, 2)
    law = -L[x] / L[x, x]
    law[x] = 0.0
    n_paths = 100_000
    r = spectral.sample_paths(
        model, 2, 3.0 / L[x, x], n_paths, seed=8, start=x, max_store=n_paths
    )
    first = np.array([path[1][1] for path in r.trajectories if len(path) > 1])
    assert len(first) > 0.9 * n_paths
    bins = _first_jump_bins(model, x)
    observed = np.bincount(bins[first], minlength=bins.max() + 1)
    expected = np.bincount(bins, weights=law) * len(first)
    assert observed[expected == 0].sum() == 0  # never x itself
    hit = expected > 0
    chi2 = float(((observed[hit] - expected[hit]) ** 2 / expected[hit]).sum())
    df = int(hit.sum()) - 1
    assert chi2 < df + 5 * np.sqrt(2 * df), (chi2, df)


def test_jump_rates_match_operator_annuli():
    # the sampler's per-top rate table: each shell of a cell's top and each
    # other top carries the total dense rate of its cells
    for label, model in builtin_models():
        L = spectral.assemble_operator(model, 2)
        Q = spectral.reduced_operator(model, 2)
        c, m, per = model.branching, model.level, model.cells_per_top
        for top in range(len(model.tops)):
            x = top * per
            row = -L[x].reshape(len(model.tops), per)
            for j in range(1, m):
                shell = row[top, c ** (m - 1 - j) : c ** (m - j)].sum()
                assert shell == pytest.approx(spectral._shell_rate(j, c, 2, False), rel=1e-12)
            others = np.delete(row.sum(axis=1), top)
            assert np.allclose(others, np.delete(-Q[top], top), rtol=1e-12, atol=0), label


def test_sampled_paths_match_heat_law_at_level_three():
    # 10^5 paths on E13 at m = 3 (about 8.5e5 jumps, under the cap)
    model = build_elliptic_model(CurveSpec(13, -1, 0), 3)
    t = 0.05
    result = spectral.sample_paths(model, 2, t, 100_000, seed=20240517, start=0)
    assert result.jump_counts.sum() < 2_000_000
    law = spectral.heat_kernel(model, 2, t)[0] * float(model.cell_measure)
    width = model.branching ** (model.level - 2)
    balls = [v.reshape(-1, width).sum(axis=1) for v in (result.empirical_law, law)]
    tv = 0.5 * float(np.abs(balls[0] - balls[1]).sum())
    assert tv < 0.02, tv
    rate = float(spectral.assemble_operator(model, 2)[0, 0])
    hold = result.first_holding
    se = float(hold.std(ddof=1)) / np.sqrt(len(hold))
    assert abs(float(hold.mean()) - 1.0 / rate) < 3 * se


def test_sampler_runs_past_the_dense_limit():
    model, _, _ = build_projective_model(5, 2, 3)
    assert model.num_cells == 19375
    result = spectral.sample_paths(model, 2, 0.005, 20_000, seed=5, start=0)
    assert result.empirical_law.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(result.first_holding).all()
    # closed-form diagonal: both shells of the top plus its cross-top rates
    c = model.branching
    rate = sum((1 - 1 / c) * c ** j for j in (1, 2))
    rate += float(spectral.reduced_operator(model, 2)[0, 0])
    hold = result.first_holding
    se = float(hold.std(ddof=1)) / np.sqrt(len(hold))
    assert abs(float(hold.mean()) - 1.0 / rate) < 3 * se


def test_dense_kernels_refuse_past_the_cell_limit():
    model, _, _ = build_projective_model(5, 1, 5)
    assert model.num_cells == 3750
    with pytest.raises(ModelError):
        spectral.heat_kernel(model, 2, 0.5)
    with pytest.raises(ModelError):
        spectral.green_function(model, 2)


def test_reduced_operator_float_entries_match_distance_formula():
    # the float block is d^(-s) * (1/c) entry by entry, the diagonal the
    # negated row sum: bit for bit, and within rounding of the exact block;
    # the exact block equals the same formula in Fractions
    for label, model in builtin_models():
        ntops = len(model.tops)
        for s in (0, 1, 2, 3):
            ref = [[Fraction(0)] * ntops for _ in range(ntops)]
            for i in range(ntops):
                for j in range(ntops):
                    if i != j:
                        d = model.cross_top_distance(i, j)
                        ref[i][j] = -(d ** -s) * Fraction(1, model.branching)
                ref[i][i] = -sum(ref[i])
            exact = spectral.reduced_operator(model, s, exact=True)
            assert exact.tolist() == ref, (label, s)
        for s in (1.5, 2, 3):
            ref = np.zeros((ntops, ntops))
            for i in range(ntops):
                for j in range(ntops):
                    if i != j:
                        d = float(model.cross_top_distance(i, j))
                        ref[i, j] = -(d ** -float(s)) * float(Fraction(1, model.branching))
            np.fill_diagonal(ref, -ref.sum(axis=1))
            Q = spectral.reduced_operator(model, s)
            assert np.array_equal(Q, ref), (label, s)
            if s != 1.5:
                exact = spectral.reduced_operator(model, s, exact=True)
                assert np.allclose(exact.astype(float), Q, rtol=1e-14, atol=0), (label, s)


# -- structural invariants ---------------------------------------------------------


def _balls(model, depth):
    """All balls of the model at a depth >= 1."""
    for t in range(len(model.tops)):
        for prefix in itertools.product(range(model.branching), repeat=depth - 1):
            yield model.ball(t, prefix)


def test_eigen_residual_every_builtin_model():
    for label, model in builtin_models():
        L = spectral.assemble_operator(model, 2)
        for depth in range(1, model.level):
            for ball in _balls(model, depth):
                W = spectral.wavelet_family(model, ball)
                lam = float(spectral.wavelet_eigenvalue_numeric(model, ball, 2))
                resid = np.abs(L @ W.T - lam * W.T).max()
                assert resid < 1e-10, (label, ball.id_string, resid)


def test_exact_difference_vectors_are_eigenvectors(e13_model):
    # any mean-zero vector constant on the children of a ball lies in the
    # same eigenspace as the character rows; in rational arithmetic the
    # residual vanishes identically
    L = spectral.assemble_operator(e13_model, 2, exact=True)
    n = e13_model.num_cells
    ball = e13_model.ball(3)
    lam = spectral.wavelet_eigenvalue_numeric(e13_model, ball, 2, exact=True)
    lo, hi = ball.cell_range
    width = (hi - lo) // e13_model.branching
    for k in range(e13_model.branching - 1):
        v = [Fraction(0)] * n
        for x in range(lo + k * width, lo + (k + 1) * width):
            v[x] = Fraction(1)
        for x in range(lo + (k + 1) * width, lo + (k + 2) * width):
            v[x] = Fraction(-1)
        support = [j for j in range(n) if v[j]]
        for i in range(n):
            assert sum(L[i, j] * v[j] for j in support) == lam * v[i]


def test_rayleigh_quotients_are_basis_independent(e13_model):
    # character rows vs a Gram-Schmidt basis of child-indicator differences:
    # both must give the ball's eigenvalue as Rayleigh quotient
    L = spectral.assemble_operator(e13_model, 2)
    ball = e13_model.ball(0)
    lam = float(spectral.wavelet_eigenvalue_numeric(e13_model, ball, 2))
    c = e13_model.branching
    lo, hi = ball.cell_range
    width = (hi - lo) // c
    raw = np.zeros((c - 1, e13_model.num_cells))
    for k in range(c - 1):
        raw[k, lo + k * width : lo + (k + 1) * width] = 1.0
        raw[k, lo + (k + 1) * width : lo + (k + 2) * width] = -1.0
    gram_schmidt = np.linalg.qr(raw.T)[0].T
    for v in list(gram_schmidt) + list(spectral.wavelet_family(e13_model, ball)):
        quotient = np.real(np.vdot(v, L @ v) / np.vdot(v, v))
        assert quotient == pytest.approx(lam, rel=1e-10)


def test_positive_maximum_principle(e13_model):
    # the generator -L pushes down at any maximum; checked on 100 random h
    L = spectral.assemble_operator(e13_model, 2)
    rng = np.random.default_rng(7)
    for _ in range(100):
        h = rng.normal(size=e13_model.num_cells)
        x0 = int(np.argmax(h))
        assert -(L @ h)[x0] <= 1e-12


def test_spectrum_dimensions_account_for_every_cell():
    for label, model in builtin_models():
        summary = spectral.enumerate_spectrum(model, 2)
        wavelet_dim = sum(cls.multiplicity for cls in summary.classes)
        assert wavelet_dim + len(model.tops) == model.num_cells, label


def test_semigroup_functional_equation_on_random_vector(e13_model):
    rng = np.random.default_rng(11)
    h = rng.normal(size=e13_model.num_cells)
    joint = spectral.semigroup_apply(e13_model, 2, 0.8, h)
    nested = spectral.semigroup_apply(
        e13_model, 2, 0.3, spectral.semigroup_apply(e13_model, 2, 0.5, h)
    )
    assert np.abs(joint - nested).max() < 1e-9


def test_green_rows_integrate_to_zero(e13_model):
    mu = float(e13_model.cell_measure)
    G = spectral.green_function(e13_model, 2)
    assert np.abs((G * mu).sum(axis=1)).max() < 1e-9


# -- exponents past the float range -------------------------------------------------


@pytest.mark.parametrize("exact", [False, True])
def test_power_refuses_exactly_what_would_pass_the_float_range(exact):
    for base in (5, Fraction(1, 7), Fraction(6, 5)):
        for e in range(-460, 461):
            try:
                expected = float(base) ** e
                if exact and max(base.numerator, base.denominator) ** abs(e) > sys.float_info.max:
                    expected = ValueError
            except OverflowError:
                expected = ValueError
            try:
                got = spectral._power(base, e, exact)
            except ValueError as err:
                assert "exponent s" in str(err)
                got = ValueError
            if expected is ValueError:
                assert got is ValueError, (base, e)
            else:
                assert got == (Fraction(base) ** e if exact else expected), (base, e)


def test_power_underflow_is_still_zero():
    assert spectral._power(5, -1e9, False) == 0.0
    assert spectral._power(Fraction(1, 5), 1e9, False) == 0.0


_HUGE_EXPONENT_CALLS = """
from fractions import Fraction
from padic_spectra import spectral
from padic_spectra.elliptic import CurveSpec, build_elliptic_model
from padic_spectra.models import build_projective_model
P1 = build_projective_model(5, 1, 3)[0]
E13 = build_elliptic_model(CurveSpec(13, 6, 6), 2)
calls = [
    lambda: spectral._power(5, 10**9, True),
    lambda: spectral._power(Fraction(1, 5), 10**9, True),
    lambda: spectral._power(5, 1e9, False),
    lambda: spectral.class_eigenvalues(P1, 10**9),
    lambda: spectral.class_eigenvalues(P1, 1e9),
    lambda: spectral.class_eigenvalues(E13, 10**9),
    lambda: spectral.enumerate_spectrum(P1, 100000),
    lambda: spectral._heat_parts(P1, 1e9, 1.0, False, True),
    lambda: spectral._green_parts(P1, 1e9, True),
]
for call in calls:
    try:
        call()
    except ValueError as err:
        print("exponent s" in str(err))
    else:
        print("returned")
"""


def test_huge_exponents_raise_value_error_at_once(child_env):
    # in a child with a timeout: before the check, the exact path formed
    # powers with exponents near 1e9 and did not return
    done = subprocess.run(
        [sys.executable, "-c", _HUGE_EXPONENT_CALLS], capture_output=True, text=True,
        env=child_env, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"] * 9
