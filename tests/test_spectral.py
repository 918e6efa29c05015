"""Operator assembly, wavelet spectra, kernels, and path sampling.

Reference values come from dense linear algebra run on matrices assembled
independently from scalar distance queries (numpy eigvalsh / scipy expm /
numpy pinv), from exact rational quadrature of the eigenvalue integral, and
from the exact rational pseudo-inverse.  scipy is a test-only dependency:
the library's reduced block comes from its region quotient, and the dense
`reduced_operator` with scipy's `expm` is the oracle it is checked against.
"""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from padic_spectra import builtin_models, spectral
from padic_spectra.elliptic import CurveSpec, build_elliptic_model
from padic_spectra.models import ModelError, _region_table, build_projective_model

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
    ("E157 level 2", build_elliptic_model(CurveSpec(157, -1, 0), 2))
]


def _max_rel(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


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
        _, block = spectral._heat_parts(model, s, t)
        assert _max_rel(block, scipy.linalg.expm(-t * Q)) < 1e-13, t
    _, G = spectral._green_parts(model, s)
    g, q = np.abs(G).max(), np.abs(Q).max()
    assert np.abs(G - G.T).max() <= 1e-13 * g
    assert np.abs(G.sum(axis=1)).max() <= 1e-12 * g
    assert np.abs(Q @ G @ Q - Q).max() <= 1e-12 * q
    assert np.abs(G @ Q @ G - G).max() <= 1e-12 * g


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("label,model", ORACLE_MODELS, ids=_model_ids(ORACLE_MODELS))
def test_quotient_green_matches_exact_pseudo_inverse(label, model, s):
    exact = np.array(spectral.green_reduced_exact(model, s), dtype=object).astype(float)
    _, G = spectral._green_parts(model, s)
    assert _max_rel(G, exact) < 1e-13


def test_quotient_ignores_the_diagonal_of_a_single_top_region(e13_model, monkeypatch):
    # E13's region {0} holds one top: its same-region distance names no pair
    # of tops, so any value there leaves the reduced block unchanged
    regions, idx, table = _region_table(e13_model)
    lone = [a for a in range(len(regions)) if (idx == a).sum() == 1]
    assert lone
    before = [
        spectral.reduced_block_eigenvalues(e13_model, 2),
        spectral._heat_parts(e13_model, 2, 0.7)[1],
        spectral._green_parts(e13_model, 2)[1],
    ]
    altered = [row[:] for row in table]
    for a in lone:
        altered[a][a] = Fraction(1, 1000)
    monkeypatch.setattr(spectral, "_region_table", lambda model: (regions, idx, altered))
    after = [
        spectral.reduced_block_eigenvalues(e13_model, 2),
        spectral._heat_parts(e13_model, 2, 0.7)[1],
        spectral._green_parts(e13_model, 2)[1],
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
    _, G = spectral._green_parts(model, 2)
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


def _semigroup_apply_by_averages(model, s, t, values, complement=True):
    """exp(-tL) v from a full-length copy of the ball means at every depth
    and one decay array per depth, the class weights looked up per top."""
    v = np.asarray(values)
    c, m, per = model.branching, model.level, model.cells_per_top
    ntops = len(model.tops)
    lams = spectral.class_eigenvalues(model, s, exact=False)
    weights = {key: np.exp(-t * float(lam)) for key, lam in lams.items()}
    block = spectral._heat_parts(model, s, t, complement=complement)[1]
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


@pytest.mark.parametrize("label", ["P1(5) level 5", "P2(5) level 4", "E/F_13 level 4"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("complement", [True, False])
def test_semigroup_apply_matches_ball_average_synthesis(deep_models, label, dtype,
                                                        complement):
    model = deep_models[label]
    rng = np.random.default_rng(17)
    h = rng.normal(size=model.num_cells).astype(dtype)
    if dtype is np.complex128:
        h += 1j * rng.normal(size=model.num_cells)
    got = spectral.semigroup_apply(model, 2.5, 0.3, h, complement=complement)
    ref = _semigroup_apply_by_averages(model, 2.5, 0.3, h, complement=complement)
    assert got.dtype == ref.dtype
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


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
    with pytest.raises(RuntimeError):
        spectral.sample_paths(
            e13_model, 2, 50.0, 500, seed=3, _rate_cap_steps=10
        )


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


def test_eigen_residual_every_builtin_model():
    for label, model in builtin_models():
        L = spectral.assemble_operator(model, 2)
        for depth in range(1, model.level):
            for ball in model.balls(depth):
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
