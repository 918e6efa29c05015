"""Cell models: construction census, measures, joins, distance, transition checks.

Census values are combinatorial: a projective n-space over F_q has
(q^(n+1)-1)/(q-1) residue points, each top ball is an n-dimensional unit
polydisc of measure q^(-n), and every level multiplies the cell count by
the branching factor q^n.
"""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from padic_spectra import builtin_models
from padic_spectra.elliptic import CurveSpec, build_elliptic_model
from padic_spectra.models import (
    Atlas,
    Ball,
    DisconnectedNerveError,
    ModelError,
    NerveComplex,
    _census_distance,
    _projective_regions,
    build_projective_model,
    build_Y_model,
    verify_ball_transition_consistency,
)
from padic_spectra.polymaps import PolynomialMap


@pytest.fixture(scope="module")
def p1():
    model, atlas, nerve = build_projective_model(5, 1, 2)
    return model, atlas, nerve


@pytest.fixture(scope="module")
def p2():
    model, atlas, nerve = build_projective_model(5, 2, 2)
    return model, atlas, nerve


# -- census ---------------------------------------------------------------


@pytest.mark.parametrize(
    "p,n,level,tops,cells,total",
    [
        (5, 1, 2, 6, 30, Fraction(6, 5)),
        (5, 1, 3, 6, 150, Fraction(6, 5)),
        (5, 2, 2, 31, 775, Fraction(31, 25)),
        (7, 2, 2, 57, 2793, Fraction(57, 49)),
    ],
)
def test_projective_census(p, n, level, tops, cells, total):
    model, _, _ = build_projective_model(p, n, level)
    assert len(model.tops) == tops
    assert model.num_cells == cells
    assert model.total_measure == total
    assert model.branching == p**n


def test_y_model_census():
    model, _, _ = build_Y_model(5, 2, 2)
    assert len(model.tops) == 15
    assert model.num_cells == 375
    assert model.total_measure == Fraction(3, 5)
    # pairwise overlaps only: no point lies on all three coordinate spheres
    regions = {frozenset(t.region) for t in model.tops}
    assert frozenset({0, 1, 2}) not in regions
    assert frozenset({0, 1}) in regions


def _regions_with_the_last_update(q, n):
    """_projective_regions as it was, updating `units` after chart 0 too."""
    regions = [frozenset(j for j in range(n + 1) if mask >> j & 1) for mask in range(1, 2 << n)]
    units = np.zeros(1, dtype=np.int64)
    masks = []
    for chart in range(n, -1, -1):
        masks.append((units << (chart + 1)) | (1 << chart))
        units = ((np.arange(q) != 0)[:, None] | (units << 1)).ravel()
    return regions, [f"chart{min(r)}" for r in regions], np.concatenate(masks[::-1]) - 1


@pytest.mark.parametrize("q", [5, 7, 25, 101])
@pytest.mark.parametrize("n", [1, 2])
def test_projective_regions_match_the_loop_with_the_last_update(q, n):
    regions, labels, index = _projective_regions(q, n)
    old_regions, old_labels, old_index = _regions_with_the_last_update(q, n)
    assert (regions, labels) == (old_regions, old_labels)
    assert index.dtype == old_index.dtype and np.array_equal(index, old_index)


def test_projective_regions_allocate_no_unread_q_to_the_n_plus_one_array():
    # the update after chart 0 once built q^3 = 9.4e6 int64 entries that
    # nothing read, a 72.8 MB traced peak for P2 at q = 211 (44,733 tops)
    tracemalloc.start()
    try:
        _, _, index = _projective_regions(211, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(index) == 211**2 + 211 + 1
    assert peak < 8 * 2**20


def _census_models():
    yield from builtin_models()
    # the first affine point of y^2 = x^3 - 19x + 30 over F_13 has y != 0,
    # so its b fibres come before its c fibres
    yield "E/F_13 b before c", build_elliptic_model(CurveSpec(13, -19, 30), 2)
    # y^2 = x^3 + x over F_5 has N = 4: no b fibre at all
    yield "E/F_5 without b", build_elliptic_model(CurveSpec(5, 1, 0), 2)


def test_census_in_first_appearance_order():
    for label, model in _census_models():
        regions = [t.region for t in model.tops]
        first = list(dict.fromkeys(regions))
        assert list(model._census) == first == list(model.regions), label
        assert list(model._census.values()) == [regions.count(r) for r in first], label
        assert [model.regions[k] for k in model.region_index] == regions, label
        assert [t.label for t in model.tops] == [model.labels[k] for k in model.region_index]


def test_curve_without_b_fibre_has_no_b_region():
    model = build_elliptic_model(CurveSpec(5, 1, 0), 2)
    assert model._census == {frozenset({0}): 1, frozenset({1}): 3}
    assert model.labels == ("a", "c")


def test_total_measure_is_sum_of_cells(p1):
    model, _, _ = p1
    assert model.num_cells * model.cell_measure == model.total_measure


# -- nerve ------------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7])
def test_projective_plane_nerve_weights(p):
    _, _, nerve = build_projective_model(p, 2, 2)
    one = Fraction(1)
    for entry in nerve.to_json_entries():
        k = len(entry["charts"])
        expected = (one - Fraction(1, p)) ** (k - 1)
        num, den = entry["weight"].split("/")
        assert Fraction(int(num), int(den)) == expected


def test_nerve_weight_equals_overlap_measure(p2):
    model, _, nerve = p2
    mu_top = Fraction(1, model.branching)
    for entry in nerve.to_json_entries():
        charts = set(entry["charts"])
        overlap = sum(
            (mu_top for t in model.tops if charts <= t.region), Fraction(0)
        )
        num, den = entry["weight"].split("/")
        assert Fraction(int(num), int(den)) == overlap


def test_nerve_is_connected(p1):
    _, _, nerve = p1
    assert nerve.is_connected()


# -- balls and joins ----------------------------------------------------------


def test_ball_measure_halving(p1):
    model, _, _ = p1
    top = model.ball(0)
    child = model.ball(0, (1,))
    assert top.measure == Fraction(1, 5)
    assert child.measure == Fraction(1, 25)
    assert child.cell_range == (1, 2)


def test_ball_depth_capped_by_level(p1):
    model, _, _ = p1
    with pytest.raises(ModelError):
        Ball(model, 0, (1, 2))


def test_ball_refuses_indices_outside_the_model():
    # P1(5) m3: 6 tops, c = 5; ball(0, (7,)) once named cells (35, 40) of top 1
    model, _, _ = build_projective_model(5, 1, 3)
    for top, prefix in [(0, (7,)), (0, (-1,)), (0, (1, 5)), (6, ()), (9, ()), (-1, ())]:
        with pytest.raises(ModelError):
            model.ball(top, prefix)
    assert model.ball(5, (4, 4)).cell_range == (149, 150)


def test_join_within_a_top(p1):
    model, _, _ = p1
    assert model.join(0, 0).measure == model.cell_measure
    assert model.join(0, 4).measure == Fraction(1, 5)


def test_join_across_tops_goes_through_chart_ball(p1):
    model, _, _ = p1
    # tops 0 and 1 both carry chart 0, whose domain is the unit ball
    assert model.join(0, 6) is None
    assert model.geodesic_distance(0, 6) == 1


def test_distance_between_opposite_poles(p1):
    model, _, _ = p1
    # the two ends of the line share no chart; the path crosses everything
    assert model.geodesic_distance(0, 29) == Fraction(6, 5)
    assert model.geodesic_distance(29, 0) == Fraction(6, 5)


def test_distance_matrix_matches_scalar_queries():
    for label, model in builtin_models():
        D, mu = model.distance_matrix()
        assert mu == model.cell_measure
        scale = model.branching**model.level
        for x in range(0, model.num_cells, 7):
            for y in range(0, model.num_cells, 11):
                assert Fraction(int(D[x, y]), scale) == model.geodesic_distance(x, y), (
                    label, x, y
                )


def test_distance_matrix_symmetric_positive(p1):
    model, _, _ = p1
    D, _ = model.distance_matrix()
    assert (D == D.T).all()
    assert (D > 0).all()
    # self-distance is the cell's own extent
    assert (np.diag(D) == 1).all()


def test_digits_roundtrip(p1):
    # a cell's digits are the base-c expansion of its index within its top
    for model in (p1[0], build_projective_model(5, 1, 3)[0]):
        c, per = model.branching, model.cells_per_top
        for cell in range(model.num_cells):
            rem = cell - model.top_index_of(cell) * per
            expansion = tuple(rem // c**k % c for k in reversed(range(model.level - 1)))
            assert model.digits_of(cell) == expansion


def _branch_and_bound_distance(census, sa, sb, branching, chart_balls=False):
    """Reference cross-top distance: a depth-first search over the simple
    facet/coface paths of the nerve that keeps the least union top count
    and cuts every partial path whose count already reaches it."""
    regions = list(census)
    if chart_balls and sa & sb:
        chart = min(sa & sb)
        return Fraction(sum(census[r] for r in regions if chart in r), branching)
    simplices = {
        frozenset(sub)
        for r in regions
        for k in range(1, len(r) + 1)
        for sub in itertools.combinations(sorted(r), k)
    }
    masks = {s: sum(1 << i for i, r in enumerate(regions) if s <= r) for s in simplices}
    adjacent = {s: [] for s in simplices}
    for s, t in itertools.combinations(simplices, 2):
        if (s < t or t < s) and abs(len(s) - len(t)) == 1:
            adjacent[s].append(t)
            adjacent[t].append(s)
    best = None

    def search(current, union, visited):
        nonlocal best
        count = sum(census[r] for i, r in enumerate(regions) if union >> i & 1)
        if best is not None and count >= best:
            return
        if current == sb:
            best = count
            return
        for nxt in adjacent[current]:
            if nxt not in visited:
                search(nxt, union | masks[nxt], visited | {nxt})

    search(sa, masks[sa], {sa})
    if best is None:
        raise DisconnectedNerveError("no nerve path")
    return Fraction(best, branching)


def _path_search_cases():
    models = [model for _, model in builtin_models()]
    models += [build_projective_model(7, 2, 1)[0], build_Y_model(7, 2, 1)[0]]
    models.append(build_Y_model(5, 1, 1)[0])  # a disconnected nerve
    for model in models:
        yield model._census, model.branching, model.chart_balls
    a, b, c = frozenset([0]), frozenset([0, 1]), frozenset([1])
    for N in range(6, 61):  # the elliptic fiber census
        yield {a: 1, b: N - 4, c: 3}, 13, False


def test_path_search_matches_branch_and_bound():
    # the cached per-shape path sets give the same d_g as the search that
    # walks the nerve for every census, on every region pair
    pairs = 0
    for census, branching, chart_balls in _path_search_cases():
        for sa, sb in itertools.product(census, repeat=2):
            try:
                expected = _branch_and_bound_distance(census, sa, sb, branching, chart_balls)
            except DisconnectedNerveError:
                with pytest.raises(DisconnectedNerveError):
                    _census_distance(census, sa, sb, branching, chart_balls)
                continue
            assert _census_distance(census, sa, sb, branching, chart_balls) == expected
            pairs += 1
    assert pairs > 500


# -- transitions ---------------------------------------------------------------


def test_ball_transition_consistency_on_the_line(p1):
    model, atlas, _ = p1
    checked, failures = verify_ball_transition_consistency(model, atlas, max_depth=2)
    assert checked > 0
    assert failures == []


@pytest.mark.parametrize(
    "build, n, level, max_depth, checked",
    [
        (build_projective_model, 1, 3, 2, 48),
        (build_Y_model, 2, 2, 2, 624),
        (build_projective_model, 2, 2, 1, 120),
        (build_projective_model, 2, 2, 2, 3120),
    ],
    ids=["P1-m3", "Y2-m2", "P2-m2-depth1", "P2-m2"],
)
def test_ball_transition_consistency_counts(build, n, level, max_depth, checked):
    # one check per (transition, ball of the model on both its charts)
    model, atlas, _ = build(5, n, level)
    assert verify_ball_transition_consistency(model, atlas, max_depth) == (checked, [])


def test_ball_transition_check_compiles_each_transition_once_per_depth(p2, monkeypatch):
    # six transitions, two depths: the term lists were once recompiled per centre
    model, atlas, _ = p2
    compiled = []
    residue_tables = PolynomialMap._residue_tables

    def counting(self, k):
        compiled.append(k)
        return residue_tables(self, k)

    monkeypatch.setattr(PolynomialMap, "_residue_tables", counting)
    assert verify_ball_transition_consistency(model, atlas, 2) == (3120, [])
    assert len(compiled) <= 12


def test_ball_transition_consistency_reports_a_contracting_map(p1):
    # x -> 5x on the sphere sends each radius-5^-d ball to one of radius 5^-(d+1)
    model, _, _ = p1
    atlas = Atlas({(0, 1): PolynomialMap(5, [{(1,): 5}], ("sphere",), 8)})
    checked, failures = verify_ball_transition_consistency(model, atlas, max_depth=2)
    assert checked == 4 + 20
    assert len(failures) == checked
    assert failures[0] == ((0, 1), 1, (1,))
    assert ((0, 1), 2, (24,)) in failures


def test_ball_transition_consistency_needs_a_prime_field():
    model, atlas, _ = build_projective_model(5, 1, 2, f=2)
    with pytest.raises(ModelError, match="prime fields"):
        verify_ball_transition_consistency(model, atlas)


@pytest.mark.parametrize(
    "weights, message",
    [
        ({(): 1, (0,): 1}, "empty simplex"),
        ({(0,): 1, (1,): 0}, "nonpositive weight"),
        ({(0,): 1, (1,): -1}, "nonpositive weight"),
        ({(0,): 1, (0, 1): Fraction(1, 2)}, "not downward closed"),
        ({(0,): 1, (1,): 1, (2,): 1, (0, 1): 1, (1, 2): 1, (0, 1, 2): 1},
         "not downward closed"),
    ],
    ids=["empty", "zero-weight", "negative-weight", "edge-without-vertex",
         "triangle-without-edge"],
)
def test_nerve_refuses_malformed_weights(weights, message):
    with pytest.raises(ModelError, match=message):
        NerveComplex(weights)
