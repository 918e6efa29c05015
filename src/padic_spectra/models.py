"""Finite cell models of the built-in compact p-adic manifolds.

A model resolves a manifold at level m.  The points of each depth-1 ball
(a reduction fiber, called a top ball here) are grouped into c-ary
subdivision cells, c = q^n with q the residue field size.  Cell ids are
contiguous per top ball with the most significant subdivision digit first,
so every ball of the tree is a contiguous id range, and measures are exact
Fractions: a depth-d ball has measure c^(-d), a level-m cell c^(-m), and
the whole space (number of top balls)/c.

Two families are built here, the third by the elliptic module:

* projective space P^n, charts U_i = {|x_i| = 1, all |x_j| <= 1} with
  ratio transition maps and the full n-simplex as nerve.  Each chart
  domain is itself a radius-1 ball (the unit polydisc in its own
  coordinates), so two tops sharing a chart lie in one chart ball;
* Y = P^n minus the n-fold unit sphere S0^n, whose nerve is the boundary
  of the n-simplex and whose maximal balls are the top balls;
* elliptic curve models (two charts, top balls labelled by reduction
  type), with maximal balls again the top balls.

A model stores its census (chart regions, their labels, and one region
index per top), not one object per top.  Geodesic distance is the measure
of the join inside a top ball.  Across tops it is read from the census:
on P^n the measure of the chart ball of the least shared chart, otherwise
the least measure of a union of chart overlaps along simple facet/coface
paths in the nerve, as exact top counts, not sums of weights.  The paths
depend only on which regions exist, so they are enumerated once per
region shape, as the sets of regions each path meets; a census of that
shape then costs one minimum over those sets.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

import numpy as np

from .equalising import (
    CERTIFY_DIGITS,
    NOT_EQUALISING,
    _ball_images_are_equal_balls,
    _check_radius_range,
    _residue_blocks,
    equalising_number_of_map,
)
from .fields import FiniteField
from .polymaps import DISC, SPHERE, PolynomialMap, _unit_exponent

__all__ = [
    "ModelError",
    "DisconnectedNerveError",
    "Atlas",
    "NerveComplex",
    "TopBall",
    "Ball",
    "CellModel",
    "nerve_weights",
    "build_projective_model",
    "build_Y_model",
    "verify_ball_transition_consistency",
]

EXACT_MATRIX_CELL_LIMIT = 1500
# cells of a per-cell CLI output: a kernel row (--x) or an empirical law
PER_CELL_OUTPUT_LIMIT = 2**20


class ModelError(ValueError):
    """Invalid model construction or query."""


class DisconnectedNerveError(ModelError):
    """Geodesic distance requested across components of a disconnected nerve."""


class Atlas:
    """Transition maps keyed by ordered chart pairs (i, j)."""

    __slots__ = ("transitions",)

    def __init__(self, transitions):
        self.transitions = dict(transitions)

    def equalising_number(self, radius_range):
        """Equalising number of the atlas: worst case over its transitions,
        NOT_EQUALISING when any of them never equalises; N_min when there
        are none."""
        n_min, _ = _check_radius_range(radius_range)
        if not self.transitions:
            return n_min
        numbers = [equalising_number_of_map(t, radius_range) for t in self.transitions.values()]
        if NOT_EQUALISING in numbers:
            return NOT_EQUALISING
        return max(numbers)


class NerveComplex:
    """Weighted nerve: simplices are chart-id frozensets with measure weights."""

    __slots__ = ("_weights",)

    def __init__(self, weights):
        self._weights = {frozenset(k): Fraction(v) for k, v in weights.items()}
        for simplex, w in self._weights.items():
            if not simplex:
                raise ModelError("empty simplex")
            if w <= 0:
                raise ModelError(f"nonpositive weight on {sorted(simplex)}")
        for simplex in self._weights:
            for k in range(1, len(simplex)):
                for sub in itertools.combinations(sorted(simplex), k):
                    if frozenset(sub) not in self._weights:
                        raise ModelError("nerve not downward closed")

    @property
    def vertices(self):
        return sorted(i for s in self._weights if len(s) == 1 for i in s)

    def simplices(self):
        return sorted(self._weights, key=lambda s: (len(s), sorted(s)))

    def is_connected(self):
        verts = self.vertices
        if not verts:
            return True
        seen = {verts[0]}
        frontier = [verts[0]]
        edges = [s for s in self._weights if len(s) == 2]
        while frontier:
            v = frontier.pop()
            for e in edges:
                if v in e:
                    (w,) = e - {v}
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
        return len(seen) == len(verts)

    def to_json_entries(self):
        return [
            {"charts": sorted(s), "weight": _frac_str(self._weights[s])}
            for s in self.simplices()
        ]


class TopBall:
    """A depth-1 ball: reduction fiber with its chart region and label."""

    __slots__ = ("index", "region", "label")

    def __init__(self, index, region, label):
        self.index = index
        self.region = frozenset(region)
        self.label = label

    def __repr__(self):
        return f"TopBall({self.index}, {self.label!r}, charts={sorted(self.region)})"


class Ball:
    """A ball of the subdivision tree: a top ball plus a digit prefix."""

    __slots__ = ("model", "top_index", "prefix")

    def __init__(self, model, top_index, prefix=()):
        self.model = model
        self.top_index = top_index
        self.prefix = tuple(prefix)
        if len(self.prefix) > model.level - 1:
            raise ModelError("ball deeper than the model level")
        if not 0 <= top_index < len(model.region_index):
            raise ModelError(f"top index {top_index} outside [0, {len(model.region_index)})")
        if not all(0 <= d < model.branching for d in self.prefix):
            raise ModelError(f"ball digits {self.prefix} outside [0, {model.branching})")

    @property
    def depth(self):
        return 1 + len(self.prefix)

    @property
    def measure(self):
        return Fraction(1, self.model.branching**self.depth)

    @property
    def cell_range(self):
        c = self.model.branching
        span = c ** (self.model.level - self.depth)
        start = self.top_index * self.model.cells_per_top
        width = self.model.cells_per_top
        for d in self.prefix:
            width //= c
            start += d * width
        return start, start + span

    @property
    def id_string(self):
        if not self.prefix:
            return f"t{self.top_index}"
        return f"t{self.top_index}." + ".".join(str(d) for d in self.prefix)

    def __repr__(self):
        return f"Ball({self.id_string}, measure={self.measure})"


class CellModel:
    """Level-m cell decomposition with a uniform c-ary ball tree.

    Cell ids run 0 .. #tops*c^(m-1) - 1; cell k lives in top ball
    k // c^(m-1) and its subdivision digits are the base-c expansion of
    k mod c^(m-1), most significant first.  Chart membership is constant
    on top balls, so a cell's simplex sigma(x) is its top's region.

    It holds its census: `regions` in order of first appearance over the
    tops, their `labels`, and `region_index`, one int per top.  A builder
    passes candidate regions and labels and each top's candidate number;
    candidates without tops are dropped and the rest renumbered.
    """

    __slots__ = ("name", "p", "f", "dimension", "level", "branching", "regions", "labels",
                 "region_index", "chart_ids", "chart_balls", "nerve", "_census", "_cross_cache",
                 "_tops")

    def __init__(self, name, p, f, dimension, level, regions, labels, region_index, chart_ids,
                 chart_balls):
        if level < 1:
            raise ModelError("level must be >= 1")
        self.name = name
        self.p = p
        self.f = f
        self.dimension = dimension
        self.level = level
        self.branching = (p**f) ** dimension
        index = np.asarray(region_index)
        present = np.flatnonzero(np.bincount(index, minlength=len(regions)))
        perm = np.argsort((index[:, None] == present).argmax(axis=0))  # by first top
        self.region_index = np.argsort(perm)[np.searchsorted(present, index)]
        self.regions = tuple(regions[k] for k in present[perm].tolist())
        self.labels = tuple(labels[k] for k in present[perm].tolist())
        self.chart_ids = tuple(chart_ids)
        self.chart_balls = chart_balls
        self._census = dict(zip(self.regions, np.bincount(self.region_index).tolist()))
        self.nerve = nerve_weights(self)
        self._cross_cache = {}
        self._tops = None

    @property
    def tops(self):
        """The top balls as a tuple of read-only `TopBall` views, built on
        first access; program code reads `region_index` instead."""
        if self._tops is None:
            self._tops = tuple(TopBall(t, self.regions[k], self.labels[k])
                               for t, k in enumerate(self.region_index.tolist()))
        return self._tops

    # -- basic structure -----------------------------------------------------

    @property
    def cells_per_top(self):
        return self.branching ** (self.level - 1)

    @property
    def num_cells(self):
        return len(self.region_index) * self.cells_per_top

    @property
    def cell_measure(self):
        return Fraction(1, self.branching**self.level)

    @property
    def total_measure(self):
        return Fraction(len(self.region_index), self.branching)

    def top_index_of(self, cell):
        return cell // self.cells_per_top

    def digits_of(self, cell):
        rem = cell % self.cells_per_top
        out = []
        for k in range(self.level - 1):
            power = self.branching ** (self.level - 2 - k)
            out.append(rem // power)
            rem %= power
        return tuple(out)

    def ball(self, top_index, prefix=()):
        return Ball(self, top_index, prefix)

    # -- joins and distance ----------------------------------------------------

    def join(self, x, y):
        """Smallest ball of a top's tree containing both cells, or None
        for cells of distinct tops (see `cross_top_distance`)."""
        tx, ty = self.top_index_of(x), self.top_index_of(y)
        if tx != ty:
            return None
        common = []
        for a, b in zip(self.digits_of(x), self.digits_of(y)):
            if a != b:
                break
            common.append(a)
        return Ball(self, tx, tuple(common))

    def geodesic_distance(self, x, y):
        """d_g: measure of the join inside one top, else `cross_top_distance`."""
        b = self.join(x, y)
        if b is not None:
            return b.measure
        return self.cross_top_distance(self.top_index_of(x), self.top_index_of(y))

    def cross_top_distance(self, ta, tb):
        """d_g between cells of distinct top balls, from their two regions
        alone (ta == tb: between two tops of that top's region)."""
        sa, sb = self.regions[self.region_index[ta]], self.regions[self.region_index[tb]]
        key = frozenset((sa, sb))
        if key not in self._cross_cache:
            self._cross_cache[key] = _census_distance(
                self._census, sa, sb, self.branching, self.chart_balls
            )
        return self._cross_cache[key]

    def distance_matrix(self, max_cells=EXACT_MATRIX_CELL_LIMIT):
        """All-pairs d_g as (scaled int64 matrix, scale): D[i,j] = d_g * c^m.

        Exact because every distance is an integer multiple of c^(-m).
        Guarded by a cell-count limit; dense output grows quadratically.
        """
        _require_cells(self, max_cells)
        scale = self.branching**self.level
        per = self.cells_per_top
        ntops = len(self.region_index)
        _, idx, table = _region_table(self)
        scaled = [[d * scale for d in row] for row in table]
        if any(v.denominator != 1 for row in scaled for v in row):
            raise ModelError("distance not on the c^-m grid")
        grid = np.array([[int(v) for v in row] for row in scaled], dtype=np.int64)
        D = grid[np.ix_(idx, idx)][:, None, :, None].repeat(per, 1).repeat(per, 3)
        same_block = scale // self.branching ** _within_top_depth(self, np.arange(per))
        for a in range(ntops):
            D[a, :, a, :] = same_block
        return D.reshape(ntops * per, ntops * per), Fraction(1, scale)


def nerve_weights(model):
    """Weighted nerve from exact cell sums: w(J) = measure of the J-overlap."""
    weights = {}
    ids = model.chart_ids
    for k in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, k):
            J = frozenset(combo)
            count = sum(n for region, n in model._census.items() if J <= region)
            if count:
                weights[J] = Fraction(count, model.branching)
    return NerveComplex(weights)


def _region_table(model):
    """The census regions, each top's region index (int array) and the
    r x r table of d_g between tops of two regions, r = len(regions).

    A cross-top distance depends on the region pair alone, so the first top
    of each region stands for it on both sides; a diagonal entry is the
    distance between two tops of one region (unused if it has one top).
    """
    idx = model.region_index
    reps = np.unique(idx, return_index=True)[1].tolist()
    table = [[model.cross_top_distance(a, b) for b in reps] for a in reps]
    return list(model.regions), idx, table


def _census_table(census, branching):
    """The r x r table of d_g between tops of two regions of a census (in
    its order; no chart balls), like `_region_table` without a model."""
    return [[_census_distance(census, sa, sb, branching) for sb in census] for sa in census]


def _census_distance(census, sa, sb, branching, chart_balls=False):
    """d_g between two distinct tops with regions sa and sb, from the census.

    With chart balls, tops sharing a chart lie in the chart ball of the
    least shared chart.  Otherwise d_g is the least top count, over c, of
    the region sets met by the nerve paths from sa to sb (`_nerve_paths`,
    enumerated once per region shape and cached).
    """
    if chart_balls and sa & sb:
        chart = min(sa & sb)
        return Fraction(sum(n for r, n in census.items() if chart in r), branching)
    paths = _nerve_paths(frozenset(census), sa, sb)
    if not paths:
        raise DisconnectedNerveError(f"no nerve path between {sorted(sa)} and {sorted(sb)}")
    return Fraction(min(sum(census[r] for r in met) for met in paths), branching)


@functools.lru_cache(maxsize=None)
def _nerve_paths(regions, sa, sb):
    """The sets of regions met along the simple facet/coface paths from sa
    to sb in the nerve of a set of chart regions, minimal under inclusion.

    A path meets a region when the region contains one of its simplices;
    the tops of the regions it meets fill the union of its chart overlaps.
    The sets depend on the region shape alone, not on the top counts.
    """
    simplices = {frozenset(sub) for r in regions for k in range(1, len(r) + 1)
                 for sub in itertools.combinations(sorted(r), k)}
    met = {s: frozenset(r for r in regions if s <= r) for s in simplices}
    found = set()

    def walk(current, union, visited):
        if current == sb:
            found.add(union)
            return
        for nxt in simplices - visited:
            if abs(len(nxt) - len(current)) == 1 and (nxt < current or current < nxt):
                walk(nxt, union | met[nxt], visited | {nxt})

    walk(sa, met[sa], {sa})
    return frozenset(u for u in found if not any(v < u for v in found))


def _require_cells(model, max_cells=EXACT_MATRIX_CELL_LIMIT, what="dense-matrix"):
    """Raise ModelError before a cells x cells array (or, under another
    limit, a per-cell array) would be allocated."""
    if model.num_cells > max_cells:
        raise ModelError(f"{model.num_cells} cells exceeds the {what} limit {max_cells}")


def _within_top_depth(model, rows):
    """Join depths between cells of one top: the cells at local indices
    `rows` against every cell of the top, shape (len(rows), c^(m-1))."""
    c = model.branching
    m = model.level
    r = np.asarray(rows)
    u = np.arange(model.cells_per_top)
    depth = np.ones((r.size, u.size), dtype=np.int64)
    agree = np.ones((r.size, u.size), dtype=bool)
    for k in range(1, m):
        width = c ** (m - 1 - k)
        agree &= (r // width)[:, None] == (u // width)[None, :]
        depth += agree
    return depth


def _frac_str(fr):
    return f"{fr.numerator}/{fr.denominator}"


# -- projective models ----------------------------------------------------------


def _projective_regions(q, n):
    """The nonempty chart sets of P^n (numbered bitmask - 1), their labels,
    and the number of each canonical P^n(F_q) point's chart set, in top
    order: least unit coordinate i scaled to 1 (chart i), the coordinates
    after it in lexicographic order, each unit one adding its chart."""
    regions = [frozenset(j for j in range(n + 1) if mask >> j & 1) for mask in range(1, 2 << n)]
    units = np.zeros(1, dtype=np.int64)  # bit j: the j-th coordinate after the chart's is a unit
    masks = []
    for chart in range(n, -1, -1):
        masks.append((units << (chart + 1)) | (1 << chart))
        if chart:  # after chart 0 the q^(n+1) update would go unread
            units = ((np.arange(q) != 0)[:, None] | (units << 1)).ravel()
    return regions, [f"chart{min(r)}" for r in regions], np.concatenate(masks[::-1]) - 1


def _projective_transitions(p, n, precision):
    """Ratio maps between charts: coordinates divided by the new unit slot.

    In chart i the coordinates are x_k for k != i with x_i = 1; passing to
    chart j divides everything by x_j.  Domain: unit sphere at slot j,
    discs elsewhere.
    """
    transitions = {}
    for i in range(n + 1):
        slots = [k for k in range(n + 1) if k != i]
        for j_pos, j in enumerate(slots):
            denom = {_unit_exponent(j_pos, n): 1}
            comps = [
                ({(0,) * n if k == i else _unit_exponent(slots.index(k), n): 1}, denom)
                for k in range(n + 1) if k != j
            ]
            domain = tuple(SPHERE if t == j_pos else DISC for t in range(n))
            transitions[(i, j)] = PolynomialMap(p, comps, domain, precision)
    return transitions


def build_projective_model(p, n, level, f=1):
    """P^n over the unramified field with residue size q = p^f.

    Returns (CellModel, Atlas, NerveComplex).  Cells are the canonical
    projective points at precision `level`, each of measure q^(-n*level);
    chart overlaps weigh (1 - 1/q)^k on k+1 charts.  Transition maps are
    shared for all f but their automated ball checks run over the prime
    field (f = 1), which is what the built-in verification exercises.
    """
    if n not in (1, 2):
        raise ModelError("projective models are built for n in {1, 2}")
    q = FiniteField(p, f).q
    model = CellModel(f"P{n}(q={q})", p, f, n, level, *_projective_regions(q, n),
                      tuple(range(n + 1)), True)
    atlas = Atlas(_projective_transitions(p, n, level + 4))
    return model, atlas, model.nerve


def build_Y_model(p, n, level, f=1):
    """Y = P^n minus the unit polysphere: drop the tops on every chart.

    The nerve loses its top simplex (the all-charts overlap is exactly the
    removed sphere product); for n = 1 the two remaining vertices are not
    connected and geodesic queries across them raise.
    """
    if n not in (1, 2):
        raise ModelError("Y models are built for n in {1, 2}")
    q = FiniteField(p, f).q
    regions, labels, index = _projective_regions(q, n)
    index = index[index != len(regions) - 1]  # the all-charts set is the last
    model = CellModel(f"Y{n}(q={q})", p, f, n, level, regions, labels, index,
                      tuple(range(n + 1)), False)
    atlas = Atlas(_projective_transitions(p, n, level + 4))
    return model, atlas, model.nerve


def verify_ball_transition_consistency(model, atlas, max_depth=2):
    """Check that every transition maps each applicable ball to an equal-radius ball.

    Transition (i, j) applies to the chart-i balls on which x_j is a unit,
    its own `ball_centers(depth)`.  A centre lies in the region of i and
    the charts of its unit coordinates, and is probed exhaustively, as by
    `ball_image_is_equal_radius`, when that region is in the model's census
    (f = 1 only); each transition is compiled once per depth, and its
    balls of that depth go to the probe's engine as one batch: the first
    centre whose probe raises raises, and the failures are listed in order.
    Returns (checked, failures), a failure as ((i, j), depth, centre).
    """
    if model.f != 1:
        raise ModelError("coordinate arithmetic implemented for prime fields only")
    checked = 0
    failures = []
    for (i, j), tau in atlas.transitions.items():
        charts = [k for k in model.chart_ids if k != i]
        for depth in range(1, min(max_depth, model.level) + 1):
            probe = depth + CERTIFY_DIGITS
            centres = [centre for centre in tau.ball_centers(depth)
                       if frozenset([i] + [k for k, x in zip(charts, centre) if x % model.p])
                       in model._census]
            checked += len(centres)
            outcomes = _ball_images_are_equal_balls(_residue_blocks(tau, probe), tau.p,
                                                    tau.dimension, centres, depth, probe)
            failures += [((i, j), depth, c) for c, ok in zip(centres, outcomes) if not ok]
    return checked, failures
