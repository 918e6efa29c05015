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
  coordinates), so cells in distinct top balls can still have a join;
* Y = P^n minus the n-fold unit sphere S0^n, whose nerve is the boundary
  of the n-simplex and whose maximal balls are the top balls;
* elliptic curve models (two charts, top balls labelled by reduction
  type), with maximal balls again the top balls.

Geodesic distance follows the join when it exists and otherwise minimizes
the measure of a union of chart overlaps along simple facet/coface paths
in the nerve; union measures are exact top counts from the region census
(the number of top balls in each chart region), not sums of weights.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np

from .equalising import NOT_EQUALISING, ball_image_is_equal_radius, equalising_number_of_map
from .polymaps import PolynomialMap

__all__ = [
    "ModelError",
    "DisconnectedNerveError",
    "Atlas",
    "NerveComplex",
    "TopBall",
    "Ball",
    "ChartBall",
    "CellModel",
    "nerve_weights",
    "build_projective_model",
    "build_Y_model",
    "verify_ball_transition_consistency",
    "model_to_json",
]

EXACT_MATRIX_CELL_LIMIT = 1500


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
        NOT_EQUALISING when any of them never equalises."""
        if not self.transitions:
            return radius_range[0]
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
            for i in simplex:
                if frozenset([i]) not in self._weights:
                    raise ModelError("nerve not downward closed at vertices")
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

    __slots__ = ("index", "region", "label", "data")

    def __init__(self, index, region, label, data=None):
        self.index = index
        self.region = frozenset(region)
        self.label = label
        self.data = data

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

    def parent(self):
        if self.prefix:
            return Ball(self.model, self.top_index, self.prefix[:-1])
        if self.model.chart_balls:
            region = self.model.tops[self.top_index].region
            return ChartBall(self.model, min(region))
        return None

    def __repr__(self):
        return f"Ball({self.id_string}, measure={self.measure})"


class ChartBall:
    """A whole chart domain when it is a genuine radius-1 ball (P^n only)."""

    __slots__ = ("model", "chart")

    def __init__(self, model, chart):
        self.model = model
        self.chart = chart

    depth = 0
    prefix = ()

    @property
    def measure(self):
        count = sum(1 for t in self.model.tops if self.chart in t.region)
        return Fraction(count, self.model.branching)

    @property
    def id_string(self):
        return f"U{self.chart}"

    def parent(self):
        return None

    def __repr__(self):
        return f"ChartBall(U{self.chart}, measure={self.measure})"


class CellModel:
    """Level-m cell decomposition with a uniform c-ary ball tree.

    Cell ids run 0 .. len(tops)*c^(m-1) - 1; cell k lives in top ball
    k // c^(m-1) and its subdivision digits are the base-c expansion of
    k mod c^(m-1), most significant first.  Chart membership is constant
    on top balls, so a cell's simplex sigma(x) is its top's region.
    """

    __slots__ = (
        "name",
        "p",
        "f",
        "dimension",
        "level",
        "branching",
        "tops",
        "chart_ids",
        "chart_balls",
        "nerve",
        "rep_fn",
        "_census",
        "_cross_cache",
    )

    def __init__(self, name, p, f, dimension, level, tops, chart_ids, chart_balls, rep_fn=None):
        if level < 1:
            raise ModelError("level must be >= 1")
        self.name = name
        self.p = p
        self.f = f
        self.dimension = dimension
        self.level = level
        self.branching = (p**f) ** dimension
        self.tops = tuple(tops)
        self.chart_ids = tuple(chart_ids)
        self.chart_balls = chart_balls
        self._census = Counter(top.region for top in self.tops)
        self.nerve = nerve_weights(self)
        self.rep_fn = rep_fn
        self._cross_cache = {}

    # -- basic structure -----------------------------------------------------

    @property
    def cells_per_top(self):
        return self.branching ** (self.level - 1)

    @property
    def num_cells(self):
        return len(self.tops) * self.cells_per_top

    @property
    def cell_measure(self):
        return Fraction(1, self.branching**self.level)

    @property
    def total_measure(self):
        return Fraction(len(self.tops), self.branching)

    def top_index_of(self, cell):
        return cell // self.cells_per_top

    def top_of(self, cell):
        return self.tops[self.top_index_of(cell)]

    def digits_of(self, cell):
        rem = cell % self.cells_per_top
        out = []
        for k in range(self.level - 1):
            power = self.branching ** (self.level - 2 - k)
            out.append(rem // power)
            rem %= power
        return tuple(out)

    def cell_id(self, top_index, digits):
        if len(digits) != self.level - 1:
            raise ModelError("need level-1 digits")
        rem = 0
        for d in digits:
            rem = rem * self.branching + d
        return top_index * self.cells_per_top + rem

    def sigma(self, cell):
        """Chart region of the cell: the maximal simplex containing it."""
        return self.top_of(cell).region

    def label_of(self, cell):
        return self.top_of(cell).label

    def ball(self, top_index, prefix=()):
        return Ball(self, top_index, prefix)

    def balls(self, depth):
        """All balls at a given depth >= 1."""
        if depth < 1 or depth > self.level:
            raise ModelError("depth out of range")
        for t in range(len(self.tops)):
            for prefix in itertools.product(range(self.branching), repeat=depth - 1):
                yield Ball(self, t, prefix)

    def representative(self, cell):
        if self.rep_fn is None:
            return {"top": self.top_index_of(cell), "digits": list(self.digits_of(cell))}
        return self.rep_fn(self, cell)

    # -- joins and distance ----------------------------------------------------

    def join(self, x, y):
        """Smallest ball of the tree containing both cells, or None."""
        tx, ty = self.top_index_of(x), self.top_index_of(y)
        if tx == ty:
            dx, dy = self.digits_of(x), self.digits_of(y)
            common = []
            for a, b in zip(dx, dy):
                if a != b:
                    break
                common.append(a)
            return Ball(self, tx, tuple(common))
        if self.chart_balls:
            shared = self.tops[tx].region & self.tops[ty].region
            if shared:
                return ChartBall(self, min(shared))
        return None

    def geodesic_distance(self, x, y):
        """d_g: measure of the join, else minimal overlap-path union measure."""
        b = self.join(x, y)
        if b is not None:
            return b.measure
        return self.cross_top_distance(self.top_index_of(x), self.top_index_of(y))

    def cross_top_distance(self, ta, tb):
        """d_g between cells of distinct top balls, from their two regions
        alone (ta == tb: between two tops of that top's region)."""
        sa, sb = self.tops[ta].region, self.tops[tb].region
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
        _require_dense(self, max_cells)
        scale = self.branching**self.level
        per = self.cells_per_top
        ntops = len(self.tops)
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
    regions = list(model._census)
    number = {region: k for k, region in enumerate(regions)}
    idx = np.array([number[top.region] for top in model.tops])
    reps = np.unique(idx, return_index=True)[1].tolist()
    table = [[model.cross_top_distance(a, b) for b in reps] for a in reps]
    return regions, idx, table


def _census_distance(census, sa, sb, branching, chart_balls=False):
    """d_g between two distinct tops with regions sa and sb, from the census.

    With chart balls, tops sharing a chart lie in the chart ball of the
    least shared chart.  Otherwise d_g is the least measure of the union of
    chart overlaps along a simple facet/coface path from sa to sb in the
    nerve; the tops of a region lie in that union when the region contains
    a simplex of the path.
    """
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
        raise DisconnectedNerveError(
            f"no nerve path between {sorted(sa)} and {sorted(sb)}"
        )
    return Fraction(best, branching)


def _require_dense(model, max_cells=EXACT_MATRIX_CELL_LIMIT):
    """Raise ModelError before a cells x cells array would be allocated."""
    if model.num_cells > max_cells:
        raise ModelError(f"{model.num_cells} cells exceeds the dense-matrix limit {max_cells}")


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


def _projective_tops(q, n):
    """Canonical P^n(F_q) points: least unit coordinate scaled to 1."""
    tops = []
    for chart in range(n + 1):
        free = [j for j in range(n + 1) if j != chart]
        choices = [[0] if j < chart else list(range(q)) for j in free]
        for combo in itertools.product(*choices):
            residues = dict(zip(free, combo))
            region = frozenset(
                [chart] + [j for j in free if j > chart and residues[j] != 0]
            )
            index = len(tops)
            tops.append(
                TopBall(index, region, f"chart{chart}", data=(chart, residues))
            )
    return tops


def _projective_transitions(p, n, precision):
    """Ratio maps between charts: coordinates divided by the new unit slot.

    In chart i the coordinates are x_k for k != i with x_i = 1; passing to
    chart j divides everything by x_j.  Domain: unit sphere at slot j,
    discs elsewhere.
    """
    transitions = {}
    for i in range(n + 1):
        slots = [k for k in range(n + 1) if k != i]
        for j in range(n + 1):
            if j == i:
                continue
            j_pos = slots.index(j)
            denom = {tuple(1 if t == j_pos else 0 for t in range(n)): 1}
            comps = []
            for k in range(n + 1):
                if k == j:
                    continue
                if k == i:
                    numer = {(0,) * n: 1}
                else:
                    k_pos = slots.index(k)
                    numer = {tuple(1 if t == k_pos else 0 for t in range(n)): 1}
                comps.append((numer, denom))
            domain = tuple("sphere" if t == j_pos else "disc" for t in range(n))
            transitions[(i, j)] = PolynomialMap(p, comps, domain, precision)
    return transitions


def _projective_rep(model, cell):
    """Canonical homogeneous coordinates as base-q digit strings per slot."""
    q = model.p**model.f
    n = model.dimension
    chart, residues = model.tops[model.top_index_of(cell)].data
    free = [j for j in range(n + 1) if j != chart]
    coords = {chart: [1] + [0] * (model.level - 1)}
    for j in free:
        coords[j] = [residues[j]]
    for digit in model.digits_of(cell):
        parts = []
        for _ in range(n):
            parts.append(digit % q)
            digit //= q
        parts.reverse()
        for j, part in zip(free, parts):
            coords[j].append(part)
    return {
        "chart": chart,
        "coordinate_digits": [coords[j] for j in range(n + 1)],
    }


def _projective_chart_coords(model, ball, chart, modulus_exp):
    """Center of a ball in a chart's coordinates, mod p^modulus_exp (f=1)."""
    if model.f != 1:
        raise ModelError("coordinate arithmetic implemented for prime fields only")
    p = model.p
    n = model.dimension
    top = model.tops[ball.top_index]
    c0, residues = top.data
    free = [j for j in range(n + 1) if j != c0]
    values = {c0: 1}
    for j in free:
        values[j] = residues[j]
    for k, digit in enumerate(ball.prefix, start=1):
        parts = []
        for _ in range(n):
            parts.append(digit % p)
            digit //= p
        parts.reverse()
        for j, part in zip(free, parts):
            values[j] += part * p**k
    modulus = p**modulus_exp
    inv = pow(values[chart], -1, modulus)
    return tuple(values[k] * inv % modulus for k in range(n + 1) if k != chart)


def build_projective_model(p, n, level, f=1, name=None):
    """P^n over the unramified field with residue size q = p^f.

    Returns (CellModel, Atlas, NerveComplex).  Cells are the canonical
    projective points at precision `level`, each of measure q^(-n*level);
    chart overlaps weigh (1 - 1/q)^k on k+1 charts.  Transition maps are
    shared for all f but their automated ball checks run over the prime
    field (f = 1), which is what the built-in verification exercises.
    """
    if n not in (1, 2):
        raise ModelError("projective models are built for n in {1, 2}")
    q = p**f
    tops = _projective_tops(q, n)
    label = name or f"P{n}(q={q})"
    model = CellModel(
        label, p, f, n, level, tops, tuple(range(n + 1)), True, rep_fn=_projective_rep
    )
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
    q = p**f
    full = frozenset(range(n + 1))
    survivors = [t for t in _projective_tops(q, n) if t.region != full]
    tops = [
        TopBall(i, t.region, t.label, data=t.data) for i, t in enumerate(survivors)
    ]
    model = CellModel(
        f"Y{n}(q={q})", p, f, n, level, tops, tuple(range(n + 1)), False,
        rep_fn=_projective_rep,
    )
    atlas = Atlas(_projective_transitions(p, n, level + 4))
    return model, atlas, model.nerve


def verify_ball_transition_consistency(model, atlas, max_depth=2):
    """Check that every transition maps each applicable ball to an equal-radius ball.

    A transition (i, j) applies to a ball whose top region contains both i
    and j; every ball of depth 1 .. max_depth is expressed in chart-i
    coordinates and probed two digits below its radius.  Returns
    (checked, failures).
    """
    checked = 0
    failures = []
    for depth in range(1, min(max_depth, model.level) + 1):
        for ball in model.balls(depth):
            region = model.tops[ball.top_index].region
            for (i, j), tau in atlas.transitions.items():
                if i not in region or j not in region:
                    continue
                center = _projective_chart_coords(model, ball, i, depth)
                checked += 1
                if not ball_image_is_equal_radius(tau, center, depth):
                    failures.append((ball.id_string, (i, j)))
    return checked, failures


def model_to_json(model, include_cells=True):
    """JSON document for a model and its nerve (schema padic-spectra/model-v1)."""
    doc = {
        "schema": "padic-spectra/model-v1",
        "model": model.name,
        "p": model.p,
        "f": model.f,
        "dimension": model.dimension,
        "level": model.level,
        "branching": model.branching,
        "num_cells": model.num_cells,
        "total_measure": _frac_str(model.total_measure),
        "charts": list(model.chart_ids),
        "simplices": model.nerve.to_json_entries(),
    }
    if include_cells:
        cells = []
        per = model.cells_per_top
        measure = _frac_str(model.cell_measure)
        for cell in range(model.num_cells):
            top = model.top_of(cell)
            if model.level == 1:
                parent_ball = Ball(model, top.index).parent()
                parent = parent_ball.id_string if parent_ball is not None else None
            else:
                parent = Ball(
                    model, top.index, model.digits_of(cell)[:-1]
                ).id_string
            cells.append(
                {
                    "id": cell,
                    "charts": sorted(top.region),
                    "measure": measure,
                    "parent": parent,
                    "region": top.label,
                    "representative": model.representative(cell),
                }
            )
        doc["cells"] = cells
    return doc
