"""Spectral theory of the geodesic-distance Dirichlet operator.

The operator on a level-m cell model is

    (L f)(x) = sum_y (f(x) - f(y)) * d(x, y)^(-s) * mu(y)

over cells y, with d the geodesic distance and mu the uniform cell
measure.  Cells carry equal measure, so the dense matrix is symmetric.

Its spectrum splits into two honest pieces:

* wavelet eigenvalues, one class per (ball depth, chart region), each of
  multiplicity (c - 1) * #balls in the class, with eigenfunctions the
  character wavelets supported on a single ball, each class in closed
  form (the per-cell quadrature is kept as the test oracle);
* the complement, spanned by top-ball indicator functions, on which L
  acts exactly as the reduced top-level operator.  Its eigenvalues come
  from the region quotient (one scalar per census region, plus a small
  quotient matrix on region indicators) and are reported separately;
  the smallest of them can lie below every wavelet eigenvalue, so
  `lambda_min_wavelet` is a statement about the wavelet block only (that
  is the quantity the hearing results invert).

The class eigenvalues and the reduced block are the only description of
the generator: heat and Green kernels and the semigroup read them in one
form (`_synthesis`), the sampler as rates.  The dense matrix is the tests'
reference (`assemble_operator`); dense kernels refuse large models.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

import numpy as np

from .fields import additive_character_table
from .models import EXACT_MATRIX_CELL_LIMIT, ModelError, _require_dense
from .models import _region_table, _within_top_depth

__all__ = [
    "assemble_operator",
    "reduced_operator",
    "reduced_block_eigenvalues",
    "wavelet_family",
    "wavelet_eigenvalue_numeric",
    "class_eigenvalues",
    "SpectrumClass",
    "SpectrumSummary",
    "enumerate_spectrum",
    "heat_kernel",
    "green_function",
    "green_reduced_exact",
    "semigroup_apply",
    "SimulationResult",
    "sample_paths",
]


def _is_integral(s):
    if isinstance(s, int):
        return True
    if isinstance(s, Fraction):
        return s.denominator == 1
    return isinstance(s, float) and s.is_integer()


def assemble_operator(model, s, exact=False, max_cells=EXACT_MATRIX_CELL_LIMIT):
    """Dense operator matrix: off-diagonal -d^(-s) mu(y), zero row sums.

    Float64 by default; with exact=True (integer s only) the entries are
    Fractions in an object array, exact at every step.
    """
    if exact and not _is_integral(s):
        raise ValueError("exact assembly needs an integer exponent s")
    D, unit = model.distance_matrix(max_cells=max_cells)
    mu = model.cell_measure
    if exact:
        rates = {v: Fraction(unit.denominator, int(v)) ** int(s) * mu for v in np.unique(D)}
        W = np.vectorize(rates.__getitem__, otypes=[object])(D)
    else:
        W = (D.astype(np.float64) * float(unit)) ** (-float(s)) * float(mu)
    np.fill_diagonal(W, 0)
    L = -W
    np.fill_diagonal(L, W.sum(axis=1))
    return L


def reduced_operator(model, s, exact=False):
    """Top-level operator on fiber indicators: the action of L on functions
    constant on top balls, an invariant block because cross-top distances
    are constant on pairs of tops.  Its off-diagonal entries are the jump
    rates -Q[T, T'] = d_g(T, T')^(-s) / c from a cell of T into T'."""
    if exact and not _is_integral(s):
        raise ValueError("exact assembly needs an integer exponent s")
    _, idx, table = _region_table(model)
    w = _rate_table(table, np.bincount(idx), model.branching, s, exact)
    Q = -np.array(w, dtype=object if exact else np.float64)[np.ix_(idx, idx)]
    np.fill_diagonal(Q, 0)  # it holds the same-region rate, not a jump of T to itself
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def _rate_table(table, sizes, c, s, exact):
    """The r x r jump rates w_ab = d_g(a, b)^(-s) / c between tops of census
    regions a and b (sizes[a] tops), from their distance table, as Fractions
    or floats; w_aa = 0 for a region with one top (no same-region pair)."""
    mu_top = Fraction(1, c) if exact else float(Fraction(1, c))
    return [[0 if a == b and sizes[a] == 1 else _power(d, -s, exact) * mu_top
             for b, d in enumerate(row)] for a, row in enumerate(table)]


def _region_quotient(model, s):
    """The reduced operator Q split along its census regions (float).

    Q is constant on region pairs: with k_a tops in region a and rates
    w_ab (`_rate_table`), its diagonal is D_a = sum_b k_b w_ab - w_aa.  So
    on vectors that are mean-zero inside one region Q is the scalar
    D_a + w_aa (multiplicity k_a - 1), and on the normalized region
    indicators it is the symmetric r x r quotient

        S = diag(D_a + w_aa) - sqrt(k_a k_b) w_ab

    (an equitable partition: Brouwer and Haemers, Spectra of Graphs, 2.3).
    S kills sqrt(k), the constant function, and is positive on the rest,
    so eigh puts that mode first; its eigenvalue is set to exactly 0.
    Returns the top region indices, k, the scalars, and eigh(S).
    """
    _, idx, table = _region_table(model)
    sizes = np.bincount(idx)
    w = np.array(_rate_table(table, sizes, model.branching, s, False))
    scalars = w @ sizes
    root = np.sqrt(sizes)
    lam, V = np.linalg.eigh(np.diag(scalars) - np.outer(root, root) * w)
    lam[0] = 0.0
    return idx, sizes, scalars, lam, V


def _reduced_function(model, s, fn):
    """fn(Q) for the reduced operator Q, from its region quotient: fn maps
    an array of eigenvalues to their images elementwise."""
    idx, sizes, scalars, lam, V = _region_quotient(model, s)
    within = fn(scalars)
    root = np.sqrt(sizes)
    C = (V * fn(lam)) @ V.T / np.outer(root, root) - np.diag(within / sizes)
    F = C[np.ix_(idx, idx)]
    F[np.diag_indices_from(F)] += within[idx]
    return F


def reduced_block_eigenvalues(model, s):
    """Sorted eigenvalues of the reduced block (float; includes the 0 of
    the constant function), from its region quotient."""
    _, sizes, scalars, lam, _ = _region_quotient(model, s)
    return np.sort(np.concatenate([lam, np.repeat(scalars, sizes - 1)]))


def wavelet_family(model, ball):
    """The c - 1 character wavelets on a ball, as rows over all cells.

    Row j is mu(B)^(-1/2) chi_j(child digit), zero outside the ball, with
    chi_j the additive characters of the digit group; rows are orthonormal
    in L^2(mu) and mean zero on the ball.
    """
    if ball.depth >= model.level:
        raise ModelError("single-cell balls carry no wavelets")
    c = model.branching
    chars = additive_character_table(model.p, model.f * model.dimension)
    norm = float(ball.measure) ** -0.5
    lo, hi = ball.cell_range
    digit_pos = ball.depth - 1
    out = np.zeros((c - 1, model.num_cells), dtype=np.complex128)
    for y in range(lo, hi):
        digit = model.digits_of(y)[digit_pos]
        out[:, y] = norm * chars[1:, digit]
    return out


def wavelet_eigenvalue_numeric(model, ball, s, exact=None):
    """Eigenvalue of the wavelets on a ball, by literal quadrature:

        mu(B)^(1-s) + sum_{cells y outside B} d(x, y)^(-s) mu(y)

    with x the ball's first cell (the sum is the same for every cell x
    inside B).  Exact Fractions for integer s by default.
    """
    if exact is None:
        exact = _is_integral(s)
    if exact and not _is_integral(s):
        raise ValueError("exact quadrature needs an integer exponent s")
    lo, hi = ball.cell_range
    mu = model.cell_measure if exact else float(model.cell_measure)
    total = _power(ball.measure, 1 - s, exact)
    for y in range(model.num_cells):
        if not lo <= y < hi:
            total += _power(model.geodesic_distance(lo, y), -s, exact) * mu
    return total


def _power(base, exponent, exact):
    """base^exponent: an exact Fraction (integral exponent) or a float."""
    if exact:
        return Fraction(base) ** int(exponent)
    return float(base) ** float(exponent)


def _cross_top_parts(census, table, c, s, exact):
    """Cross-top part kappa_a = sum_b k_b w_ab - w_aa of the class eigenvalue
    of a top in each region a of a census {region: k_a tops}, with the
    rates `_rate_table` of its distance table (rows in census order)."""
    sizes = list(census.values())
    w = _rate_table(table, sizes, c, s, exact)
    return {region: sum(k * rate for k, rate in zip(sizes, row)) - row[a]
            for a, (region, row) in enumerate(zip(census, w))}


def _census_eigenvalues(census, table, c, level, s, exact):
    """Closed-form eigenvalue of every (ball depth, region) class of a
    census, depths 1 .. level - 1, keyed (depth, region) in that order."""
    kappas = _cross_top_parts(census, table, c, s, exact)
    return {(depth, region): _ball_eigenvalue(depth, kappa, c, s, exact)
            for depth in range(1, level) for region, kappa in kappas.items()}


def _ball_eigenvalue(depth, kappa, c, s, exact):
    """Closed-form wavelet eigenvalue of a depth-delta ball:

        c^(delta(s-1)) + (1 - 1/c) sum_{1<=j<delta} c^(j(s-1)) + kappa

    the ball term mu(B)^(1-s), the shells of the ball's ancestors inside
    its top, and the cross-top part.
    """
    value = _power(c, depth * (s - 1), exact)
    for j in range(1, depth):
        value += _shell_rate(j, c, s, exact)
    return value + kappa


def _shell_rate(j, c, s, exact):
    """(1 - 1/c) c^(j(s-1)): the jump rate from a cell into the shell at
    join depth j, the cells of its depth-j ball outside its depth-(j+1)
    ball, each at distance c^(-j)."""
    shell = Fraction(c - 1, c) if exact else (c - 1) / c
    return shell * _power(c, j * (s - 1), exact)


def class_eigenvalues(model, s, exact=None):
    """Eigenvalue for every (ball depth, region) class, in closed form.

    A wavelet eigenvalue depends only on the ball's depth and on the
    distance profile outside the ball: the ancestor shells within the top
    and one distance per other top, which depends on the region pair
    alone.  Exact Fractions for integer s by default, floats otherwise;
    wavelet_eigenvalue_numeric is the per-cell quadrature oracle.
    """
    if exact is None:
        exact = _is_integral(s)
    elif exact and not _is_integral(s):
        raise ValueError("exact arithmetic needs an integer exponent s")
    _, _, table = _region_table(model)  # rows in census order
    return _census_eigenvalues(model._census, table, model.branching, model.level, s, exact)


class SpectrumClass:
    """One wavelet eigenvalue class of the spectrum."""

    __slots__ = ("eigenvalue", "mu_B", "region", "depth", "num_balls", "multiplicity")

    def __init__(self, eigenvalue, mu_B, region, depth, num_balls, multiplicity):
        self.eigenvalue = eigenvalue
        self.mu_B = mu_B
        self.region = region
        self.depth = depth
        self.num_balls = num_balls
        self.multiplicity = multiplicity

    def __repr__(self):
        return (
            f"SpectrumClass(lambda={float(self.eigenvalue):.6g}, mu_B={self.mu_B},"
            f" region={sorted(self.region)}, mult={self.multiplicity})"
        )


class SpectrumSummary:
    """Wavelet classes plus the non-diagonalized indicator complement."""

    __slots__ = ("model_name", "s", "classes", "complement_dimension", "reduced_eigenvalues")

    def __init__(self, model_name, s, classes, complement_dimension, reduced_eigenvalues):
        self.model_name = model_name
        self.s = s
        self.classes = classes
        self.complement_dimension = complement_dimension
        self.reduced_eigenvalues = reduced_eigenvalues

    @property
    def lambda_min_wavelet(self):
        """Smallest wavelet eigenvalue, None for a level-1 model (no wavelets)."""
        return min((c.eigenvalue for c in self.classes), default=None)

    @property
    def total_dimension(self):
        return self.complement_dimension + sum(c.multiplicity for c in self.classes)

    def to_json_dict(self):
        from .models import _frac_str

        return {
            "model": self.model_name,
            "s": float(self.s),
            "classes": [
                {
                    "eigenvalue": float(c.eigenvalue),
                    "eigenvalue_exact": _frac_str(c.eigenvalue)
                    if isinstance(c.eigenvalue, (Fraction, int))
                    else None,
                    "mu_B": _frac_str(c.mu_B),
                    "region": sorted(c.region),
                    "depth": c.depth,
                    "num_balls": c.num_balls,
                    "multiplicity": c.multiplicity,
                }
                for c in self.classes
            ],
            "complement_dimension": self.complement_dimension,
            "reduced_block_eigenvalues": [float(v) for v in self.reduced_eigenvalues],
            "lambda_min_wavelet": None if not self.classes else float(self.lambda_min_wavelet),
            "total_dimension": self.total_dimension,
        }


def enumerate_spectrum(model, s, exact=None):
    """All wavelet classes with multiplicities, plus the complement block.

    Multiplicities and the complement dimension add up to the number of
    cells (asserted): per top, (c-1)(1 + c + ... + c^(m-2)) wavelets plus
    one indicator give c^(m-1) dimensions.
    """
    values = class_eigenvalues(model, s, exact=exact)
    c = model.branching
    classes = []
    for (depth, region), lam in sorted(
        values.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))
    ):
        num_balls = model._census[region] * c ** (depth - 1)
        classes.append(
            SpectrumClass(
                lam,
                Fraction(1, c**depth),
                region,
                depth,
                num_balls,
                (c - 1) * num_balls,
            )
        )
    summary = SpectrumSummary(
        model.name, s, classes, len(model.tops), reduced_block_eigenvalues(model, s)
    )
    if summary.total_dimension != model.num_cells:
        raise ModelError("spectrum dimensions do not add up to the cell count")
    return summary


# -- kernels ------------------------------------------------------------------


def _kernel_rows(model, profile, block, cells):
    """Rows at the cells (int array) of the kernel of f(L), expanded from its
    `_synthesis` form: c block[T(x), T(y)] between tops, plus the profile
    value P_T[d] at join depth d inside the top T of x."""
    c = model.branching
    per = model.cells_per_top
    tops = cells // per
    rows = np.repeat(block[tops] * float(c), per, axis=1)
    blocks = rows.reshape(len(cells), len(model.tops), per)  # a view of rows
    depth = _within_top_depth(model, cells % per)
    blocks[np.arange(len(cells)), tops] += profile[tops[:, None], depth]
    return rows


def _synthesis(model, s, fn, complement):
    """fn(L) in the one form every kernel reads: (profile, block).

    Between tops T and T' the kernel of fn(L) against mu is c block[T, T'],
    block = fn(L_red) on top means from the region quotient (complement=False:
    fn(0)/#tops, its constant mode alone).  Inside T it is c block[T, T] +
    profile[T, d] at join depth d = 1..m: character orthogonality collapses
    each ball's wavelet sum to mu(B)^(-1) (c [same child] - 1).  fn maps an
    array of eigenvalues to their images elementwise."""
    lams = class_eigenvalues(model, s, exact=False)
    weights = dict(zip(lams, fn(np.array(list(lams.values()), dtype=np.float64))))
    c = model.branching
    m = model.level
    profile = {}
    for region in model._census:
        W = np.zeros(m + 1)
        for delta in range(1, m):
            term = float(weights[(delta, region)]) * float(c) ** delta
            W[delta] -= term
            W[delta + 1 :] += term * (c - 1)
        profile[region] = W
    by_top = np.array([profile[top.region] for top in model.tops])
    if not complement:
        ntops = len(model.tops)
        return by_top, np.full((ntops, ntops), fn(np.zeros(1))[0] / ntops)
    return by_top, _reduced_function(model, s, fn)


def _check_time(t):
    """Refuse a negative or non-finite time."""
    if t < 0:
        raise ValueError("negative time")
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")


def _heat_parts(model, s, t, paper_constant_term=False, complement=True):
    """exp(-tL) in the `_synthesis` form (profile, block): the block is
    exp(-t L_red) (complement=False: the flat 1/#tops of its constant
    mode; paper_constant_term: the bare 1/c)."""
    _check_time(t)
    profile, block = _synthesis(
        model, s, lambda x: np.exp(-t * x), complement and not paper_constant_term
    )
    if paper_constant_term:
        block.fill(1.0 / model.branching)
    return profile, block


def _green_parts(model, s, complement=True):
    """The pseudo-inverse of L in the `_synthesis` form (profile, block):
    the block is the pseudo-inverse of L_red (zero with complement=False);
    warns for s <= 1."""
    if float(s) <= 1:
        warnings.warn(
            "Green function for s <= 1: finite-level values only, the"
            " deepening limit diverges",
            stacklevel=3,
        )
    return _synthesis(model, s, _pseudo_reciprocal, complement)


def _pseudo_reciprocal(x):
    """1/x, and 0 at an exact 0 (the constant mode of the quotient)."""
    return np.divide(1.0, x, out=np.zeros_like(x), where=x != 0)


def heat_kernel(model, s, t, paper_constant_term=False, complement=True):
    """Dense heat kernel K_t(x, y) of the semigroup exp(-tL), against mu.

    The wavelet part is the ancestor-chain character sum.  The top-ball
    block is, by default, the exact cross-fiber evolution exp(-t L_red)
    scaled to a kernel; its constant mode is the normalized 1/mu(X)
    term, so every row integrates to 1.  complement=False drops the
    block's mean-zero part and keeps the flat 1/mu(X) term alone
    (constant + wavelet synthesis: still unit mass, but no cross-fiber
    mixing).  paper_constant_term=True instead takes the bare constant 1
    of the un-normalized closed form, which has no complement term
    either; rows then integrate to mu(X), not 1.  Models above the
    dense-matrix cell limit raise ModelError.
    """
    _require_dense(model)
    weights, block = _heat_parts(model, s, t, paper_constant_term, complement)
    return _kernel_rows(model, weights, block, np.arange(model.num_cells))


def green_function(model, s, complement=True):
    """Dense Green kernel G(x, y): the kernel of the pseudo-inverse of L.

    G L = L G = I - P_0 with P_0 the projection onto constants (the
    default).  complement=False keeps the wavelet sum alone; cross-fiber
    values are then identically zero and the inversion holds only on the
    wavelet span.  For s <= 1 the finite-level values are fine but grow
    with the level (the continuum object diverges); a warning says so.
    Models above the dense-matrix cell limit raise ModelError.
    """
    _require_dense(model)
    weights, block = _green_parts(model, s, complement)
    return _kernel_rows(model, weights, block, np.arange(model.num_cells))


def _invert_fraction_matrix(M):
    n = len(M)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ModelError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def green_reduced_exact(model, s):
    """Exact rational pseudo-inverse of the reduced operator (integer s).

    Uses (Q + J)^(-1) - J/k^2 = Q^+, valid because Q is symmetric with
    kernel exactly the constants.  This is the cross-fiber block of the
    Green kernel up to the 1/mu(top) kernel scaling, and it depends only
    on the top-level structure, not on the subdivision level.
    """
    if not _is_integral(s):
        raise ValueError("exact inversion needs an integer exponent s")
    Q = reduced_operator(model, s, exact=True)
    k = Q.shape[0]
    M = [[Q[i, j] + 1 for j in range(k)] for i in range(k)]
    inv = _invert_fraction_matrix(M)
    shift = Fraction(1, k * k)
    return [[inv[i][j] - shift for j in range(k)] for i in range(k)]


def semigroup_apply(model, s, t, values, complement=True):
    """exp(-tL) applied to a vector of cell values by spectral synthesis.

    The heat kernel's `_synthesis` form, telescoped: out = block (top
    means) + sum_d (P_T[d] - P_T[d-1]) / c^d (depth-d ball means, depth 1
    the top), each mean from the next finer one.  Matches the dense matrix
    exponential to rounding.  complement=False projects onto constants +
    wavelets instead: the cross-fiber part of the input (top means minus
    the global mean) is dropped, not evolved.
    """
    v = np.asarray(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64)
    n = model.num_cells
    if v.shape != (n,):
        raise ValueError(f"expected {n} cell values, got shape {v.shape}")
    c = model.branching
    m = model.level
    ntops = len(model.tops)
    profile, block = _heat_parts(model, s, t, complement=complement)
    g = np.diff(profile, axis=1) / float(c) ** np.arange(1, m + 1)
    means = v.reshape(ntops, -1)
    out = means * g[:, -1:]
    for depth in range(m - 1, 0, -1):
        means = means.reshape(ntops, -1, c).mean(axis=2)
        balls = out.reshape(ntops, means.shape[1], -1)  # a view of out
        balls += (g[:, depth - 1, None] * means)[:, :, None]
    out += (block @ means[:, 0])[:, None]
    return out.ravel()


class SimulationResult:
    """Outcome of jump-process sampling: final-state law and jump stats."""

    __slots__ = (
        "model_name",
        "s",
        "t_max",
        "seed",
        "num_paths",
        "final_cells",
        "empirical_law",
        "jump_counts",
        "first_holding",
        "mean_holding",
        "trajectories",
    )

    def __init__(self, model_name, s, t_max, seed, final_cells, empirical_law,
                 jump_counts, first_holding, mean_holding, trajectories):
        self.model_name = model_name
        self.s = s
        self.t_max = t_max
        self.seed = seed
        self.num_paths = len(final_cells)
        self.final_cells = final_cells
        self.empirical_law = empirical_law
        self.jump_counts = jump_counts
        self.first_holding = first_holding
        self.mean_holding = mean_holding
        self.trajectories = trajectories

    def to_json_dict(self):
        return {
            "model": self.model_name,
            "s": float(self.s),
            "t_max": self.t_max,
            "seed": self.seed,
            "num_paths": self.num_paths,
            "jumps": {
                "mean": float(np.mean(self.jump_counts)),
                "min": int(np.min(self.jump_counts)),
                "max": int(np.max(self.jump_counts)),
            },
            "first_holding_mean": float(np.mean(self.first_holding)),
            "mean_holding": self.mean_holding,
            "empirical_law": [float(x) for x in self.empirical_law],
            "trajectories": self.trajectories,
        }


def sample_paths(model, s, t_max, n_paths, seed, start=None, max_store=10,
                 _rate_cap_steps=2_000_000):
    """Sample the jump process with generator -L on the cells.

    From cell x the process waits Exp(rate(x)) with rate(x) the diagonal
    of L, then jumps to y with probability proportional to d(x,y)^(-s)
    mu(y).  That law is isotropic on the ball tree: each jump draws an
    annulus by its total rate from a per-top table (the shell at join
    depth j inside x's top, rate (1 - 1/c) c^(j(s-1)), or another top T',
    rate -Q[T, T'] of the reduced operator), then a uniform cell in it,
    for all paths at once, with no cells x cells array and no cell limit.
    Paths start from `start` (a cell) or, by default, from the uniform
    law, which is stationary.  Fully deterministic given the seed.  The
    first few trajectories are kept as (time, cell) lists; the untruncated
    first holding time of every path is kept for rate checks against the
    generator diagonal.
    """
    if seed is None:
        raise ValueError("a seed is required; sampling must be reproducible")
    if n_paths < 1:
        raise ValueError(f"need at least one path, got {n_paths}")
    _check_time(t_max)
    c = model.branching
    m = model.level
    per = model.cells_per_top
    ntops = len(model.tops)
    # jump rates per top: the m - 1 shells inside it, then every top (itself 0)
    shells = [_shell_rate(j, c, s, False) for j in range(1, m)]
    table = np.hstack([np.tile(shells, (ntops, 1)), -reduced_operator(model, s)])
    np.fill_diagonal(table[:, m - 1 :], 0.0)
    cum = np.cumsum(table, axis=1)
    rates = cum[:, -1]
    width = table.shape[1]
    # the per-top rows laid end to end, row i shifted into [i, i + 1]
    flat = (cum / rates[:, None] + np.arange(ntops)[:, None]).ravel()
    last = width - 1 - np.argmax(table[:, ::-1] > 0, axis=1)
    child_width = np.array([c ** (m - 1 - j) for j in range(1, m)] + [per] * ntops)
    sizes = np.array([(c - 1) * c ** (m - 1 - j) for j in range(1, m)] + [per] * ntops)
    n = model.num_cells
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if start is None:
        states = rng.integers(0, n, size=n_paths)
    else:
        if not 0 <= start < n:
            raise ValueError(f"start cell {start} out of range")
        states = np.full(n_paths, start, dtype=np.int64)
    clocks = np.zeros(n_paths)
    jumps = np.zeros(n_paths, dtype=np.int64)
    first_holding = None
    store = min(max_store, n_paths)
    # (paths, clocks, cells) of the stored paths' jumps, one entry per round
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
            # u + top can round up to top + 1: clamp to the row's last nonzero rate
            hit = np.searchsorted(flat, rng.random(movers.size) + top, side="right")
            hit = np.minimum(hit - top * width, last[top])
            r = rng.integers(0, sizes[hit])
            # shell: another child of x's depth-j ball; else: a cell of top T'
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
    order = np.argsort(paths, kind="stable")  # rounds stay in time order
    steps = list(zip(times[order].tolist(), visited[order].tolist()))
    ends = np.cumsum(np.bincount(paths, minlength=store)).tolist()
    trajectories = [steps[a:b] for a, b in zip([0] + ends, ends)]
    law = np.bincount(states, minlength=n).astype(np.float64) / n_paths
    mean_holding = float(n_paths * t_max / (jumps.sum() + n_paths))
    return SimulationResult(
        model.name, s, t_max, seed, states, law, jumps, first_holding,
        mean_holding, trajectories
    )
