"""Seeded workloads: input generators, operations and their oracle checks.

A workload is an endless sequence of rounds.  Round r holds the same
operation kinds at the same sizes in every run; only the inputs drawn from
(seed, r) change.  The closed loop runs whole rounds, so a run's op mix does
not depend on the seed, and its timings do not depend on seed luck.

Every operation calls the program through the module attribute at call time
(``padic_spectra.cli.main``, ``spectral.semigroup_apply`` ...), so the traced
run's wrappers see it.  ``Op.run`` is the timed part and must only call the
program; reading the output back and the oracle check happen in ``Op.check``,
outside the timed span.
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

import padic_spectra.cli as cli
from padic_spectra import elliptic, equalising, models, polymaps, spectral
from padic_spectra.elliptic import CurveSpec
from padic_spectra.polymaps import PolynomialMap

import oracles

# Sizes.  The smoke sizes only prove that every op and oracle path runs.
SIZES = {
    "full": {
        # hear at m = 2 costs O(q^2), count costs O(q) three times over; the
        # bands are set so that every op costs about the same (0.5-0.8 s on
        # a 2-core shared host), which keeps the tail inside one cluster.
        "hear_primes": (127, 139, 149, 157),
        "count_primes": (15013, 17509, 20011),
        # deep models: (kind, n or curve, p, level).  Their ops cost from
        # 0.1 s (E13) to 1.5 s (Y2(5)); P1(5) m5 runs twice per round so that
        # the median op lies inside the P1(5) cluster, not between two models.
        "deep_models": (
            ("elliptic", (-1, 0), 13, 3),
            ("projective", 1, 5, 5),
            ("projective", 1, 7, 4),
            ("projective", 1, 5, 5),
            ("Y", 2, 5, 3),
        ),
        # dense-size models with a sampling horizon of about two jumps per
        # path (rates: E13 m2 15, P1(5) m4 125, P2(5) m2 25, E13 m3 171),
        # tuned so that the four simulate ops cost about the same
        "dense_models": (
            (("elliptic", (-1, 0), 13, 2), 0.15),
            (("projective", 1, 5, 4), 0.024),
            (("projective", 2, 5, 2), 0.075),
            (("elliptic", (-1, 0), 13, 3), 0.011),
        ),
        "paths": 100_000,
        # one more heat and green row per round on this model, so that the
        # median op lies inside its cluster, not between two models
        "extra_rows": (("projective", 2, 5, 2), 0.075),
        # dimension 3 dominates the cost; three of them put the median op
        # inside their cluster
        "map_dimensions": (1, 2, 3, 3, 3),
        "atlas": (5, 2, 3),
    },
    "smoke": {
        "hear_primes": (13,),
        "count_primes": (101,),
        "deep_models": (("elliptic", (-1, 0), 13, 3), ("projective", 1, 5, 3), ("Y", 2, 5, 2)),
        "dense_models": ((("elliptic", (-1, 0), 13, 2), 0.05),),
        "paths": 100_000,
        "extra_rows": (("elliptic", (-1, 0), 13, 2), 0.05),
        "map_dimensions": (1, 2),
        "atlas": (5, 1, 3),
    },
}

# The README's level-3 sampling run (E13 m3, 10^5 paths, t = 0.5).  It
# raises at the sampler's jump cap today, so it is not a timed op: the
# traced diffusion run attempts it once and reports the cap hit.
README_LEVEL3_SIMULATE = (("elliptic", (-1, 0), 13, 3), 0.5, 100_000)

PROBES_PER_MAP = 5
MAP_PRECISION = 8
MAP_PRIME = 5
QUADRATIC_TERMS = 1


class Op:
    """One timed operation: `run` calls the program, `check` verifies it."""

    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _round_rng(name, seed, r):
    return random.Random(f"{name}:{seed}:{r}")


def _model_argv(spec):
    kind, shape, p, level = spec
    argv = ["--model", kind, "--p", str(p), "--level", str(level)]
    if kind == "elliptic":
        argv += ["--a4", str(shape[0]), "--a6", str(shape[1])]
    else:
        argv += ["--n", str(shape)]
    return argv


def build_model(spec):
    """Build a model through the library's public builders."""
    kind, shape, p, level = spec
    if kind == "elliptic":
        return elliptic.build_elliptic_model(CurveSpec(p, *shape), level)
    builder = models.build_projective_model if kind == "projective" else models.build_Y_model
    return builder(p, shape, level)[0]


def _spec_label(spec):
    kind, shape, p, level = spec
    head = {"elliptic": "E", "projective": f"P{shape}", "Y": f"Y{shape}"}[kind]
    return f"{head}({p})m{level}"


class Workload:
    """Base class: shared temp-dir CLI plumbing and oracle caches."""

    name = None

    def __init__(self, seed, size, tmpdir):
        self.seed = seed
        self.sizes = SIZES[size]
        self.tmpdir = tmpdir
        self._models = {}
        self._spectrum_oracles = {}

    def model(self, spec):
        """A model kept by the benchmark for input sizes and checks."""
        if spec not in self._models:
            self._models[spec] = build_model(spec)
        return self._models[spec]

    def spectrum_oracle(self, spec):
        if spec not in self._spectrum_oracles:
            self._spectrum_oracles[spec] = oracles.SpectrumOracle(spec)
        return self._spectrum_oracles[spec]

    def _path(self, tag):
        return os.path.join(self.tmpdir, f"{tag}.json")

    def cli_op(self, kind, argv, check):
        """An op that runs one CLI subcommand with --output and checks the file."""
        out = self._path(kind.replace(":", "_"))

        def run():
            return cli.main(argv + ["--output", out])

        def verify(code):
            if code != 0:
                return f"exit code {code}"
            with open(out) as fh:
                payload = json.load(fh)
            return check(payload)

        return Op(kind, run, verify)

    def round(self, r):
        raise NotImplementedError


class Curves(Workload):
    """Hearing at m = 2 and point counting on seeded split cubics."""

    name = "curves"

    def _curve(self, rng, q):
        """A split cubic whose point count lies within sqrt(q)/2 + 2 of q + 1,
        so that the model built by `hear` has about q tops for every seed.
        (Full 2-torsion makes N a multiple of 4, hence the + 2.)"""
        band = math.isqrt(q) // 2 + 2
        while True:
            r1, r2 = rng.randrange(q), rng.randrange(q)
            r3 = (-r1 - r2) % q
            if len({r1, r2, r3}) < 3:
                continue
            a4, a6 = oracles.split_cubic(q, r1, r2)
            if abs(oracles.euler_point_count(q, a4, a6) - (q + 1)) <= band:
                return a4, a6

    def round(self, r):
        rng = _round_rng(self.name, self.seed, r)
        hear = [self._hear_op(rng, q) for q in self.sizes["hear_primes"]]
        count = [self._count_op(rng, q) for q in self.sizes["count_primes"]]
        # alternate the two kinds: hear, count, hear, ...
        ops = [op for pair in zip(hear, count) for op in pair]
        return ops + hear[len(count):] + count[len(hear):]

    def _hear_op(self, rng, q):
        a4, a6 = self._curve(rng, q)
        return self.cli_op(
            f"hear:q={q}",
            ["hear", "--p", str(q), "--a4", str(a4), "--a6", str(a6), "--s", "2"],
            lambda payload: oracles.check_hear(payload, q, a4, a6),
        )

    def _count_op(self, rng, q):
        a4, a6 = self._curve(rng, q)
        return self.cli_op(
            f"count:q={q}",
            ["count", "--p", str(q), "--a4", str(a4), "--a6", str(a6)],
            lambda payload: oracles.check_count(payload, q, a4, a6),
        )


class DeepSpectrum(Workload):
    """Spectrum, nerve and semigroup on few-top, deep models."""

    name = "deep-spectrum"

    def _expected_nerve(self, spec):
        kind, shape, p, _ = spec
        if kind == "elliptic":
            N = oracles.euler_point_count(p, *shape)
            return oracles.expected_nerve_weights(kind, p, 1, N)
        return oracles.expected_nerve_weights(kind, p, shape)

    def _semigroup_input(self, oracle, rng):
        """A constant plus two seeded wavelets, each with its top, depth,
        children and amplitude: the semigroup's output is known in closed
        form."""
        wavelets = []
        for _ in range(2):
            depth = rng.randrange(1, oracle.level)
            top = rng.randrange(oracle.ntops)
            prefix = tuple(rng.randrange(oracle.c) for _ in range(depth - 1))
            plus, minus = rng.sample(range(oracle.c), 2)
            wavelets.append((top, depth, oracle.wavelet(top, prefix, plus, minus),
                             rng.uniform(0.25, 1.0)))
        constant = rng.uniform(2.0, 3.0)
        values = constant + sum(a * psi for _, _, psi, a in wavelets)
        return constant, wavelets, values

    def _op(self, spec, s, exact, rng):
        label = f"{_spec_label(spec)}:s={s}"
        model_argv = _model_argv(spec)
        spectrum_out = self._path("spectrum")
        nerve_out = self._path("nerve")
        t = rng.uniform(0.05, 1.0)
        oracle = self.spectrum_oracle(spec)
        constant, wavelets, values = self._semigroup_input(oracle, rng)
        result = {}

        def run():
            spectrum_argv = ["spectrum", *model_argv, "--s", str(s), "--output", spectrum_out]
            codes = [cli.main(spectrum_argv + (["--exact"] if exact else []))]
            codes.append(cli.main(["nerve", *model_argv, "--output", nerve_out]))
            model = build_model(spec)
            result["semigroup"] = spectral.semigroup_apply(model, s, t, values)
            return codes

        def verify(codes):
            if codes != [0, 0]:
                return f"exit codes {codes}"
            with open(spectrum_out) as fh:
                why = oracle.check_spectrum(json.load(fh), s)
            if why is None:
                with open(nerve_out) as fh:
                    why = oracles.check_nerve(json.load(fh), self._expected_nerve(spec))
            if why is None:
                # the model's top order only says which region each top has
                tops = self.model(spec).tops
                expected = constant + sum(
                    a * math.exp(-t * float(oracle.eigenvalue(depth, sorted(tops[top].region), s)))
                    * psi
                    for top, depth, psi, a in wavelets
                )
                why = oracles.check_semigroup(result["semigroup"], expected)
            return why

        return Op(label, run, verify)

    def round(self, r):
        rng = _round_rng(self.name, self.seed, r)
        ops = []
        for spec in self.sizes["deep_models"]:
            ops.append(self._op(spec, 2, True, rng))
            ops.append(self._op(spec, 1.5, False, rng))
        return ops


class Diffusion(Workload):
    """Heat and Green rows and path sampling on dense-size models."""

    name = "diffusion"

    def round(self, r):
        rng = _round_rng(self.name, self.seed, r)
        ops = []
        for spec, t in self.sizes["dense_models"]:
            ops += self._model_ops(rng, spec, t)
        heat, green, _ = self._model_ops(rng, *self.sizes["extra_rows"])
        ops += [heat, green]
        return ops

    def _model_ops(self, rng, spec, t):
        """heat, green and simulate from one seeded start cell; the sampled
        law is checked against the heat row of the same round."""
        model = self.model(spec)
        mu = float(model.cell_measure)
        cells_per_ball = model.branching ** (model.level - 2)
        paths = self.sizes["paths"]
        x0 = rng.randrange(model.num_cells)
        sampler_seed = rng.randrange(2**31)
        label = _spec_label(spec)
        argv = _model_argv(spec)
        heat_law = {}

        def check_heat(payload):
            heat_law["row"] = np.asarray(payload["row"]) * mu
            return oracles.check_heat(payload, mu)

        return [
            self.cli_op(f"heat:{label}", ["heat", *argv, "--t", repr(t), "--x", str(x0)],
                        check_heat),
            self.cli_op(f"green:{label}", ["green", *argv, "--x", str(x0)],
                        lambda payload: oracles.check_green(payload, mu)),
            self.cli_op(
                f"simulate:{label}",
                ["simulate", *argv, "--t", repr(t), "--paths", str(paths),
                 "--seed", str(sampler_seed), "--start", str(x0)],
                lambda payload: oracles.check_simulate(
                    payload, heat_law.get("row"), cells_per_ball, paths),
            ),
        ]

    def readme_level3_cap_hit(self):
        """Attempt the README's level-3 sampling run once; True when it
        raises at the sampler's jump cap."""
        spec, t, paths = README_LEVEL3_SIMULATE
        argv = ["simulate", *_model_argv(spec), "--t", repr(t), "--paths", str(paths),
                "--seed", "11", "--start", "0", "--output", self._path("readme_l3")]
        try:
            cli.main(argv)
        except RuntimeError:
            return True
        return False


def far_from_identity_map(rng, n, p=MAP_PRIME, precision=MAP_PRECISION):
    """A seeded bi-analytic map with ||A - I|| >= 1, by the repair test's recipe
    (invertible linear part far from I, small quadratic terms), except that
    each component gets exactly QUADRATIC_TERMS terms, so that maps of one
    dimension cost the same to probe for every seed."""
    while True:
        A = [[rng.randrange(p**4) for _ in range(n)] for _ in range(n)]
        if _int_det(A) % p == 0:
            continue
        if all((A[i][j] - (i == j)) % p == 0 for i in range(n) for j in range(n)):
            continue
        break
    comps = []
    for i in range(n):
        coeffs = {}
        for j in range(n):
            e = [0] * n
            e[j] = 1
            coeffs[tuple(e)] = A[i][j]
        for _ in range(QUADRATIC_TERMS):
            e = [0] * n
            e[rng.randrange(n)] += 1
            e[rng.randrange(n)] += 1
            coeffs[tuple(e)] = coeffs.get(tuple(e), 0) + p**2 * rng.randrange(p**2)
        comps.append(coeffs)
    return PolynomialMap(p, comps, ("disc",) * n, precision)


def _int_det(A):
    if len(A) == 1:
        return A[0][0]
    return sum(
        (-1) ** j * A[0][j] * _int_det([row[:j] + row[j + 1:] for row in A[1:]])
        for j in range(len(A))
    )


class Equalise(Workload):
    """Equalising repair of seeded maps, ball-image probes, atlas numbers."""

    name = "equalise"

    def _map_op(self, rng, n, index):
        F = far_from_identity_map(rng, n)
        doc = self._path(f"map{index}")
        with open(doc, "w") as fh:
            json.dump(polymaps.polymap_to_json_dict(F), fh)
        out = self._path(f"equalised{index}")
        sample_seed = rng.randrange(2**31)
        centers = []
        for b in range(PROBES_PER_MAP):
            level = 1 + b % 2
            centers.append((tuple(rng.randrange(MAP_PRIME**level) for _ in range(n)), level))
        result = {}

        def run():
            code = cli.main(["equalise", "--map", doc, "--seed", str(sample_seed), "--output", out])
            with open(out) as fh:
                H = polymaps.polymap_from_json_dict(json.load(fh)["equalised_map"])
            result["H"] = H
            result["probes"] = [
                equalising.ball_image_is_equal_radius(H, c, level) for c, level in centers
            ]
            return code

        def verify(code):
            if code != 0:
                return f"exit code {code}"
            with open(out) as fh:
                payload = json.load(fh)
            return oracles.check_equalise(payload, result["probes"], result["H"])

        return Op(f"equalise:dim={n}", run, verify)

    def _atlas_op(self):
        p, n, level = self.sizes["atlas"]

        def run():
            _, atlas, _ = models.build_projective_model(p, n, level)
            return atlas.equalising_number((0, 3))

        def verify(value):
            return None if value == 1 else f"e(A) = {value!r}, expected 1"

        return Op(f"atlas:P{n}({p})", run, verify)

    def round(self, r):
        rng = _round_rng(self.name, self.seed, r)
        ops = [
            self._map_op(rng, n, i) for i, n in enumerate(self.sizes["map_dimensions"])
        ]
        ops.append(self._atlas_op())
        return ops


WORKLOADS = {w.name: w for w in (Curves, DeepSpectrum, Diffusion, Equalise)}

