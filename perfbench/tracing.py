"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public entry points of each module and puts the
wrapper at every module attribute and class attribute that holds the
original, so a call made through any imported name (``cli`` calling its
imported ``count_points_bruteforce``, ``serre_invariant`` calling the
``elliptic`` global) is recorded with its parent span.  `uninstall` puts the
originals back.  Spans are kept in memory as (name, start, end, parent, op)
and written out once the run ends.

``fields`` and ``padics`` work per element; wrapping them would swamp the
trace, so they appear as computed ``field_ops`` counts and in the self time
of their ``elliptic`` and ``equalising`` callers.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from padic_spectra import elliptic, spectral

SAMPLER_CAP = inspect.signature(spectral.sample_paths).parameters[
    "_rate_cap_steps"
].default


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _quadrature_terms(model):
    """Terms summed by the per-cell class quadrature: every cell outside the
    representative ball, for each (depth, region) class."""
    regions = len({t.region for t in model.tops})
    c, m, n = model.branching, model.level, model.num_cells
    return regions * sum(n - c ** (m - depth) for depth in range(1, m))


def _count_cli(args, kwargs, result, error):
    return {"nonzero_exits": int(error is not None or result != 0)}


def _count_field_ops_q(args, kwargs, result, error):
    return {"field_ops": args[0].q}


def _count_model_build(args, kwargs, result, error):
    return {"field_ops": args[0].q ** 2}


def _count_hear(args, kwargs, result, error):
    lo, hi = elliptic.hasse_window(_arg(args, kwargs, 1, "q"))
    return {"window": hi - lo + 1, "errors": int(error is not None)}


def _count_class_eigenvalues(args, kwargs, result, error):
    return {"cells": args[0].num_cells, "geodesic_queries": _quadrature_terms(args[0])}


def _count_reduced_operator(args, kwargs, result, error):
    return {"tops": len(args[0].tops)}


def _count_dense_bytes(args, kwargs, result, error):
    """Bytes of one dense float64 cells x cells array."""
    return {"bytes": args[0].num_cells**2 * 8}


def _count_semigroup(args, kwargs, result, error):
    return {"cells": args[0].num_cells}


def _count_sampler(args, kwargs, result, error):
    if error is not None:
        return {"errors": 1}
    jumps = int(result.jump_counts.sum())
    return {"jumps": jumps, "cap_margin": jumps / SAMPLER_CAP}


def _count_composite(args, kwargs, result, error):
    return {"samples": _arg(args, kwargs, 3, "samples", 100)}


# (layer name, module, attribute path, counter, extra metric names)
LAYERS = (
    ("cli.main", "padic_spectra.cli", "main", _count_cli, ("nonzero_exits",)),
    ("elliptic.count_points_bruteforce", "padic_spectra.elliptic", "count_points_bruteforce",
     _count_field_ops_q, ("field_ops",)),
    ("elliptic.serre_invariant", "padic_spectra.elliptic", "serre_invariant", None, ()),
    ("elliptic.branch_points_rational", "padic_spectra.elliptic", "branch_points_rational",
     _count_field_ops_q, ("field_ops",)),
    ("elliptic.build_elliptic_model", "padic_spectra.elliptic", "build_elliptic_model",
     _count_model_build, ("field_ops",)),
    ("elliptic.hear_points", "padic_spectra.elliptic", "hear_points", _count_hear,
     ("window", "errors")),
    ("models.build_projective_model", "padic_spectra.models", "build_projective_model", None, ()),
    ("models.build_Y_model", "padic_spectra.models", "build_Y_model", None, ()),
    ("models.CellModel.distance_matrix", "padic_spectra.models", "CellModel.distance_matrix",
     _count_dense_bytes, ("bytes",)),
    ("spectral.enumerate_spectrum", "padic_spectra.spectral", "enumerate_spectrum", None, ()),
    ("spectral.class_eigenvalues", "padic_spectra.spectral", "class_eigenvalues",
     _count_class_eigenvalues, ("cells",)),
    ("spectral.reduced_block_eigenvalues", "padic_spectra.spectral", "reduced_block_eigenvalues",
     None, ()),
    ("spectral.reduced_operator", "padic_spectra.spectral", "reduced_operator",
     _count_reduced_operator, ("tops",)),
    ("spectral.semigroup_apply", "padic_spectra.spectral", "semigroup_apply",
     _count_semigroup, ("cells",)),
    ("spectral.heat_kernel", "padic_spectra.spectral", "heat_kernel", _count_dense_bytes,
     ("bytes",)),
    ("spectral.green_function", "padic_spectra.spectral", "green_function", _count_dense_bytes,
     ("bytes",)),
    ("spectral.sample_paths", "padic_spectra.spectral", "sample_paths", _count_sampler,
     ("jumps", "s_per_jump", "cap_margin", "errors")),
    ("equalising.equalise_pair", "padic_spectra.equalising", "equalise_pair", None, ()),
    ("equalising.check_composite_identity", "padic_spectra.equalising",
     "check_composite_identity", _count_composite, ("samples",)),
    ("equalising.ball_image_is_equal_radius", "padic_spectra.equalising",
     "ball_image_is_equal_radius", None, ()),
    ("equalising.equalising_number_of_map", "padic_spectra.equalising",
     "equalising_number_of_map", None, ()),
    ("polymaps.polymap_from_json_dict", "padic_spectra.polymaps", "polymap_from_json_dict",
     None, ()),
    ("polymaps.polymap_to_json_dict", "padic_spectra.polymaps", "polymap_to_json_dict",
     None, ()),
)

# Counts that aggregate as a maximum rather than a sum.
MAX_COUNTS = {"cap_margin"}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {"op.s": "s", "op.self_s": "s"}
    for name, _, _, _, extras in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        for extra in extras:
            units[f"{name}.{extra}"] = {
                "s_per_jump": "s", "cap_margin": "1", "bytes": "B"
            }.get(extra, "count")
    units["models.geodesic_distance.queries"] = "count"
    units["probe.readme_level3_simulate.cap_hits"] = "count"
    units["trace.overhead_ratio"] = "1"
    return units


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "child_s")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts = {}
        self.child_s = 0.0


class Tracer:
    """Collects spans while `op` is set; wrappers pass through otherwise."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self._saved = []

    # -- recording -------------------------------------------------------------

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self.stack.append(index)
        return index

    def _exit(self, index):
        span = self.spans[index]
        span.end = time.perf_counter()
        self.stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def run_op(self, op_id, kind, fn):
        """Run fn() as the root span of one op."""
        self.op = op_id
        index = self._enter(f"op:{kind}")
        try:
            return fn()
        finally:
            self._exit(index)
            self.op = None

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = tracer._enter(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._exit(index)
                if counter is not None:
                    tracer.spans[index].counts = counter(args, kwargs, result, error)

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "padic_spectra" or n.startswith("padic_spectra.")]
        for name, module_name, attr, counter, _ in LAYERS:
            owner = sys.modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(name, original, counter)
            holders = [(owner, leaf)]
            if not path:
                holders += [
                    (m, key) for m in modules for key, value in vars(m).items()
                    if value is original and m is not owner
                ]
            for holder, key in holders:
                self._saved.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved = []

    # -- reporting -------------------------------------------------------------

    def layer_metrics(self, op_ids):
        """Per-op averages over the spans of the given ops (the traced ops)."""
        ops = max(1, len(op_ids))
        wanted = set(op_ids)
        totals = {name: 0.0 for name in metric_units()}
        maxima = {}
        for span in self.spans:
            if span.op not in wanted:
                continue
            duration = span.end - span.start
            name = "op" if span.name.startswith("op:") else span.name
            if name != "op":
                totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += duration
            totals[f"{name}.self_s"] += duration - span.child_s
            for key, value in span.counts.items():
                if key == "geodesic_queries":
                    totals["models.geodesic_distance.queries"] += value
                elif key in MAX_COUNTS:
                    maxima[f"{name}.{key}"] = max(maxima.get(f"{name}.{key}", 0.0), value)
                else:
                    totals[f"{name}.{key}"] += value
        jumps = totals["spectral.sample_paths.jumps"]
        per_jump = totals["spectral.sample_paths.s"] / jumps if jumps else 0.0
        out = {}
        for name in metric_units():
            if name.rsplit(".", 1)[1] in MAX_COUNTS:
                out[name] = maxima.get(name, 0.0)
            elif name == "spectral.sample_paths.s_per_jump":
                out[name] = per_jump
            else:
                out[name] = totals[name] / ops
        return out

    def dump(self, path):
        rows = [
            [s.name, s.start, s.end, s.parent, s.op, s.counts] for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                       "spans": rows}, fh)
