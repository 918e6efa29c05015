"""Command line front end.

Commands build a model, run one library operation, and emit JSON (or CSV
for tabular data) with the run configuration echoed under "config", so
every output is reproducible from its own header.  Exit codes: 0 success,
2 precondition violation, 3 hearing mismatch or failed inversion, 4
paper-formula discrepancy under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import __version__
from .elliptic import (
    CurveSpec,
    HearingError,
    branch_points_rational,
    build_elliptic_model,
    count_points_bruteforce,
    hasse_window,
    hear_points,
    serre_invariant,
)
from .equalising import check_composite_identity, equalise_pair
from .models import ModelError, _frac_str, build_projective_model, build_Y_model
from .padics import PAdicError
from .polymaps import polymap_from_json_dict, polymap_to_json_dict
from . import spectral

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_HEARING_MISMATCH = 3
EXIT_STRICT_DISCREPANCY = 4


def _parse_exponent(text):
    """s as int when integral (enables exact arithmetic), float otherwise;
    nan and inf are refused."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"exponent must be finite, got {text}")
    return value


def _parse_coefficient(text):
    """An integer, or a comma-separated coordinate vector for f > 1."""
    if "," in text:
        return [int(part) for part in text.split(",")]
    return int(text)


def _config_echo(args):
    skip = {"func", "output"}
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        out[key] = value if isinstance(value, (int, float, str, bool)) else str(value)
    return out


def _curve_from_args(args):
    if args.a4 is None or args.a6 is None:
        raise ValueError("--a4 and --a6 are required for curve commands")
    return CurveSpec(args.p, _parse_coefficient(args.a4), _parse_coefficient(args.a6), f=args.f)


def _build_model(args):
    if args.model in ("projective", "Y") and args.n is None:
        raise ValueError(f"--n is required for --model {args.model}")
    if args.model == "projective":
        model, atlas, _ = build_projective_model(args.p, args.n, args.level, f=args.f)
        return model, atlas
    if args.model == "Y":
        model, atlas, _ = build_Y_model(args.p, args.n, args.level, f=args.f)
        return model, atlas
    return build_elliptic_model(_curve_from_args(args), args.level), None


def _emit(args, payload, table=None):
    if args.format == "csv":
        if table is None:
            raise ValueError("csv output is only available for tabular commands")
        header, rows = table
        lines = [",".join(header)]
        lines += [",".join(str(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands ------------------------------------------------------------------


def cmd_nerve(args):
    model, _ = _build_model(args)
    payload = {
        "config": _config_echo(args),
        "model": model.name,
        "total_measure": _frac_str(model.total_measure),
        "connected": model.nerve.is_connected(),
        "simplices": model.nerve.to_json_entries(),
    }
    table = (
        ["charts", "weight"],
        [(";".join(str(c) for c in e["charts"]), e["weight"]) for e in payload["simplices"]],
    )
    _emit(args, payload, table)
    return EXIT_OK


def cmd_spectrum(args):
    model, _ = _build_model(args)
    summary = spectral.enumerate_spectrum(model, args.s, exact=True if args.exact else None)
    payload = summary.to_json_dict()
    payload["config"] = _config_echo(args)
    rows = [
        (c.depth, ";".join(str(r) for r in sorted(c.region)), _frac_str(c.mu_B),
         float(c.eigenvalue), c.multiplicity)
        for c in summary.classes
    ]
    _emit(args, payload, (["depth", "region", "mu_B", "eigenvalue", "multiplicity"], rows))
    return EXIT_OK


def _kernel_payload(args, model, profile, block):
    """Kernel summary payload from the spectral (profile, block) form of
    f(L), plus the --x row: entries are c B[T, T'] between tops and
    c B[T, T] + P_T[d] inside a top, so the extremes need no row, and the
    asymmetry is that of c B."""
    if args.x is not None and not 0 <= args.x < model.num_cells:
        raise ValueError(f"--x {args.x} out of range for {model.num_cells} cells")
    cB = block * float(model.branching)
    inner = np.diag(cB)[:, None] + profile[:, 1:]
    entries = np.concatenate([cB[~np.eye(len(cB), dtype=bool)], inner.ravel()])
    payload = {
        "config": _config_echo(args),
        "model": model.name,
        "s": float(args.s),
        "wavelet_only": bool(args.wavelet_only),
        "min_entry": float(entries.min()),
        "max_entry": float(entries.max()),
        "max_asymmetry": float(np.abs(cB - cB.T).max()),
    }
    if args.x is not None:
        row = spectral._kernel_rows(model, profile, block, np.array([args.x]))[0]
        payload["row"] = [float(v) for v in row]
    return payload


def cmd_heat(args):
    model, _ = _build_model(args)
    profile, block = spectral._heat_parts(
        model, args.s, args.t, args.paper_constant_term, not args.wavelet_only
    )
    payload = _kernel_payload(args, model, profile, block)
    c = model.branching
    m = model.level
    # against mu = c^-m the c^(m-1) cells of a top weigh 1/c, and a cell has
    # (c - 1) c^(m-1-d) cells of its top at join depth d < m, one at d = m
    counts = [(c - 1) * c ** (m - 1 - d) for d in range(1, m)] + [1]
    mass = block.sum(axis=1) + profile[:, 1:] @ counts / c**m
    payload["t"] = args.t
    payload["paper_constant_term"] = bool(args.paper_constant_term)
    payload["mass_max_deviation"] = float(np.abs(mass - 1.0).max())
    payload["trace_times_mu"] = float(np.trace(block) + profile[:, m].sum() / c)
    _emit(args, payload)
    return EXIT_OK


def cmd_green(args):
    model, _ = _build_model(args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parts = spectral._green_parts(model, args.s, not args.wavelet_only)
    payload = _kernel_payload(args, model, *parts)
    payload["warnings"] = [str(w.message) for w in caught]
    _emit(args, payload)
    return EXIT_OK


def cmd_simulate(args):
    model, _ = _build_model(args)
    result = spectral.sample_paths(
        model, args.s, args.t, args.paths, seed=args.seed, start=args.start
    )
    payload = result.to_json_dict()
    payload["config"] = _config_echo(args)
    rows = [(i, float(v)) for i, v in enumerate(result.empirical_law)]
    _emit(args, payload, (["cell", "probability"], rows))
    return EXIT_OK


def cmd_count(args):
    curve = _curve_from_args(args)
    N = count_points_bruteforce(curve)
    lo, hi = hasse_window(curve.q)
    payload = {
        "config": _config_echo(args),
        "q": curve.q,
        "N": N,
        "serre_invariant": serre_invariant(curve),
        "branch_points_rational": branch_points_rational(curve),
        "hasse_window": [lo, hi],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_hear(args):
    curve = _curve_from_args(args)
    model = build_elliptic_model(curve, args.level)
    lam0 = min(spectral.class_eigenvalues(model, args.s).values())
    N_true = count_points_bruteforce(curve)
    payload = {
        "config": _config_echo(args),
        "s": float(args.s),
        "lambda0": float(lam0),
        "N_bruteforce": N_true,
        "hasse_window": list(hasse_window(curve.q)),
    }
    try:
        result = hear_points(lam0, curve.q, args.s, tolerance=args.tolerance)
    except HearingError as err:
        payload.update(
            {
                "N_recovered": None,
                "agree": False,
                "paper_formulas": {"s1": None, "sandwich_lo": None, "sandwich_hi": None, "t0": None},
                "notes": [f"inversion failed: {err}"],
            }
        )
        _emit(args, payload)
        return EXIT_HEARING_MISMATCH
    payload.update(
        {
            "N_recovered": result.N,
            "agree": result.N == N_true,
            "paper_formulas": {
                k: (None if v is None else float(v))
                for k, v in result.paper_formulas.items()
            },
            "notes": result.notes,
        }
    )
    _emit(args, payload)
    if not payload["agree"]:
        return EXIT_HEARING_MISMATCH
    if args.strict and any(
        "NOT contain" in note or "outside the printed interval" in note
        for note in result.notes
    ):
        return EXIT_STRICT_DISCREPANCY
    return EXIT_OK


def cmd_equalise(args):
    with open(args.map) as fh:
        data = json.load(fh)
    F = polymap_from_json_dict(data)
    H, shift, psi = equalise_pair(F)
    mismatches = check_composite_identity(F, H, psi, samples=args.samples, seed=args.seed)
    already = shift == float("-inf")
    payload = {
        "config": _config_echo(args),
        "p": F.p,
        "dimension": F.dimension,
        "precision": F.precision,
        "already_equalising": already,
        "shift_exponent": None if already else shift,
        "composite_samples": args.samples,
        "composite_mismatches": mismatches,
        "equalised_map": polymap_to_json_dict(H),
    }
    _emit(args, payload)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _add_model_arguments(sub, elliptic_only=False):
    if not elliptic_only:
        sub.add_argument(
            "--model", choices=["projective", "Y", "elliptic"], required=True,
            help="which family of built-in models to construct",
        )
        sub.add_argument("--n", type=int, help="ambient dimension for projective/Y")
    sub.add_argument("--p", type=int, required=True, help="residue prime (not 2 or 3)")
    sub.add_argument("--f", type=int, default=1, help="residue extension degree")
    sub.add_argument("--level", "-m", type=int, default=2, help="subdivision depth")
    sub.add_argument("--a4", type=str, help="curve coefficient A (int or comma vector)")
    sub.add_argument("--a6", type=str, help="curve coefficient B (int or comma vector)")


def _add_output_arguments(sub):
    sub.add_argument("--output", help="write to this path instead of stdout")
    sub.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="padic-spectra",
        description="spectral geometry on p-adic cell models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    nerve = commands.add_parser("nerve", help="weighted nerve of the chart covering")
    _add_model_arguments(nerve)
    _add_output_arguments(nerve)
    nerve.set_defaults(func=cmd_nerve)

    spectrum = commands.add_parser("spectrum", help="wavelet eigenvalue classes")
    _add_model_arguments(spectrum)
    spectrum.add_argument("--s", type=_parse_exponent, default=2, help="kernel exponent")
    spectrum.add_argument("--exact", action="store_true", help="exact rational arithmetic (integer s)")
    _add_output_arguments(spectrum)
    spectrum.set_defaults(func=cmd_spectrum)

    heat = commands.add_parser("heat", help="heat kernel summary")
    _add_model_arguments(heat)
    heat.add_argument("--s", type=_parse_exponent, default=2)
    heat.add_argument("--t", type=float, required=True, help="time")
    heat.add_argument("--x", type=int, help="also emit this kernel row")
    heat.add_argument(
        "--paper-constant-term", action="store_true",
        help="bare constant term 1 (un-normalized closed form) instead of"
        " the stochastic reduced-block evolution",
    )
    heat.add_argument(
        "--wavelet-only", action="store_true",
        help="constant + wavelet synthesis only; drop the cross-fiber"
        " block evolution",
    )
    _add_output_arguments(heat)
    heat.set_defaults(func=cmd_heat)

    green = commands.add_parser("green", help="Green kernel summary")
    _add_model_arguments(green)
    green.add_argument("--s", type=_parse_exponent, default=2)
    green.add_argument("--x", type=int, help="also emit this kernel row")
    green.add_argument(
        "--wavelet-only", action="store_true",
        help="wavelet sum only; cross-fiber values identically zero",
    )
    _add_output_arguments(green)
    green.set_defaults(func=cmd_green)

    simulate = commands.add_parser("simulate", help="sample the jump process")
    _add_model_arguments(simulate)
    simulate.add_argument("--s", type=_parse_exponent, default=2)
    simulate.add_argument("--t", type=float, required=True, help="horizon")
    simulate.add_argument("--paths", type=int, default=1000)
    simulate.add_argument("--seed", type=int, required=True, help="PRNG seed (mandatory for reproducibility)")
    simulate.add_argument("--start", type=int, help="fixed start cell (default: uniform law)")
    _add_output_arguments(simulate)
    simulate.set_defaults(func=cmd_simulate)

    count = commands.add_parser("count", help="brute-force point count of a curve")
    _add_model_arguments(count, elliptic_only=True)
    _add_output_arguments(count)
    count.set_defaults(func=cmd_count)

    hear = commands.add_parser("hear", help="spectrum, lambda0, inversion, comparison")
    _add_model_arguments(hear, elliptic_only=True)
    hear.add_argument("--s", type=_parse_exponent, default=2)
    hear.add_argument("--tolerance", type=float, default=1e-9)
    hear.add_argument("--strict", action="store_true",
                      help="exit 4 when a printed-formula diagnostic fails")
    _add_output_arguments(hear)
    hear.set_defaults(func=cmd_hear)

    equalise = commands.add_parser("equalise", help="equalise a polynomial map from a JSON file")
    equalise.add_argument("--map", required=True, help="polymap JSON document")
    equalise.add_argument("--samples", type=int, default=100)
    equalise.add_argument("--seed", type=int, default=20240517)
    _add_output_arguments(equalise)
    equalise.set_defaults(func=cmd_equalise)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, PAdicError, ModelError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
