"""Command line front end.

Commands build a model, run one library operation, and emit JSON (or CSV
for tabular data) with the run configuration echoed under "config", so
every output is reproducible from its own header.  Exit codes: 0 success,
2 precondition violation, 3 hearing mismatch or failed inversion, 4
paper-formula discrepancy under --strict.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
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
from .equalising import NotInvertibleError, check_composite_identity, equalise_pair
from .models import (
    PER_CELL_OUTPUT_LIMIT,
    ModelError,
    _frac_str,
    _require_cells,
    build_projective_model,
    build_Y_model,
)
from .padics import PAdicError
from .polymaps import polymap_from_json_dict, polymap_to_json_dict
from . import spectral

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_HEARING_MISMATCH = 3
EXIT_STRICT_DISCREPANCY = 4

# encoder chunks (one per JSON scalar or CSV line) joined per write in _emit
EMIT_BATCH = 4096


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
        return build_projective_model(args.p, args.n, args.level, f=args.f)[0]
    if args.model == "Y":
        return build_Y_model(args.p, args.n, args.level, f=args.f)[0]
    return build_elliptic_model(_curve_from_args(args), args.level)


def _emit(args, payload, table):
    """Write the payload as indented JSON, or the table as CSV, in batches
    of EMIT_BATCH encoder chunks, so the whole text is never held in memory
    at once; the bytes are those of json.dumps(payload, sort_keys=True,
    indent=2) + "\n" or of the joined CSV lines."""
    if args.format == "csv":
        if table is None:
            raise ValueError("csv output is only available for tabular commands")
        header, rows = table
        chunks = (",".join(str(v) for v in row) + "\n" for row in itertools.chain([header], rows))
    else:
        encoder = json.JSONEncoder(sort_keys=True, indent=2)
        chunks = itertools.chain(encoder.iterencode(payload), ["\n"])
    batch = list(itertools.islice(chunks, EMIT_BATCH))  # before the file opens: faster
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
        while batch:
            fh.write("".join(batch))
            batch = list(itertools.islice(chunks, EMIT_BATCH))


# -- commands ------------------------------------------------------------------
#
# Each command returns (payload, table, exit code): the JSON payload without
# its "config" echo, the (header, rows) CSV table or None when the command
# has no tabular form, and the exit code.  main adds the echo and emits.


def cmd_nerve(args):
    model = _build_model(args)
    payload = {
        "model": model.name,
        "total_measure": _frac_str(model.total_measure),
        "connected": model.nerve.is_connected(),
        "simplices": model.nerve.to_json_entries(),
    }
    table = (
        ["charts", "weight"],
        [(";".join(str(c) for c in e["charts"]), e["weight"]) for e in payload["simplices"]],
    )
    return payload, table, EXIT_OK


def cmd_spectrum(args):
    model = _build_model(args)
    summary = spectral.enumerate_spectrum(model, args.s, exact=True if args.exact else None)
    rows = [
        (c.depth, ";".join(str(r) for r in sorted(c.region)), _frac_str(c.mu_B),
         float(c.eigenvalue), c.multiplicity)
        for c in summary.classes
    ]
    header = ["depth", "region", "mu_B", "eigenvalue", "multiplicity"]
    return summary.to_json_dict(), (header, rows), EXIT_OK


def _kernel_model(args):
    """The model of a heat or green command, --x checked before any synthesis."""
    model = _build_model(args)
    if args.x is not None:
        _require_cells(model, PER_CELL_OUTPUT_LIMIT, "per-cell output")
        if not 0 <= args.x < model.num_cells:
            raise ValueError(f"--x {args.x} out of range for {model.num_cells} cells")
    return model


def _kernel_payload(args, model, form):
    """Kernel summary payload of f(L) from its spectral form, plus the --x row."""
    payload = {"model": model.name, "s": float(args.s), "wavelet_only": bool(args.wavelet_only),
               **spectral._kernel_summary(model, form)}
    if args.x is not None:
        row = spectral._kernel_rows(model, form, np.array([args.x]))[0]
        payload["row"] = [float(v) for v in row]
    return payload


def cmd_heat(args):
    model = _kernel_model(args)
    form = spectral._heat_parts(model, args.s, args.t, args.paper_constant_term,
                                not args.wavelet_only)
    payload = _kernel_payload(args, model, form)
    payload.update(t=args.t, paper_constant_term=bool(args.paper_constant_term))
    return payload, None, EXIT_OK


def cmd_green(args):
    model = _kernel_model(args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        form = spectral._green_parts(model, args.s, not args.wavelet_only)
    payload = _kernel_payload(args, model, form)
    del payload["mass_max_deviation"], payload["trace_times_mu"]  # heat kernels only
    payload["warnings"] = [str(w.message) for w in caught]
    return payload, None, EXIT_OK


def cmd_simulate(args):
    model = _build_model(args)
    _require_cells(model, PER_CELL_OUTPUT_LIMIT, "per-cell output")
    result = spectral.sample_paths(
        model, args.s, args.t, args.paths, seed=args.seed, start=args.start
    )
    rows = enumerate(map(float, result.empirical_law))  # lazy: only CSV reads it
    payload = result.to_json_dict() if args.format == "json" else {}  # CSV: the rows alone
    return payload, (["cell", "probability"], rows), EXIT_OK


def cmd_count(args):
    curve = _curve_from_args(args)
    N = count_points_bruteforce(curve)
    lo, hi = hasse_window(curve.q)
    payload = {
        "q": curve.q,
        "N": N,
        "serre_invariant": serre_invariant(curve),
        "branch_points_rational": branch_points_rational(curve),
        "hasse_window": [lo, hi],
    }
    return payload, None, EXIT_OK


def cmd_hear(args):
    curve = _curve_from_args(args)
    model = build_elliptic_model(curve, args.level)
    lam0 = min(spectral.class_eigenvalues(model, args.s).values())
    N_true = count_points_bruteforce(curve)
    try:
        result = hear_points(lam0, curve.q, args.s, tolerance=args.tolerance, level=args.level)
    except HearingError as err:
        payload = {
            "s": float(args.s),
            "lambda0": float(lam0),
            "N_recovered": None,
            "hasse_window": list(hasse_window(curve.q)),
            "paper_formulas": {"s1": None, "sandwich_lo": None, "sandwich_hi": None, "t0": None},
            "notes": [f"inversion failed: {err}"],
        }
        code = EXIT_HEARING_MISMATCH
    else:
        payload = result.to_json_dict()
        if result.N != N_true:
            code = EXIT_HEARING_MISMATCH
        elif args.strict and any(
            "NOT contain" in note or "outside the printed interval" in note
            for note in result.notes
        ):
            code = EXIT_STRICT_DISCREPANCY
        else:
            code = EXIT_OK
    payload["N_bruteforce"] = N_true
    payload["agree"] = payload["N_recovered"] == N_true
    return payload, None, code


def _refuse_repeated_keys(pairs):
    """A JSON object from its pairs; json.load alone keeps the later of two
    equal keys, which would run a map the document does not state."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise PAdicError(f"map document repeats the key {key!r}")
        out[key] = value
    return out


def cmd_equalise(args):
    with open(args.map) as fh:
        data = json.load(fh, object_pairs_hook=_refuse_repeated_keys)
    F = polymap_from_json_dict(data)
    H, shift, psi = equalise_pair(F)
    mismatches = check_composite_identity(F, H, psi, samples=args.samples, seed=args.seed)
    if mismatches:
        # a unit Jacobian everywhere does not make F injective mod p
        # (2x + 2x^3 over Z_5 sends 0 and 2 to 0 mod 5)
        raise NotInvertibleError(
            f"psi(F(x)) != H(x) at {mismatches} of {args.samples} samples:"
            " the map has no inverse on its domain"
        )
    already = shift == float("-inf")
    payload = {
        "p": F.p,
        "dimension": F.dimension,
        "precision": F.precision,
        "already_equalising": already,
        "shift_exponent": None if already else shift,
        "composite_samples": args.samples,
        "composite_mismatches": mismatches,
        "equalised_map": polymap_to_json_dict(H),
    }
    return payload, None, EXIT_OK


# -- parser --------------------------------------------------------------------


def _add_model_arguments(sub, elliptic_only=False):
    if not elliptic_only:
        sub.add_argument(
            "--model", choices=["projective", "Y", "elliptic"], required=True,
            help="which family of built-in models to construct",
        )
        sub.add_argument("--n", type=int,
                         help="ambient dimension for projective/Y (built for n in {1, 2})")
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
    hear.add_argument("--tolerance", type=float, default=1e-9,
                      help="match tolerance on lambda0 for non-integer s; integer s matches exactly")
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
        payload, table, code = args.func(args)
        payload["config"] = _config_echo(args)
        _emit(args, payload, table)
        return code
    except (ValueError, PAdicError, ModelError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
