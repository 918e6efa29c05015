"""End-to-end command line tests, run in process through cli.main."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from padic_spectra import builtin_models, cli, models, spectral
from padic_spectra.elliptic import CurveSpec, NoMatchError, build_elliptic_model
from padic_spectra.polymaps import PolynomialMap, polymap_to_json_dict


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_nerve_projective_plane(capsys):
    doc = run_json(capsys, "nerve", "--model", "projective", "--n", "2", "--p", "5")
    weights = {e["weight"] for e in doc["simplices"]}
    assert weights == {"1/1", "4/5", "16/25"}
    assert doc["connected"] is True
    assert doc["config"]["p"] == 5


def test_nerve_elliptic(capsys):
    doc = run_json(
        capsys, "nerve", "--model", "elliptic", "--p", "13", "--a4", "-1", "--a6", "0"
    )
    assert {e["weight"] for e in doc["simplices"]} == {"5/13", "7/13", "4/13"}


def test_nerve_rejects_characteristic_three(capsys):
    code, out, err = run(
        capsys, "nerve", "--model", "elliptic", "--p", "3", "--a4", "-1", "--a6", "1"
    )
    assert code == 2
    assert "characteristic 2 and 3" in err


def test_nerve_requires_dimension(capsys):
    code, _, err = run(capsys, "nerve", "--model", "projective", "--p", "5")
    assert code == 2
    assert "--n" in err


def test_spectrum_exact_s_zero_collapse(capsys):
    doc = run_json(
        capsys, "spectrum", "--model", "projective", "--n", "1", "--p", "5",
        "--s", "0", "--exact",
    )
    assert {c["eigenvalue_exact"] for c in doc["classes"]} == {"6/5"}


def test_spectrum_csv_table(capsys):
    code, out, err = run(
        capsys, "spectrum", "--model", "elliptic", "--p", "13", "--a4", "-1",
        "--a6", "0", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "depth,region,mu_B,eigenvalue,multiplicity"
    assert len(lines) == 4  # three wavelet classes at level 2


def test_spectrum_exact_rejects_fractional_exponent(capsys):
    code, _, err = run(
        capsys, "spectrum", "--model", "projective", "--n", "1", "--p", "5",
        "--s", "2.5", "--exact",
    )
    assert code == 2
    assert "integer exponent" in err


def test_spectrum_level_one_has_no_wavelet_classes(capsys):
    doc = run_json(
        capsys, "spectrum", "--model", "projective", "--n", "1", "--p", "5",
        "--level", "1",
    )
    assert doc["classes"] == []
    assert doc["lambda_min_wavelet"] is None
    assert doc["total_dimension"] == 6  # the six cells of P^1(F_5)


def test_count_command(capsys):
    doc = run_json(capsys, "count", "--p", "13", "--a4", "-1", "--a6", "0")
    assert doc["N"] == 8
    assert doc["serre_invariant"] == 8
    assert doc["hasse_window"] == [6, 22]
    assert doc["branch_points_rational"] is True


@pytest.mark.parametrize(
    "argv",
    [["count", "--p", "101", "--a4", "-1", "--a6", "0"],
     ["hear", "--p", "13", "--a4", "6", "--a6", "6", "--s", "2"]],
    ids=["count", "hear"],
)
def test_one_sweep_of_the_field_per_curve(capsys, monkeypatch, argv):
    # count (N, Serre invariant, branch points) and hear (model, N) read one
    # sweep of F_q: the cubic is evaluated once per x, q times in all
    calls = []
    rhs = CurveSpec.rhs

    def counted(self, x):
        calls.append(x.code)
        return rhs(self, x)

    monkeypatch.setattr(CurveSpec, "rhs", counted)
    run_json(capsys, *argv)
    assert sorted(calls) == list(range(int(argv[2])))


def test_heat_summary_and_row(capsys):
    doc = run_json(
        capsys, "heat", "--model", "elliptic", "--p", "13", "--a4", "-1",
        "--a6", "0", "--t", "0.7", "--x", "0",
    )
    assert doc["mass_max_deviation"] < 1e-12
    assert doc["row"][0] == pytest.approx(3.0304346042147023, abs=1e-9)


BUILTIN_ARGV = {
    "P1(5) level 3": ["--model", "projective", "--n", "1", "--p", "5", "--level", "3"],
    "P2(5) level 2": ["--model", "projective", "--n", "2", "--p", "5", "--level", "2"],
    "Y2(5) level 2": ["--model", "Y", "--n", "2", "--p", "5", "--level", "2"],
    "E/F_13 level 2": ["--model", "elliptic", "--p", "13", "--a4", "-1", "--a6", "0"],
    "E/F_13 level 3": ["--model", "elliptic", "--p", "13", "--a4", "-1", "--a6", "0",
                       "--level", "3"],
    "E/F_17 level 2": ["--model", "elliptic", "--p", "17", "--a4", "-1", "--a6", "0"],
}

KERNEL_VARIANTS = [
    ("heat", ["--s", "2"], {}),
    ("heat", ["--s", "1"], {}),
    ("heat", ["--s", "2", "--wavelet-only"], {"complement": False}),
    ("heat", ["--s", "2", "--paper-constant-term"], {"paper_constant_term": True}),
    ("green", ["--s", "2"], {}),
    ("green", ["--s", "1"], {}),
    ("green", ["--s", "2", "--wavelet-only"], {"complement": False}),
    ("green", ["--s", "1", "--wavelet-only"], {"complement": False}),
]


@pytest.fixture(scope="module")
def builtin():
    return dict(builtin_models())


def test_kernel_summary_cases_cover_every_builtin_model(builtin):
    assert list(builtin) == list(BUILTIN_ARGV)


@pytest.mark.parametrize("label", sorted(BUILTIN_ARGV))
@pytest.mark.parametrize(
    "command, flags, kwargs", KERNEL_VARIANTS,
    ids=[" ".join([cmd, *flags]) for cmd, flags, _ in KERNEL_VARIANTS],
)
def test_kernel_summary_matches_dense_kernel(capsys, builtin, label, command, flags, kwargs):
    model = builtin[label]
    x = model.num_cells // 2 + 1
    argv = [command, *BUILTIN_ARGV[label], *flags, "--x", str(x)]
    s = int(flags[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if command == "heat":
            K = spectral.heat_kernel(model, s, 0.3, **kwargs)
            doc = run_json(capsys, *argv, "--t", "0.3")
        else:
            K = spectral.green_function(model, s, **kwargs)
            doc = run_json(capsys, *argv)
    assert doc["row"] == [float(v) for v in K[x]]
    assert doc["min_entry"] == float(K.min())
    assert doc["max_entry"] == float(K.max())
    assert doc["max_asymmetry"] == float(np.abs(K - K.T).max())
    if command == "heat":
        mu = float(model.cell_measure)
        mass = float(np.abs((K * mu).sum(axis=1) - 1.0).max())
        assert doc["mass_max_deviation"] == pytest.approx(mass, abs=1e-12)
        assert doc["trace_times_mu"] == pytest.approx(float(np.trace(K) * mu), rel=1e-12)


def _summary_from_rows(model, parts):
    """The kernel summary read from one full kernel row per top (at its
    first cell): every row of a top holds the same values, and the
    cross-top asymmetry lives in the tops x tops submatrix."""
    firsts = np.arange(len(model.tops)) * model.cells_per_top
    tops = spectral._kernel_rows(model, *parts, firsts)
    sub = tops[:, firsts]
    mu = float(model.cell_measure)
    per = model.cells_per_top
    mass = (tops * mu).sum(axis=1)
    cell_diagonal = np.repeat(np.diag(tops[:, ::per]), per)
    return {
        "min_entry": float(tops.min()),
        "max_entry": float(tops.max()),
        "max_asymmetry": float(np.abs(sub - sub.T).max()),
        "mass_max_deviation": float(np.abs(mass - 1.0).max()),
        "trace_times_mu": float(cell_diagonal.sum() * mu),
    }


MANY_TOP_ARGV = {
    "E/F_101 level 2": ["--model", "elliptic", "--p", "101", "--a4", "-1", "--a6", "0"],
    "P1(25) level 2": ["--model", "projective", "--n", "1", "--p", "5", "--f", "2"],
}


@pytest.fixture(scope="module")
def many_top():
    return {
        "E/F_101 level 2": build_elliptic_model(CurveSpec(101, -1, 0), 2),
        "P1(25) level 2": models.build_projective_model(5, 1, 2, f=2)[0],
    }


@pytest.mark.parametrize("label", sorted(MANY_TOP_ARGV))
@pytest.mark.parametrize(
    "command, flags, kwargs", KERNEL_VARIANTS,
    ids=[" ".join([cmd, *flags]) for cmd, flags, _ in KERNEL_VARIANTS],
)
def test_kernel_summary_matches_row_based_summary(capsys, many_top, label, command, flags,
                                                  kwargs):
    model = many_top[label]
    argv = [command, *MANY_TOP_ARGV[label], *flags]
    s = int(flags[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if command == "heat":
            parts = spectral._heat_parts(model, s, 0.3, **kwargs)
            doc = run_json(capsys, *argv, "--t", "0.3")
        else:
            parts = spectral._green_parts(model, s, **kwargs)
            doc = run_json(capsys, *argv)
    assert doc["model"] == model.name
    ref = _summary_from_rows(model, parts)
    for key in ("min_entry", "max_entry", "max_asymmetry"):
        assert doc[key] == ref[key], key
    if command == "heat":
        assert doc["mass_max_deviation"] == pytest.approx(ref["mass_max_deviation"], abs=1e-13)
        assert doc["trace_times_mu"] == pytest.approx(ref["trace_times_mu"], rel=1e-13)


@pytest.mark.parametrize("command", [["heat", "--t", "0.7"], ["green"]], ids=["heat", "green"])
def test_kernel_summary_builds_no_row_per_top(capsys, command):
    # E/F_307 at level 2 has 94556 cells over 308 tops: one kernel row per
    # top would be 29M floats, while the summary needs O(tops^2) numbers
    argv = [*command, "--model", "elliptic", "--p", "307", "--a4", "-1", "--a6", "0"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 32e6


@pytest.mark.parametrize("command", ["heat", "green", "simulate"])
def test_kernels_and_sampler_past_the_dense_limit(capsys, command):
    # P2(5) at level 3: 19375 cells, far past the 1500-cell dense limit
    argv = [command, "--model", "projective", "--n", "2", "--p", "5", "--level", "3"]
    extra = {
        "heat": ["--t", "0.05", "--x", "7"],
        "green": ["--x", "7"],
        "simulate": ["--t", "0.005", "--paths", "2000", "--seed", "3", "--start", "7"],
    }[command]
    doc = run_json(capsys, *argv, *extra)
    numbers = [v for v in doc.values() if isinstance(v, float)]
    if command == "simulate":
        law = np.array(doc["empirical_law"])
        assert len(law) == 19375
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        numbers += [doc["jumps"]["mean"], doc["first_holding_mean"]]
    else:
        assert len(doc["row"]) == 19375
        numbers += doc["row"]
    assert np.isfinite(numbers).all()
    if command == "heat":
        assert doc["mass_max_deviation"] < 1e-9
        assert sum(doc["row"]) / 25**3 == pytest.approx(1.0, abs=1e-9)  # mu = c^-m


def test_heat_wavelet_only_flag(capsys):
    doc = run_json(
        capsys, "heat", "--model", "elliptic", "--p", "13", "--a4", "-1",
        "--a6", "0", "--t", "0.5", "--wavelet-only", "--x", "0",
    )
    assert doc["wavelet_only"] is True
    assert doc["mass_max_deviation"] < 1e-9
    # cross-fiber entries sit at the flat constant 1/mu(X) = 13/8
    assert doc["row"][13] == pytest.approx(13 / 8, abs=1e-12)


def test_heat_rejects_csv(capsys):
    code, _, err = run(
        capsys, "heat", "--model", "elliptic", "--p", "13", "--a4", "-1",
        "--a6", "0", "--t", "0.5", "--format", "csv",
    )
    assert code == 2
    assert "tabular" in err


def test_heat_row_out_of_range(capsys):
    code, _, err = run(
        capsys, "heat", "--model", "elliptic", "--p", "13", "--a4", "-1",
        "--a6", "0", "--t", "0.5", "--x", "9999",
    )
    assert code == 2


def test_green_warns_at_small_exponent(capsys):
    doc = run_json(
        capsys, "green", "--model", "projective", "--n", "1", "--p", "5", "--s", "1"
    )
    assert any("deepening limit diverges" in w for w in doc["warnings"])


def test_simulate_reproducible_bytes(capsys, tmp_path):
    argv = [
        "simulate", "--model", "elliptic", "--p", "13", "--a4", "-1", "--a6", "0",
        "--t", "0.5", "--paths", "300", "--seed", "42",
    ]
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    assert cli.main(argv + ["--output", str(a)]) == 0
    assert cli.main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert cli.main(argv[:-1] + ["7", "--output", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()
    capsys.readouterr()


def test_simulate_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["simulate", "--model", "elliptic", "--p", "13", "--a4", "-1",
             "--a6", "0", "--t", "0.5"]
        )
    assert exc.value.code == 2
    capsys.readouterr()


def test_simulate_csv_is_the_law_table(capsys):
    code, out, _ = run(
        capsys, "simulate", "--model", "elliptic", "--p", "13", "--a4", "-1",
        "--a6", "0", "--t", "0.5", "--paths", "50", "--seed", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "cell,probability"
    assert len(lines) == 105


@pytest.mark.parametrize(
    "paths, t, message",
    [("0", "0.5", "at least one path"), ("50", "-1", "negative time"),
     ("50", "nan", "finite"), ("50", "inf", "finite")],
    ids=["no-paths", "negative-time", "nan-time", "inf-time"],
)
def test_simulate_rejects_bad_sizes(capsys, paths, t, message):
    code, _, err = run(
        capsys, "simulate", "--model", "elliptic", "--p", "13", "--a4", "-1",
        "--a6", "0", "--t", t, "--paths", paths, "--seed", "1",
    )
    assert code == 2
    assert message in err


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_heat_rejects_non_finite_time(capsys, t):
    code, out, err = run(
        capsys, "heat", "--model", "elliptic", "--p", "13", "--a4", "-1",
        "--a6", "0", "--t", t,
    )
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "argv",
    [("spectrum", "--model", "elliptic", "--p", "13", "--a4", "-1", "--a6", "0", "--s", "inf"),
     ("hear", "--p", "13", "--a4", "-1", "--a6", "0", "--s", "nan")],
    ids=["spectrum-inf", "hear-nan"],
)
def test_non_finite_exponent_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "exponent must be finite" in capsys.readouterr().err


def test_hear_agreement(capsys):
    code, out, err = run(
        capsys, "hear", "--p", "13", "--a4", "-1", "--a6", "0", "--s", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["N_recovered"] == 8 and doc["N_bruteforce"] == 8
    assert set(doc["paper_formulas"]) == {"s1", "sandwich_lo", "sandwich_hi", "t0"}


def test_hear_strict_flags_printed_formula_break(capsys):
    code, out, _ = run(
        capsys, "hear", "--p", "13", "--a4", "-7", "--a6", "6", "--s", "2",
        "--strict",
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["agree"] is True  # the count itself is still recovered


def test_hear_inversion_failure_exits_three(capsys, monkeypatch):
    def boom(lam, q, s, tolerance=1e-9):
        raise NoMatchError("nothing fits")

    monkeypatch.setattr(cli, "hear_points", boom)
    code, out, _ = run(
        capsys, "hear", "--p", "13", "--a4", "-1", "--a6", "0", "--s", "2"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["N_recovered"] is None
    assert doc["agree"] is False


@pytest.mark.parametrize(
    "p, a4, a6", [("13", "6", "6"), ("1009", "970", "70")]  # N = 16 and 1056
)
def test_hear_reads_no_reduced_block(capsys, monkeypatch, p, a4, a6):
    def unread(*args, **kwargs):
        raise AssertionError("hear needs only the wavelet classes")

    monkeypatch.setattr(spectral, "reduced_operator", unread)
    monkeypatch.setattr(spectral, "reduced_block_eigenvalues", unread)
    doc = run_json(capsys, "hear", "--p", p, "--a4", a4, "--a6", a6, "--s", "2")
    assert doc["agree"] is True


def test_hear_enumerates_nerve_paths_once_per_region_shape(capsys):
    # the path search once ran for every candidate N of the Hasse window
    # (483 searches for q = 157); now the path sets of the curve's region
    # shape are enumerated once, and a hear at another q reuses them
    models._nerve_paths.cache_clear()
    assert run_json(capsys, "hear", "--p", "157", "--a4", "-1", "--a6", "0")["agree"]
    enumerations = models._nerve_paths.cache_info().misses
    assert 0 < enumerations <= 18
    assert run_json(capsys, "hear", "--p", "13", "--a4", "6", "--a6", "6")["agree"]
    assert models._nerve_paths.cache_info().misses == enumerations


def test_equalise_command(capsys, tmp_path):
    F = PolynomialMap(5, [{(1,): 2}], ("disc",), 8)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(polymap_to_json_dict(F)))
    doc = run_json(capsys, "equalise", "--map", str(path))
    assert doc["already_equalising"] is False
    assert doc["shift_exponent"] == 1
    assert doc["composite_mismatches"] == 0
    assert doc["equalised_map"]["components"][0]["numerator"] == {"1": "11"}


def test_equalise_near_identity_map(capsys, tmp_path):
    F = PolynomialMap(5, [{(1,): 1, (2,): 5}], ("disc",), 8)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(polymap_to_json_dict(F)))
    doc = run_json(capsys, "equalise", "--map", str(path))
    assert doc["already_equalising"] is True
    assert doc["shift_exponent"] is None


def test_equalise_missing_file(capsys):
    code, _, err = run(capsys, "equalise", "--map", "/nonexistent/map.json")
    assert code == 2


# sha256 of the stdout of README examples whose output depends on neither
# BLAS nor scipy, so any change to them is a change of behaviour.
README_OUTPUTS = [
    (("nerve", "--model", "projective", "--n", "2", "--p", "5"),
     "0393d65e295b5a08175835aa57b10a3f1ee8f1f26acc139fdd36c61490ad52e8"),
    (("count", "--p", "17", "--a4", "3", "--a6", "13"),
     "fd4908c981adb88b9e34909f474c2b85261edf3398653f6292d3978bfd45ab7c"),
    (("hear", "--p", "13", "--a4", "6", "--a6", "6", "--s", "2"),
     "262e4158ac11b2a070a7bfbdd0cff78a3127a63af6fb5fdda856103064f673a6"),
]


@pytest.mark.parametrize("argv, digest", README_OUTPUTS, ids=["nerve", "count", "hear"])
def test_readme_output_is_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the README examples that need no input file (all but equalise)
README_EXAMPLES = [
    ("nerve", "--model", "projective", "--n", "2", "--p", "5"),
    ("spectrum", "--model", "elliptic", "--p", "13", "--a4", "-1", "--a6", "0",
     "--s", "2", "--exact"),
    ("heat", "--model", "elliptic", "--p", "13", "--a4", "-1", "--a6", "0",
     "--t", "0.7", "--x", "0"),
    ("green", "--model", "projective", "--n", "1", "--p", "5", "--s", "2"),
    ("simulate", "--model", "elliptic", "--p", "13", "--a4", "-1", "--a6", "0",
     "--t", "0.5", "--paths", "100000", "--seed", "11", "--start", "0", "--format", "csv"),
    ("count", "--p", "17", "--a4", "3", "--a6", "13"),
    ("hear", "--p", "13", "--a4", "6", "--a6", "6", "--s", "2"),
]

_RUN_WITHOUT_SCIPY = """
import contextlib, io, json, sys
from padic_spectra import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_readme_examples_load_no_scipy():
    # a fresh interpreter: the test process itself has scipy loaded
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SCIPY, json.dumps(README_EXAMPLES)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    codes, loaded = json.loads(done.stdout)
    assert codes == [0] * len(README_EXAMPLES)
    assert loaded == []
