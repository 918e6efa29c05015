"""End-to-end command line tests, run in process through cli.main."""

import hashlib
import json
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from padic_spectra import builtin_models, cli, elliptic, models, spectral
from padic_spectra.elliptic import CurveSpec, NoMatchError, build_elliptic_model
from padic_spectra.polymaps import MAX_PRECISION, PolynomialMap, polymap_to_json_dict


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


@pytest.mark.parametrize("family", ["projective", "Y"])
@pytest.mark.parametrize("f", ["0", "-1"])
def test_model_refuses_extension_degree_below_one(capsys, family, f):
    # f = 0 once printed a nerve with q = 1 (projective) or failed a path
    # search (Y); f = -1 died with a TypeError traceback
    code, out, err = run(
        capsys, "nerve", "--model", family, "--n", "2", "--p", "5", "--f", f
    )
    assert code == 2
    assert out == ""
    assert f"extension degree must be positive, got {f}" in err


def test_count_command(capsys):
    doc = run_json(capsys, "count", "--p", "13", "--a4", "-1", "--a6", "0")
    assert doc["N"] == 8
    assert doc["serre_invariant"] == 8
    assert doc["hasse_window"] == [6, 22]
    assert doc["branch_points_rational"] is True


def test_count_refuses_a_coefficient_vector_longer_than_f(capsys):
    code, out, err = run(
        capsys, "count", "--p", "5", "--f", "2", "--a4", "1,0", "--a6", "1,1,1"
    )
    assert code == 2
    assert out == ""
    assert "length 3 exceeds f=2" in err


@pytest.mark.parametrize(
    "argv",
    [["count", "--p", "101", "--a4", "-1", "--a6", "0"],
     ["hear", "--p", "13", "--a4", "6", "--a6", "6", "--s", "2"]],
    ids=["count", "hear"],
)
def test_one_sweep_of_the_field_per_curve(capsys, monkeypatch, argv):
    # count (N, Serre invariant, branch points) and hear (model, N) read one
    # sweep of F_q, kept on the curve: the sweep runs once, over all q elements
    calls = []
    sweep = elliptic._sweep_points

    def counted(field, a4, a6):
        calls.append(field.q)
        return sweep(field, a4, a6)

    monkeypatch.setattr(elliptic, "_sweep_points", counted)
    run_json(capsys, *argv)
    assert calls == [int(argv[2])]


@pytest.mark.parametrize("command", [["count"], ["hear", "--s", "3"]])
def test_curve_past_the_sweep_limit_exits_2_before_any_array(capsys, command):
    # q = 10^9 + 7: a sweep would need several 8 GB arrays, and its int64
    # products would overflow
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *command, "--p", "1000000007", "--a4", "1", "--a6", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == "error: q = 1000000007 exceeds the F_q sweep limit 4194304\n"
    assert peak < 2**20, peak


def test_count_at_q_1000003(capsys):
    # x^3 - x is supersingular for p = 3 mod 4: N = p + 1
    doc = run_json(capsys, "count", "--p", "1000003", "--a4", "-1", "--a6", "0")
    assert doc["N"] == 1000004
    assert doc["branch_points_rational"] is True


def test_heat_summary_and_row(capsys):
    doc = run_json(
        capsys, "heat", "--model", "elliptic", "--p", "13", "--a4", "-1",
        "--a6", "0", "--t", "0.7", "--x", "0",
    )
    assert doc["mass_max_deviation"] < 1e-12
    assert doc["row"][0] == pytest.approx(3.0304346042147023, abs=1e-9)


def test_heat_at_an_overflowing_t_lambda_runs_with_warnings_as_errors(capsys):
    # t * lambda past the float range: the stationary law 1/mu(X) = 5/6, exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        doc = run_json(capsys, "heat", "--model", "projective", "--n", "1", "--p", "5",
                       "--level", "6", "--s", "10", "--t", "1e280", "--x", "7")
    assert doc["min_entry"] == pytest.approx(5 / 6, rel=1e-12)
    assert doc["max_entry"] == pytest.approx(5 / 6, rel=1e-12)
    assert np.allclose(doc["row"], 5 / 6, rtol=1e-12, atol=0)


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
    tops = spectral._kernel_rows(model, parts, firsts)
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


@pytest.mark.parametrize("command", [["heat", "--t", "0.7"], ["green"]], ids=["heat", "green"])
def test_kernel_summary_builds_no_tops_by_tops_array(capsys, command):
    # E/F_5003 at level 2 has 5004 tops: a tops x tops float block is 200 MB,
    # while the region form holds r x r and r x (m + 1) numbers
    argv = [*command, "--model", "elliptic", "--p", "5003", "--a4", "-1", "--a6", "0"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 32e6, peak


@pytest.mark.parametrize("command", [["heat", "--t", "0.7"], ["green"]], ids=["heat", "green"])
@pytest.mark.parametrize(
    "model, x, message",
    [(["--p", "5003"], "3", "25035012 cells exceeds the per-cell output limit 1048576"),
     (["--p", "13"], "9999", "--x 9999 out of range for 104 cells")],
    ids=["past-the-limit", "out-of-range"],
)
def test_kernel_row_is_refused_before_any_synthesis(capsys, monkeypatch, command, model, x,
                                                    message):
    # a refused --x used to cost the whole synthesis first: a 5004 x 5004
    # block on E/F_5003
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis before the --x check")

    monkeypatch.setattr(spectral, "_synthesis", no_synthesis)
    argv = [*command, "--model", "elliptic", *model, "--a4", "-1", "--a6", "0", "--x", x]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_simulate_csv_builds_no_json_law(tmp_path):
    # the JSON payload's law, one Python float per cell, is about 15 MB for
    # these 468750 cells and is never written as CSV
    argv = ["simulate", "--model", "projective", "--n", "1", "--p", "5", "--level", "8",
            "--t", "0.001", "--paths", "1000", "--seed", "1", "--format", "csv",
            "--output", str(tmp_path / "sim.csv")]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 12e6, peak


def test_simulate_json_builds_no_per_cell_csv_rows(tmp_path):
    # P1(5) at level 8 has 468750 cells: a (cell, probability) row list
    # beside the JSON law took the traced peak past 100 MB
    argv = ["simulate", "--model", "projective", "--n", "1", "--p", "5", "--level", "8",
            "--t", "0.001", "--paths", "1000", "--seed", "1",
            "--output", str(tmp_path / "sim.json")]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads((tmp_path / "sim.json").read_text())["empirical_law"]) == 468750
    assert peak < 70e6, peak


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_output_is_written_without_its_whole_text(tmp_path, fmt):
    # the 468750-cell law is about 4-5 MB of JSON or CSV text, built from
    # one string per number: building the whole text (json.dumps, or the
    # joined CSV lines) before writing took the traced peak to 56 MB, while
    # the payload and the sampler need about 20 MB
    path = tmp_path / f"sim.{fmt}"
    argv = ["simulate", "--model", "projective", "--n", "1", "--p", "5", "--level", "8",
            "--t", "0.001", "--paths", "1000", "--seed", "1", "--format", fmt,
            "--output", str(path)]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    with open(path) as fh:
        if fmt == "csv":
            assert sum(1 for _ in fh) == 1 + 468750
        else:
            assert len(json.load(fh)["empirical_law"]) == 468750
    assert peak < 40e6, peak


def test_emit_writes_the_bytes_of_the_whole_text(tmp_path, capsys):
    # past one batch of encoder chunks, the file and stdout get exactly the
    # text that json.dumps or the joined CSV lines give
    rows = [(i, i / 7) for i in range(3 * cli.EMIT_BATCH)]
    payload = {"b": [{"x": v, "y": None} for _, v in rows], "a": "text"}
    expected = {
        "json": json.dumps(payload, sort_keys=True, indent=2) + "\n",
        "csv": "\n".join(["cell,value"] + [f"{i},{v}" for i, v in rows]) + "\n",
    }
    for fmt, text in expected.items():
        for output in (str(tmp_path / "out"), None):
            args = cli.build_parser().parse_args(
                ["nerve", "--model", "projective", "--n", "1", "--p", "5", "--format", fmt]
            )
            args.output = output
            cli._emit(args, payload, (["cell", "value"], iter(rows)))
            written = open(output).read() if output else capsys.readouterr().out
            assert written == text


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
    argv = ["simulate", "--model", "elliptic", "--p", "13", "--a4", "-1", "--a6", "0",
            "--t", "0.5", "--paths", "50", "--seed", "1"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "cell,probability"
    assert len(lines) == 105
    rows = [line.split(",") for line in lines[1:]]
    assert [int(cell) for cell, _ in rows] == list(range(104))
    assert [float(p) for _, p in rows] == run_json(capsys, *argv)["empirical_law"]


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
    def boom(lam, q, s, tolerance=1e-9, level=2):
        raise NoMatchError("nothing fits")

    monkeypatch.setattr(cli, "hear_points", boom)
    code, out, _ = run(
        capsys, "hear", "--p", "13", "--a4", "-1", "--a6", "0", "--s", "2"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["N_recovered"] is None
    assert doc["agree"] is False


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
def test_hear_refuses_a_tolerance_not_positive_and_finite(capsys, tolerance):
    # once reported as a hearing mismatch (exit 3); it is a usage error
    code, out, err = run(
        capsys, "hear", "--p", "13", "--a4", "6", "--a6", "6", "--tolerance", tolerance
    )
    assert code == 2
    assert out == ""
    assert "tolerance must be positive and finite" in err


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


@pytest.mark.parametrize(
    "argv, N",
    [
        # adjacent N share one float lambda0 here; their exact values differ
        (["--p", "1009", "--s", "6"], 1040),
        # for s < 0 the least class sits on the model's deepest balls
        (["--p", "13", "--s", "-1", "--level", "3"], 8),
        (["--p", "13", "--s", "-0.5", "--level", "4"], 8),
        # integer s is matched exactly, so the tolerance does not apply
        (["--p", "13", "--s", "2", "--tolerance", "10"], 8),
    ],
    ids=["p1009-s6", "s-1-level3", "s-0.5-level4", "integer-s-loose-tolerance"],
)
def test_hear_recovers_the_count_exactly(capsys, argv, N):
    doc = run_json(capsys, "hear", "--a4", "-1", "--a6", "0", *argv)
    assert doc["N_recovered"] == doc["N_bruteforce"] == N


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


def test_equalise_refuses_a_map_not_invertible_mod_p(capsys, tmp_path):
    # x -> 5x is invertible over Q_p but not on the unit disc
    F = PolynomialMap(5, [{(1,): 5}], ("disc",), 8)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(polymap_to_json_dict(F)))
    code, out, err = run(capsys, "equalise", "--map", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: linear part is not invertible mod p: det A is not a p-adic unit\n"


def test_equalise_refuses_a_map_with_a_jacobian_singular_mod_p(capsys, tmp_path):
    # 2x + x^2 has the unit det A = 2, but J = 2 + 2x vanishes at x = 4 mod
    # 5, where the Newton inverse of the composite check has no step
    F = PolynomialMap(5, [{(1,): 2, (2,): 1}], ("disc",), 8)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(polymap_to_json_dict(F)))
    code, out, err = run(capsys, "equalise", "--map", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: Jacobian is singular modulo p\n"


def test_equalise_refuses_a_map_not_injective_mod_p(capsys, tmp_path):
    # 2x + 2x^3 has a unit Jacobian everywhere, but sends 0 and 2 to 0 mod
    # 5: Newton meets the other preimage, and psi(F(x)) != H(x) at 40 of the
    # 100 samples of seed 1, where the command once exited 0
    F = PolynomialMap(5, [{(1,): 2, (3,): 2}], ("disc",), 8)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(polymap_to_json_dict(F)))
    code, out, err = run(capsys, "equalise", "--map", str(path), "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == ("error: psi(F(x)) != H(x) at 40 of 100 samples:"
                   " the map has no inverse on its domain\n")


def test_equalise_refuses_a_map_whose_newton_inversion_does_not_converge(capsys, tmp_path):
    # 2x + 2x^2 + 4x^3 over Z_5: from one of the 100 samples of seed 0,
    # Newton's iteration for psi is still moving after its last round, and
    # the command once exited 1 with a traceback
    F = PolynomialMap(5, [{(1,): 2, (2,): 2, (3,): 4}], ("disc",), 8)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(polymap_to_json_dict(F)))
    code, out, err = run(capsys, "equalise", "--map", str(path), "--seed", "0")
    assert code == 2
    assert out == ""
    assert err == "error: Newton inversion did not converge\n"


@pytest.mark.parametrize(
    "coeffs, repaired",
    [
        ({(1,): 2, (2,): 25}, {"1": "11", "2": "125"}),
        ({(1,): 3, (2,): 5}, {"1": "16", "2": "25"}),
        # the document states the repaired map's exact coefficients, not
        # their residues mod 5^8 (195316 and 390611)
        ({(1,): Fraction(1, 2), (2,): 25}, {"1": "7/2", "2": "125"}),
        ({(1,): -3, (2,): 25}, {"1": "-14", "2": "125"}),
    ],
    ids=["2x+25x2", "3x+5x2", "x/2+25x2", "-3x+25x2"],
)
def test_equalise_repairs_maps_with_a_unit_jacobian(capsys, tmp_path, coeffs, repaired):
    F = PolynomialMap(5, [coeffs], ("disc",), 8)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(polymap_to_json_dict(F)))
    doc = run_json(capsys, "equalise", "--map", str(path))
    assert doc["shift_exponent"] == 1 and doc["composite_mismatches"] == 0
    assert doc["equalised_map"]["components"][0]["numerator"] == repaired


def test_equalise_refuses_a_repeated_literal_key(capsys, tmp_path):
    # json.load keeps the later of two equal keys, so this document once
    # ran as the map 2x and exited 0
    text = json.dumps(_MAP_DOC).replace('"numerator": {', '"numerator": {"1": "1", ', 1)
    assert '{"1": "1", "1": "3"' in text
    path = tmp_path / "map.json"
    path.write_text(text)
    code, out, err = run(capsys, "equalise", "--map", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: map document repeats the key '1'\n"


def test_equalise_takes_a_map_document_up_to_the_precision_ceiling(capsys, tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({**_MAP_DOC, "precision": MAX_PRECISION}))
    doc = run_json(capsys, "equalise", "--map", str(path))
    assert doc["precision"] == MAX_PRECISION and doc["composite_mismatches"] == 0
    for precision in (MAX_PRECISION + 1, 0):
        path.write_text(json.dumps({**_MAP_DOC, "precision": precision}))
        code, out, err = run(capsys, "equalise", "--map", str(path))
        assert code == 2
        assert out == ""
        assert err == (f"error: precision must be between 1 and {MAX_PRECISION} digits,"
                       f" got {precision}\n")


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_equalise_refuses_no_samples(capsys, tmp_path, samples):
    # zero samples would report an unchecked identity as zero mismatches
    F = PolynomialMap(5, [{(1,): 2}], ("disc",), 8)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(polymap_to_json_dict(F)))
    code, out, err = run(capsys, "equalise", "--map", str(path), "--samples", samples)
    assert code == 2
    assert out == ""
    assert "at least one sample" in err


_MAP_DOC = polymap_to_json_dict(PolynomialMap(5, [{(1,): 3, (2,): 25}], ("disc",), 8))
_PLANE_DOC = {
    **_MAP_DOC, "dimension": 2, "domain": ["disc", "disc"],
    "components": [{"numerator": {"1,0": "3", "0,2": "25"}, "denominator": {"0,0": "1"}}],
}


def _component_doc(**fields):
    """_MAP_DOC with these fields of its one component replaced."""
    return {**_MAP_DOC, "components": [{**_MAP_DOC["components"][0], **fields}]}


@pytest.mark.parametrize(
    "doc, fault",
    [
        ({**_MAP_DOC, "components": 5}, "components must be a list"),
        (_PLANE_DOC, "1 components for a map of dimension 2"),
        ([_MAP_DOC], "not a padic-spectra/polymap-v1 document"),
        ({**_MAP_DOC, "domain": ["disc", "disc"]}, "does not list 1 coordinate descriptors"),
        ({**_MAP_DOC, "p": None}, "p must be an integer"),
        ({**_MAP_DOC, "precision": None}, "precision must be an integer"),
        (_component_doc(numerator=[3, 25]), "numerator must be an object"),
        (_component_doc(numerator={"1": None}), "numerator coefficient '1' must be"),
        (_component_doc(numerator={"1": [3]}), "numerator coefficient '1' must be"),
        ({**_MAP_DOC, "p": 5.9}, "p must be an integer"),
        ({**_MAP_DOC, "precision": 8.7}, "precision must be an integer"),
        ({**_MAP_DOC, "dimension": True}, "dimension must be an integer"),
        (_component_doc(numerator={"1": True}), "numerator coefficient '1' must be"),
        (_component_doc(denominator={"0": "0"}), "component 0 has a zero denominator"),
        (_component_doc(numerator={"-1": "1", "1": "1"}), "numerator exponent key '-1'"),
        ({**_MAP_DOC, "dimension": 0, "domain": [], "components": []},
         "dimension must be at least 1"),
    ],
    ids=["components-not-a-list", "too-few-components", "top-level-array", "domain-too-long",
         "p-null", "precision-null", "numerator-not-an-object", "null-coefficient",
         "list-coefficient", "p-float", "precision-float", "dimension-true",
         "true-coefficient", "zero-denominator", "negative-exponent", "dimension-zero"],
)
def test_equalise_refuses_a_malformed_map_document(capsys, tmp_path, doc, fault):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "equalise", "--map", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and fault in err, err


@pytest.mark.parametrize(
    "doc, fault",
    [
        (_component_doc(numerator={"1": "3", "01": "2"}),
         "numerator exponent keys '1' and '01' give the same monomial"),
        (_component_doc(denominator={"0": "1", "00": "1"}),
         "denominator exponent keys '0' and '00' give the same monomial"),
        (_component_doc(numerator={"x": "3"}),
         "numerator exponent key 'x' is not a comma-separated list of integers"),
        (_component_doc(numerator={"1,": "3"}),
         "numerator exponent key '1,' is not a comma-separated list of integers"),
    ],
    ids=["repeated-monomial", "repeated-denominator-monomial", "letter-key", "trailing-comma-key"],
)
def test_equalise_refuses_a_map_document_with_a_bad_exponent_key(capsys, tmp_path, doc, fault):
    # a repeated monomial once kept only its later coefficient and exited 0
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "equalise", "--map", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and fault in err, err


def test_program_paths_build_no_top_ball_objects(capsys, monkeypatch):
    # models hold their census and a region index per top; `tops` is a
    # view for readers outside the program, built only on access
    def refuse(self, *args):
        raise AssertionError("a program path built a TopBall")

    monkeypatch.setattr(models.TopBall, "__init__", refuse)
    curve = ["--p", "20011", "--a4", "-1", "--a6", "0"]
    for model_argv in (
        ["--model", "elliptic", *curve],
        ["--model", "projective", "--n", "2", "--p", "5"],
        ["--model", "Y", "--n", "2", "--p", "5"],
    ):
        for command in (["nerve"], ["spectrum", "--s", "2"], ["heat", "--t", "0.7"], ["green"]):
            run_json(capsys, *command, *model_argv)
    assert run_json(capsys, "hear", *curve, "--s", "2")["N_recovered"] == 20012


CURVE_ARGV = ["--p", "13", "--a4", "-1", "--a6", "0"]
P1_ARGV = ["--model", "projective", "--n", "1", "--p", "5"]

# every JSON command, hear on both branches, with the exit code expected
CONFIG_CASES = {
    "nerve": (["nerve", *P1_ARGV], 0),
    "spectrum": (["spectrum", "--model", "elliptic", *CURVE_ARGV, "--s", "2"], 0),
    "heat": (["heat", "--model", "elliptic", *CURVE_ARGV, "--t", "0.7"], 0),
    "green": (["green", *P1_ARGV, "--s", "1.5"], 0),
    "simulate": (["simulate", *P1_ARGV, "--t", "0.3", "--paths", "50", "--seed", "3"], 0),
    "count": (["count", *CURVE_ARGV], 0),
    "hear": (["hear", *CURVE_ARGV], 0),
    "hear-failure": (["hear", *CURVE_ARGV], 3),
    "equalise": (["equalise", "--map", "MAP", "--seed", "1"], 0),
}


def _no_match(lam, q, s, tolerance=1e-9, level=2):
    raise NoMatchError("nothing fits")


@pytest.mark.parametrize("case", sorted(CONFIG_CASES))
def test_every_json_command_echoes_its_config(capsys, monkeypatch, tmp_path, case):
    argv, expected = CONFIG_CASES[case]
    if case == "hear-failure":
        monkeypatch.setattr(cli, "hear_points", _no_match)
    if "MAP" in argv:
        path = tmp_path / "map.json"
        F = PolynomialMap(5, [{(1,): 3, (2,): 25}], ("disc",), 8)
        path.write_text(json.dumps(polymap_to_json_dict(F)))
        argv = [str(path) if a == "MAP" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == expected, err
    config = json.loads(out)["config"]
    assert config["command"] == argv[0]
    assert config["format"] == "json"
    for flag, value in zip(argv[1::2], argv[2::2]):
        assert str(config[flag[2:]]) == value, (flag, value)


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


def test_readme_equalise_output_is_pinned(capsys, monkeypatch, tmp_path):
    # run beside its map, as README does, so the echoed --map is my_map.json
    monkeypatch.chdir(tmp_path)
    F = PolynomialMap(5, [{(1,): 3, (2,): 25}], ("disc",), 8)
    (tmp_path / "my_map.json").write_text(json.dumps(polymap_to_json_dict(F)))
    code, out, err = run(capsys, "equalise", "--map", "my_map.json", "--seed", "1")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "15b2799486c3530a4b718e85bde999b49d0dc7013dd147fff7d86b8c66974b17"
    )


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


def test_readme_examples_load_no_scipy(child_env):
    # a fresh interpreter: the test process itself has scipy loaded
    done = subprocess.run(
        [sys.executable, "-c", _RUN_WITHOUT_SCIPY, json.dumps(README_EXAMPLES)],
        capture_output=True, text=True, env=child_env, timeout=120, check=True,
    )
    codes, loaded = json.loads(done.stdout)
    assert codes == [0] * len(README_EXAMPLES)
    assert loaded == []


@pytest.mark.parametrize(
    "argv",
    [("spectrum", "--model", "projective", "--n", "1", "--p", "5", "--s", "1e9"),
     ("hear", "--p", "13", "--a4", "6", "--a6", "6", "--s", "1e9"),
     ("heat", "--model", "projective", "--n", "1", "--p", "5", "--s", "1e9", "--t", "1"),
     ("green", "--model", "projective", "--n", "1", "--p", "5", "--s", "1e9"),
     ("spectrum", "--model", "projective", "--n", "1", "--p", "5", "--s", "100000",
      "--level", "3")],
    ids=["spectrum-1e9", "hear-1e9", "heat-1e9", "green-1e9", "spectrum-1e5-level3"],
)
def test_exponent_past_the_float_range_exits_two(child_env, argv):
    # in a child with a timeout: before the check, spectrum and hear did not
    # return and heat, green and the level-3 spectrum died with OverflowError
    done = subprocess.run(
        [sys.executable, "-m", "padic_spectra.cli", *argv],
        capture_output=True, text=True, env=child_env, timeout=30,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert "exponent s too large" in done.stderr


@pytest.mark.parametrize("command", ["heat", "green", "simulate"])
def test_per_cell_output_past_its_limit_exits_two(capsys, command):
    # P2(5) at level 5: 12109375 cells, past the 2^20-cell per-cell limit
    argv = [command, "--model", "projective", "--n", "2", "--p", "5", "--level", "5"]
    extra = {
        "heat": ["--t", "0.5", "--x", "0"],
        "green": ["--x", "0"],
        "simulate": ["--t", "0.001", "--paths", "1000", "--seed", "1"],
    }[command]
    code, out, err = run(capsys, *argv, *extra)
    assert code == 2
    assert out == ""
    assert "12109375 cells exceeds the per-cell output limit 1048576" in err


def test_kernel_summary_runs_past_the_per_cell_limit(capsys):
    doc = run_json(capsys, "heat", "--model", "projective", "--n", "2", "--p", "5",
                   "--level", "5", "--t", "0.5")
    assert doc["mass_max_deviation"] < 1e-9
    assert "row" not in doc
