"""Smoke checks of the benchmark harness, with no timing gate.

Every workload runs one round at tiny sizes in both modes: every op and
oracle path must pass and every metric named in BENCHMARK.json must be
emitted with its unit.  The oracles must reject wrong outputs, the harness
must refuse to run without the program's source, and the compare rule must
call a clear win a gain.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from padic_spectra import models

import compare
import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_op_and_metric_runs(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "curves", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_rule():
    base = [10.0 + 0.1 * (i % 3) for i in range(10)]
    assert compare.verdict(base, [v + 1.0 for v in base], "higher", 0.1, 0, 0)[0] == "gain"
    assert compare.verdict(base, [v * 0.5 for v in base], "higher", 0.1, 0, 0)[0] == "regressed"
    assert compare.verdict(base, list(base), "higher", 0.1, 0, 0)[0] == "no regression"
    # more failed operations than the base rule out a gain
    assert compare.verdict(base, [v + 1.0 for v in base], "higher", 0.1, 0, 1)[0] != "gain"


def test_oracles_reject_wrong_outputs(tmp_path, monkeypatch):
    deep = workloads.DeepSpectrum(3, "smoke", str(tmp_path))
    ops = deep.round(0)
    assert all(op.check(op.run()) is None for op in ops)

    # a semigroup that returns its input, or only its mean, fails
    oracle = deep.spectrum_oracle(workloads.SIZES["smoke"]["deep_models"][0])
    _, _, values = deep._semigroup_input(oracle, random.Random(1))
    expected = values.mean() + 0.5 * (values - values.mean())
    assert oracles.check_semigroup(values, expected) is not None
    assert oracles.check_semigroup(np.full_like(values, values.mean()), expected) is not None

    # cross-top distances off by one top's measure fail the spectrum check
    original = models.CellModel.cross_top_distance
    monkeypatch.setattr(models.CellModel, "cross_top_distance",
                        lambda self, a, b: original(self, a, b) + Fraction(1, self.branching))
    ops = workloads.DeepSpectrum(3, "smoke", str(tmp_path)).round(0)
    assert all(op.check(op.run()) is not None for op in ops)


def test_compare_report_gives_raw_figures(tmp_path):
    path = tmp_path / "pairs.jsonl"
    with open(path, "w") as fh:
        for pair in range(10):
            for side, value in (("base", 1.0 + 0.01 * pair), ("change", 2.0 + 0.01 * pair)):
                metrics = {m["name"]: {"value": value, "unit": m["unit"]}
                           for m in SPEC["end_to_end"]}
                result = {"failed": 0, "metrics": metrics, "raw": {"ops_per_s": 0.5 * value}}
                fh.write(json.dumps({"workload": "curves", "pair": pair, "side": side,
                                     "result": result}) + "\n")
    lines = compare.report(str(path)).splitlines()
    assert lines[1].split()[0] == "ops_per_s" and lines[1].endswith("gain")
    assert lines[2].split()[0] == "raw" and lines[2].endswith("gain")
