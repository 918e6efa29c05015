"""Closed-loop benchmark of padic-spectra: one workload, one client, one process.

    python3 perfbench/run.py --workload curves --seed 1 --trace 0 [--seconds 18]

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  ``--seconds`` defaults to ``run_seconds`` of
BENCHMARK.json.  The loop runs whole rounds of the workload (see
workloads.py) until the operations' busy time, at reference speed (below),
reaches ``--seconds``, or their raw busy time reaches RAW_CAP times that;
every operation's output is checked against an oracle of the benchmark's own
(oracles.py), outside the timed span.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs each round twice, untraced then traced on the same inputs, and reports
the per-layer metrics (per traced op, raw times) plus the tracing overhead;
the spans go to ``.perfbench/trace-<workload>-<seed>.json``.  The last line
of standard output is the result object; the line before it records the
environment.

``setup_s`` is the median over fresh child processes of the time from spawn
to the first op being ready: interpreter start, imports and input generation.

Every end-to-end time is at reference speed.  A shared host's speed swings by
up to 2x, in phases of seconds.  So the benchmark reads the host's speed right
before and right after every timed span (an op, a set-up probe): a reading is
the run time of a fixed reference kernel (reference.py: interpreter, Fraction
and numpy work), the lower of two back-to-back runs.  Each span's time is
multiplied by REFERENCE_S / (mean of its two readings): it reads about as it
would on a host that runs the kernel in REFERENCE_S.  The kernel runs in a
helper process of its own that never imports the program, while this process
waits, so the program's heap and garbage collections do not reach the
readings; only what the program leaves in the host's shared caches when a span
ends could.  The raw figures are kept in the environment line, and compare.py
reports them beside the scaled ones.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 4
TAIL_BEYOND = 10
REFERENCE_S = 0.006
RAW_CAP = 1.3

# One thread everywhere: set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _isolate_environment():
    os.environ.pop("PADIC_SPECTRA_THREADS", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _parse_args(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="busy time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one round: proves every op and oracle runs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        import json

        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    return args


def _import_program():
    """Import padic_spectra from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "padic_spectra", "__init__.py")):
        sys.exit(f"error: no program source at {os.path.relpath(SRC, os.getcwd())}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import padic_spectra

    if not os.path.abspath(padic_spectra.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: padic_spectra imported from {padic_spectra.__file__}, not {SRC}")


def _prepare(args, tmpdir):
    """Build the workload and its first round: the set-up every run pays."""
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r};"
                 f" choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](
        args.seed, "smoke" if args.smoke else "full", tmpdir
    )
    return workload, workload.round(0)


def _setup_samples(args, count, clock):
    """Spawn-to-ready times of fresh processes doing this run's set-up, raw
    and at reference speed."""
    import subprocess

    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    raw, scaled = [], []
    for _ in range(count):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(done.stdout.split()[-1]) - start)
        scaled.append(clock.at_reference_speed(raw[-1]))
    return raw, scaled


def _environment(args):
    import platform
    import subprocess

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_at_start": list(os.getloadavg()),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class _ReferenceClock:
    """Reads the host's speed around timed spans with the reference kernel,
    timed in a helper process (reference.py)."""

    WARMUP = 3

    def __init__(self):
        import subprocess

        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.readings = []

    def _time(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference helper exited")
        return float(line)

    def _read(self):
        """Kernel time now: the lower of two back-to-back runs, so that one
        run cut short by the scheduler does not count."""
        self.readings.append(min(self._time(), self._time()))

    def start(self):
        for _ in range(self.WARMUP):
            self._time()
        self._read()

    def at_reference_speed(self, elapsed):
        """A span's time, just measured, at reference speed: scaled by the
        readings right before and right after it."""
        self._read()
        return elapsed * 2 * REFERENCE_S / (self.readings[-2] + self.readings[-1])

    def close(self):
        import subprocess

        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _run_op(op, tracer=None, op_id=None):
    """Time one op; returns (seconds, failure reason or None)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = op.run()
        else:
            outcome = tracer.run_op(op_id, op.kind, op.run)
    except Exception as exc:  # an op that raises counts as failed, the loop goes on
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        why = op.check(outcome)
    except Exception as exc:  # a malformed output is a failed op
        why = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, why


def _tail(durations):
    """Highest-percentile op time that still has TAIL_BEYOND ops above it."""
    ordered = sorted(durations)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:  # too few ops for any percentile to have TAIL_BEYOND above it
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def main(argv=None):
    process_start = time.monotonic()
    args = _parse_args(argv)
    _isolate_environment()
    _import_program()
    import shutil
    import tempfile

    os.makedirs(WORK_DIR, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=WORK_DIR)
    clock = None
    try:
        workload, first_round = _prepare(args, tmpdir)
        if args.setup_probe:
            print(time.monotonic())
            return 0
        own_setup = time.monotonic() - process_start
        env = _environment(args)
        clock = _ReferenceClock()
        clock.start()
        setup, setup_scaled = _setup_samples(args, 1 if args.smoke else SETUP_SAMPLES, clock)
        result, info = _measure(args, workload, first_round, clock)
    finally:
        if clock is not None:
            clock.close()
        shutil.rmtree(tmpdir, ignore_errors=True)
    import json
    import resource
    import statistics

    info["setup_samples_s"] = setup
    info["own_setup_s"] = own_setup
    info["reference_readings_s"] = clock.readings
    if not args.trace:
        info["raw"]["setup_s"] = statistics.median(setup)
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_scaled), "unit": "s"}
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    print(json.dumps({"env": env, "run": info}))
    print(json.dumps(result))
    return 0


def _measure(args, workload, first_round, clock):
    import statistics

    import tracing

    tracer = tracing.Tracer() if args.trace else None
    durations, scaled, kinds, failures = [], [], [], []
    traced_ids, untraced_busy, traced_busy = [], 0.0, 0.0
    r, ops = 0, first_round
    while True:
        for i, op in enumerate(ops):
            elapsed, why = _run_op(op)
            durations.append(elapsed)
            scaled.append(clock.at_reference_speed(elapsed))
            kinds.append(op.kind)
            if why is not None:
                failures.append(f"round {r} {op.kind}: {why}")
            if tracer is not None:
                untraced_busy += elapsed
                op_id = f"{r}.{i}"
                tracer.install()
                try:
                    elapsed, why = _run_op(op, tracer, op_id)
                finally:
                    tracer.uninstall()
                traced_busy += elapsed
                traced_ids.append(op_id)
                durations.append(elapsed)
                scaled.append(clock.at_reference_speed(elapsed))
                kinds.append(op.kind)
                if why is not None:
                    failures.append(f"round {r} {op.kind} traced: {why}")
        r += 1
        if (args.smoke or sum(scaled) >= args.seconds
                or sum(durations) >= RAW_CAP * args.seconds):
            break
        ops = workload.round(r)

    attempted = len(durations)
    busy = sum(durations)
    info = {"rounds": r, "ops_per_round": len(first_round), "busy_s": busy,
            "reference_busy_s": sum(scaled), "failures": failures[:20],
            "ops": [[k, d, x] for k, d, x in zip(kinds, durations, scaled)]}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures)}
    if tracer is None:
        tail, percentile = _tail(scaled)
        verified = attempted - len(failures)
        info["raw"] = {"ops_per_s": verified / busy, "op_p50_s": statistics.median(durations),
                       "op_tail_s": _tail(durations)[0]}
        info.update({"op_tail_percentile": percentile, "op_samples": attempted,
                     "per_kind_median_s": {
                         k: statistics.median(x for x, kk in zip(scaled, kinds) if kk == k)
                         for k in dict.fromkeys(kinds)}})
        result["metrics"] = {
            "ops_per_s": {"value": verified / sum(scaled), "unit": "ops/s"},
            "op_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "op_tail_s": {"value": tail, "unit": "s"},
            "verified_ratio": {"value": verified / attempted, "unit": "1"},
        }
        return result, info

    import workloads

    cap_hits = 0
    if isinstance(workload, workloads.Diffusion) and not args.smoke:
        tracer.install()
        try:
            cap_hits = int(tracer.run_op("probe", "readme_level3_simulate",
                                         workload.readme_level3_cap_hit))
        finally:
            tracer.uninstall()
    values = tracer.layer_metrics(traced_ids)
    values["probe.readme_level3_simulate.cap_hits"] = cap_hits
    values["trace.overhead_ratio"] = traced_busy / untraced_busy - 1.0
    units = tracing.metric_units()
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    trace_path = os.path.join(WORK_DIR, f"trace-{args.workload}-{args.seed}.json")
    tracer.dump(trace_path)
    info["trace_file"] = os.path.relpath(trace_path, ROOT)
    return result, info


if __name__ == "__main__":
    sys.exit(main())
