"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py run --base DIR --change DIR --workload curves \\
        --pairs 10 --out pairs.jsonl
    python3 perfbench/compare.py report pairs.jsonl

``run`` runs the benchmark in two checkouts in alternating order (base first
in even pairs, change first in odd ones), each pair on its own seed and for
``run_seconds`` of BENCHMARK.json, and appends one JSON line per run.
``report`` prints, per workload and end-to-end metric, each side's median and
quartiles and a verdict:

* ``gain``: at least 10 pairs, the change wins at least 9/10 of them (ties
  count for neither) and the medians differ by more than the base's
  quartile spread, with no more failed operations than the base;
* ``regressed``: the change's median is worse than the base's by more than
  the metric's bound in BENCHMARK.json;
* ``unresolved``: the base's own quartile spread exceeds the bound and not
  every change run beats every base run;
* ``no regression`` otherwise.

End-to-end times are at reference speed (see run.py); below each metric that
has one, a ``raw`` line gives the same figures as measured, with their own
verdict.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_one(checkout, workload, seed):
    """The result object of one run, with the raw figures of its environment
    line added under "raw"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {done.returncode}: {done.stderr[-2000:]}")
    *_, env_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    result["raw"] = json.loads(env_line)["run"]["raw"]
    return result


def run_pairs(base, change, workload, pairs, out, first_seed):
    with open(out, "a") as fh:
        for i in range(pairs):
            sides = [("base", base), ("change", change)]
            if i % 2:
                sides.reverse()
            for side, checkout in sides:
                result = _run_one(checkout, workload, first_seed + i)
                record = {"workload": workload, "pair": i, "side": side,
                          "seed": first_seed + i, "result": result}
                fh.write(json.dumps(record) + "\n")
                fh.flush()


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound, base_failed, change_failed):
    """Decision rule for one metric: base and change are lists of values,
    index-aligned by pair."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    b1, bmed, b3 = _quartiles(base)
    _, cmed, _ = _quartiles(change)
    gap = sign * (cmed - bmed)
    if (len(base) >= MIN_PAIRS and wins >= WIN_SHARE * len(base) and gap > b3 - b1
            and change_failed <= base_failed):
        return "gain", wins
    if -gap > bound * abs(bmed):
        return "regressed", wins
    if b3 - b1 > bound * abs(bmed) and not all(
        sign * (c - b) > 0 for c in change for b in base
    ):
        return "unresolved", wins
    return "no regression", wins


def report(path):
    spec = _spec()
    runs = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            runs.setdefault(record["workload"], {}).setdefault(record["pair"], {})[
                record["side"]] = record["result"]
    lines = []
    for workload, pairs in sorted(runs.items()):
        complete = [p for _, p in sorted(pairs.items()) if {"base", "change"} <= set(p)]
        failed = {side: sum(p[side]["failed"] for p in complete) for side in ("base", "change")}
        lines.append(f"{workload}: {len(complete)} pairs, failed ops base {failed['base']}"
                     f" change {failed['change']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows = [(name, lambda run: run["metrics"][name]["value"])]
            if all(name in p[side].get("raw", {}) for p in complete for side in p):
                rows.append(("  raw", lambda run: run["raw"][name]))
            for label, read in rows:
                base = [read(p["base"]) for p in complete]
                change = [read(p["change"]) for p in complete]
                if not base:
                    continue
                decision, wins = verdict(base, change, metric["better"], metric["bound"],
                                         failed["base"], failed["change"])
                bq, cq = _quartiles(base), _quartiles(change)
                lines.append(
                    f"  {label:15s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                    f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {metric['unit']}"
                    f"  wins {wins}/{len(complete)}  {decision}"
                )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run alternating pairs of two checkouts")
    run.add_argument("--base", required=True, help="checkout of the parent commit")
    run.add_argument("--change", required=True, help="checkout of the change")
    run.add_argument("--workload", required=True)
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--first-seed", type=int, default=1000)
    run.add_argument("--out", required=True, help="JSON-lines file to append to")
    rep = commands.add_parser("report", help="summarise a JSON-lines file of pairs")
    rep.add_argument("path")
    args = parser.parse_args(argv)
    if args.command == "run":
        run_pairs(args.base, args.change, args.workload, args.pairs, args.out, args.first_seed)
        print(report(args.out))
    else:
        print(report(args.path))
    return 0


if __name__ == "__main__":
    sys.exit(main())
