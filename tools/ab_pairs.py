"""Alternating A/B pairs of `bench/run.py` runs in two checkouts.

    python3 tools/ab_pairs.py PARENT CHANGE --pairs 10 --seconds 20 --workload certify
    python3 tools/ab_pairs.py PARENT CHANGE --pairs 5 --trace --workload generate

PARENT and CHANGE are two checkouts of this repository.  Each one runs
its own `bench/run.py`, unchanged, with `--seed 1 --trace 0`.  Pair i
runs the parent first when i is even and the change first when i is
odd, so a drift of the machine's speed lands on both sides alike.

Before any timing, the bytecode of both checkouts is levelled: each side
gets its own `PYTHONPYCACHEPREFIX` in a temporary directory, its sources
are compiled there, and one short warm-up run per workload writes the
bytecode of everything else it imports.  Without this, a checkout whose
`__pycache__` is stale recompiles its edited modules at every import
when `PYTHONDONTWRITEBYTECODE` is set, which shows in `peak_rss_mb` and
`setup_s` and has nothing to do with the code.

For each workload the script prints, per end-to-end metric of
`BENCHMARK.json` (read from CHANGE): both medians and quartiles, the
change of the median against its bound, the wins of the change, and the
claim rule in the metric's better direction: at least 9 wins in 10
pairs, and a median gap wider than the parent's interquartile range
(`claim_holds`).  Beside `peak_rss_mb` it prints each side's median
number of operations attempted: the harness keeps a sample per
operation, so a run that makes more operations in its time reads a
higher peak with no memory cost of the program's own.  Under it, each
side's `peak_rss_mb` at equal work: one `bench/run.py --seconds 0` run
per side after the pairs, the same passes over the same items on both
sides (`equal_work_rss`).

With `--trace` each pair is instead one `bench/run.py --seconds 0
--trace 1` run per side, alternating as above, and the script prints,
per per-layer metric of `BENCHMARK.json`, each side's median over its
runs and the change of the median (`layer_medians`).  One traced pass
is too noisy to resolve a change in a layer's time, so its medians are
the figures to quote, and a time metric (unit `s`) whose two sides'
interquartile ranges overlap is flagged `UNRESOLVED` (`iqrs_overlap`;
a layer that reads 0 on both sides did not run and is not flagged);
a count is the same in every run of one checkout, and a count metric
that is not is flagged `UNEQUAL`.  `--pairs` must be at least 1.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

WIN_SHARE = 0.9
MIN_PAIRS = 10
SEED = 1


def quartiles(values):
    """(q1, median, q3) of the values; the outer two by `statistics.quantiles`."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def wins(parent, change, higher_is_better):
    """The number of pairs in which the change is strictly better than the parent."""
    if higher_is_better:
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def claim_holds(parent, change, higher_is_better):
    """(holds, wins, gap, iqr) of the claim rule for paired runs of one metric.

    parent[i] and change[i] are the values of pair i.  The claim holds
    when there are at least MIN_PAIRS pairs, the change wins at least
    WIN_SHARE of them, and its median is better than the parent's by
    more than the parent's interquartile range.  gap is that difference
    of medians, positive when the change is better.
    """
    if len(parent) != len(change):
        raise ValueError("parent and change need the same number of runs")
    n = len(parent)
    won = wins(parent, change, higher_is_better)
    if n == 0:
        return False, 0, 0.0, 0.0
    q1, med, q3 = quartiles(parent)
    gap = statistics.median(change) - med
    if not higher_is_better:
        gap = -gap
    iqr = q3 - q1
    holds = n >= MIN_PAIRS and won >= math.ceil(WIN_SHARE * n) and gap > iqr
    return holds, won, gap, iqr


def _side_env(prefix):
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = prefix
    return env


def layer_medians(runs, per_layer):
    """{name: (median, unequal)} of one side's traced runs, per per-layer metric they report.

    unequal is True for a metric of unit "count" whose runs do not all
    agree, which no change of the machine's speed explains.
    """
    out = {}
    for m in per_layer:
        values = [r[m["name"]] for r in runs if m["name"] in r]
        if values:
            out[m["name"]] = (statistics.median(values),
                              m["unit"] == "count" and len(set(values)) > 1)
    return out


def iqrs_overlap(parent, change):
    """True when the interquartile ranges of the two sides' values overlap."""
    p1, _pm, p3 = quartiles(parent)
    c1, _cm, c3 = quartiles(change)
    return p1 <= c3 and c1 <= p3


def run_bench(checkout, env, workload, seconds, trace=0):
    """The metrics {name: value} of one `bench/run.py` run, and its "attempted" count.

    Raises on a failed run.
    """
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError("%s in %s exited %d: %s" % (" ".join(cmd[1:]), checkout,
                                                      proc.returncode, proc.stderr.strip()))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError("%s in %s: %d failed" % (workload, checkout, result["failed"]))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["attempted"] = result["attempted"]
    return metrics


def level_bytecode(checkout, env, workloads):
    """Compile the checkout's sources under its prefix, then warm up every workload once."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                   cwd=checkout, env=env, check=True)
    for w in workloads:
        run_bench(checkout, env, w, 0)


def equal_work_rss(sides, envs, workload):
    """{side: peak_rss_mb} of one `bench/run.py --seconds 0` run per side, parent first."""
    return {side: run_bench(sides[side], envs[side], workload, 0)["peak_rss_mb"]
            for side in ("parent", "change")}


def report(workload, metrics, runs, equal_rss=None):
    """Print one workload's table, with the claim rule under each metric.

    The `peak_rss_mb` line ends with each side's median operations
    attempted; the sides' peaks at equal work, `equal_rss` from
    `equal_work_rss`, follow its claim line when given.
    """
    print("== %s: %d pairs" % (workload, len(runs["parent"])))
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        pq, cq = quartiles(parent), quartiles(change)
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        worse = -rel if higher else rel
        attempted = ""
        if name == "peak_rss_mb":
            attempted = "  attempted parent %g change %g" % tuple(
                statistics.median(r["attempted"] for r in runs[side])
                for side in ("parent", "change"))
        print("  %-12s parent %10.4g [%.4g, %.4g]  change %10.4g [%.4g, %.4g]  "
              "%+6.1f%% (bound %g%%%s)  wins %d/%d%s"
              % (name, pq[1], pq[0], pq[2], cq[1], cq[0], cq[2], 100 * rel,
                 100 * m["bound"], ", WORSE" if worse > m["bound"] else "",
                 wins(parent, change, higher), len(parent), attempted))
        holds, won, gap, iqr = claim_holds(parent, change, higher)
        print("    claim: %d/%d wins (need %d of >= %d), median gap %.4g vs parent IQR "
              "%.4g: %s" % (won, len(parent), math.ceil(WIN_SHARE * len(parent)),
                            MIN_PAIRS, gap, iqr, "holds" if holds else "does not hold"))
        if name == "peak_rss_mb" and equal_rss is not None:
            p, c = equal_rss["parent"], equal_rss["change"]
            print("    at equal work (--seconds 0): parent %.4g change %.4g  %+6.1f%%"
                  % (p, c, 100 * (c - p) / p if p else 0.0))


def report_layers(workload, per_layer, runs):
    """Print one workload's per-layer medians of both sides, flagging unequal
    counts and unresolved times."""
    print("== %s: %d traced runs a side" % (workload, len(runs["parent"])))
    parent = layer_medians(runs["parent"], per_layer)
    change = layer_medians(runs["change"], per_layer)
    units = {m["name"]: m["unit"] for m in per_layer}
    for name in (n for n in parent if n in change):
        (pm, punequal), (cm, cunequal) = parent[name], change[name]
        flags = "".join("  UNEQUAL in %s" % side
                        for side, unequal in (("parent", punequal), ("change", cunequal))
                        if unequal)
        if units[name] == "s" and (pm or cm):
            parent_s, change_s = ([r[name] for r in runs[side] if name in r]
                                  for side in ("parent", "change"))
            if iqrs_overlap(parent_s, change_s):
                flags += "  UNRESOLVED"
        rel = "%+7.1f%%" % (100 * (cm - pm) / pm) if pm else "        "
        print("  %-30s parent %12.6g  change %12.6g  %s%s" % (name, pm, cm, rel, flags))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: every one in BENCHMARK.json)")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", action="store_true",
                   help="compare the per-layer metrics of traced runs (--seconds is not used)")
    p.add_argument("--out", help="write every run's metrics to this JSON file")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1, not %d" % args.pairs)

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    tmp = tempfile.mkdtemp(prefix="ab-pairs-")
    try:
        envs = {side: _side_env(os.path.join(tmp, side)) for side in sides}
        for side, checkout in sides.items():
            level_bytecode(checkout, envs[side], workloads)
        record = {}
        for w in workloads:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_bench(sides[side], envs[side], w,
                                                0 if args.trace else args.seconds,
                                                int(args.trace)))
            record[w] = runs
            if args.trace:
                report_layers(w, bench["per_layer"], runs)
            else:
                runs["equal_work_rss"] = equal_work_rss(sides, envs, w)
                report(w, bench["end_to_end"], runs, runs["equal_work_rss"])
            if args.out:
                with open(args.out, "w") as f:
                    json.dump({"args": vars(args), "runs": record}, f, indent=1)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
