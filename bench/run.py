"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

With `--trace 0`, set-up and a pass over the workload's items repeat,
untraced, until `--seconds` have gone by and at least three passes ran;
the end-to-end metrics are printed.  With `--trace 1` one pass runs
untraced and the same pass runs again, on freshly set-up inputs, under
the span tracer; the per-layer metrics of the traced pass are printed.

Every time is also scaled to nominal machine speed: a fixed reference
loop runs before each operation and each set-up, and a sample is scaled
by REFERENCE_NOMINAL_S over the median of the reference times around it
(see harness.reference_loop).  The metrics are the scaled times; the run
record also holds the raw ones.

Every output is checked against the golden results in `bench/golden`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
run record (machine, commit, sample counts, percentiles and the number
of samples beyond each).  The exit code is 0 when every output matched,
1 on any mismatch or failed operation, 2 when the checkout cannot run
the benchmark.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from time import perf_counter

from harness import (
    SetupError,
    WorkBudgetExceeded,
    hd_quantile,
    import_program,
    machine_record,
    peak_rss_mb,
    percentile,
    reference_loop,
    speed_factors,
    work_budget,
)

# a timed run makes at least MIN_PASSES passes, so that every item has that
# many samples; each pass starts with its own timed set-up
MIN_PASSES = 3
PERCENTILES = (50, 90)
MAX_REPORTED_FAILURES = 20


class Loop:
    """Raw samples of passes over a workload's items.

    Every timed sample carries the index of the reference time taken
    just before it, in `reference`.
    """

    def __init__(self):
        self.reference = []          # seconds per reference loop
        self.samples = []            # (item label, seconds, reference index) per successful operation
        self.parts = {}              # sub-timing name -> [(seconds, reference index)]
        self.setups = []             # (seconds, reference index) per set-up
        self.pass_walls = []         # (seconds, first reference index, end reference index) per pass
        self.failures = []           # (item label, reason)
        self.attempted = 0
        self.items = 0

    def mark_reference(self):
        t0 = perf_counter()
        reference_loop()
        self.reference.append(perf_counter() - t0)
        return len(self.reference) - 1

    def scaled(self, timed):
        """Seconds at nominal speed for (seconds, reference index) pairs."""
        factors = speed_factors(self.reference, [at for _, at in timed])
        return [seconds * f for (seconds, _), f in zip(timed, factors)]


def run_pass(workload, items, loop):
    """One pass over items: time each operation, then check its output."""
    first = len(loop.reference)
    start = perf_counter()
    for item in items:
        loop.attempted += 1
        label = workload.label(item)
        at = loop.mark_reference()
        t0 = perf_counter()
        try:
            with work_budget(workload.budget_s):
                output = workload.execute(item)
        except WorkBudgetExceeded as exc:
            loop.failures.append((label, str(exc)))
            continue
        except Exception as exc:  # a failed operation is a result, not a crash
            loop.failures.append((label, "%s: %s" % (type(exc).__name__, exc)))
            continue
        elapsed = perf_counter() - t0
        reason = workload.check(item, output)
        if reason is not None:
            loop.failures.append((label, reason))
            continue
        loop.samples.append((label, elapsed, at))
        for key, value in workload.parts(output).items():
            loop.parts.setdefault(key, []).append((value, at))
    loop.pass_walls.append((perf_counter() - start, first, len(loop.reference)))
    loop.items = len(items)
    return loop


def percentile_record(samples_s):
    """{"p50": [ms, samples beyond], ...} for a list of seconds."""
    if not samples_s:
        return {}
    ms = [x * 1000.0 for x in samples_s]
    return {"p%d" % p: list(percentile(ms, p)) for p in PERCENTILES}


def timed_run(workload, seed, seconds):
    """Set-up and pass, repeated until `seconds` have gone by (at least MIN_PASSES).

    Each pass takes the items in a new order drawn from the seed, so that
    garbage-collector pauses land on different items.  An item's latency
    is the median of its scaled samples.  The latency percentiles
    (Harrell-Davis estimates) and the throughput are taken over items;
    the run record also holds the nearest-rank percentiles.  setup_s is
    the median scaled set-up time.
    """
    rng = random.Random(seed)
    loop = Loop()
    start = perf_counter()
    while len(loop.pass_walls) < MIN_PASSES or perf_counter() - start < seconds:
        at = loop.mark_reference()
        t0 = perf_counter()
        items = workload.setup()
        loop.setups.append((perf_counter() - t0, at))
        rng.shuffle(items)
        run_pass(workload, items, loop)
    per_item = {}
    scaled = loop.scaled([(s, at) for _, s, at in loop.samples])
    for (label, _s, _at), value in zip(loop.samples, scaled):
        per_item.setdefault(label, []).append(value)
    typical = [statistics.median(v) for v in per_item.values()]
    metrics = {"setup_s": (statistics.median(loop.scaled(loop.setups)), "s")}
    if typical:
        metrics.update({
            "ops_per_s": (len(typical) / sum(typical), "1/s"),
            "op_p50_ms": (hd_quantile(typical, 0.5) * 1000.0, "ms"),
            "op_p90_ms": (hd_quantile(typical, 0.9) * 1000.0, "ms"),
        })
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    return loop, typical, metrics


def seeded_pass(workload, seed):
    """Freshly set-up items in the first order the seed gives."""
    items = workload.setup()
    random.Random(seed).shuffle(items)
    return items


def traced_run(workload, seed):
    """One untraced pass, then the same pass on fresh inputs under the tracer.

    trace.overhead_frac compares the two passes' summed operation times,
    each scaled to nominal machine speed like the timed run's samples.
    """
    from tracer import Tracer, layer_metrics

    loop = run_pass(workload, seeded_pass(workload, seed), Loop())
    items = seeded_pass(workload, seed)
    tracer = Tracer()
    with tracer:
        run_pass(workload, items, loop)
    untraced_end = loop.pass_walls[0][2]
    scaled = loop.scaled([(s, at) for _, s, at in loop.samples])
    untraced = sum(v for (_, _, at), v in zip(loop.samples, scaled) if at < untraced_end)
    traced = sum(v for (_, _, at), v in zip(loop.samples, scaled) if at >= untraced_end)
    metrics = {}
    for name, value in layer_metrics(tracer, loop.pass_walls[1][0], traced / untraced - 1.0).items():
        unit = "s" if name.endswith("_s") else ("ratio" if name.endswith(("_frac", "_yield", "_ratio"))
                                                 else "count")
        metrics[name] = (value, unit)
    return loop, [s for _, s, _ in loop.samples], metrics


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    t0 = perf_counter()
    try:
        import_program()
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    from workloads import WORKLOADS

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]()
    record = dict(machine_record(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, import_s=import_s)
    try:
        if args.trace:
            loop, samples, metrics = traced_run(workload, args.seed)
        else:
            loop, samples, metrics = timed_run(workload, args.seed, args.seconds)
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        workload.close()

    raw = {"op": [s for _, s, _ in loop.samples]}
    raw.update({k: [s for s, _ in v] for k, v in loop.parts.items()})
    record.update(
        items_per_pass=loop.items, passes=len(loop.pass_walls),
        pass_wall_s=[w for w, _, _ in loop.pass_walls],
        setup_raw_s=[s for s, _ in loop.setups],
        attempted=loop.attempted, failed=len(loop.failures),
        samples=len(samples), failures=loop.failures[:MAX_REPORTED_FAILURES],
        reference_ms=percentile_record(loop.reference),
        percentiles_ms={"op": percentile_record(samples)},
        raw_percentiles_ms={k: percentile_record(v) for k, v in raw.items()},
    )
    correct = not loop.failures
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print("run-record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
