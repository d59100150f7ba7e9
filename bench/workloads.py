"""The four benchmark workloads.

Each workload is a closed loop with one client in one thread.  A
workload's `setup()` prepares fresh inputs (releasing those of the
previous set-up) and returns them as a list of items, one pass;
`execute(item)` is the timed operation; `check(item,
output)` compares the output with the frozen golden result, untimed, and
returns a reason string on a mismatch.

The item set of each workload is fixed and the seed only orders the
passes.  Drawing the instances themselves from the seed makes the
throughput spread between seeds exceed 60 %, because a few instances
cost a hundred times the median (see NOTES.md).
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from time import perf_counter

from harness import GOLDEN_DIR, ROOT, SetupError

# the acceptance suite's random part and its interior seeds
ACCEPTANCE_SEEDS = tuple(range(1000, 1096))
INTERIOR_SEEDS = (5, 27, 82, 93, 119, 159, 271, 362)
# certify runs the corpus, the first 64 random acceptance seeds and the
# interior seeds below 150 (82 recurses through two nested slices).  The
# other 35 acceptance instances take 36 s of find + verify together, twice
# the rest, and 271 alone 19 s: more than several passes of one run allow.
CERTIFY_SEEDS = ACCEPTANCE_SEEDS[:64] + tuple(s for s in INTERIOR_SEEDS if s < 150)
GENERATE_SEEDS = tuple(range(2000, 2016))
# near-boundary ladders: smooth A^3 with B = (1-1/d, 1-1/d, 0) and smooth
# A^2 with B = (1-1/d, 0).  The largest points take about 0.4 s, so that a
# run makes ten passes; mld_over_fiber is already 90 % of their time.
LADDER_A3 = (2, 3, 4, 6, 8, 11, 16, 23, 32, 45)
LADDER_A2 = (10, 32, 100, 316, 1000, 3162)
QUERY_COMMANDS = ("check", "lc", "lct")


def load_golden(name):
    try:
        with open(os.path.join(GOLDEN_DIR, name + ".json"), encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SetupError("cannot read golden file: %s" % exc)


def canonical(obj):
    from toricmld.instances import dumps_canonical

    return dumps_canonical(obj)


def generated_instance(seed):
    """random_instance(seed) as an instance object, commented as `toricmld gen` does."""
    from toricmld.generator import random_instance
    from toricmld.instances import instance_to_obj

    tc, pair, meta = random_instance(seed)
    return instance_to_obj(tc, pair, "generated instance, seed %d" % seed), meta


class Workload:
    name = ""
    budget_s = 30.0      # CPU seconds one operation may use before it fails

    def setup(self):
        raise NotImplementedError

    def execute(self, item):
        raise NotImplementedError

    def check(self, item, output):
        raise NotImplementedError

    def label(self, item):
        return str(item[0])

    def parts(self, output):
        """Named sub-timings of one operation, in seconds."""
        return {}

    def close(self):
        """Release what the last setup created."""


class _FindVerify(Workload):
    """find_hyperplane then verify_certificate on (label, tc, pair, ...) items."""

    def execute(self, item):
        from toricmld.search import find_hyperplane, verify_certificate

        _label, tc, pair = item[:3]
        t0 = perf_counter()
        cert = find_hyperplane(tc, pair)
        t1 = perf_counter()
        ok, reasons = verify_certificate(tc, pair, cert)
        t2 = perf_counter()
        return cert, ok, reasons, t1 - t0, t2 - t1

    def parts(self, output):
        return {"find": output[3], "verify": output[4]}

    def check_certificate(self, tc, output):
        from toricmld.search import gamma

        cert, ok, reasons = output[:3]
        if not ok:
            return "verify_certificate rejected: %s" % "; ".join(reasons)
        if cert.gamma < gamma(tc.rank, cert.mld):
            return "gamma %s below gamma(d, mld)" % cert.gamma
        return None


class Certify(_FindVerify):
    name = "certify"

    def setup(self):
        from toricmld.instances import instance_from_obj

        golden = load_golden("certify")
        items = []
        for entry in golden["instances"]:
            tc, pair = instance_from_obj(entry["instance"])
            items.append((entry["name"], tc, pair, canonical(entry["certificate"])))
        return items

    def check(self, item, output):
        from toricmld.instances import certificate_to_obj

        reason = self.check_certificate(item[1], output)
        if reason is None and canonical(certificate_to_obj(output[0])) != item[3]:
            reason = "certificate differs from the golden one"
        return reason


class NearBoundary(_FindVerify):
    name = "near-boundary"
    budget_s = 5.0

    def setup(self):
        from toricmld.lattice import identity
        from toricmld.pairs import make_contraction, make_fan, make_pair, validate_contraction

        items = []
        for n, ladder, boundary in ((3, LADDER_A3, 2), (2, LADDER_A2, 1)):
            rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            fan = make_fan(n, rays, [tuple(range(n))])
            tc = make_contraction(fan, identity(n))
            validate_contraction(tc)
            for d in ladder:
                b = [1 - Fraction(1, d)] * boundary + [0] * (n - boundary)
                pair = make_pair(fan, b, [(0,) * n])
                # the mld is attained at (1, ..., 1): boundary * (1/d) + (n - boundary)
                items.append(("A%d_d%d" % (n, d), tc, pair, 1 + Fraction(boundary, d)))
        return items

    def check(self, item, output):
        reason = self.check_certificate(item[1], output)
        if reason is None and output[0].mld != item[3]:
            reason = "mld %s differs from the closed form %s" % (output[0].mld, item[3])
        return reason


class Generate(Workload):
    name = "generate"

    def setup(self):
        return [(e["seed"], canonical(e["instance"])) for e in load_golden("generate")["instances"]]

    def execute(self, item):
        return canonical(generated_instance(item[0])[0])

    def check(self, item, output):
        return None if output == item[1] else "instance differs from the golden one"


def query_calls(directory):
    """Write the query instances into directory; return (label, argv) per call.

    The instances are those of the certify and generate goldens.  `lct`
    gets its functional as `--phibar=v`, because argparse reads
    `--phibar -1,0` as a missing value followed by an option.
    """
    golden = load_golden("query")
    files = {}
    for entry in load_golden("certify")["instances"]:
        files[entry["name"]] = canonical(entry["instance"]).encode("utf-8")
    for entry in load_golden("generate")["instances"]:
        files["gen_%d" % entry["seed"]] = canonical(entry["instance"]).encode("utf-8")
    paths = {}
    for name, data in files.items():
        paths[name] = os.path.join(directory, name + ".json")
        with open(paths[name], "wb") as fh:
            fh.write(data)
    calls = []
    for entry in golden["calls"]:
        argv = [entry["command"], paths[entry["instance"]]] + entry["args"] + ["--json"]
        calls.append(("%s:%s" % (entry["command"], entry["instance"]), argv,
                      entry["exit"], entry["payload"]))
    return calls


class Query(Workload):
    name = "query"

    def __init__(self):
        self._dir = None

    def setup(self):
        self.close()
        self._dir = tempfile.mkdtemp(prefix=".bench-query-", dir=ROOT)
        return query_calls(self._dir)

    def execute(self, item):
        from toricmld.cli import main

        out = io.StringIO()
        with redirect_stdout(out):
            code = main(item[1])
        return code, out.getvalue()

    def check(self, item, output):
        code, text = output
        if code != item[2]:
            return "exit code %r, golden %r" % (code, item[2])
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return "output is not JSON: %r" % text[:80]
        return None if payload == item[3] else "payload %r differs from golden %r" % (payload, item[3])

    def close(self):
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None


WORKLOADS = {w.name: w for w in (Certify, Generate, NearBoundary, Query)}
