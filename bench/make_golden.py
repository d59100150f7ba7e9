"""Regenerate the golden results in bench/golden from the current program.

    python3 bench/make_golden.py [certify|generate|query ...]

The goldens are a behaviour snapshot: run this only when a change is
meant to alter the program's output, and review the diff.  `query`
reads the certify and generate goldens, so regenerate those first.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout

from harness import GOLDEN_DIR, ROOT, import_program
from workloads import (
    CERTIFY_SEEDS,
    GENERATE_SEEDS,
    QUERY_COMMANDS,
    generated_instance,
    load_golden,
    query_calls,
)


def write_golden(name, key, entries):
    """One entry per line, so that a changed result shows as a one-line diff."""
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    lines = ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries)
    with open(os.path.join(GOLDEN_DIR, name + ".json"), "w", encoding="utf-8") as fh:
        fh.write('{"%s": [\n%s\n]}\n' % (key, lines))


def make_certify():
    from toricmld.instances import CORPUS, certificate_to_obj, instance_from_obj, load_corpus
    from toricmld.search import find_hyperplane, verify_certificate

    sources = [(name, load_corpus(name)[2]) for name in CORPUS]
    sources += [("seed%d" % s, generated_instance(s)[0]) for s in CERTIFY_SEEDS]
    entries = []
    for name, obj in sources:
        tc, pair = instance_from_obj(obj)
        cert = find_hyperplane(tc, pair)
        ok, reasons = verify_certificate(tc, pair, cert)
        if not ok:
            raise SystemExit("%s: certificate rejected: %s" % (name, reasons))
        entries.append({"name": name, "instance": obj, "certificate": certificate_to_obj(cert)})
    write_golden("certify", "instances", entries)


def make_generate():
    entries = []
    for s in GENERATE_SEEDS:
        obj, meta = generated_instance(s)
        entries.append({"seed": s, "attempts": meta["attempts"], "instance": obj})
    write_golden("generate", "instances", entries)


def _phibar(obj):
    """A functional in the dual of sigma_bar: the primitive sum of its dual rays."""
    from toricmld.instances import instance_from_obj
    from toricmld.lattice import primitive

    tc, _pair = instance_from_obj(obj)
    rays = tc.sigma_bar.dual_rays
    return primitive(tuple(sum(r[i] for r in rays) for i in range(tc.base_rank)))


def make_query():
    """Record exit code and payload of every call; every call must succeed."""
    from toricmld.cli import main as cli_main

    objs = [(e["name"], e["instance"]) for e in load_golden("certify")["instances"]]
    objs += [("gen_%d" % e["seed"], e["instance"]) for e in load_golden("generate")["instances"]]
    calls = []
    for name, obj in objs:
        for command in QUERY_COMMANDS:
            args = ["--phibar=%s" % ",".join(str(x) for x in _phibar(obj))] if command == "lct" else []
            calls.append({"command": command, "instance": name, "args": args,
                          "exit": None, "payload": None})
    # query_calls reads the call list from the golden file itself
    write_golden("query", "calls", calls)
    directory = tempfile.mkdtemp(prefix=".bench-golden-", dir=ROOT)
    try:
        for entry, (_label, argv, _code, _payload) in zip(calls, query_calls(directory)):
            out = io.StringIO()
            with redirect_stdout(out):
                entry["exit"] = cli_main(argv)
            entry["payload"] = json.loads(out.getvalue())
            if entry["exit"] != 0:
                raise SystemExit("%s: exit %s, %s" % (argv, entry["exit"], entry["payload"]))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    write_golden("query", "calls", calls)


MAKERS = {"certify": make_certify, "generate": make_generate, "query": make_query}

if __name__ == "__main__":
    import_program()
    for which in sys.argv[1:] or list(MAKERS):
        MAKERS[which]()
