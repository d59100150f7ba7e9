"""Behaviour snapshot: the frozen benchmark goldens, reproduced byte for byte.

`bench/golden/certify.json` holds the canonical certificate of every
certify instance, `bench/golden/generate.json` the canonical instance
and attempt count of every generator seed, and `bench/golden/query.json`
the exit code and JSON payload of every `check`, `lc` and `lct` call on
those instances.  These tests only read them.
The acceptance digest pins the certificates of the whole acceptance set,
which holds instances the certify golden leaves out, and the generator
digest pins the generator's instances and meta over seeds the goldens and
the acceptance set leave out.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from conftest import ACCEPTANCE_SEEDS
from toricmld.cli import main
from toricmld.generator import random_instance
from toricmld.instances import (
    CORPUS,
    certificate_to_obj,
    dumps_canonical,
    instance_from_obj,
    instance_to_obj,
    load_corpus,
)
from toricmld.search import find_hyperplane

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"
ACCEPTANCE_DIGEST = "5a377269e1b6553bb87b45aa955b8c353a5e3faa22d18466f66e5034f0b621d7"
GENERATOR_DIGEST = "b489f98872f3f75c7b80bb5497627f87a8282d8c94c022d0d5f1c450096944a3"


def _golden(name):
    return json.loads((GOLDEN / ("%s.json" % name)).read_text(encoding="utf-8"))


def test_certificates_match_golden():
    entries = _golden("certify")["instances"]
    assert entries
    for entry in entries:
        tc, pair = instance_from_obj(entry["instance"])
        cert = find_hyperplane(tc, pair)
        assert (dumps_canonical(certificate_to_obj(cert))
                == dumps_canonical(entry["certificate"])), entry["name"]


def test_generated_instances_match_golden():
    entries = _golden("generate")["instances"]
    assert entries
    for entry in entries:
        seed = entry["seed"]
        tc, pair, meta = random_instance(seed)
        obj = instance_to_obj(tc, pair, "generated instance, seed %d" % seed)
        assert dumps_canonical(obj) == dumps_canonical(entry["instance"]), seed
        assert meta["attempts"] == entry["attempts"], seed


def test_query_payloads_match_golden(tmp_path):
    """Every golden check / lc / lct call on the certify and generate instances.

    The instance files are the goldens' instances in canonical form, named
    as the query golden names them; `lct` takes its functional as
    `--phibar=v`.
    """
    paths = {}
    instances = [(e["name"], e["instance"]) for e in _golden("certify")["instances"]]
    instances += [("gen_%d" % e["seed"], e["instance"]) for e in _golden("generate")["instances"]]
    for name, obj in instances:
        paths[name] = tmp_path / ("%s.json" % name)
        paths[name].write_text(dumps_canonical(obj), encoding="utf-8")
    calls = _golden("query")["calls"]
    assert {c["command"] for c in calls} == {"check", "lc", "lct"}
    for call in calls:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main([call["command"], str(paths[call["instance"]])] + call["args"]
                        + ["--json"])
        label = "%s %s" % (call["command"], call["instance"])
        assert code == call["exit"], label
        assert json.loads(out.getvalue()) == call["payload"], label
    assert len(calls) == 3 * len(paths)


def test_acceptance_digest():
    """SHA-256 over the canonical certificates of the acceptance set, in order.

    The corpus in CORPUS order, then random_instance(s) for s = 1000..1095,
    then the interior seeds.
    """
    instances = [load_corpus(name)[:2] for name in CORPUS]
    instances += [random_instance(s)[:2] for s in ACCEPTANCE_SEEDS]
    digest = hashlib.sha256()
    for tc, pair in instances:
        cert = find_hyperplane(tc, pair)
        digest.update(dumps_canonical(certificate_to_obj(cert)).encode("utf-8"))
    assert len(instances) == 112
    assert digest.hexdigest() == ACCEPTANCE_DIGEST


def test_generator_digest():
    """SHA-256 over the canonical instance and meta of random_instance(s), in order.

    s runs over 0..119, then 2000..2063; each seed adds the canonical form
    of {"instance": instance_to_obj(tc, pair), "meta": meta}.
    """
    digest = hashlib.sha256()
    for seed in (*range(120), *range(2000, 2064)):
        tc, pair, meta = random_instance(seed)
        obj = {"instance": instance_to_obj(tc, pair), "meta": meta}
        digest.update(dumps_canonical(obj).encode("utf-8"))
    assert digest.hexdigest() == GENERATOR_DIGEST
