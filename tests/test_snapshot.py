"""Behaviour snapshot: the frozen benchmark goldens, reproduced byte for byte.

`bench/golden/certify.json` holds the canonical certificate of every
certify instance and `bench/golden/generate.json` the canonical instance
and attempt count of every generator seed.  These tests only read them.
"""

import json
from pathlib import Path

from toricmld.generator import random_instance
from toricmld.instances import (
    certificate_to_obj,
    dumps_canonical,
    instance_from_obj,
    instance_to_obj,
)
from toricmld.search import find_hyperplane

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden"


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
