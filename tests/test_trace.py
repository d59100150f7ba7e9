"""The traced benchmark's view of the program.

`bench/tracer.py` wraps the public functions of `toricmld` by name, and
`layer_metrics` looks up the functions whose calls and times it reports.
A function that it reads and that the program no longer has makes this
test fail.  The tracer is only imported here, never changed.
"""

import importlib.util
from pathlib import Path

import toricmld.generator as generator
import toricmld.search as search
from toricmld.instances import load_corpus

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_find_and_verify_report_layer_metrics():
    tracer_mod = _tracer_module()
    tc, pair, _obj = load_corpus("wedge25")
    find = search.find_hyperplane
    t = tracer_mod.Tracer()
    with t:
        # through the module, whose names the tracer patches
        cert = search.find_hyperplane(tc, pair)
        ok, reasons = search.verify_certificate(tc, pair, cert)
    assert ok, reasons
    assert search.find_hyperplane is find
    m = tracer_mod.layer_metrics(t, 1.0, 0.0)
    assert m["search.verify_calls"] == 1
    assert m["pairs.analyze_calls"] >= 2 and m["pairs.mld_calls"] >= 2
    assert m["polyhedra.dd_calls"] > 0 and m["trace.spans"] > 0


def test_traced_generator_validates_only_the_instance_it_returns():
    tracer_mod = _tracer_module()
    t = tracer_mod.Tracer()
    with t:
        _tc, _pair, meta = generator.random_instance(2000)
    m = tracer_mod.layer_metrics(t, 1.0, 0.0)
    assert m["pairs.validate_calls"] == 1
    assert m["generator.attempts"] == meta["attempts"] > 1
