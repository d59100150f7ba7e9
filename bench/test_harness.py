"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import pytest

import harness
import run
import tracer as tracer_mod
import workloads

harness.import_program()


# ---------------------------------------------------------------------------
# self time


def test_self_times_nested_overlapping_and_clipped():
    # A [0,10] with children B [1,4], C [3,6] (overlapping B) and D [8,12]
    # (runs past A's end); E [2,3] is B's child.  Listed out of start order.
    spans = {"A": (0.0, 10.0, None), "D": (8.0, 12.0, "A"), "B": (1.0, 4.0, "A"),
             "E": (2.0, 3.0, "B"), "C": (3.0, 6.0, "A")}
    names = list(spans)
    starts = [spans[n][0] for n in names]
    ends = [spans[n][1] for n in names]
    parents = [names.index(spans[n][2]) if spans[n][2] else -1 for n in names]
    selfs = dict(zip(names, tracer_mod.self_times(starts, ends, parents)))
    # A is covered by [1,6] and [8,10]: 10 - 5 - 2
    assert selfs == {"A": 3.0, "B": 2.0, "C": 3.0, "D": 4.0, "E": 1.0}


def test_layer_self_times_and_harness_account_for_the_wall():
    nb = workloads.NearBoundary()
    items = [it for it in nb.setup() if it[0] in ("A3_d8", "A2_d100")]
    t = tracer_mod.Tracer()
    with t:
        loop = run.run_pass(nb, items, run.Loop())
    wall = loop.pass_walls[0][0]
    assert not loop.failures
    m = tracer_mod.layer_metrics(t, wall, 0.0)
    layers = sum(m["%s.self_s" % layer] for layer in tracer_mod.LAYERS)
    assert layers + m["harness.self_s"] == pytest.approx(wall, abs=1e-9)
    assert 0 < m["harness.self_s"] < wall
    assert m["pairs.mld_calls"] >= 2 * len(items)
    assert m["polyhedra.enum_found"] <= m["polyhedra.enum_scanned"]
    assert m["search.verify_calls"] == 2 * len(items)   # find verifies its own result


# ---------------------------------------------------------------------------
# percentiles


def test_percentile_nearest_rank_and_samples_beyond():
    samples = [float(x) for x in range(10, 0, -1)]
    assert harness.percentile(samples, 50) == (5.0, 5)
    assert harness.percentile(samples, 90) == (9.0, 1)
    assert harness.percentile(samples, 100) == (10.0, 0)
    assert harness.percentile(samples, 1) == (1.0, 9)
    assert harness.percentile([7.0], 90) == (7.0, 0)
    assert harness.percentile(list(range(1, 201)), 90) == (180, 20)
    with pytest.raises(ValueError):
        harness.percentile([], 50)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 0)


def test_beta_cdf_and_harrell_davis_quantile():
    for x in (0.1, 0.37, 0.8):
        assert harness.beta_cdf(1, 1, x) == pytest.approx(x)
        assert harness.beta_cdf(3, 1, x) == pytest.approx(x ** 3)
        assert harness.beta_cdf(2.5, 7.25, x) == pytest.approx(1 - harness.beta_cdf(7.25, 2.5, 1 - x))
    assert harness.beta_cdf(40.5, 40.5, 0.5) == pytest.approx(0.5)
    assert harness.hd_quantile([5.0], 0.9) == 5.0
    assert harness.hd_quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    samples = [float(x) for x in range(1, 101)]
    assert harness.hd_quantile(samples, 0.5) == pytest.approx(50.5)
    assert 88 < harness.hd_quantile(samples, 0.9) < 92
    # one outlier moves the estimate far less than it moves the maximum
    assert harness.hd_quantile(samples[:-1] + [1e4], 0.5) == pytest.approx(50.5, abs=0.01)


def test_speed_factors_use_the_median_of_the_nearest_references():
    nominal = harness.REFERENCE_NOMINAL_S
    ref = [nominal * x for x in (1, 1, 9, 1, 1, 2, 2, 2, 2, 2)]
    # an outlier among the nearest five is ignored; at the ends the window is clipped
    assert harness.speed_factors(ref, [0, 2, 9]) == pytest.approx([1.0, 1.0, 0.5])
    assert harness.speed_factors(ref[:3], [1]) == pytest.approx([1.0])


# ---------------------------------------------------------------------------
# tracer installation


def _namespace_snapshot():
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and (name == "toricmld" or name.startswith("toricmld."))
            for attr, value in vars(module).items()}


def test_tracer_patches_every_namespace_and_restores_everything():
    import toricmld
    import toricmld.pairs
    import toricmld.polyhedra
    import toricmld.search

    before = _namespace_snapshot()
    original = toricmld.polyhedra.interval_image
    t = tracer_mod.Tracer()
    with t:
        # the defining module, the modules that import the name, and the package
        assert toricmld.polyhedra.interval_image is not original
        assert toricmld.search.interval_image is toricmld.polyhedra.interval_image
        assert toricmld.pairs.interval_image is toricmld.polyhedra.interval_image
        assert toricmld.interval_image is toricmld.polyhedra.interval_image
        # leaf helpers and private functions stay untouched
        assert toricmld.lattice.dot is before[("toricmld.lattice", "dot")]
        assert toricmld.polyhedra._dd_pointed is before[("toricmld.polyhedra", "_dd_pointed")]
        changed = [k for k, v in _namespace_snapshot().items() if before.get(k) is not v]
        assert len(changed) > 50
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not t._patched


# ---------------------------------------------------------------------------
# golden checks


@pytest.fixture(scope="module")
def certify_item():
    items = workloads.Certify().setup()
    return next(it for it in items if it[0] == "wedge25")


def test_golden_certificate_passes(certify_item):
    w = workloads.Certify()
    assert w.check(certify_item, w.execute(certify_item)) is None


@pytest.mark.parametrize("field,value", [("phi_bar", (2,)), ("transcript", ())])
def test_tampered_certificate_fails_the_golden_check(certify_item, field, value):
    w = workloads.Certify()
    cert, ok, reasons, tf, tv = w.execute(certify_item)
    tampered = dataclasses.replace(cert, **{field: value})
    assert w.check(certify_item, (tampered, ok, reasons, tf, tv)) is not None


def test_certificate_rejected_by_verify_fails(certify_item):
    w = workloads.Certify()
    cert, _ok, _reasons, tf, tv = w.execute(certify_item)
    assert "rejected" in w.check(certify_item, (cert, False, ["tampered"], tf, tv))


def test_golden_mismatch_makes_the_run_exit_nonzero(monkeypatch, capsys):
    real = workloads.load_golden

    def tampered(name):
        golden = real(name)
        if name == "generate":
            golden["instances"] = golden["instances"][:2]
            golden["instances"][1]["instance"]["comment"] += " (tampered)"
        return golden

    monkeypatch.setattr(workloads, "load_golden", tampered)
    code = run.main(["--workload", "generate", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    passes = run.MIN_PASSES
    assert result["correct"] is False
    assert result["failed"] == passes and result["attempted"] == 2 * passes


# ---------------------------------------------------------------------------
# work budget


class _Spin(workloads.Workload):
    budget_s = 0.05

    def execute(self, item):
        end = time.process_time() + item[1]
        while time.process_time() < end:
            pass
        return item[1]

    def check(self, item, output):
        return None


def test_over_budget_operation_is_a_recorded_failure():
    loop = run.run_pass(_Spin(), [("short", 0.0), ("long", 1.0), ("short2", 0.0)], run.Loop())
    assert loop.attempted == 3
    assert [label for label, _s, _at in loop.samples] == ["short", "short2"]
    assert loop.failures == [("long", "over the 0.05 s CPU budget")]


def test_over_budget_near_boundary_point():
    nb = workloads.NearBoundary()
    nb.budget_s = 0.01
    items = [it for it in nb.setup() if it[0] == "A3_d45"]
    loop = run.run_pass(nb, items, run.Loop())
    assert loop.failures and "budget" in loop.failures[0][1]


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_names_match_the_outputs(monkeypatch, capsys):
    with open(harness.ROOT + "/BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    t = tracer_mod.Tracer()
    with t:
        pass
    layer = tracer_mod.layer_metrics(t, 1.0, 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    monkeypatch.setattr(workloads, "LADDER_A3", (2, 3))
    monkeypatch.setattr(workloads, "LADDER_A2", (10,))
    assert run.main(["--workload", "near-boundary", "--seed", "0", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
