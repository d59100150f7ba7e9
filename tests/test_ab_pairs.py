"""The claim rule of `tools/ab_pairs.py`: at least 9 wins in 10 pairs and a median gap wider than the parent's IQR."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

PARENT = [600.0, 605.0, 610.0, 612.0, 615.0, 618.0, 620.0, 622.0, 625.0, 630.0]


def test_ten_clear_wins_hold():
    change = [v + 60 for v in PARENT]
    holds, won, gap, iqr = ab_pairs.claim_holds(PARENT, change, True)
    assert (holds, won) == (True, 10)
    assert gap == pytest.approx(60.0)
    assert 0 < iqr < gap


def test_nine_of_ten_wins_hold_and_eight_do_not():
    change = [v + 60 for v in PARENT]
    change[0] = PARENT[0] - 1
    assert ab_pairs.claim_holds(PARENT, change, True)[:2] == (True, 9)
    change[1] = PARENT[1]          # a tie is not a win
    assert ab_pairs.claim_holds(PARENT, change, True)[:2] == (False, 8)


def test_a_gap_inside_the_parents_iqr_does_not_hold():
    change = [v + 2 for v in PARENT]
    holds, won, gap, iqr = ab_pairs.claim_holds(PARENT, change, True)
    assert won == 10 and gap < iqr and not holds


def test_fewer_than_ten_pairs_never_hold():
    change = [v + 60 for v in PARENT]
    assert not ab_pairs.claim_holds(PARENT[:9], change[:9], True)[0]
    assert ab_pairs.claim_holds(PARENT + [640.0], change + [700.0], True)[:2] == (True, 11)


def test_lower_is_better_flips_wins_and_gap():
    ms = [1.0 + i / 100 for i in range(10)]
    faster = [v - 0.5 for v in ms]
    holds, won, gap, _iqr = ab_pairs.claim_holds(ms, faster, False)
    assert (holds, won) == (True, 10) and gap == pytest.approx(0.5)
    assert ab_pairs.claim_holds(ms, faster, True)[:2] == (False, 0)


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        ab_pairs.claim_holds(PARENT, PARENT[:9], True)


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_fewer_than_one_pair_is_refused_before_any_run(monkeypatch, capsys, pairs):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(ab_pairs, "run_bench", no_run)
    monkeypatch.setattr(ab_pairs, "level_bytecode", no_run)
    with pytest.raises(SystemExit) as exc:
        ab_pairs.main(["parent", "change", "--pairs", pairs])
    assert exc.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err


PER_LAYER = [{"name": "lattice.snf_calls", "unit": "count"},
             {"name": "polyhedra.dd_s", "unit": "s"},
             {"name": "generator.accept_ratio", "unit": "ratio"},
             {"name": "search.slice_calls", "unit": "count"}]


def test_layer_medians_take_the_median_and_flag_only_unequal_counts():
    runs = [{"lattice.snf_calls": 56, "polyhedra.dd_s": 0.020, "generator.accept_ratio": 0.2},
            {"lattice.snf_calls": 56, "polyhedra.dd_s": 0.031, "generator.accept_ratio": 0.2},
            {"lattice.snf_calls": 56, "polyhedra.dd_s": 0.018, "generator.accept_ratio": 0.2}]
    assert ab_pairs.layer_medians(runs, PER_LAYER) == {
        "lattice.snf_calls": (56, False),
        "polyhedra.dd_s": (0.020, False),
        "generator.accept_ratio": (0.2, False),
    }
    runs[1]["lattice.snf_calls"] = 57
    runs[2]["generator.accept_ratio"] = 0.25
    medians = ab_pairs.layer_medians(runs, PER_LAYER)
    assert medians["lattice.snf_calls"] == (56, True)
    assert medians["generator.accept_ratio"] == (0.2, False)


def test_times_with_overlapping_iqrs_are_unresolved_and_counts_keep_unequal(capsys):
    def runs(snf_calls, dd_s):
        # search.slice_s reads 0 on both sides: a layer that did not run
        return [{"lattice.snf_calls": c, "polyhedra.dd_s": t, "search.slice_s": 0.0}
                for c, t in zip(snf_calls, dd_s)]

    per_layer = PER_LAYER + [{"name": "search.slice_s", "unit": "s"}]
    parent = runs([56] * 5, (0.020, 0.021, 0.022, 0.023, 0.024))
    apart = runs([40] * 5, (0.010, 0.011, 0.012, 0.013, 0.014))
    overlapping = runs([40, 41, 40, 41, 40], (0.016, 0.018, 0.021, 0.026, 0.030))
    assert not ab_pairs.iqrs_overlap([r["polyhedra.dd_s"] for r in parent],
                                     [r["polyhedra.dd_s"] for r in apart])
    assert ab_pairs.iqrs_overlap([r["polyhedra.dd_s"] for r in parent],
                                 [r["polyhedra.dd_s"] for r in overlapping])

    def lines(change):
        ab_pairs.report_layers("generate", per_layer, {"parent": parent, "change": change})
        return {line.split()[0]: line for line in capsys.readouterr().out.splitlines()[1:]}

    out = lines(apart)
    assert not any("UNRESOLVED" in line or "UNEQUAL" in line for line in out.values())
    out = lines(overlapping)
    assert out["polyhedra.dd_s"].endswith("UNRESOLVED")
    assert out["lattice.snf_calls"].endswith("UNEQUAL in change")
    assert "UNRESOLVED" not in out["search.slice_s"]


def test_peak_rss_line_carries_each_sides_median_operations_attempted(capsys):
    metrics = [{"name": "ops_per_s", "better": "higher", "bound": 0.2},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]

    def runs(ops, rss, attempted):
        return [{"ops_per_s": o, "peak_rss_mb": r, "attempted": a}
                for o, r, a in zip(ops, rss, attempted)]

    ab_pairs.report("generate", metrics, {
        "parent": runs((200, 205, 210), (18.0, 18.1, 18.2), (4000, 4100, 4050)),
        "change": runs((240, 245, 250), (18.4, 18.5, 18.6), (4800, 4900, 4850)),
    })
    lines = capsys.readouterr().out.splitlines()
    rss = [line for line in lines if line.split()[0] == "peak_rss_mb"]
    assert len(rss) == 1 and rss[0].endswith("attempted parent 4050 change 4850")
    assert sum("attempted" in line for line in lines) == 1


def test_run_bench_keeps_the_runs_attempted_count(monkeypatch):
    line = ('{"correct": true, "attempted": 4321, "failed": 0, '
            '"metrics": {"peak_rss_mb": {"value": 18.5}}}')

    class Done:
        returncode, stdout, stderr = 0, "harness log\n" + line + "\n", ""

    monkeypatch.setattr(ab_pairs.subprocess, "run", lambda *args, **kwargs: Done)
    assert ab_pairs.run_bench(".", {}, "generate", 0) == {"peak_rss_mb": 18.5,
                                                           "attempted": 4321}


def test_each_side_gets_one_equal_work_run_after_its_pairs(monkeypatch, capsys, tmp_path):
    bench = {"workloads": [{"name": "near-boundary"}],
             "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.2},
                            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []

    def fake_run(checkout, env, workload, seconds, trace=0):
        side = os.path.basename(checkout)
        calls.append((side, seconds))
        # the timed runs read one peak; the equal-work runs read their own
        rss = {("parent", 0): 27.1, ("change", 0): 27.3}.get((side, seconds), 28.0)
        return {"ops_per_s": 100.0, "peak_rss_mb": rss, "attempted": 1}

    monkeypatch.setattr(ab_pairs, "run_bench", fake_run)
    monkeypatch.setattr(ab_pairs, "level_bytecode", lambda *args: None)
    assert ab_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                          "--pairs", "2", "--seconds", "3"]) == 0
    assert calls == [("parent", 3), ("change", 3), ("change", 3), ("parent", 3),
                     ("parent", 0), ("change", 0)]
    lines = capsys.readouterr().out.splitlines()
    rss = lines.index(next(line for line in lines if line.split()[0] == "peak_rss_mb"))
    assert lines[rss + 1].split()[0] == "claim:"
    assert lines[rss + 2].split() == ["at", "equal", "work", "(--seconds", "0):", "parent",
                                      "27.1", "change", "27.3", "+0.7%"]
    assert sum("equal work" in line for line in lines) == 1


def test_equal_work_line_is_left_out_without_equal_work_runs(capsys):
    metrics = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    runs = {side: [{"peak_rss_mb": 18.0, "attempted": 10}] for side in ("parent", "change")}
    ab_pairs.report("query", metrics, runs)
    assert "equal work" not in capsys.readouterr().out
