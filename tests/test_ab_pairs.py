"""The claim rule of `tools/ab_pairs.py`: at least 9 wins in 10 pairs and a median gap wider than the parent's IQR."""

import importlib.util
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
