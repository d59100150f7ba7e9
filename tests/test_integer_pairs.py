"""The Cartier data, the width search, gamma and lct in integer pairs, against
their former Fraction forms.

`nef_values` returns each r_e as an integer pair, `cartier_psi` each
psi_sigma as its point row (the closed form `adj.r / det` for a
simplicial cone of rank <= 3), `width_functional` compares each
candidate's end pairs by cross-multiplying, `gamma` keeps n / m reduced
with small gcds, and `lct_pullback` keeps its least ratio as a pair.
The references in `conftest.py` are the former bodies; each result must
agree with them exactly, and where they raise, with the same error.
"""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricmld.search
from conftest import (
    ACCEPTANCE_SEEDS,
    product_germ,
    reference_cartier_rows,
    reference_gamma,
    reference_nef_values,
    reference_width_functional,
    zero_pair,
)
from toricmld.generator import random_instance
from toricmld.instances import CORPUS, load_corpus
from toricmld.lattice import compose_covector, dot, identity
from toricmld.pairs import (
    NotRCartier,
    analyze,
    cartier_psi,
    fold_general,
    lct_pullback,
    make_contraction,
    make_fan,
    nef_values,
    validate_contraction,
)
from toricmld.search import find_hyperplane, gamma, gamma_closed


def _acceptance_set():
    for name in CORPUS:
        yield name, load_corpus(name)[:2]
    for seed in ACCEPTANCE_SEEDS:
        yield seed, random_instance(seed)[:2]


def _cube(name):
    germ = load_corpus(name)[:2]
    return product_germ(product_germ(germ, germ), germ)


def _quadrilateral(top):
    """The cone over a quadrilateral with the fourth ray at height top: not
    simplicial, so `cartier_psi` solves it; R-Cartier for the zero pair iff
    top = 1."""
    fan = make_fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, top)], [(0, 1, 2, 3)])
    tc = make_contraction(fan, identity(3))
    validate_contraction(tc)
    return tc, zero_pair(tc)


def _cartier_cases():
    yield from _acceptance_set()
    for name in ("wedge25", "a3_identity", "cax4"):
        yield name + "^3", _cube(name)
    yield "square", _quadrilateral(1)


def test_cartier_rows_match_the_solver_reference():
    ranks = set()
    count = 0
    for name, (tc, pair) in _cartier_cases():
        folded = fold_general(tc.fan, pair)
        r = nef_values(tc.fan, folded)
        assert all(d > 0 for _n, d in r), name
        assert tuple(F(*x) for x in r) == reference_nef_values(tc.fan, folded), name
        rows = cartier_psi(tc, r)
        assert rows == reference_cartier_rows(tc, r), name
        assert all(x[-1] > 0 for x in rows), name
        ranks.add(tc.rank)
        count += 1
    assert count == 8 + len(ACCEPTANCE_SEEDS) + 4
    assert {1, 2, 3, 6, 9} <= ranks


def test_not_r_cartier_on_the_quadrilateral_in_both_forms():
    tc, pair = _quadrilateral(2)
    r = nef_values(tc.fan, pair)
    for solve in (cartier_psi, reference_cartier_rows):
        with pytest.raises(NotRCartier) as err:
            solve(tc, r)
        assert err.value.cone_index == 0


def test_width_picks_match_the_fraction_reference(monkeypatch):
    """Every (up, t) that find reaches over the acceptance set, which holds the
    certify workload's instances, gives the reference's pick field by field."""
    real = toricmld.search.width_functional
    seen = []

    def recording(up, t):
        wr = real(up, t)
        seen.append((up, t, wr))
        return wr

    monkeypatch.setattr(toricmld.search, "width_functional", recording)
    for _name, (tc, pair) in _acceptance_set():
        find_hyperplane(tc, pair)
    kinds = set()
    for up, t, wr in seen:
        ref = reference_width_functional(up, t)
        assert dataclasses.astuple(wr) == dataclasses.astuple(ref), (up, t)
        assert repr(wr) == repr(ref), (up, t)
        kinds.add((up.dim, wr.boundary))
    assert len(seen) > len(ACCEPTANCE_SEEDS) + 8
    assert {(1, True), (2, True), (2, False), (3, True), (3, False)} <= kinds


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.integers(1, 10 ** 4), st.integers(1, 10 ** 4))
def test_gamma_matches_the_reference_and_the_closed_form(d, num, den):
    a = F(num, den)
    assert gamma(d, a) == reference_gamma(d, a) == gamma_closed(d, a)


@pytest.mark.parametrize("d", [2.5, F(5, 2), 2.9, F(3, 2), 0, -1.0, float("inf"), float("nan")])
def test_gamma_and_the_reference_refuse_the_same_dimensions(d):
    for f in (gamma, reference_gamma):
        with pytest.raises(ValueError, match="gamma needs an integer d >= 1"):
            f(d, 1)


@pytest.mark.parametrize("a", [0, -1, F(-1, 3)])
def test_gamma_and_the_reference_refuse_the_same_values(a):
    for f in (gamma, reference_gamma):
        with pytest.raises(ValueError, match="gamma needs a > 0"):
            f(2, a)


def reference_lct_pullback(bd, phibar):
    """The former loop of `pairs.lct_pullback`: the min of Fraction(-c, s) over s > 0."""
    phi = compose_covector(phibar, bd.tc.pi, bd.tc.rank)
    cands = [F(-c, dot(a, phi)) for a, c in bd.box.ineqs if dot(a, phi) > 0]
    return min(cands) if cands else None


def test_lct_pullback_matches_the_fraction_reference():
    checked = 0
    for name, (tc, pair) in _acceptance_set():
        bd = analyze(tc, pair)
        for phibar in tc.sigma_bar.dual_rays:
            assert lct_pullback(bd, phibar) == reference_lct_pullback(bd, phibar), name
            checked += 1
    assert checked >= len(ACCEPTANCE_SEEDS) + 8
