"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Everything is exact (tolerance 0); the end-to-end criterion
covers the bundled corpus plus 104 seeded random instances and shares
its results with the lemma-level and duality criteria.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (
    ACCEPTANCE_SEEDS,
    a1_pair,
    extension_posts_hold,
    random_extension_input,
    support_value,
    wedge25_pair,
    zero_pair,
)
from toricmld.generator import random_instance
from toricmld.instances import CORPUS, load_corpus
from toricmld.lattice import content, dot, is_zero
from toricmld.pairs import (
    analyze,
    lct_pullback,
    log_discrepancy,
    mld_over_fiber,
    oracle_mld,
)
from toricmld.polyhedra import (
    _polar_raw,
    from_generators,
    make_support,
    polyhedra_equal,
    support_sum,
)
from toricmld.search import (
    extend_functional,
    find_hyperplane,
    gamma,
    gamma_closed,
    verify_certificate,
)


def _ok(n, text):
    print("\n[ACCEPTANCE] criterion %d PASS: %s" % (n, text))


# ---------------------------------------------------------------------------
# criterion 1: the bound function


def test_criterion_1_gamma_function():
    rng = random.Random(1)
    for _ in range(10):
        a = F(rng.randint(1, 50), rng.randint(1, 30))
        assert gamma(1, a) == a
    assert gamma(2, 1) == F(1, 4)
    assert gamma(3, 1) == F(1, 324)
    pairs = 0
    for d in range(1, 7):
        for _ in range(12):
            a = F(rng.randint(1, 40), rng.randint(1, 24))
            assert gamma(d, a) == gamma_closed(d, a)
            pairs += 1
    _ok(1, "gamma(1,a)=a on 10 rationals; gamma(2,1)=1/4; gamma(3,1)=1/324; "
           "recursion == closed form on %d samples with d <= 6" % pairs)


# ---------------------------------------------------------------------------
# criterion 2: worked germs, exact


def test_criterion_2_worked_germs(a1_germ, a2_germ, a3_germ, cax4_germ):
    checks = []
    for tc, d in ((a1_germ, 1), (a2_germ, 2), (a3_germ, 3)):
        bd = analyze(tc, zero_pair(tc))
        assert mld_over_fiber(bd) == d
        checks.append("mld(A^%d) = %d" % (d, d))
    for a in (F(1, 3), F(1, 2), F(2, 3)):
        bd = analyze(a1_germ, a1_pair(a1_germ, a))
        assert mld_over_fiber(bd) == a
        assert lct_pullback(bd, (1,)) == a
    checks.append("A^1 family: mld = lct = a for a in {1/3, 1/2, 2/3}")
    bdc = analyze(cax4_germ, zero_pair(cax4_germ))
    assert mld_over_fiber(bdc) == 2
    checks.append("mld(z4^2 = z1 z2 z3) = 2")
    _ok(2, "; ".join(checks))


# ---------------------------------------------------------------------------
# criterion 3 + 6 share the end-to-end run


@pytest.fixture(scope="module")
def end_to_end():
    records = []
    for name in CORPUS:
        tc, pair, _obj = load_corpus(name)
        records.append((name, tc, pair))
    for s in ACCEPTANCE_SEEDS:
        tc, pair, meta = random_instance(s)
        records.append(("seed%d" % meta["seed"], tc, pair))
    out = []
    for name, tc, pair in records:
        cert = find_hyperplane(tc, pair)
        ok, reasons = verify_certificate(tc, pair, cert)
        assert ok, (name, reasons)
        bd = analyze(tc, pair)
        out.append((name, tc, pair, bd, cert))
    return out


def test_criterion_3_end_to_end(end_to_end):
    interior_levels = 0
    for name, tc, pair, bd, cert in end_to_end:
        assert cert.gamma >= gamma(tc.rank, cert.mld), name
        assert lct_pullback(bd, cert.phi_bar) >= cert.gamma, name
        assert content(cert.phi_bar) == 1
        interior_levels += sum(1 for r in cert.transcript
                               if r["case"] == "interior")
    _ok(3, "find+verify on %d instances (%d corpus, %d random); "
           "gamma >= gamma(d, mld) and lct(phi_bar) >= gamma everywhere; "
           "%d interior recursion levels exercised"
           % (len(end_to_end), len(CORPUS), len(ACCEPTANCE_SEEDS), interior_levels))


# ---------------------------------------------------------------------------
# criterion 4: oracle equivalence on the corpus


# box radius per corpus instance, large enough to hold a minimizer
ORACLE_RADII = {
    "a1_family": 2,
    "a1_family_1_3": 2,
    "a1_family_1_2": 2,
    "a2_identity": 3,
    "a3_identity": 2,
    "halfplane": 3,
    "cax4": 4,
    "wedge25": 5,
}


def test_criterion_4_oracle_equivalence():
    for name in CORPUS:
        tc, pair, _obj = load_corpus(name)
        bd = analyze(tc, pair)
        value, witness = oracle_mld(bd, ORACLE_RADII[name])
        assert mld_over_fiber(bd) == value, name
        assert log_discrepancy(bd, witness) == value
    _ok(4, "mld equals the brute-force oracle on all %d corpus instances "
           "(radii %s)" % (len(CORPUS), sorted(set(ORACLE_RADII.values()))))


# ---------------------------------------------------------------------------
# criterion 5: functional-extension property suite


def test_criterion_5_extension_suite():
    rng = random.Random(5)
    enumerated = 0
    for trial in range(500):
        n = rng.choice((2, 2, 3))
        gens, c_body, phi, phi0, l0, kern = random_extension_input(rng, n)
        tr = extend_functional(gens, c_body, phi, phi0)
        assert tr.l0 == l0
        w = tr.w_minus + tr.w_plus
        # the three postconditions, exact
        assert 1 <= tr.q < w
        assert all(dot(tr.phi_prime, b) == tr.q * v
                   for b, v in zip(kern.basis, phi0))
        lo, hi = tr.interval_prime
        assert 0 <= lo and hi <= w * l0
        if max(abs(x) for x in tr.phi_prime) <= 5:
            valid = set()
            for cand in itertools.product(range(-5, 6), repeat=n):
                if is_zero(cand):
                    continue
                for q in range(1, int(w) + 1):
                    if F(q) >= w:
                        continue
                    if extension_posts_hold(cand, q, kern, phi0, c_body, w, l0):
                        valid.add(cand)
                        break
            assert tr.phi_prime in valid
            enumerated += 1
    assert enumerated >= 300
    _ok(5, "500 random valid inputs satisfy q < w, restriction q*phi0 and "
           "phi'(C) in [0, w*l0]; %d cross-checked against exhaustive "
           "enumeration at sup-norm <= 5" % enumerated)


# ---------------------------------------------------------------------------
# criterion 6: lemma-level invariants along every interior recursion level


def test_criterion_6_lemma_invariants(end_to_end):
    levels = 0
    deepest = 0
    for name, tc, pair, bd, cert in end_to_end:
        deepest = max(deepest, sum(1 for r in cert.transcript
                                   if r["case"] == "interior"))
        for rec in cert.transcript:
            if rec["case"] != "interior":
                continue
            levels += 1
            assert rec["w"] > 1, (name, "interior width must exceed 1")
            assert rec["max_ray_discrepancy"] <= rec["w"], \
                (name, "subdivided-fan discrepancy above w")
            assert rec["slice_u_ok"] and rec["invariant_point_ok"], name
            assert rec["slice_mld"] >= rec["lam"] * rec["t"], name
            assert 1 <= rec["q"] < rec["w"], name
    assert levels >= 1, "no interior level was exercised"
    assert deepest >= 2, "no nested slice recursion was exercised"
    _ok(6, "w > 1, discrepancies <= w, slice identity, invariant-point and "
           "slice-mld bounds hold on all %d interior levels (deepest chain: "
           "%d); zero violations" % (levels, deepest))


# ---------------------------------------------------------------------------
# criterion 7: structural duality suite


def test_criterion_7_duality_suite(end_to_end):
    rng = random.Random(7)
    # polar double-dual fixed point on random polyhedra containing 0
    for _ in range(40):
        n = rng.randint(1, 4)
        pts = [(F(0),) * n] + [tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                                     for _ in range(n))
                               for _ in range(rng.randint(1, n + 2))]
        rays = [r for r in (tuple(rng.randint(-2, 2) for _ in range(n))
                            for _ in range(rng.randint(0, 2))) if any(r)]
        p = from_generators(n, pts, rays)
        assert polyhedra_equal(_polar_raw(_polar_raw(p)), p)
    # support function additivity
    for _ in range(60):
        n = rng.randint(1, 3)
        a = make_support([tuple(F(rng.randint(-4, 4), rng.choice((1, 2)))
                                for _ in range(n))
                          for _ in range(rng.randint(1, 4))])
        b = make_support([tuple(F(rng.randint(-4, 4), rng.choice((1, 2)))
                                for _ in range(n))
                          for _ in range(rng.randint(1, 4))])
        e = tuple(rng.randint(-5, 5) for _ in range(n))
        assert support_value(support_sum(a, b), e) == \
            support_value(a, e) + support_value(b, e)
    # a >= gamma: mld dominates every tested lct, exactly
    tested = 0
    for name, tc, pair, bd, cert in end_to_end:
        a = cert.mld
        duals = tc.sigma_bar.dual_rays
        functionals = {cert.phi_bar}
        for _ in range(4):
            coeffs = [rng.randint(0, 2) for _ in duals]
            phibar = tuple(sum(c * g[i] for c, g in zip(coeffs, duals))
                           for i in range(tc.base_rank))
            if not is_zero(phibar):
                functionals.add(phibar)
        for phibar in functionals:
            assert a >= lct_pullback(bd, phibar), (name, phibar)
            tested += 1
    _ok(7, "double polar fixed point (40 cases), support additivity "
           "(60 cases), and mld >= lct on %d functionals across all "
           "instances" % tested)
