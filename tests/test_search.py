import itertools
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import a1_pair, affine_dim, germ, wedge25_pair, zero_pair
from toricmld.generator import random_instance
from toricmld.instances import CORPUS, load_corpus
from toricmld.lattice import (
    content,
    dot,
    is_zero,
    kernel_sublattice,
    primitive,
    rational_rank,
)
from toricmld.pairs import (
    PairError,
    analyze,
    is_glc,
    lct_pullback,
    log_discrepancy,
    make_contraction,
    make_fan,
    make_pair,
    mld_over_fiber,
    validate_contraction,
)
from toricmld.polyhedra import (
    from_generators,
    from_inequalities,
    interval_image,
    polyhedra_equal,
    scale_polyhedron,
)
import toricmld.pairs
import toricmld.polyhedra
import toricmld.search
from toricmld.search import (
    SearchError,
    extend_functional,
    find_hyperplane,
    gamma,
    gamma_closed,
    make_slice,
    subdivide_fan,
    verify_certificate,
    width_functional,
)


# ---------------------------------------------------------------------------
# gamma


def test_gamma_values():
    assert gamma(2, 1) == F(1, 4)
    assert gamma(3, 1) == F(1, 324)
    assert gamma(1, F(7, 5)) == F(7, 5)


@pytest.mark.parametrize("d", [2.5, F(5, 2), 2.9, F(3, 2), 0, -1.0, float("inf"), float("nan")])
def test_gamma_refuses_a_dimension_that_is_not_an_integer_at_least_one(d):
    with pytest.raises(ValueError, match="gamma needs an integer d >= 1"):
        gamma(d, 1)
    with pytest.raises(ValueError, match="gamma_closed needs an integer d >= 1"):
        gamma_closed(d, 1)


def test_gamma_accepts_a_dimension_equal_to_an_integer():
    assert gamma(2.0, 1) == gamma_closed(2.0, 1) == gamma(F(2), 1) == F(1, 4)
    assert gamma(3.0, 1) == gamma_closed(3.0, 1) == F(1, 324)


def test_gamma_recursion_matches_closed_form():
    rng = random.Random(61)
    for d in range(1, 7):
        for _ in range(20):
            a = F(rng.randint(1, 40), rng.randint(1, 24))
            assert gamma(d, a) == gamma_closed(d, a)
            assert gamma(d, a) == (a if d == 1 else gamma(d - 1, a * a / (d * d)))


def test_gamma_monotone_bound_chain():
    # gamma(l-1, t/w) >= gamma(l-1, t^2/l^2) = gamma(l, t) whenever w <= l^2/t
    rng = random.Random(73)
    for _ in range(60):
        l = rng.randint(2, 4)
        t = F(rng.randint(1, 8), rng.randint(2, 9))
        bound = F(l * l) / t
        w = bound * F(rng.randint(1, 6), 6)
        if w <= 1:
            continue
        assert gamma(l - 1, t / w) >= gamma(l - 1, t * t / (l * l)) == gamma(l, t)


def test_gamma_increasing_in_a():
    rng = random.Random(67)
    for d in range(1, 7):
        vals = sorted(F(rng.randint(1, 60), rng.randint(1, 30)) for _ in range(10))
        out = [gamma(d, a) for a in vals]
        for x, y, a, b in zip(out, out[1:], vals, vals[1:]):
            if a < b:
                assert x < y


# ---------------------------------------------------------------------------
# lc places


def test_lc_places(a1_germ, a2_germ, halfplane_germ):
    bd = analyze(a2_germ, zero_pair(a2_germ))
    assert is_glc(bd) and bd.u.rays == ()
    pair = make_pair(halfplane_germ.fan, (1, 1, 1), [(0, 0)])
    bds = analyze(halfplane_germ, pair)
    assert is_glc(bds)
    # sigma0 is the cone over u's rays
    sup = halfplane_germ.support
    assert all(sup.contains(g) for g in bds.u.rays)
    assert rational_rank(bds.u.rays, 2) == 2
    bda = analyze(a1_germ, a1_pair(a1_germ, F(1, 2)))
    assert is_glc(bda) and bda.u.rays == ()


# ---------------------------------------------------------------------------
# width search


def test_width_example_prefers_boundary():
    up = from_generators(2, [(0, 0), (1, -1), (0, 1), (-1, 1)])
    wr = width_functional(up, 1)
    assert wr.phi == (1, 1) and (wr.lo, wr.hi) == (0, 1) and wr.w == 1


def test_width_example_tiebreak():
    up = from_generators(2, [(0, 0), (1, 0), (0, 1)])
    wr = width_functional(up, 2)
    assert wr.phi in ((1, 0), (0, 1))
    assert wr.phi == (1, 0)  # colex tie-break
    assert wr.w == 1


def test_width_rank_one():
    for a in (F(1, 2), F(2, 3)):
        up = from_generators(1, [(0,), (1 / a,)])
        wr = width_functional(up, a)
        assert wr.phi == (1,) and wr.w == 1 / a


def test_width_skips_boundary_functional_below_gamma():
    # (1, 0) is a boundary functional on [0, 2], but 1/2 < gamma(2, 3/2) = 9/16
    up = from_generators(2, [(0, 0), (2, 0), (0, 1), (0, -1)])
    wr = width_functional(up, F(3, 2))
    assert wr.phi == (0, 1) and (wr.lo, wr.hi) == (-1, 1)
    assert not wr.boundary


def test_width_bound_violated():
    up = from_generators(2, [(0, 0), (9, 0), (0, 9)])
    with pytest.raises(SearchError, match="width bound"):
        width_functional(up, 40)


def _whole_level_pick(up, t, l):
    """Width pick from each level's whole list of bound-satisfying functionals.

    Returns (result, interior_first): the pick as width_functional gives
    it, or None when no level up to WIDTH_NORM_CAP has one, and whether a
    boundary pick came after an interior candidate of its level.
    """
    bound = F(l * l) / F(t)
    need = gamma(l, t)
    for k in range(1, toricmld.search.WIDTH_NORM_CAP + 1):
        sats = []
        for phi in toricmld.search._covector_level(up.dim, k):
            lo, hi = interval_image(phi, up)
            if hi - lo <= bound:
                sats.append((phi, lo, hi))
        boundary = [i for i, s in enumerate(sats)
                    if (s[1] == 0 or s[2] == 0) and 1 / (s[2] - s[1]) >= need]
        interior = [i for i, s in enumerate(sats) if s[1] < 0 < s[2]]
        if not boundary and not interior:
            continue
        i = boundary[0] if boundary else interior[0]
        phi, lo, hi = sats[i]
        if hi == 0:
            phi, lo, hi = tuple(-x for x in phi), -hi, -lo
        return (toricmld.search.WidthResult(phi, lo, hi, hi - lo),
                bool(boundary and interior and interior[0] < boundary[0]))
    return None, False


@pytest.mark.parametrize("l", [1, 2, 3])
def test_width_pick_that_stops_early_matches_the_whole_level_pick(l):
    rng = random.Random(131 + l)
    kinds = set()
    for _ in range(40):
        pts = [tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(l))
               for _ in range(rng.randint(1, 4))]
        # 0 is a point of up, as in the search; phi(up) then contains 0
        up = from_generators(l, pts + [(0,) * l])
        if affine_dim(up) < l:
            continue
        lo1, hi1 = interval_image((1,) + (0,) * (l - 1), up)
        # a bound of at least the width of the first level-1 functional
        t = F(l * l) / ((hi1 - lo1) * rng.choice((1, 2, 3)))
        ref, interior_first = _whole_level_pick(up, t, l)
        if ref is None:
            with pytest.raises(SearchError, match="width bound"):
                width_functional(up, t)
            continue
        assert width_functional(up, t) == ref, (pts, t)
        kinds.add("boundary" if ref.boundary else "interior")
        if interior_first:
            kinds.add("boundary after interior")
    expected = {"boundary", "interior", "boundary after interior"} if l > 1 else {"boundary"}
    assert expected <= kinds


def _covector_level_by_sorting(l, k):
    """Reference level: canonical representatives collected in a set, then
    sorted colexicographically."""
    seen = set()
    for v in itertools.product(range(-k, k + 1), repeat=l):
        if max(abs(x) for x in v) != k or content(v) != 1:
            continue
        for x in v:
            if x != 0:
                if x < 0:
                    v = tuple(-y for y in v)
                break
        seen.add(v)
    return sorted(seen, key=lambda v: v[::-1])


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_covector_level_matches_the_sorted_set(l):
    for k in range(1, 6):
        assert list(toricmld.search._covector_level(l, k)) == _covector_level_by_sorting(l, k)


# ---------------------------------------------------------------------------
# fan subdivision


def test_width_satisfiers_reject_unbounded_polyhedron():
    halfline = from_generators(1, [(F(0),)], [(1,)])
    with pytest.raises(PairError, match="compact nonempty"):
        width_functional(halfline, 1)


def test_subdivide_quadrant():
    fan = make_fan(2, [(0, 1), (1, 0)], [(0, 1)])
    fan2, q = subdivide_fan(fan, (1, -1))
    assert (1, 1) in fan2.rays and q == {(1, 1): 1}
    assert len(fan2.max_cones) == 2


def test_subdivide_gcd_scaling():
    fan = make_fan(2, [(0, 1), (2, -1)], [(0, 1)])
    fan2, q = subdivide_fan(fan, (0, 1))
    assert q == {(1, 0): 2}
    assert (1, 0) in fan2.rays


def test_subdivide_no_crossing():
    fan = make_fan(2, [(0, 1), (1, 0)], [(0, 1)])
    fan2, q = subdivide_fan(fan, (1, 1))
    assert q == {} and fan2.rays == fan.rays and fan2.max_cones == fan.max_cones


@pytest.mark.parametrize("phi", [(1, -1, 7), (1,)])
def test_subdivide_refuses_a_functional_of_the_wrong_length(phi):
    fan = load_corpus("a2_identity")[0].fan
    with pytest.raises(PairError, match="functional has %d entries but the fan has rank 2"
                       % len(phi)):
        subdivide_fan(fan, phi)


def test_subdivide_three_dim():
    fan = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])
    fan2, q = subdivide_fan(fan, (1, -1, 0))
    assert (1, 1, 0) in fan2.rays and q[(1, 1, 0)] == 1
    assert all(len(c) == 3 for c in fan2.max_cones)
    from toricmld.pairs import validate_fan
    validate_fan(fan2)


def _reference_two_face_pairs(cone, n):
    pairs = []
    for a, b in itertools.combinations(cone.generators, 2):
        act = [d for d in cone.dual_rays if dot(d, a) == 0 and dot(d, b) == 0]
        if rational_rank(act, n) != n - 2:
            continue
        members = [g for g in cone.generators
                   if all(dot(d, g) == 0 for d in act)]
        if len(members) == 2:
            pairs.append((a, b))
    return pairs


def reference_subdivide_fan(fan, phi):
    """subdivide_fan as it was, a rank test per pair of generators for the
    2-faces and a rank test per half: the slow reference."""
    n = fan.rank
    newq = {}
    for ci in range(len(fan.max_cones)):
        cone = fan.cone(ci)
        for a, b in _reference_two_face_pairs(cone, n):
            va, vb = dot(phi, a), dot(phi, b)
            if va < 0 < vb:
                e1, e2, v1, v2 = a, b, va, vb
            elif vb < 0 < va:
                e1, e2, v1, v2 = b, a, vb, va
            else:
                continue
            w = tuple(v2 * x - v1 * y for x, y in zip(e1, e2))
            newq[primitive(w)] = content(w)
    rays = list(fan.rays) + sorted(set(newq) - set(fan.rays))
    cones = set()
    for ci, cidx in enumerate(fan.max_cones):
        cone = fan.cone(ci)
        inside = [p for p in newq if cone.contains(p)]
        for sign in (1, -1):
            gens = [fan.rays[i] for i in cidx
                    if sign * dot(phi, fan.rays[i]) >= 0] + inside
            gens = sorted(set(gens))
            if rational_rank(gens, n) == n:
                cones.add(tuple(sorted(rays.index(g) for g in gens)))
    return make_fan(n, rays, sorted(cones)), newq


def _seeded_covectors(rng, fan, count):
    """count covectors with entries in [-3, 3], then one vanishing on each ray."""
    n = fan.rank
    out = [primitive(v) for v in (tuple(rng.randint(-3, 3) for _ in range(n))
                                  for _ in range(count)) if not is_zero(v)]
    for r in fan.rays:
        if n == 2:
            out.append(primitive((-r[1], r[0])))
        elif n == 3:
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            cross = (r[1] * v[2] - r[2] * v[1], r[2] * v[0] - r[0] * v[2],
                     r[0] * v[1] - r[1] * v[0])
            if not is_zero(cross):
                out.append(primitive(cross))
    return out


def test_subdivide_fan_matches_the_reference():
    """Equal (fan', q) on the corpus fans and on generator fans, against
    seeded covectors and covectors that vanish on a ray."""
    from toricmld.generator import _build_fan, _rand_sigma_bar, _rand_unimodular
    from toricmld.pairs import pullback_cone, validate_fan

    rng = random.Random(7)
    fans = [load_corpus(name)[0].fan for name in CORPUS]
    for seed in range(60):
        gen = random.Random(seed)
        n = gen.choice((2, 3, 3))
        pi = _rand_unimodular(gen, n)[:gen.randint(1, n)]
        try:
            fan = _build_fan(gen, pullback_cone(n, pi, _rand_sigma_bar(gen, len(pi))))
            validate_fan(fan)
        except PairError:
            continue
        fans.append(fan)
    pairs = new_rays = 0
    for fan in fans:
        for phi in _seeded_covectors(rng, fan, 6):
            fan2, q = subdivide_fan(fan, phi)
            assert (fan2, q) == reference_subdivide_fan(fan, phi), (fan, phi)
            pairs += 1
            new_rays += bool(q)
    assert len(fans) >= 60 and pairs >= 700 and new_rays >= 400


def test_subdivide_fan_reads_the_zero_sets_the_fan_holds(monkeypatch):
    # each cone of the fan keeps its generators' zero sets over its facets
    # (Cone._zero_sets, read here first); subdivide_fan cuts each cone with
    # _cut_cone, which reads those, and computes none
    rng = random.Random(11)
    fans = [load_corpus(name)[0].fan for name in CORPUS]
    fans += [random_instance(s)[0].fan for s in (5, 27, 82, 93)]
    cases = []
    for fan in fans:
        for i in range(len(fan.max_cones)):
            assert len(fan.cone(i)._zero_sets) == len(fan.cone(i).generators)
        cases += [(fan, phi, reference_subdivide_fan(fan, phi))
                  for phi in _seeded_covectors(rng, fan, 4)]

    def recomputed(facets, r):
        raise AssertionError("a zero set was recomputed")

    monkeypatch.setattr(toricmld.polyhedra, "_zero_set", recomputed)
    cut = 0
    for fan, phi, expect in cases:
        assert subdivide_fan(fan, phi) == expect, (fan, phi)
        cut += bool(expect[1])
    assert (len(cases), cut) == (73, 39)


def test_subdivide_fan_along_a_multiple_scales_the_multiplicities():
    # k * phi cuts every cone where phi does, and each raw crossing ray is
    # k times phi's, so the fan is the same and q becomes k * q
    rng = random.Random(13)
    fans = [load_corpus(name)[0].fan for name in CORPUS]
    fans += [random_instance(s)[0].fan for s in (5, 27, 82, 93)]
    cut = 0
    for fan in fans:
        for phi in _seeded_covectors(rng, fan, 4):
            fan1, q = subdivide_fan(fan, phi)
            for k in (2, 3):
                fan_k, q_k = subdivide_fan(fan, tuple(k * x for x in phi))
                assert fan_k == fan1, (fan, phi, k)
                assert q_k == {e: k * m for e, m in q.items()}, (fan, phi, k)
            cut += bool(q)
    assert cut >= 30, cut


# ---------------------------------------------------------------------------
# extension of non-negative functionals


def test_extension_hand_trace():
    c_body = from_generators(2, [(0, 0), (1, 0), (0, 1)])
    tr = extend_functional([(1, 0), (0, 1)], c_body, (1, -1), (1,))
    assert tr.l0 == F(1, 2)
    assert tr.phi_prime == (1, 0)
    assert tr.q == 1
    assert tr.interval_prime == (0, 1)
    assert tr.w_minus == 1 and tr.w_plus == 1


def test_extension_scaling_in_phi0():
    c_body = from_generators(2, [(0, 0), (1, 0), (0, 1)])
    t1 = extend_functional([(1, 0), (0, 1)], c_body, (1, -1), (1,))
    t2 = extend_functional([(1, 0), (0, 1)], c_body, (1, -1), (2,))
    assert t2.phi_prime == tuple(2 * x for x in t1.phi_prime)
    assert t2.q == t1.q


def test_extension_mirror_branch_coordinate():
    c_body = from_generators(2, [(0, 0), (1, 0), (0, 1), (-1, 1)])
    tr = extend_functional([(1, 0), (0, 1), (-1, 1)], c_body, (1, -1), (1,))
    assert tr.branch == "w+ < w-"
    assert tr.phi_prime == (0, 1) and tr.q == 1


def test_extension_randomized_with_exhaustive_crosscheck():
    from conftest import extension_posts_hold, random_extension_input

    rng = random.Random(71)
    checked_against_enum = 0
    for trial in range(120):
        n = rng.choice((2, 2, 3))
        gens, c_body, phi, phi0, l0, kern = random_extension_input(rng, n)
        tr = extend_functional(gens, c_body, phi, phi0)
        assert tr.l0 == l0
        w = tr.w_minus + tr.w_plus
        assert extension_posts_hold(tr.phi_prime, tr.q, kern, phi0, c_body, w, l0)
        # exhaustive cross-check over integer functionals of sup-norm <= 5
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
            checked_against_enum += 1
    assert checked_against_enum > 60


def test_extension_rejects_bad_hypotheses():
    c_body = from_generators(2, [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(PairError, match="hypothesis"):
        extend_functional([(1, 0), (0, 1)], c_body, (1, 1), (1,))
    with pytest.raises(PairError, match="not in C"):
        extend_functional([(2, 0), (0, 2)], c_body, (1, -1), (1,))


def test_extension_rejects_phi0_not_starting_at_0():
    c_body = from_generators(2, [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(PairError, match=r"phi0\(C0\) != \[0, l0\]"):
        # C0 is the segment from 0 to (1/2, 1/2), where phi0 runs over [-1/2, 0]
        extend_functional([(1, 0), (0, 1)], c_body, (1, -1), (-1,))


def test_extension_rejects_a_generator_with_a_fraction_entry():
    c_body = from_generators(2, [(0, 0), (1, 0), (0, 1)])
    with pytest.raises(PairError, match="generator 1 is not an integer vector"):
        extend_functional([(1, 0), (F(1, 2), 1)], c_body, (1, -1), (1,))
    # an entry equal to an integer is that integer
    tr = extend_functional([(F(1), 0), (0, 1.0)], c_body, (1, -1), (1,))
    assert tr.phi_prime == (1, 0)


# ---------------------------------------------------------------------------
# slice: the hand-traced interior instance


def test_slice_wedge25(wedge25_germ):
    tc = wedge25_germ
    pair = wedge25_pair(tc)
    bd = analyze(tc, pair)
    assert mld_over_fiber(bd) == F(7, 25)
    sl = make_slice(bd, (1, 0), F(7, 25))
    assert sl.lam == F(1, 8) and sl.w == 8
    assert sl.mld1 == F(1, 25)
    assert sl.pair1.b_inv == (F(24, 25),)
    assert sorted(sl.pair1.bdiv_a.points) == [(F(-1, 25),), (F(3, 100),)]
    assert polyhedra_equal(sl.u0, from_generators(1, [(0,), (F(25, 8),)]))
    assert polyhedra_equal(sl.bd1.u, from_generators(1, [(0,), (25,)]))
    assert sl.max_ray_discrepancy == 1
    assert bd.l == 2 and sl.bd1.l == 1


def test_slice_rejects_a_functional_without_0_interior(wedge25_germ):
    tc = wedge25_germ
    bd = analyze(tc, wedge25_pair(tc))
    with pytest.raises(PairError, match="interior"):
        # the halfplane support direction has 0 on the boundary of phi(U)
        make_slice(bd, (0, 1), F(7, 25))


def _seed_1003_slice_input():
    """random_instance(1003) analyzed, and phi = (1, 2, 0): one cone of the
    subdivided fan meets phi-perp in the ray (-2, 1, -1) only."""
    tc, pair, _meta = random_instance(1003)
    bd = analyze(tc, pair)
    return bd, (1, 2, 0), mld_over_fiber(bd)


def _low_faces(fan, phi):
    faces = [[fan.rays[i] for i in c if dot(phi, fan.rays[i]) == 0] for c in fan.max_cones]
    return [f for f in faces if f and rational_rank(f, fan.rank) < fan.rank - 1]


def test_slice_covers_a_lower_dimensional_face_of_phi_perp():
    bd, phi, t = _seed_1003_slice_input()
    assert t == F(5, 24)
    assert _low_faces(subdivide_fan(bd.tc.fan, phi)[0], phi) == [[(-2, 1, -1)]]
    sl = make_slice(bd, phi, t)
    assert sl.w == 14 and sl.lam == F(1, 14) and sl.mld1 == F(3, 112)
    assert sl.bd1.tc.fan.rays == ((-1, -1), (-1, 0), (-1, 3))
    assert sl.bd1.tc.fan.max_cones == ((0, 1), (1, 2))


def test_slice_refuses_a_lower_dimensional_face_it_does_not_cover(monkeypatch):
    """Drop the two subdivided cones over the slice cone that holds the
    ray (-2, 1, -1): the face that ray spans is then covered by no slice cone."""
    bd, phi, t = _seed_1003_slice_input()
    real = toricmld.search.subdivide_fan

    def without_the_covering_cones(fan, phi_n):
        fan2, newq = real(fan, phi_n)
        face = {(-2, 1, -1), (-2, 1, 0)}
        kept = [c for c in fan2.max_cones
                if {fan2.rays[i] for i in c if dot(phi_n, fan2.rays[i]) == 0} != face]
        assert len(kept) == len(fan2.max_cones) - 2
        return make_fan(fan2.rank, fan2.rays, kept), newq

    monkeypatch.setattr(toricmld.search, "subdivide_fan", without_the_covering_cones)
    with pytest.raises(PairError, match="^slice fan does not cover phi-perp$"):
        make_slice(bd, phi, t)


# ---------------------------------------------------------------------------
# find + verify


def test_find_a2(a2_germ):
    cert = find_hyperplane(a2_germ, zero_pair(a2_germ))
    assert cert.phi_bar == (1, 0)
    assert cert.gamma == 1
    assert cert.mld == 2
    assert [r["case"] for r in cert.transcript] == ["boundary"]
    assert cert.gamma >= gamma(2, 2) == 1


def test_find_halfplane(halfplane_germ):
    cert = find_hyperplane(halfplane_germ, zero_pair(halfplane_germ))
    assert cert.phi_bar == (1,) and cert.gamma == 1
    assert cert.gamma >= gamma(2, 1) == F(1, 4)


def test_find_a1_family(a1_germ):
    for a in (F(1, 3), F(1, 2), F(2, 3)):
        cert = find_hyperplane(a1_germ, a1_pair(a1_germ, a))
        assert cert.phi_bar == (1,)
        assert cert.gamma == a == gamma(1, a)
        assert [r["case"] for r in cert.transcript] == ["l1"]


def test_find_cax4(cax4_germ):
    cert = find_hyperplane(cax4_germ, zero_pair(cax4_germ))
    assert cert.mld == 2
    assert cert.gamma == F(1, 2) >= gamma(3, 2)
    ok, reasons = verify_certificate(cax4_germ, zero_pair(cax4_germ), cert)
    assert ok, reasons


def test_find_wedge25_interior_recursion(wedge25_germ):
    pair = wedge25_pair(wedge25_germ)
    cert = find_hyperplane(wedge25_germ, pair)
    assert cert.phi_bar == (1,)
    assert cert.gamma == F(1, 25)
    assert cert.mld == F(7, 25)
    cases = [r["case"] for r in cert.transcript]
    assert cases == ["interior", "l1"]
    top = cert.transcript[0]
    assert top["w"] == 8 and top["lam"] == F(1, 8) and top["q"] == 1
    assert top["width_gt_one"] and top["max_ray_discrepancy"] <= top["w"]
    assert top["slice_mld"] == F(1, 25) >= top["lam"] * top["t"]
    # gamma = gamma1 / (lam w) with lam = 1/w collapses to gamma1
    assert cert.gamma == cert.transcript[1]["gamma"]
    bd = analyze(wedge25_germ, pair)
    assert lct_pullback(bd, cert.phi_bar) >= cert.gamma


def test_find_rejects_bad_inputs(a2_germ):
    sig = make_pair(a2_germ.fan, (1, 1), [(0, 0)])
    with pytest.raises(PairError, match="not positive"):
        find_hyperplane(a2_germ, sig)
    fan = make_fan(1, [(1,), (-1,)], [(0,), (1,)])
    tc0 = make_contraction(fan, ())
    validate_contraction(tc0)
    with pytest.raises(PairError, match="dim Y"):
        find_hyperplane(tc0, make_pair(fan, (0, 0), [(0,)]))


def test_verify_tampering(a2_germ, wedge25_germ):
    cert = find_hyperplane(a2_germ, zero_pair(a2_germ))
    ok, _ = verify_certificate(a2_germ, zero_pair(a2_germ), cert)
    assert ok
    bad = replace(cert, gamma=cert.gamma * 2)
    ok, reasons = verify_certificate(a2_germ, zero_pair(a2_germ), bad)
    assert not ok and any("box" in r for r in reasons)
    zero = replace(cert, phi_bar=(0, 0))
    ok, reasons = verify_certificate(a2_germ, zero_pair(a2_germ), zero)
    assert not ok and any("zero" in r for r in reasons)
    wrong_mld = replace(cert, mld=F(1, 2))
    ok, reasons = verify_certificate(a2_germ, zero_pair(a2_germ), wrong_mld)
    assert not ok
    pw = wedge25_pair(wedge25_germ)
    certw = find_hyperplane(wedge25_germ, pw)
    weak = replace(certw, gamma=F(1, 10 ** 6))
    ok, reasons = verify_certificate(wedge25_germ, pw, weak)
    assert not ok and any("bound" in r for r in reasons)


def test_verify_names_each_rejection_of_the_pair_and_the_certificate(a2_germ):
    pair = zero_pair(a2_germ)
    cert = find_hyperplane(a2_germ, pair)
    for change, reason in [(dict(phi_bar=(1, 0, 0)), "phi_bar has the wrong dimension"),
                           (dict(phi_bar=(2, 0)), "phi_bar is not primitive"),
                           (dict(phi_bar=(1, -1)), "phi_bar is not in the dual of sigma_bar"),
                           (dict(gamma=F(0)), "gamma is not positive")]:
        assert verify_certificate(a2_germ, pair, replace(cert, **change)) == (False, [reason])
    not_glc = make_pair(a2_germ.fan, (0, 0), [(3, 0), (0, 3)])
    assert verify_certificate(a2_germ, not_glc, cert) == (False, ["pair is not g-lc"])
    sigma = make_pair(a2_germ.fan, (1, 1), [(0, 0)])
    ok, reasons = verify_certificate(a2_germ, sigma, cert)
    assert not ok and "mld over the fiber is not positive" in reasons
    # the cone over a quadrilateral with incompatible heights is not R-Cartier
    fan = make_fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 2)], [(0, 1, 2, 3)])
    tc = make_contraction(fan, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert verify_certificate(tc, zero_pair(tc), replace(cert, phi_bar=(0, 0, 1), d=3)) == (
        False, ["pair data invalid: not R-Cartier on maximal cone 0"])


def test_verify_refuses_entries_that_are_not_integers():
    # int() truncated both, and the certificate passed
    tc, pair, _obj = load_corpus("a1_family_1_2")
    cert = find_hyperplane(tc, pair)
    assert verify_certificate(tc, pair, cert) == (True, [])
    for phi_bar in ((F(3, 2),), (1.7,)):
        assert verify_certificate(tc, pair, replace(cert, phi_bar=phi_bar)) == (
            False, ["phi_bar is not an integer vector"])
    assert verify_certificate(tc, pair, replace(cert, d=F(3, 2))) == (
        False, ["stored dimension differs from rank N"])


def test_certificate_never_overclaims(a1_germ, a2_germ, halfplane_germ,
                                      cax4_germ, wedge25_germ):
    cases = [
        (a1_germ, a1_pair(a1_germ, F(1, 2))),
        (a2_germ, zero_pair(a2_germ)),
        (halfplane_germ, zero_pair(halfplane_germ)),
        (cax4_germ, zero_pair(cax4_germ)),
        (wedge25_germ, wedge25_pair(wedge25_germ)),
    ]
    for tc, pair in cases:
        cert = find_hyperplane(tc, pair)
        bd = analyze(tc, pair)
        assert lct_pullback(bd, cert.phi_bar) >= cert.gamma
        assert content(cert.phi_bar) == 1
        assert all(dot(cert.phi_bar, g) >= 0 for g in tc.sigma_bar.generators)


def test_find_analyzes_the_germ_once(monkeypatch, wedge25_germ):
    """find_hyperplane checks its certificate on its own box data and mld."""
    calls = []
    real_analyze, real_mld = toricmld.search.analyze, toricmld.search.mld_over_fiber

    def counted_analyze(tc, pair):
        calls.append(("analyze", tc, pair))
        return real_analyze(tc, pair)

    def counted_mld(bd):
        calls.append(("mld", bd.tc, bd))
        return real_mld(bd)

    monkeypatch.setattr(toricmld.search, "analyze", counted_analyze)
    monkeypatch.setattr(toricmld.search, "mld_over_fiber", counted_mld)
    pair = wedge25_pair(wedge25_germ)
    cert = find_hyperplane(wedge25_germ, pair)
    assert [r["case"] for r in cert.transcript] == ["interior", "l1"]
    top = [c[0] for c in calls if c[1] is wedge25_germ]
    assert top == ["analyze", "mld"]
    assert calls[0][2] is pair
    # the slice germ is analyzed too, once
    assert len(calls) == 4


def test_find_keeps_its_internal_certificate_check(monkeypatch, a1_germ):
    real_search = toricmld.search._search

    def weak_search(bd, t, transcript, depth):
        phibar, gamma_val = real_search(bd, t, transcript, depth)
        return phibar, gamma_val / 10 ** 6

    monkeypatch.setattr(toricmld.search, "_search", weak_search)
    with pytest.raises(SearchError, match="internal: produced certificate fails "
                                          "verification: gamma below the bound"):
        find_hyperplane(a1_germ, a1_pair(a1_germ, F(1, 2)))
