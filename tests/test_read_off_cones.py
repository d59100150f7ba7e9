"""Cones and the quotient read off u, against the derivations they replaced.

`analyze` reads l off the rank of u's rays, `BoxData.quotient` spans
u's rays and reads up off u's facets whose normals vanish on them,
`mld_over_fiber` takes the interior of the support's image from the rows
of up through 0, and `_search` sends l = 1 through the width search.
The references below are the former derivations: the cone sigma0 over
u's rays by its own double description, up as the image of u under the
projection by two more (`reference_quotient`), the image of the support
by one more, `strict_interior_contains` for "0 is interior to up", and
the former l = 1 branch of `_search`, which took sigma0's dual line.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import toricmld.search
from conftest import ACCEPTANCE_SEEDS, germ, strict_interior_contains
from toricmld.generator import random_instance
from toricmld.instances import CORPUS, instance_from_obj, load_corpus
from toricmld.lattice import (
    apply_hom,
    identity,
    is_zero,
    primitive,
    quotient_by_span,
    saturated_span,
)
from toricmld.pairs import analyze, make_pair, mld_over_fiber
from toricmld.polyhedra import (
    _empty,
    _from_hpoints,
    _gauge_rows,
    interval_image,
    make_cone,
)
from toricmld.search import _descend, find_hyperplane

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "certify.json"


def _cases():
    """The corpus, seeds 1000-1015 and every certify golden with an l = 1 record."""
    for name in CORPUS:
        tc, pair, _obj = load_corpus(name)
        yield name, tc, pair
    for seed in range(1000, 1016):
        tc, pair, _meta = random_instance(seed)
        yield "seed%d" % seed, tc, pair
    for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))["instances"]:
        if any(r["case"] == "l1" for r in entry["certificate"]["transcript"]):
            tc, pair = instance_from_obj(entry["instance"])
            yield "golden " + entry["name"], tc, pair


def reference_l1(tc, bd, t):
    """The former l = 1 branch: (phi, interval, gamma, phibar) from sigma0's dual line."""
    phi1 = primitive(make_cone(tc.rank, bd.u.rays).dual_lines[0])
    lo, hi = interval_image(phi1, bd.u)
    if lo != 0 and hi == 0:
        phi1, lo, hi = tuple(-x for x in phi1), -hi, -lo
    assert lo == 0 < hi and t * hi <= 1
    return phi1, (lo, hi), F(1) / hi, _descend(tc, phi1)


def assert_read_off_matches_reference(tc, bd, name):
    n = tc.rank
    sigma0 = make_cone(n, bd.u.rays)
    assert bd.l == n - sigma0.cone_dim(), name
    if bd.l == 0:
        return
    proj, up = bd.quotient
    assert proj == quotient_by_span(n, saturated_span(n, sigma0.generators)).projection, name
    through_zero = _gauge_rows(up)[1]
    pcone = make_cone(bd.l, [apply_hom(proj, g) for g in tc.support.generators])
    assert through_zero == pcone.dual_rays, name
    assert (not through_zero) == strict_interior_contains(up, (0,) * bd.l), name


def test_read_off_cones_and_the_l1_width_pick_match_the_former_derivations(monkeypatch):
    real_search = toricmld.search._search
    searched = []

    def recording(bd, t, transcript, depth):
        out = real_search(bd, t, transcript, depth)
        searched.append((bd.tc, bd, t, depth, transcript[-1] if bd.l == 1 else None, out))
        return out

    monkeypatch.setattr(toricmld.search, "_search", recording)
    cases = l1_checked = 0
    for name, tc, pair in _cases():
        bd = analyze(tc, pair)
        assert_read_off_matches_reference(tc, bd, name)
        cases += 1
        if mld_over_fiber(bd) is None:
            continue
        searched.clear()
        find_hyperplane(tc, pair)
        for tc1, bd1, t, depth, rec, out in searched:
            assert_read_off_matches_reference(tc1, bd1, name)
            if rec is None:
                continue
            phi, interval, gamma_val, phibar = reference_l1(tc1, bd1, t)
            # the same record, key order included, as the former branch wrote
            assert list(rec.items()) == [
                ("depth", depth), ("l", 1), ("case", "l1"), ("t", t), ("phi", phi),
                ("interval", interval), ("gamma", gamma_val), ("phibar", phibar)], name
            assert out == (phibar, gamma_val), name
            l1_checked += 1
    assert cases == 8 + 16 + 60
    assert l1_checked >= 60


def map_polyhedron(mat, p, dim_out):
    """Image of p under an integer linear map (rows of mat)."""
    if p.empty:
        return _empty(dim_out)
    hpts = [primitive(apply_hom(mat, h[:-1]) + (h[-1],)) for h in p.hpoints]
    rays = [r2 for r2 in (apply_hom(mat, r) for r in p.rays) if not is_zero(r2)]
    return _from_hpoints(dim_out, hpts, rays)


def reference_quotient(bd):
    """The former BoxData.quotient: the projection, and up as the image of u under it."""
    n = bd.tc.rank
    proj = quotient_by_span(n, saturated_span(n, bd.u.rays)).projection
    return proj, map_polyhedron(proj, bd.u, bd.l)


# both near-boundary ladders of the bench, and d = 10^9
NEAR_BOUNDARY_D = (2, 3, 4, 6, 8, 10, 11, 16, 23, 32, 45, 100, 316, 1000, 3162, 10 ** 9)


def _smooth(n):
    return germ(n, identity(n), [tuple(range(n))], identity(n))


def _quotient_cases():
    """The germs whose quotient is checked against the reference.

    The corpus, the acceptance seeds, generator seeds 2000-2063, the
    near-boundary points (A^3 with B = (1-1/d, 1-1/d, 0) and A^2 with
    B = (1-1/d, 0)), and A^2 with B = (1, 1), where l = 0.
    """
    for name in CORPUS:
        tc, pair, _obj = load_corpus(name)
        yield name, tc, pair
    for seed in ACCEPTANCE_SEEDS + tuple(range(2000, 2064)):
        tc, pair, _meta = random_instance(seed)
        yield "seed%d" % seed, tc, pair
    for n, boundary in ((3, 2), (2, 1)):
        tc = _smooth(n)
        for d in NEAR_BOUNDARY_D:
            b = [1 - F(1, d)] * boundary + [0] * (n - boundary)
            yield "A%d_d%d" % (n, d), tc, make_pair(tc.fan, b, [(0,) * n])
    tc = _smooth(2)
    yield "A2 with B = (1, 1)", tc, make_pair(tc.fan, (1, 1), [(0, 0)])


def test_quotient_read_off_u_is_the_image_of_u(monkeypatch):
    checked, ls = 0, set()
    for name, tc, pair in _quotient_cases():
        bd = analyze(tc, pair)
        assert bd.quotient == reference_quotient(bd), name
        checked += 1
        ls.add(bd.l)
    assert checked == 8 + 104 + 64 + 2 * len(NEAR_BOUNDARY_D) + 1
    assert 0 in ls and 3 in ls

    real_slice = toricmld.search.make_slice
    slices = []

    def recording(*args):
        sl = real_slice(*args)
        slices.append(sl.bd1)
        return sl

    monkeypatch.setattr(toricmld.search, "make_slice", recording)
    for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))["instances"]:
        find_hyperplane(*instance_from_obj(entry["instance"]))
    for bd1 in slices:
        assert bd1.quotient == reference_quotient(bd1), bd1.tc
    assert len(slices) >= 9
