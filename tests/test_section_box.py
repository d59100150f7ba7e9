"""The section box and the support check against the former slow path.

`analyze` builds the box from the sums of the generators of conv(A) and
box_{-K-B-D}, and checks cone(u) == support from u's own descriptions.
The references below are the former path: conv(A) by its own double
description, a Minkowski sum through one more, and the cone over u
rebuilt from its inequalities through 0 (the first two functions are
the former `polyhedra.minkowski_sum` and `polyhedra.cone_over`).
"""

import random
from fractions import Fraction as F

import pytest

from conftest import cone_from_normals, germ
from toricmld.generator import random_instance
from toricmld.instances import CORPUS, load_corpus
from toricmld.lattice import identity, vec_add
from toricmld.pairs import (
    PairError,
    _cone_over_is,
    _polar_raw,
    analyze,
    fold_general,
    is_glc,
    make_pair,
    nef_values,
)
from toricmld.polyhedra import (
    GeometryError,
    from_generators,
    from_inequalities,
    make_cone,
)


def reference_minkowski_sum(p, q):
    if p.empty or q.empty:
        raise GeometryError("Minkowski sum with an empty polyhedron")
    pts = [vec_add(a, b) for a in p.points for b in q.points]
    return from_generators(p.dim, pts, tuple(p.rays) + tuple(q.rays))


def reference_cone_over(p):
    """cone(p) = closure of union of t*p, for polyhedra containing 0."""
    if not p.contains((0,) * p.dim):
        raise GeometryError("cone_over needs 0 in the polyhedron")
    return cone_from_normals(p.dim, [a for a, c in p.ineqs if c == 0])


def reference_support_check(u, sup):
    ucone = reference_cone_over(u)
    return (all(sup.contains(g) for g in ucone.generators)
            and all(ucone.contains(g) for g in sup.generators))


def reference_section(tc, pair):
    """(box, u, l, verdict of the support check), the former way."""
    fan = tc.fan
    n = fan.rank
    folded = fold_general(fan, pair)
    r = nef_values(fan, folded)
    box_d = from_inequalities(n, [(e, -F(*re)) for e, re in zip(fan.rays, r)])
    if box_d.empty:
        raise PairError("empty section box")
    conv_a = from_generators(n, folded.bdiv_a.points)
    box = reference_minkowski_sum(conv_a, box_d)
    u = _polar_raw(box)
    sigma0 = make_cone(n, u.rays) if u.rays else make_cone(n, [])
    l = n - sigma0.cone_dim()
    return box, u, l, reference_support_check(u, tc.support)


def assert_matches_reference(tc, pair):
    box, u, l, verdict = reference_section(tc, pair)
    bd = analyze(tc, pair)
    assert bd.box == box
    assert bd.u == u
    assert bd.l == l
    assert verdict and _cone_over_is(bd.u, tc.support)
    return is_glc(bd)


def test_section_matches_reference_on_corpus():
    for name in CORPUS:
        tc, pair, _obj = load_corpus(name)
        assert assert_matches_reference(tc, pair), name


def test_section_matches_reference_on_generator_seeds():
    for seed in range(2000, 2032):
        tc, pair, _meta = random_instance(seed)
        assert assert_matches_reference(tc, pair), seed


def _non_glc_cases():
    a2 = germ(2, [(1, 0), (0, 1)], [(0, 1)], identity(2))
    a3 = germ(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)], identity(3))
    halfplane = germ(2, [(1, -1), (0, 1), (-1, 1)], [(0, 1), (1, 2)], ((1, 1),))
    wedge = germ(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)], ((0, 1),))
    # on A^2: a(e1 + e2) = 2 - b1 - b2 + h_A(e1) + h_A(e2) - h_A(e1 + e2) < 0
    yield a2, make_pair(a2.fan, (1, 1), [(1, 0), (0, 1)])
    yield a2, make_pair(a2.fan, (F(1, 2), F(3, 4)), [(1, 0), (0, 1)])
    yield a2, make_pair(a2.fan, (0, 0), [(0, 0)], [(3, [(1, 0), (0, 1)])])
    yield a3, make_pair(a3.fan, (1, 1, F(1, 2)), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    yield halfplane, make_pair(halfplane.fan, (0, 1, 0), [(1, 0), (0, 1)])
    yield halfplane, make_pair(halfplane.fan, (F(1, 2), 1, 0), [(0, 0), (0, 1)])
    yield wedge, make_pair(wedge.fan, (0, 1, F(1, 2)), [(0, 0), (1, 1)])


def test_section_matches_reference_on_non_glc_pairs():
    for tc, pair in _non_glc_cases():
        assert not assert_matches_reference(tc, pair), pair


def _random_polyhedron_with_origin(rng, n):
    pts = [(0,) * n] + [tuple(F(rng.randint(-3, 3), rng.choice((1, 2)))
                              for _ in range(n)) for _ in range(rng.randint(0, 3))]
    rays = [r for r in (tuple(rng.randint(-1, 1) for _ in range(n))
                        for _ in range(rng.randint(0, 2))) if any(r)]
    return from_generators(n, pts, rays)


def test_support_check_matches_reference_on_random_polyhedra():
    rng = random.Random(53)
    verdicts = []
    for trial in range(300):
        n = 1 + trial % 3
        u = _random_polyhedron_with_origin(rng, n)
        if trial % 3 == 0:
            cone = reference_cone_over(u)
        else:
            cone = make_cone(n, [tuple(rng.randint(-2, 2) for _ in range(n))
                                 for _ in range(rng.randint(0, n + 1))])
        expected = reference_support_check(u, cone)
        assert _cone_over_is(u, cone) == expected, (u, cone)
        verdicts.append(expected)
    assert verdicts.count(True) > 0 and verdicts.count(False) > 0


@pytest.mark.parametrize("wrong_u", [
    [(0, 0), (-1, 0), (0, -1)],   # a point leaves the support
    [(0, 0), (1, 0)],             # e2 is not in cone(u)
    [(1, 0), (0, 1)],             # 0 is not in u
])
def test_analyze_rejects_a_wrong_polar(monkeypatch, wrong_u):
    import toricmld.pairs

    tc = germ(2, [(1, 0), (0, 1)], [(0, 1)], identity(2))
    pair = make_pair(tc.fan, (0, 0), [(0, 0)])
    analyze(tc, pair)
    monkeypatch.setattr(toricmld.pairs, "_polar_raw",
                        lambda box: from_generators(2, wrong_u))
    with pytest.raises(PairError, match="cone over u does not match the support"):
        analyze(tc, pair)
