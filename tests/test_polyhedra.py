import random
from fractions import Fraction as F

import pytest

from conftest import affine_dim, cone_from_normals, support_value
from toricmld.lattice import LatticeError, content, dot, vec_add, vec_scale
from toricmld.polyhedra import (
    GeometryError,
    _polar_raw,
    from_generators,
    from_inequalities,
    gauge,
    interval_image,
    lattice_points,
    make_cone,
    make_support,
    polyhedra_equal,
    scale_polyhedron,
    support_scale,
    support_sum,
)


def rand_points(rng, n, count, lim=4):
    return [tuple(F(rng.randint(-lim, lim), rng.choice((1, 1, 2, 3)))
                  for _ in range(n)) for _ in range(count)]


# ---------------------------------------------------------------------------
# support sets


def test_support_value_examples():
    a = make_support([(1, 0), (0, 1)])
    assert support_value(a, (2, 3)) == 2
    single = make_support([(2, -1)])
    assert support_value(single, (3, 5)) == 1
    with pytest.raises(GeometryError):
        support_value(a, (1, 2, 3))


def test_support_value_matches_the_minimum_over_fraction_points():
    # the kernel cross-multiplies the integer rows (x, q); the reference is min a.e
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 4)
        pts = [tuple(F(rng.randint(-60, 60), rng.choice((1, 2, 3, 5, 25))) for _ in range(n))
               for _ in range(rng.randint(1, 6))]
        a = make_support(pts)
        e = tuple(rng.randint(-7, 7) for _ in range(n))
        value = support_value(a, e)
        assert value == min(dot(p, e) for p in a.points)
        assert type(value) is F
    assert support_value(make_support([(F(-3, 25), F(1, 2))]), (5, -2)) == F(-8, 5)


def test_contains_scaled_matches_contains_at_the_scaled_point():
    rng = random.Random(37)
    empty = from_inequalities(2, [((1, 0), 1), ((-1, 0), 0)])
    compact = from_generators(2, [(F(-3, 2), F(1, 3)), (2, -1), (F(1, 5), 2)])
    unbounded = from_generators(3, [(-1, F(1, 2), 0), (0, -2, F(2, 3))], [(1, 1, 0), (0, 0, 1)])
    agree = {True: 0, False: 0}
    for p in (empty, compact, unbounded):
        for _ in range(300):
            t = rng.choice((F(rng.randint(-9, 9), rng.randint(1, 7)), rng.randint(-3, 3)))
            v = tuple(rng.randint(-2, 2) for _ in range(p.dim))
            inside = p.contains_scaled(t, v)
            assert inside == p.contains(vec_scale(t, v)), (p.ineqs, t, v)
            agree[inside] += 1
    assert not any(empty.contains_scaled(t, (0, 0)) for t in (-1, 0, F(1, 2)))
    assert agree[True] >= 50 and agree[False] >= 50, agree


def test_support_additivity_and_homogeneity():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = make_support(rand_points(rng, n, rng.randint(1, 4)))
        b = make_support(rand_points(rng, n, rng.randint(1, 4)))
        e = tuple(rng.randint(-5, 5) for _ in range(n))
        assert support_value(support_sum(a, b), e) == \
            support_value(a, e) + support_value(b, e)
        t = F(rng.randint(0, 7), rng.choice((1, 2, 3)))
        assert support_value(support_scale(t, a), e) == t * support_value(a, e)


def _mixed_points(rng, n):
    """Points with int and Fraction entries, some equal points given in other forms."""
    pts = [tuple(rng.choice((rng.randint(-3, 3), F(rng.randint(-6, 6), rng.choice((2, 3, 4)))))
                 for _ in range(n)) for _ in range(rng.randint(1, 5))]
    # the same value again: an int as F(2k, 2), a Fraction as its unreduced double
    pts += [tuple(F(2 * x.numerator, 2 * x.denominator) if isinstance(x, F) else F(2 * x, 2)
                  for x in rng.choice(pts)) for _ in range(rng.randint(0, 2))]
    rng.shuffle(pts)
    return pts


def test_support_sets_store_sorted_distinct_primitive_rows():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 3)
        pts, other = _mixed_points(rng, n), _mixed_points(rng, n)
        a, b = make_support(pts), make_support(other)
        assert a.points == tuple(sorted({tuple(F(x) for x in p) for p in pts}))
        assert all(type(x) is F for p in a.points for x in p) and a.dim == n
        t = F(rng.randint(1, 7), rng.choice((1, 2, 3)))
        for s in (a, support_sum(a, b), support_scale(t, a)):
            assert list(s.rows) == sorted(set(s.rows))
            assert all(h[-1] > 0 and content(h) == 1 and len(h) == n + 1 for h in s.rows)
        assert support_sum(a, b).points == tuple(sorted({vec_add(x, y)
                                                         for x in a.points for y in b.points}))
        assert support_scale(t, a).points == tuple(sorted({vec_scale(t, p) for p in a.points}))
        assert support_scale(0, a).rows == ((0,) * n + (1,),)
        assert support_scale(F(0), a).points == ((F(0),) * n,)
    assert make_support([(F(1, 2), F(2, 4)), (F(2, 4), F(1, 2))]).rows == ((1, 1, 2),)
    with pytest.raises(GeometryError, match="nonempty"):
        make_support([])


def test_support_sets_read_any_exact_rational_entry():
    half = make_support([(F(1, 2), 1)])
    assert make_support([(0.5, 1)]) == make_support([("1/2", 1.0)]) == half
    assert half.points == ((F(1, 2), F(1)),) and half.rows == ((1, 2, 2),)
    quarter = make_support([(F(1, 4), F(1, 2))])
    assert support_scale(0.5, half) == support_scale("1/2", half) == quarter
    with pytest.raises(ValueError):
        make_support([("one half", 1)])


# ---------------------------------------------------------------------------
# polar duality


def test_polar_square_cross():
    square = from_generators(2, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    cross = from_generators(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert polyhedra_equal(_polar_raw(square), cross)
    assert polyhedra_equal(_polar_raw(cross), square)


def test_polar_shifted_orthant():
    box = from_generators(2, [(-1, -1)], [(1, 0), (0, 1)])
    u = _polar_raw(box)
    assert polyhedra_equal(u, from_generators(2, [(0, 0), (1, 0), (0, 1)]))
    # -h_box <= 1 on u vertices, and fails just outside
    assert not u.contains((F(2, 3), F(2, 3)))


def test_polar_halfline():
    for a in (F(1, 2), F(2), F(3, 4)):
        hl = from_generators(1, [(-a,)], [(1,)])
        seg = _polar_raw(hl)
        assert polyhedra_equal(seg, from_generators(1, [(0,), (1 / a,)]))


def test_double_polar_random():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        pts = rand_points(rng, n, rng.randint(1, n + 2)) + [(F(0),) * n]
        rays = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(0, 2))]
        rays = [r for r in rays if any(r)]
        p = from_generators(n, pts, rays)
        assert polyhedra_equal(_polar_raw(_polar_raw(p)), p)


# ---------------------------------------------------------------------------
# conversions


def test_roundtrip_fixed_points():
    sq = from_generators(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert polyhedra_equal(from_generators(2, sq.points, sq.rays), sq)
    quad = from_generators(2, [(0, 0)], [(1, 0), (0, 1)])
    assert polyhedra_equal(from_generators(2, quad.points, quad.rays), quad)


def test_roundtrip_random():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = from_generators(n, rand_points(rng, n, rng.randint(1, 6)))
        q = from_generators(p.dim, p.points, p.rays)
        assert polyhedra_equal(p, q)
        assert p.points == q.points and p.rays == q.rays and p.ineqs == q.ineqs


def test_from_inequalities_empty():
    p = from_inequalities(2, [((1, 0), 1), ((-1, 0), 0)])
    assert p.empty
    assert lattice_points(from_generators(2, [])) == []


# ---------------------------------------------------------------------------
# gauge, intervals, lattice points


def test_gauge_examples():
    s = from_generators(2, [(0, 0), (1, 0), (0, 1)])
    assert gauge(s, (1, 1)) == 2
    assert gauge(s, (1, 0)) == 1
    assert gauge(s, (-1, 0)) is None
    assert gauge(s, (0, 0)) == 0


def test_gauge_membership_and_homogeneity():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = from_generators(n, rand_points(rng, n, n + 2) + [(F(0),) * n])
        x = tuple(F(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(n))
        g = gauge(p, x)
        if g is not None:
            assert (g <= 1) == p.contains(x)
            t = F(rng.randint(1, 5), rng.choice((1, 2, 3)))
            assert gauge(p, tuple(t * v for v in x)) == t * g
        else:
            assert not p.contains(x)


def test_gauge_needs_compact():
    quad = from_generators(2, [(0, 0)], [(1, 0), (0, 1)])
    with pytest.raises(GeometryError):
        gauge(quad, (1, 1))


def test_interval_examples():
    u = from_generators(2, [(0, 0), (1, -1), (0, 1), (-1, 1)])
    assert interval_image((1, 1), u) == (0, 1)
    assert interval_image((1, 0), u) == (-1, 1)
    assert interval_image((0, 0), u) == (0, 0)
    ray = from_generators(1, [(0,)], [(1,)])
    assert interval_image((1,), ray) == (0, None)


def reference_interval_image(phi, p):
    """(min, max) of phi over the Fraction points of p; None for an infinite end."""
    vals = [dot(phi, x) for x in p.points]
    lo, hi = min(vals), max(vals)
    for r in p.rays:
        v = dot(phi, r)
        if v > 0:
            hi = None
        elif v < 0:
            lo = None
    return lo, hi


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_interval_image_matches_the_fraction_points(n):
    rng = random.Random(97 + n)
    ends = set()
    for _ in range(40):
        rays = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.choice((0, 0, 1, 2)))]
        p = from_generators(n, rand_points(rng, n, rng.randint(1, 5)), rays)
        for _ in range(5):
            phi = tuple(rng.randint(-3, 3) for _ in range(n))
            got = interval_image(phi, p)
            assert got == reference_interval_image(phi, p), (phi, p)
            assert all(type(x) is F for x in got if x is not None)
            ends.add(tuple(x is None for x in got))
    assert ends == {(False, False), (True, False), (False, True), (True, True)}


def test_lattice_points_examples():
    s = from_generators(2, [(0, 0), (1, 0), (0, 1)])
    assert lattice_points(s) == [(0, 0), (0, 1), (1, 0)]
    assert len(lattice_points(scale_polyhedron(s, 2))) == 6
    with pytest.raises(GeometryError):
        lattice_points(from_generators(1, [(0,)], [(1,)]))


def test_lattice_points_against_independent_scan():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(1, 3)
        p = from_generators(n, rand_points(rng, n, n + 2))
        got = lattice_points(p)
        lo = [min(x[i] for x in p.points) for i in range(n)]
        hi = [max(x[i] for x in p.points) for i in range(n)]
        import itertools
        import math
        expect = []
        for v in itertools.product(*[range(math.floor(a) - 1, math.ceil(b) + 2)
                                     for a, b in zip(lo, hi)]):
            if all(dot(a, v) >= c for a, c in p.ineqs):
                expect.append(v)
        assert got == sorted(expect)


def test_recession_cone_matches_generating_rays():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randint(1, 3)
        pts = rand_points(rng, n, rng.randint(1, 3))
        rays = [r for r in (tuple(rng.randint(-2, 2) for _ in range(n))
                            for _ in range(rng.randint(1, 3))) if any(r)]
        if not rays:
            continue
        p = from_generators(n, pts, rays)
        rc = cone_from_normals(p.dim, [a for a, _ in p.ineqs])
        expected = make_cone(n, rays)
        assert rc == expected


def test_minkowski_sum_supports():
    # conv(A) + b from the sums of their points, as analyze builds the box
    a = [(0, 0), (1, 0)]
    b = from_generators(2, [(0, 0), (0, 1)])
    s = from_generators(2, [vec_add(x, y) for x in a for y in b.points], b.rays)
    assert polyhedra_equal(s, from_generators(2, [(0, 0), (1, 0), (0, 1), (1, 1)]))


def _random_scale_case(rng, kind):
    """Seeded polyhedra: bounded, unbounded, lower-dimensional, non-pointed."""
    n = rng.randint(1, 3)
    pts = rand_points(rng, n, rng.randint(1, 4), lim=3)
    rays = []
    if kind == "lower":
        pts = [(pts[0][0],) + p[1:] for p in pts]
    elif kind == "unbounded":
        rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(2)]
    elif kind == "non-pointed":
        r = tuple(rng.randint(-2, 2) for _ in range(n))
        rays = [r, tuple(-x for x in r)]
    return from_generators(n, pts, rays)


@pytest.mark.parametrize("kind", ["bounded", "unbounded", "lower", "non-pointed"])
def test_scale_polyhedron_matches_from_generators(kind):
    rng = random.Random(59)
    shapes = set()
    for _ in range(60):
        p = _random_scale_case(rng, kind)
        shapes.add((p.is_compact(), affine_dim(p) == p.dim))
        t = F(rng.randint(1, 9), rng.randint(1, 9))
        fast = scale_polyhedron(p, t)
        slow = from_generators(p.dim, [tuple(t * x for x in q) for q in p.points], p.rays)
        # each of the direct result's two descriptions is t * p on its own
        assert polyhedra_equal(from_generators(p.dim, fast.points, fast.rays), slow)
        assert polyhedra_equal(from_inequalities(p.dim, fast.ineqs), slow)
        if not any(tuple(-x for x in r) in p.rays for r in p.rays):
            assert (fast.points, fast.rays) == (slow.points, slow.rays)
        if affine_dim(p) == p.dim:
            assert fast.ineqs == slow.ineqs
    expected = {"bounded": (True, True), "unbounded": (False, True),
                "lower": (True, False), "non-pointed": (False, True)}[kind]
    assert expected in shapes


def _assert_primitive_integer_rows(p):
    for a, c in p.ineqs:
        assert type(c) is int and all(type(x) is int for x in a), (a, c)
        assert len(a) == p.dim and content(a + (-c,)) == 1, (a, c)
    assert list(p.ineqs) == sorted(p.ineqs)


@pytest.mark.parametrize("kind", ["bounded", "unbounded", "lower", "non-pointed", "empty"])
def test_every_constructor_stores_primitive_integer_rows(kind):
    # each row (a, c) of a.x >= c is the homogenized dual ray (a, -c)
    rng = random.Random(71)
    for _ in range(20):
        if kind == "empty":
            n = rng.randint(1, 3)
            e = (F(rng.randint(1, 5), rng.randint(1, 3)),) + (0,) * (n - 1)
            p = from_inequalities(n, [(e, 1), (tuple(-x for x in e), 0)])
            assert p.empty and p.ineqs == (((0,) * n, 1),)
        else:
            p = _random_scale_case(rng, kind)
        s = F(rng.randint(1, 5), rng.randint(1, 5))
        rows = [(tuple(s * x for x in a), s * c) for a, c in p.ineqs]
        built = [p, from_inequalities(p.dim, rows), scale_polyhedron(p, s), _polar_raw(p)]
        assert polyhedra_equal(built[1], p)
        for q in built:
            _assert_primitive_integer_rows(q)


def _assert_integer_point_rows(p):
    for h in p.hpoints:
        assert all(type(x) is int for x in h), h
        assert len(h) == p.dim + 1 and content(h) == 1 and h[-1] > 0, h
    assert list(p.hpoints) == sorted(p.hpoints)
    view = sorted(tuple(F(x, h[-1]) for x in h[:-1]) for h in p.hpoints)
    assert p.points == tuple(view)
    assert all(type(x) is F for v in p.points for x in v)


@pytest.mark.parametrize("kind", ["bounded", "unbounded", "lower", "non-pointed", "empty"])
def test_every_constructor_stores_primitive_integer_point_rows(kind):
    # each point x / q is stored as the homogenized ray (x, q) of the double description
    rng = random.Random(73)
    for _ in range(20):
        if kind == "empty":
            n = rng.randint(1, 3)
            e = (F(rng.randint(1, 5), rng.randint(1, 3)),) + (0,) * (n - 1)
            p = from_inequalities(n, [(e, 1), (tuple(-x for x in e), 0)])
            assert p.empty and p.hpoints == () and p.points == ()
        else:
            p = _random_scale_case(rng, kind)
        s = F(rng.randint(1, 5), rng.randint(1, 5))
        built = [p, from_inequalities(p.dim, p.ineqs), scale_polyhedron(p, s), _polar_raw(p)]
        for q in built:
            _assert_integer_point_rows(q)
        if not p.empty:
            # == compares stored descriptions: set equality only at full dimension
            round_trip = from_generators(p.dim, p.points, p.rays)
            assert polyhedra_equal(round_trip, p)
            if affine_dim(p) == p.dim:
                assert round_trip == p


def test_cone_duality_basics():
    quad = make_cone(2, [(1, 0), (0, 1)])
    assert quad.dual_rays == ((0, 1), (1, 0))
    assert quad.is_pointed() and quad.is_full_dim()
    half = make_cone(2, [(1, -1), (0, 1), (-1, 1)])
    assert not half.is_pointed()
    assert half.dual_rays == ((1, 1),)
    assert half.contains((-5, 5)) and not half.contains((1, -2))
    trivial = make_cone(2, [])
    assert trivial.contains((0, 0)) and not trivial.contains((1, 0))
    line = cone_from_normals(2, [(0, 1), (0, -1)])
    assert line.contains((7, 0)) and line.contains((-7, 0))
    assert not line.contains((0, 1))


def test_equal_cones_with_different_generators_hash_alike():
    a = make_cone(2, [(1, 0), (0, 1)])
    b = make_cone(2, [(1, 0), (0, 1), (1, 1)])
    assert a.generators != b.generators
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert len({a, make_cone(2, [(1, 0), (1, 1)])}) == 2


def test_cone_compared_with_a_non_cone_is_unequal():
    quad = make_cone(2, [(1, 0), (0, 1)])
    assert quad != None  # noqa: E711
    assert not (quad == None)  # noqa: E711
    assert quad != ((0, 1), (1, 0)) and quad != "quad"
    assert quad not in [None, 0, quad.generators]


# ---------------------------------------------------------------------------
# membership tests check the length once per call, with or without rows

PLANE_GENERATORS = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def _raises_mismatch(dim, v):
    return pytest.raises(LatticeError, match="dimension mismatch: %d vs %d" % (dim, len(v)))


def test_cone_contains_refuses_a_wrong_length_without_rows():
    plane = make_cone(2, PLANE_GENERATORS)
    assert not plane.dual_rays and not plane.dual_lines
    quad = make_cone(2, [(1, 0), (0, 1)])
    for cone in (plane, quad):
        for v in ((), (1,), (1, 2, 3)):
            with _raises_mismatch(2, v):
                cone.contains(v)
    assert plane.contains((-3, 4)) and not quad.contains((-3, 4))


def test_cone_interior_contains_refuses_a_wrong_length_without_rows():
    plane = make_cone(2, PLANE_GENERATORS)
    quad = make_cone(2, [(1, 0), (0, 1)])
    for cone in (plane, quad):
        for v in ((), (1, 2, 3)):
            with _raises_mismatch(2, v):
                cone.interior_contains(v)
    assert plane.interior_contains((0, 0)) and not quad.interior_contains((0, 1))


def test_polyhedron_contains_refuses_a_wrong_length_without_rows():
    plane = from_inequalities(2, [])
    assert not plane.ineqs and not plane.empty
    empty = from_inequalities(2, [((0, 0), 1)])
    square = from_generators(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    for p in (plane, empty, square):
        for v in ((), (1, 2, 3)):
            with _raises_mismatch(2, v):
                p.contains(v)
    assert plane.contains((7, -7)) and not empty.contains((0, 0)) and square.contains((1, 1))


def test_polyhedron_contains_scaled_refuses_a_wrong_length_without_rows():
    plane = from_inequalities(2, [])
    empty = from_inequalities(2, [((0, 0), 1)])
    square = from_generators(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    for p in (plane, empty, square):
        for v in ((), (1, 2, 3)):
            with _raises_mismatch(2, v):
                p.contains_scaled(F(1, 2), v)
    assert plane.contains_scaled(F(-3), (1, 1)) and square.contains_scaled(F(1, 2), (2, 2))
    assert not empty.contains_scaled(F(1), (0, 0))
