"""The project-and-lift enumerator against the bounding-box scan it replaced.

`reference_lattice_points` and `reference_mld` are the former
implementations of `lattice_points` and `mld_over_fiber`, kept here as
slow references: every point of the bounding box is tested with Fraction
`contains`, and each mld candidate with `Cone.interior_contains`.
`reference_gauge` is the former Fraction `gauge`, which checks p on
every call and takes the max of one Fraction per facet; `reference_mld`
uses it, so the integer gauge kernel is checked against code it does
not share.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricmld.lattice
import toricmld.pairs
import toricmld.polyhedra
import toricmld.search
from conftest import (
    ACCEPTANCE_SEEDS,
    INTERIOR_SEEDS,
    affine_dim,
    cyclic_germ,
    germ,
    product_germ,
    strict_interior_contains,
    zero_pair,
)
from toricmld.generator import random_instance
from toricmld.instances import CORPUS, load_corpus
from toricmld.lattice import LatticeError, apply_hom, dot, identity, is_zero, primitive
from toricmld.pairs import _least_gauge, analyze, make_pair, mld_over_fiber
from toricmld.polyhedra import (
    GeometryError,
    _gauge_ratio,
    _gauge_rows,
    from_generators,
    from_inequalities,
    gauge,
    integer_points,
    lattice_points,
    make_cone,
    scale_polyhedron,
)
from toricmld.search import find_hyperplane, verify_certificate


def reference_lattice_points(p):
    """Integer points of a compact polyhedron by scanning its bounding box."""
    if p.empty:
        return []
    if not p.is_compact():
        raise GeometryError("lattice enumeration needs a compact polyhedron")
    los = [min(x[i] for x in p.points) for i in range(p.dim)]
    his = [max(x[i] for x in p.points) for i in range(p.dim)]
    ranges = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in zip(los, his)]
    return [v for v in itertools.product(*ranges) if p.contains(v)]


def reference_gauge(p, x):
    """inf{t > 0 : x in t*p} for compact p containing 0; Fraction or None (+inf)."""
    if not p.is_compact():
        raise GeometryError("gauge needs a compact polyhedron")
    if not p.contains((0,) * p.dim):
        raise GeometryError("gauge needs 0 in the polyhedron")
    best = F(0)
    for a, c in p.ineqs:
        v = dot(a, x)
        if c == 0:
            if v < 0:
                return None
        elif v < 0 <= -c:
            best = max(best, F(v, c))
    return best


def fiber_witness(fan):
    """A lattice point interior to the support: the ray sum of a top cone.

    The references below bound their scans by it, as the former
    mld_over_fiber did, so they do not share the bound it now takes.
    """
    return tuple(map(sum, zip(*(fan.rays[i] for i in fan.max_cones[0]))))


def reference_mld(tc, bd):
    """mld_over_fiber as a scan of the box of t_cap * up, point by point."""
    if bd.l == 0:
        return None
    proj, up = bd.quotient
    if strict_interior_contains(up, (0,) * bd.l):
        return None
    t_cap = reference_gauge(up, apply_hom(proj, fiber_witness(tc.fan)))
    assert t_cap is not None and t_cap > 0
    sup_gens = [g2 for g2 in (apply_hom(proj, g) for g in tc.support.generators)
                if not is_zero(g2)]
    pcone = make_cone(bd.l, sup_gens)
    best = None
    for v in reference_lattice_points(scale_polyhedron(up, t_cap)):
        if is_zero(v) or not pcone.interior_contains(v):
            continue
        g = reference_gauge(up, v)
        assert g is not None and g > 0
        if best is None or g < best:
            best = g
    assert best is not None
    return best


def enumerated_mld(bd):
    """The former mld_over_fiber past its g-lc and dim Y checks: the bound from
    the candidates at hand, then one enumeration, on every shape of up.

    It calls the enumerator as `toricmld.pairs.integer_points`, so the
    `counted_enumerator` fixture counts its points too.
    """
    if bd.l == 0:
        return None
    proj, up = bd.quotient
    rows = _gauge_rows(up)
    through_zero = rows[1]
    if not through_zero:
        return None
    dirs = [primitive(h[:-1]) for h in up.hpoints if not is_zero(h[:-1])]
    at_hand = itertools.chain([apply_hom(proj, fiber_witness(bd.tc.fan))], dirs,
                              (tuple(map(sum, zip(a, b))) for a, b in itertools.combinations(dirs, 2)))
    t_cap = _least_gauge(rows, (v for v in at_hand if all(dot(d, v) >= 1 for d in through_zero)))
    num, den = t_cap
    cuts = ([(tuple(den * x for x in a), num * c) for a, c in up.ineqs]
            + [(d, 1) for d in through_zero])
    return F(*_least_gauge(rows, toricmld.pairs.integer_points(bd.l, cuts)))


def rand_rational(rng, lim=5):
    return F(rng.randint(-lim, lim), rng.choice((1, 1, 2, 3, 5)))


def random_polytopes(rng, count):
    """Full-dimensional, lower-dimensional and empty polytopes, dims 1-3."""
    for i in range(count):
        n = rng.randint(1, 3)
        kind = i % 4
        if kind == 3:
            yield from_generators(n, [])
            continue
        # kind 0: full-dimensional; 1: on a line; 2: on a plane (or a line when n = 1)
        rank = n if kind == 0 else min(kind, n)
        base = tuple(rand_rational(rng) for _ in range(n))
        dirs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rank)]
        pts = [tuple(b + sum(rand_rational(rng, 3) * d[j] for d in dirs)
                     for j, b in enumerate(base))
               for _ in range(rng.randint(1, n + 3))]
        yield from_generators(n, pts)


def test_enumerator_matches_box_scan_on_random_polytopes():
    rng = random.Random(61)
    seen = {"points": 0, "empty": 0, "lower": 0}
    for p in random_polytopes(rng, 400):
        expect = reference_lattice_points(p)
        assert lattice_points(p) == expect
        if not p.empty:
            assert list(integer_points(p.dim, p.ineqs)) == expect
            seen["lower"] += affine_dim(p) < p.dim
        seen["points"] += len(expect)
        seen["empty"] += not expect
    assert seen["points"] > 1000 and seen["empty"] > 100 and seen["lower"] > 0


def test_enumerator_matches_box_scan_on_cut_systems():
    rng = random.Random(67)
    cut_points = 0
    for p in random_polytopes(rng, 300):
        if p.empty:
            continue
        cuts = [d for d in (tuple(rng.randint(-2, 2) for _ in range(p.dim))
                            for _ in range(rng.randint(1, 3))) if any(d)]
        rows = list(p.ineqs) + [(d, 1) for d in cuts]
        expect = [v for v in reference_lattice_points(p)
                  if all(dot(d, v) >= 1 for d in cuts)]
        assert list(integer_points(p.dim, rows)) == expect
        cut_points += len(expect)
    assert cut_points > 100


def test_integer_rows_go_to_the_enumerator_as_they_are(monkeypatch):
    # an integer row is only tightened; a row with a Fraction entry, or a
    # list normal, first becomes a primitive integer row (_integer_row), and
    # both give the same points, also for a row (a, c) that is not primitive
    rng = random.Random(73)
    calls = []
    inner = toricmld.polyhedra._integer_row
    monkeypatch.setattr(toricmld.polyhedra, "_integer_row",
                        lambda a, c: calls.append(a) or inner(a, c))
    points = 0
    for p in random_polytopes(rng, 200):
        if p.empty:
            continue
        rows = [(tuple(k * x for x in a), k * c - rng.randint(0, k - 1))
                for (a, c), k in ((row, rng.randint(1, 4)) for row in p.ineqs)]
        calls.clear()
        expect = list(integer_points(p.dim, rows))
        assert calls == []
        assert list(integer_points(p.dim, [(tuple(map(F, a)), F(c)) for a, c in rows])) == expect
        assert list(integer_points(p.dim, [(list(a), c) for a, c in rows])) == expect
        assert len(calls) == 2 * len(rows)
        # k (a.x) >= k c - j with 0 <= j < k holds on an integer x iff a.x >= c does
        assert expect == reference_lattice_points(p)
        points += len(expect)
    assert points > 500


def test_enumerator_edge_cases():
    assert list(integer_points(0, [])) == [()]
    assert list(integer_points(0, [((), 1)])) == []
    # rational slab with no integer point, and a strict interval as a cut
    assert list(integer_points(1, [((3,), 1), ((-3,), -2)])) == []
    assert list(integer_points(1, [((1,), F(1, 2)), ((-1,), F(-7, 2))])) == [(1,), (2,), (3,)]
    # rational normals scale to integer ones
    assert list(integer_points(2, [((F(1, 2), 0), 0), ((0, F(1, 3)), 0),
                                   ((-1, -1), -1)])) == [(0, 0), (0, 1), (1, 0)]
    # infeasible along x_0 while x_1 is free: empty, not unbounded
    assert list(integer_points(2, [((1, 0), 0), ((-1, 0), 1)])) == []
    with pytest.raises(GeometryError, match="bounded"):
        integer_points(2, [((1, 0), 0), ((-1, 0), -3)])
    with pytest.raises(GeometryError, match="dimension"):
        integer_points(2, [((1,), 0)])
    segment = from_inequalities(2, [((1, 0), 0), ((-1, 0), -2), ((0, 1), 1), ((0, -1), -1)])
    assert lattice_points(segment) == [(0, 1), (1, 1), (2, 1)]


def _generated(seeds):
    for s in seeds:
        tc, pair, _meta = random_instance(s)
        bd = analyze(tc, pair)
        yield "seed%d" % s, tc, bd


def test_mld_matches_reference_on_corpus_and_acceptance_seeds():
    cases = []
    for name in CORPUS:
        tc, pair, _obj = load_corpus(name)
        bd = analyze(tc, pair)
        cases.append((name, tc, bd))
    cases += list(_generated(range(1000, 1016)))
    positive = 0
    for name, tc, bd in cases:
        expect = reference_mld(tc, bd)
        assert mld_over_fiber(bd) == expect, name
        positive += expect is not None
    assert positive >= 20


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=2000, max_value=2149))
def test_mld_matches_reference_on_drawn_generator_seeds(seed):
    for name, tc, bd in _generated([seed]):
        assert mld_over_fiber(bd) == reference_mld(tc, bd), name


@pytest.fixture()
def counted_enumerator(monkeypatch):
    """Per call of the enumerator that pairs uses: the number of points."""
    counts = []
    inner = toricmld.pairs.integer_points

    def counting(dim, ineqs):
        pts = list(inner(dim, ineqs))
        counts.append(len(pts))
        return iter(pts)

    monkeypatch.setattr(toricmld.pairs, "integer_points", counting)
    return counts


@pytest.mark.parametrize("d", [2000, 10 ** 9])
def test_near_boundary_a3_enumerates_one_point(counted_enumerator, d):
    # B = (1 - 1/d, 1 - 1/d, 0): up is a unimodular corner simplex, so
    # mld_over_fiber takes the closed form and enumerates nothing.  On the
    # enumeration path the bounding box of t_cap * up grows like d^2, but
    # the cuts leave only the minimizer (1, 1, 1)
    tc = germ(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)], identity(3))
    pair = make_pair(tc.fan, (1 - F(1, d), 1 - F(1, d), 0), [(0, 0, 0)])
    bd = analyze(tc, pair)
    assert mld_over_fiber(bd) == 1 + F(2, d)
    assert counted_enumerator == []
    assert enumerated_mld(bd) == 1 + F(2, d)
    assert counted_enumerator == [1]


def test_mld_needs_the_witness_point(monkeypatch, halfplane_germ):
    # halfplane's up has two vertices off 0 for l = 2: it is enumerated
    bd = analyze(halfplane_germ, zero_pair(halfplane_germ))
    monkeypatch.setattr(toricmld.pairs, "integer_points", lambda dim, ineqs: iter(()))
    with pytest.raises(toricmld.pairs.PairError, match="witness point must be enumerated"):
        mld_over_fiber(bd)


def random_polytopes_with_origin(rng, count):
    """Compact polytopes containing 0, dims 1-4, with Fraction vertices.

    Kinds by i % 3: 0 around the origin (mostly interior), 0 a vertex (all
    points in the nonnegative orthant, so rows run through 0), and
    lower-dimensional through 0 (a line or a plane, rows through 0 on both
    sides).
    """
    for i in range(count):
        n = 1 + (i // 3) % 4
        kind = i % 3
        if kind == 2:
            dirs = [tuple(rng.randint(-3, 3) for _ in range(n))
                    for _ in range(rng.randint(1, max(1, n - 1)))]
            pts = [tuple(sum(rand_rational(rng, 3) * d[j] for d in dirs) for j in range(n))
                   for _ in range(rng.randint(1, 4))]
        else:
            pts = [tuple(rand_rational(rng) for _ in range(n))
                   for _ in range(rng.randint(1, n + 4))]
            if kind == 1:
                pts = [tuple(abs(v) for v in x) for x in pts]
        yield from_generators(n, pts + [(0,) * n])


def gauge_probes(rng, p):
    """0, vertices, scaled vertices, midpoints, both sides of every row through 0,
    and random integer and Fraction points."""
    n = p.dim
    yield (0,) * n
    for v in p.points:
        yield v
        yield tuple(F(1, 2) * x for x in v)
        yield tuple(3 * x for x in v)
    for u, w in zip(p.points, p.points[1:]):
        yield tuple((x + y) / 2 for x, y in zip(u, w))
    for a, c in p.ineqs:
        if c == 0:
            yield a
            yield tuple(-x for x in a)
    for _ in range(8):
        yield tuple(rng.randint(-6, 6) for _ in range(n))
        yield tuple(rand_rational(rng) for _ in range(n))


def test_gauge_matches_reference_gauge_on_polytopes_containing_zero():
    rng = random.Random(71)
    seen = {"inf": 0, "zero": 0, "positive": 0, "dims": set()}
    for p in random_polytopes_with_origin(rng, 240):
        seen["dims"].add(p.dim)
        rows = _gauge_rows(p)
        for x in gauge_probes(rng, p):
            expect = reference_gauge(p, x)
            got = gauge(p, x)
            assert got == expect, (p.ineqs, x)
            ratio = _gauge_ratio(rows, x)
            if expect is None:
                assert ratio is None
                seen["inf"] += 1
            else:
                n, d = ratio
                assert type(got) is F and d > 0 and F(n, d) == expect
                # no positive s leaves the start pair (0, 1)
                assert expect != 0 or ratio == (0, 1)
                seen["zero" if expect == 0 else "positive"] += 1
        lift = 1 - min(v[0] for v in p.points)
        shifted = from_generators(p.dim, [(v[0] + lift,) + v[1:] for v in p.points])
        for g in (gauge, reference_gauge):
            with pytest.raises(GeometryError, match="0 in the polyhedron"):
                g(shifted, (1,) * p.dim)
            with pytest.raises(LatticeError, match="dimension mismatch"):
                g(p, (0,) * (p.dim + 1))
    assert seen["dims"] == {1, 2, 3, 4}
    assert min(seen["inf"], seen["zero"], seen["positive"]) >= 50, seen


@pytest.fixture()
def counted_gauge_rows(monkeypatch):
    """The number of calls of the gauge check that pairs uses, since the last reset."""
    calls = [0]
    inner = toricmld.pairs._gauge_rows

    def counting(p):
        calls[0] += 1
        return inner(p)

    monkeypatch.setattr(toricmld.pairs, "_gauge_rows", counting)
    return calls


def test_mld_calls_gauge_once_and_matches_reference(counted_gauge_rows):
    # the gauge checks run once per mld_over_fiber that gets past l == 0;
    # t_cap and every candidate go through the integer kernel on those rows
    cases = []
    for name in CORPUS:
        tc, pair, _obj = load_corpus(name)
        bd = analyze(tc, pair)
        cases.append((name, tc, bd))
    cases += list(_generated(range(1000, 1016)))
    scanned = 0
    for name, tc, bd in cases:
        counted_gauge_rows[0] = 0
        got = mld_over_fiber(bd)
        assert counted_gauge_rows[0] == (bd.l > 0), name
        assert got == reference_mld(tc, bd), name
        scanned += got is not None
    assert scanned >= 20


# ---------------------------------------------------------------------------
# the enumeration bound: the least gauge over candidates at hand


def test_mld_matches_reference_on_interior_seeds():
    # reference_mld scans the box of t_cap * up with t_cap the witness's gauge
    for name, tc, bd in _generated(INTERIOR_SEEDS):
        expect = reference_mld(tc, bd)
        assert expect is not None, name
        assert mld_over_fiber(bd) == expect, name


@pytest.mark.parametrize("seed, points", [(271, 941), (362, 31), (159, 39), (82, 3)])
def test_mld_bound_cuts_the_interior_seed_enumerations(counted_enumerator, seed, points):
    # bounded by the witness's gauge alone these were 3643, 3236, 1220 and 416
    for _name, tc, bd in _generated([seed]):
        counted_enumerator.clear()   # the generator runs the mld of what it returns
        mld_over_fiber(bd)
    assert counted_enumerator == [points]


@pytest.mark.parametrize("d", [3, 1000])
def test_mld_bound_skips_points_that_are_not_candidates(counted_enumerator, a2_germ, d):
    # B = (1 - 1/d, 0): the vertex direction (1, 0) of up has gauge 1/d, below
    # the mld 1 + 1/d, but it lies on a facet of the support; up is a
    # unimodular corner simplex, so the mld is the gauge of (1, 1), the sum
    # of the two directions, and nothing is enumerated
    bd = analyze(a2_germ, make_pair(a2_germ.fan, (1 - F(1, d), 0), [(0, 0)]))
    proj, up = bd.quotient
    rows = _gauge_rows(up)
    assert _gauge_ratio(rows, apply_hom(proj, (1, 0))) == (1, d)
    assert mld_over_fiber(bd) == 1 + F(1, d)
    assert counted_enumerator == []


def test_mld_bound_from_a_pair_sum_enumerates_only_it(counted_enumerator):
    # seed 1075: up has two facets off 0, so it is enumerated.  The vertex
    # directions (0, -1, 1) and (0, 0, 1) have gauge 2/3, below the mld 5/3,
    # but lie on facets of the support; the witness (1, -1, 1) has gauge
    # 8/3; the bound comes from (1, -1, 2), the sum of (0, -1, 1) and
    # (1, 0, 1), and only it is enumerated
    (_name, tc, bd), = _generated([1075])
    proj, up = bd.quotient
    rows = _gauge_rows(up)
    assert len(rows[0]) == 2
    assert apply_hom(proj, fiber_witness(tc.fan)) == (1, -1, 1)
    assert _gauge_ratio(rows, (1, -1, 1)) == (8, 3)
    dirs = {primitive(h[:-1]) for h in up.hpoints if not is_zero(h[:-1])}
    for v in ((0, -1, 1), (0, 0, 1)):
        assert v in dirs and _gauge_ratio(rows, v) == (2, 3)
        assert min(dot(d, v) for d in rows[1]) == 0
    assert (1, 0, 1) in dirs and _gauge_ratio(rows, (1, -1, 2)) == (5, 3)
    counted_enumerator.clear()   # the generator runs the mld of what it returns
    assert mld_over_fiber(bd) == F(5, 3)
    assert counted_enumerator == [1]


# ---------------------------------------------------------------------------
# the closed form on a unimodular corner simplex, against the enumeration


def _det(rows):
    """The determinant of a square integer matrix, by Fraction elimination."""
    m = [[F(x) for x in r] for r in rows]
    det = F(1)
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return F(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def corner_shape(bd):
    """(corner, unimodular) of up: corner when it has one facet off 0 and l
    through 0, unimodular when its nonzero vertex directions also have
    determinant +-1."""
    _proj, up = bd.quotient
    off = [a for a, c in up.ineqs if c]
    through = [a for a, c in up.ineqs if not c]
    if len(off) != 1 or len(through) != bd.l:
        return False, False
    dirs = [primitive(h[:-1]) for h in up.hpoints if not is_zero(h[:-1])]
    assert len(dirs) == bd.l   # a compact polytope with l + 1 facets is a simplex
    return True, abs(_det(dirs)) == 1


def _smooth_ladder(n, boundary, d):
    """Smooth A^n with B = (1 - 1/d) on the first `boundary` rays, and A = {0}."""
    tc = germ(n, identity(n), [tuple(range(n))], identity(n))
    b = [1 - F(1, d)] * boundary + [0] * (n - boundary)
    return tc, make_pair(tc.fan, b, [(0,) * n])


@pytest.mark.parametrize("n, boundary", [(3, 2), (2, 1), (1, 1)])
def test_closed_form_matches_the_enumeration_on_the_smooth_ladders(counted_enumerator,
                                                                   n, boundary):
    # the mld is attained at (1, ..., 1): boundary * (1/d) + (n - boundary);
    # the box scan is kept to the small rungs, where its box is small
    for d in (2, 3, 10, 45, 1000, 10 ** 6, 10 ** 9):
        tc, pair = _smooth_ladder(n, boundary, d)
        bd = analyze(tc, pair)
        expect = n - boundary + F(boundary, d)
        counted_enumerator.clear()
        assert mld_over_fiber(bd) == expect, d
        assert counted_enumerator == [] and corner_shape(bd) == (True, True)
        assert enumerated_mld(bd) == expect, d
        if d <= 45:
            assert reference_mld(tc, bd) == expect, d


def _checked_cases():
    """The corpus, the acceptance and interior seeds and generator seeds
    2000-2149, as (name, tc, bd)."""
    for name in CORPUS:
        tc, pair, _obj = load_corpus(name)
        yield name, tc, analyze(tc, pair)
    yield from _generated(ACCEPTANCE_SEEDS + tuple(range(2000, 2150)))


def test_closed_form_matches_the_enumeration_on_the_acceptance_set_and_generator_seeds(
        counted_enumerator):
    seen = {"closed": 0, "enumerated": 0, "corner without a basis": 0}
    for name, tc, bd in _checked_cases():
        counted_enumerator.clear()
        got = mld_over_fiber(bd)
        closed = got is not None and not counted_enumerator
        corner, unimodular = corner_shape(bd) if bd.l else (False, False)
        assert closed == unimodular, name
        assert got == enumerated_mld(bd), name
        if closed:
            assert got == reference_mld(tc, bd), name
        seen["closed" if closed else "enumerated"] += got is not None
        seen["corner without a basis"] += corner and not unimodular
    assert seen == {"closed": 181, "enumerated": 81, "corner without a basis": 15}


@pytest.mark.parametrize("d", [1, 3, 1000])
def test_closed_form_needs_a_lattice_basis(counted_enumerator, d):
    # the A_1 cone spanned by (1, 0) and (1, 2), determinant 2, with B = (1 -
    # 1/d, 0): up = conv(0, d (1, 0), (1, 2)) is a corner simplex, but the
    # sum (2, 2) of its vertex directions has gauge 1 + 1/d, twice that of
    # the minimizer (1, 1), which is a candidate as (1, 0) and (1, 2) are no
    # lattice basis: without the basis test the closed form would be wrong
    tc = germ(2, [(1, 0), (1, 2)], [(0, 1)], identity(2))
    bd = analyze(tc, make_pair(tc.fan, (1 - F(1, d), 0), [(0, 0)]))
    _proj, up = bd.quotient
    rows = _gauge_rows(up)
    assert corner_shape(bd) == (True, False)
    expect = (1 + F(1, d)) / 2
    assert F(*_gauge_ratio(rows, (2, 2))) == 2 * expect
    assert F(*_gauge_ratio(rows, (1, 1))) == expect
    assert mld_over_fiber(bd) == expect == reference_mld(tc, bd) == enumerated_mld(bd)
    assert counted_enumerator[0] >= 1


PRODUCTS = [
    (("a3_identity", "a3_identity"), 6, True),
    (("a3_identity", "a3_identity", "a3_identity"), 9, True),
    (("a2_identity", "a3_identity"), 5, True),
    (("a3_identity", "cax4"), 6, False),
    (("wedge25", "a3_identity"), 5, False),
    (("halfplane", "a2_identity"), 4, False),
]


def _product(names):
    """(factors, BoxData of their product) for corpus names, each factor a (tc, pair)."""
    factors = [load_corpus(name)[:2] for name in names]
    tc, pair = factors[0]
    for factor in factors[1:]:
        tc, pair = product_germ((tc, pair), factor)
    return factors, analyze(tc, pair)


@pytest.mark.parametrize("names, l, closed", PRODUCTS)
def test_closed_form_matches_the_enumeration_on_product_germs(monkeypatch, counted_enumerator,
                                                              names, l, closed):
    # from l = 4 on hom_is_surjective reads the invariant factors off one SNF;
    # the mld of a product is the sum of its factors'
    factors, bd = _product(names)
    bd.quotient   # read before the count: only mld_over_fiber's SNF calls are counted
    snfs = []
    real_snf = toricmld.lattice.snf
    monkeypatch.setattr(toricmld.lattice, "snf", lambda *a: snfs.append(a) or real_snf(*a))
    got = mld_over_fiber(bd)
    corner, unimodular = corner_shape(bd)
    assert bd.l == l and len(snfs) == corner
    assert (not counted_enumerator) == closed == unimodular
    assert got == sum(mld_over_fiber(analyze(t, p)) for t, p in factors)
    assert got == enumerated_mld(bd)


def _closed_form_calls(counted_enumerator, items):
    """Per mld_over_fiber call of find + verify over items: True when it took
    the closed form (a value and no enumeration), and its BoxData."""
    calls = []
    real_mld = toricmld.search.mld_over_fiber

    def counted(bd):
        counted_enumerator.clear()
        got = real_mld(bd)
        calls.append((got is not None and not counted_enumerator, bd))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(toricmld.search, "mld_over_fiber", counted)
        for tc, pair in items:
            cert = find_hyperplane(tc, pair)
            assert verify_certificate(tc, pair, cert)[0]
    return calls


def test_closed_form_takes_every_near_boundary_call_and_most_of_certify(counted_enumerator):
    # the items of the benchmark's near-boundary and certify workloads; a
    # call takes the closed form exactly when up is a unimodular corner
    # simplex, so no corner simplex without a lattice basis takes it
    near = [_smooth_ladder(3, 2, d) for d in (2, 3, 4, 6, 8, 11, 16, 23, 32, 45)]
    near += [_smooth_ladder(2, 1, d) for d in (10, 32, 100, 316, 1000, 3162)]
    certify = [load_corpus(name)[:2] for name in CORPUS]
    certify += [random_instance(s)[:2] for s in ACCEPTANCE_SEEDS[:64] + (5, 27, 82, 93, 119)]
    counts = []
    for items in (near, certify):
        calls = _closed_form_calls(counted_enumerator, items)
        for closed, bd in calls:
            assert closed == corner_shape(bd)[1]
        counts.append((len(calls), sum(closed for closed, _bd in calls),
                       sum(corner_shape(bd) == (True, False) for _closed, bd in calls)))
    assert counts == [(32, 32, 0), (163, 119, 8)]


# ---------------------------------------------------------------------------
# cyclic germs 1/r(a): a rank 4-6 oracle that is not a product


def reid_tai_mld(r, a, b):
    """The mld of 1/r(a) with boundary b on the coordinate divisors: the least
    sum (1 - b_i) x_i(k) over k = 0..r-1, with x_i(k) = {k a_i / r}, or 1 where
    that is 0 (Reid 1987, the age of the group element k)."""
    return min(sum((1 - bi) * (F(k * ai % r, r) or 1) for ai, bi in zip(a, b))
               for k in range(r))


CYCLIC = [(5, (1, 2, 3, 4)), (7, (1, 2, 4, 3)), (7, (1, 2, 3, 4, 5)), (11, (1, 3, 4, 5, 9)),
          (13, (1, 2, 3, 5, 7, 11)), (23, (1, 2, 4, 8, 16, 5))]


@pytest.mark.parametrize("r, a", CYCLIC)
def test_mld_of_a_cyclic_germ_is_its_reid_tai_value(r, a):
    # not a product: the group couples every coordinate.  B_0 = 99/100
    # enumerates up to a second at rank 6, so it is kept to rank <= 5
    tc = cyclic_germ(r, a)
    n = len(a)
    assert tc.rank == n and tc.fan.rays[1:] == identity(n)[1:]
    for b0 in (0, F(9, 10), F(99, 100))[:3 if n <= 5 else 2]:
        b = (b0,) + (0,) * (n - 1)
        bd = analyze(tc, make_pair(tc.fan, b, [(0,) * n]))
        assert bd.l == n
        assert mld_over_fiber(bd) == reid_tai_mld(r, a, b), b0


def test_cyclic_germ_refuses_an_input_that_is_not_well_formed():
    # gcd(4, 2, 2) = 2: e_2 / 2 = (0, 0, 1/2) lies in N = Z^3 + Z (2, 2, 1) / 4
    with pytest.raises(ValueError, match="not well formed"):
        cyclic_germ(4, (2, 2, 1))


# ---------------------------------------------------------------------------
# the first candidate: the sum of up's vertex directions


def test_the_vertex_directions_sum_passes_every_cut_of_up():
    # up is full-dimensional, so a normal d through 0 is >= 0 on every vertex
    # direction and >= 1 on one: d.total >= 1, total is a candidate, its gauge
    # is positive and bounds the mld from above
    cases = [(name, bd) for name, _tc, bd in _checked_cases()]
    cases += [("x".join(names), _product(names)[1]) for names, _l, _closed in PRODUCTS]
    for r, a in CYCLIC:
        tc = cyclic_germ(r, a)
        b = (F(9, 10),) + (0,) * (len(a) - 1)
        cases.append(("1/%d%s" % (r, a), analyze(tc, make_pair(tc.fan, b, [(0,) * len(a)]))))
    checked = 0
    for name, bd in cases:
        if not bd.l:
            continue
        _proj, up = bd.quotient
        rows = _gauge_rows(up)
        if not rows[1]:
            continue
        total = tuple(map(sum, zip(*(primitive(h[:-1]) for h in up.hpoints
                                     if not is_zero(h[:-1])))))
        assert min(dot(d, total) for d in rows[1]) >= 1, name
        n, d = _gauge_ratio(rows, total)
        assert n > 0, name
        assert mld_over_fiber(bd) <= F(n, d), name
        checked += 1
    assert checked == 274
