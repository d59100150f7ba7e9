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

import toricmld.pairs
from conftest import (
    INTERIOR_SEEDS,
    affine_dim,
    germ,
    strict_interior_contains,
    zero_pair,
)
from toricmld.generator import random_instance
from toricmld.instances import CORPUS, load_corpus
from toricmld.lattice import LatticeError, apply_hom, dot, identity, is_zero
from toricmld.pairs import _fiber_witness, analyze, make_pair, mld_over_fiber
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


def reference_mld(tc, bd):
    """mld_over_fiber as a scan of the box of t_cap * up, point by point."""
    if bd.l == 0:
        return None
    proj, up = bd.quotient
    if strict_interior_contains(up, (0,) * bd.l):
        return None
    t_cap = reference_gauge(up, apply_hom(proj, _fiber_witness(tc.fan)))
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
    # B = (1 - 1/d, 1 - 1/d, 0): the bounding box of t_cap * up grows like
    # d^2, but the cuts leave only the minimizer (1, 1, 1)
    tc = germ(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)], identity(3))
    pair = make_pair(tc.fan, (1 - F(1, d), 1 - F(1, d), 0), [(0, 0, 0)])
    bd = analyze(tc, pair)
    assert mld_over_fiber(bd) == 1 + F(2, d)
    assert counted_enumerator == [1]


def test_mld_needs_the_witness_point(monkeypatch, a2_germ):
    bd = analyze(a2_germ, zero_pair(a2_germ))
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
    # the mld 1 + 1/d, but it lies on a facet of the support; the bound comes
    # from (1, 1), the sum of the two directions, and only it is enumerated
    bd = analyze(a2_germ, make_pair(a2_germ.fan, (1 - F(1, d), 0), [(0, 0)]))
    proj, up = bd.quotient
    rows = _gauge_rows(up)
    assert _gauge_ratio(rows, apply_hom(proj, (1, 0))) == (1, d)
    assert mld_over_fiber(bd) == 1 + F(1, d)
    assert counted_enumerator == [1]
