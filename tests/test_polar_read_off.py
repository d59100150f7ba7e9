"""The polar read off the box, against the polar the double description computes.

`_polar_raw(p)` reads u off p's own rows and generators when p contains
0, is full-dimensional and is pointed, and computes it by `_from_rows`
otherwise.  `reference_polar` is the computation for every p.  The two
must agree field by field (hpoints, rays, ineqs), not only as sets: the
certificates and transcripts hash u's stored rows.
"""

import random
from collections import Counter
from fractions import Fraction as F

import toricmld.pairs
from conftest import ACCEPTANCE_SEEDS
from toricmld.generator import random_instance
from toricmld.instances import CORPUS, load_corpus
from toricmld.lattice import is_zero
from toricmld.polyhedra import _from_rows, _polar_raw, _reads_off_polar, from_generators
from toricmld.search import find_hyperplane, verify_certificate


def reference_polar(p):
    """The polar by double description: `_polar_raw`'s rows through `_from_rows`."""
    return _from_rows(p.dim, [(h[:-1], -h[-1]) for h in p.hpoints if not is_zero(h[:-1])]
                      + [(r, 0) for r in p.rays])


def _fields(p):
    return p.dim, p.hpoints, p.rays, p.ineqs


def _neg(v):
    return tuple(-x for x in v)


def _random_polyhedron(rng):
    """(kind, p): seeded polyhedra in dimensions 1-4, with and without 0.

    kind names the shape asked for; some lower-dimensional draws come
    out full-dimensional, which the path counts below allow for.
    """
    n = rng.randint(1, 4)
    pts = [tuple(F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5))) for _ in range(n))
           for _ in range(rng.randint(1, n + 2))]
    rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.choice((0, 0, 1, 2, 3)))]
    kind = rng.choice(("full", "full", "lower", "non-pointed"))
    if kind == "lower":
        # one coordinate fixed on every generator
        k = rng.randrange(n)
        x = rng.choice((0, pts[0][k]))
        pts = [q[:k] + (x,) + q[k + 1:] for q in pts]
        rays = [r[:k] + (0,) + r[k + 1:] for r in rays]
    elif kind == "non-pointed":
        r = tuple(rng.randint(-2, 2) for _ in range(n))
        rays += [r, _neg(r)]
    where = rng.choice(("as drawn", "origin added", "centered"))
    if where == "origin added":
        pts.append((F(0),) * n)
    elif where == "centered":
        c = tuple(F(sum(q[i] for q in pts)) / len(pts) for i in range(n))
        pts = [tuple(x - y for x, y in zip(q, c)) for q in pts]
    return kind, from_generators(n, pts, [r for r in rays if not is_zero(r)])


def test_polar_read_off_matches_the_double_description_on_random_polyhedra():
    rng = random.Random(20261018)
    paths = Counter()
    for _ in range(3000):
        kind, p = _random_polyhedron(rng)
        fast, ref = _polar_raw(p), reference_polar(p)
        assert _fields(fast) == _fields(ref), (kind, _fields(p))
        if _reads_off_polar(p):
            paths["read off"] += 1
        elif all(c <= 0 for _, c in p.ineqs):
            paths["0 in p, computed (%s)" % kind] += 1
        else:
            paths["0 not in p"] += 1
    assert paths["read off"] >= 800, paths
    assert paths["0 not in p"] >= 400, paths
    # each of the other two conditions sends some p containing 0 to the computation
    assert paths["0 in p, computed (lower)"] >= 300, paths
    assert paths["0 in p, computed (non-pointed)"] >= 300, paths


def test_polar_read_off_conditions():
    square = from_generators(2, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    orthant = from_generators(2, [(0, 0)], [(1, 0), (0, 1)])
    assert _reads_off_polar(square) and _reads_off_polar(orthant)
    # the origin is a point of the polar of the orthant (its rays have full rank)
    assert _polar_raw(orthant).hpoints == ((0, 0, 1),)
    shifted = from_generators(2, [(1, 1), (2, 1), (1, 2)])
    segment = from_generators(2, [(-1, 0), (1, 0)])
    strip = from_generators(2, [(0, -1), (0, 1)], [(1, 0), (-1, 0)])
    empty = from_generators(2, [])
    for p in (shifted, segment, strip, empty):
        assert not _reads_off_polar(p)
        assert _fields(_polar_raw(p)) == _fields(reference_polar(p))


def test_polar_read_off_matches_on_every_box_of_the_acceptance_set(monkeypatch):
    """Every box that analyze builds in find + verify, slices included."""
    paths = Counter()
    real = toricmld.pairs._polar_raw

    def checked(box):
        u = real(box)
        assert _fields(u) == _fields(reference_polar(box))
        paths[_reads_off_polar(box)] += 1
        return u

    monkeypatch.setattr(toricmld.pairs, "_polar_raw", checked)
    germs = [load_corpus(name)[:2] for name in CORPUS]
    germs += [random_instance(s)[:2] for s in ACCEPTANCE_SEEDS]
    for tc, pair in germs:
        cert = find_hyperplane(tc, pair)
        assert verify_certificate(tc, pair, cert)[0]
    assert paths[True] >= 2 * len(germs) and paths[False] >= 1, paths
