"""The integer fast paths of `lattice` and `polyhedra` against their former bodies.

Each reference below is the body the kernel had before it was rewritten
in C-level builtins (`not any`, one `gcd`, an early-exit loop, one
length check and a loop over `sum(map(mul, a, x))`).  The fast path
must give the same value, or raise the same error, on random int,
Fraction, bool and list vectors, and the membership tests must agree on
every fan ray and box point of the acceptance set.  The one intended
difference, a wrong-length vector on an object with no rows, is tested
in `test_polyhedra.py`.  `hom_is_surjective` reads the gcd of the
maximal minors up to 3 columns where it took an SNF.  `_cancel` only
inlines the `gcd` that `content` took; the elimination references in
`test_lattice.py` and `test_simplicial_start.py` check it through
`solve_rational` and `rational_rank`.
"""

import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

import toricmld.lattice
from conftest import ACCEPTANCE_SEEDS
from toricmld.generator import random_instance
from toricmld.instances import CORPUS, load_corpus
from toricmld.lattice import (
    LatticeError,
    _as_integers,
    dot,
    hom_is_surjective,
    is_zero,
    primitive,
    snf,
)
from toricmld.pairs import analyze
from toricmld.polyhedra import GeometryError

SCALES = (F(-1), F(-1, 2), F(1, 3), F(2))


def reference_is_zero(v):
    return all(a == 0 for a in v)


def reference_primitive(v):
    g = gcd(*v)
    if g == 0:
        raise LatticeError("primitive() of the zero vector")
    return tuple(a // g for a in v)


def reference_as_integers(r):
    if all(isinstance(x, int) for x in r):
        return r
    den = lcm(*(x.denominator for x in r))
    return [x.numerator * (den // x.denominator) for x in r]


def reference_hom_is_surjective(mat, ncols):
    nr = len(mat)
    if nr == 0:
        return True
    D, *_ = snf(mat, nr, ncols)
    return all(D[i][i] == 1 for i in range(nr)) if nr <= ncols else False


def reference_cone_contains(cone, v):
    return (all(dot(d, v) >= 0 for d in cone.dual_rays)
            and all(dot(d, v) == 0 for d in cone.dual_lines))


def reference_interior_contains(cone, v):
    if not cone.is_full_dim():
        raise GeometryError("interior test needs a full-dimensional cone")
    return all(dot(d, v) > 0 for d in cone.dual_rays)


def reference_polyhedron_contains(p, x):
    if p.empty:
        return False
    return all(dot(a, x) >= c for a, c in p.ineqs)


def reference_contains_scaled(p, t, v):
    if p.empty:
        return False
    n, d = t.numerator, t.denominator
    return all(n * dot(a, v) >= c * d for a, c in p.ineqs)


def _outcome(f, *args):
    """f's value, or the type and text of the error it raises."""
    try:
        return "value", f(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return "error", type(exc), str(exc)


def _vectors(rng):
    """Random int, Fraction, bool and list vectors, the zero vector of each length among them."""
    for n in range(6):
        yield (0,) * n
        yield [0] * n
        yield (F(0),) * n
        yield (False,) * n
    for _ in range(400):
        n = rng.randint(1, 6)
        kind = rng.choice(("int", "big", "fraction", "bool", "list"))
        if kind == "int":
            yield tuple(rng.randint(-6, 6) * rng.choice((1, 1, 2, 6)) for _ in range(n))
        elif kind == "big":
            yield tuple(rng.randint(-10**30, 10**30) for _ in range(n))
        elif kind == "fraction":
            yield tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
        elif kind == "bool":
            yield tuple(rng.random() < 0.5 for _ in range(n))
        else:
            yield [rng.randint(-4, 4) for _ in range(n)]


def test_vector_kernels_match_their_references():
    rng = random.Random(25)
    counts = {"zero": 0, "error": 0, "fraction": 0}
    for v in _vectors(rng):
        assert is_zero(v) == reference_is_zero(v), v
        fast, ref = _outcome(primitive, v), _outcome(reference_primitive, v)
        assert fast == ref, v
        if fast[0] == "value":
            assert type(fast[1]) is tuple, v
        else:
            counts["error"] += 1
        counts["zero"] += reference_is_zero(v)
        assert _as_integers(v) == reference_as_integers(v), v
        if all(isinstance(x, int) for x in v):
            assert _as_integers(v) is v
        else:
            counts["fraction"] += 1
    assert min(counts.values()) > 20, counts


def test_primitive_of_the_zero_vector_raises_the_same_error():
    for zero in ((0, 0), [0], (False, False), ()):
        with pytest.raises(LatticeError, match="primitive\\(\\) of the zero vector"):
            primitive(zero)


def _acceptance_set():
    for name in CORPUS:
        yield load_corpus(name)[:2]
    for seed in ACCEPTANCE_SEEDS:
        yield random_instance(seed)[:2]


def test_membership_kernels_match_their_references_on_the_acceptance_set():
    checked, seen = 0, set()
    for tc, pair in _acceptance_set():
        bd = analyze(tc, pair)
        fan, support = tc.fan, tc.support
        cones = [support] + [fan.cone(ci) for ci in range(len(fan.max_cones))]
        rays = list(fan.rays)
        vectors = rays + [tuple(map(sum, zip(*rays)))] + list(bd.box.points) + list(bd.u.points)
        for v in vectors:
            for cone in cones:
                inside = cone.contains(v)
                assert inside == reference_cone_contains(cone, v)
                seen.add(("cone", inside))
                assert (_outcome(cone.interior_contains, v)
                        == _outcome(reference_interior_contains, cone, v))
            for p in (bd.box, bd.u):
                inside = p.contains(v)
                assert inside == reference_polyhedron_contains(p, v)
                seen.add(("polyhedron", inside))
            checked += 1
        for v in rays:
            for t in SCALES:
                assert (bd.box.contains_scaled(t, v)
                        == reference_contains_scaled(bd.box, t, v))
    assert checked > 800
    assert seen == {(kind, inside) for kind in ("cone", "polyhedron") for inside in (True, False)}


def _matrices(rng):
    """Seeded int matrices of 0 to 4 rows and 0 to 5 columns, some with a zero or a repeated row."""
    for trial in range(3000):
        nr, ncols = 1 + trial % 3, rng.randint(0, 5)
        if trial % 50 == 0:
            nr = rng.choice((0, 4))
        span = rng.choice((1, 2, 6))
        mat = [tuple(rng.randint(-span, span) for _ in range(ncols)) for _ in range(nr)]
        if nr and trial % 7 == 0:
            mat[rng.randrange(nr)] = (0,) * ncols
        elif nr > 1 and trial % 7 == 1:
            mat[-1] = mat[0]
        yield tuple(mat), ncols


def _wide_matrices(rng):
    """Seeded 3-row int matrices of 20 to 60 columns, every other one with an all-even row.

    With an all-even row every 3x3 minor is even, so a gcd of the minors
    would never reach 1 early.
    """
    for trial in range(12):
        ncols = rng.randint(20, 60)
        mat = [tuple(rng.randint(-6, 6) for _ in range(ncols)) for _ in range(3)]
        if trial % 2 == 0:
            mat[rng.randrange(3)] = tuple(2 * rng.randint(1, 3) for _ in range(ncols))
        yield tuple(mat), ncols


def test_hom_is_surjective_matches_the_snf_on_seeded_matrices(monkeypatch):
    calls = []
    inner = toricmld.lattice._small_base

    def counting(rows, n):
        calls.append(n)
        return inner(rows, n)

    monkeypatch.setattr(toricmld.lattice, "_small_base", counting)
    rng = random.Random(28)
    seen, wide = set(), set()
    for mat, ncols in [*_matrices(rng), *_wide_matrices(rng)]:
        onto = reference_hom_is_surjective(mat, ncols)
        calls.clear()
        assert hom_is_surjective(mat, ncols) == onto, (mat, ncols)
        # minors only up to 3 columns, where a map has at most three of them
        assert len(calls) <= 3, (len(mat), ncols)
        seen.add((len(mat), len(mat) <= ncols, onto))
        if ncols >= 20:
            wide.add(onto)
    assert {(nr, True, onto) for nr in (1, 2, 3) for onto in (True, False)} <= seen
    assert {(nr, False, False) for nr in (1, 2, 3)} <= seen
    assert (0, True, True) in seen and (4, True, True) in seen
    assert wide == {True, False}
