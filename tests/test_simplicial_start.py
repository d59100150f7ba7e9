"""The simplicial start of the double description: one elimination gives base and rays.

`_simplicial_start` picks the greedy independent rows and the columns
of their inverse: in closed form in dimension <= 3 (`lattice._small_base`),
in one fraction-free Gauss-Jordan elimination, `lattice._gauss_jordan`,
from dimension 4 on.  These tests check its base against
`reference_independent_rows`, the integer echelon `rational_rank` ran
before the elimination was shared, kept here verbatim; `rational_rank`
against a Fraction elimination; the rays against the inverse they stand
for; and the whole double description against the Fraction reference
kernel on rows with large entries in dimensions 6-10, where the
homogenized product germs live.
"""

import random
from fractions import Fraction

import pytest

from test_double_description import reference_dd_pointed, reference_rational_rank
from toricmld.lattice import _cancel, content, dot, rational_rank
from toricmld.polyhedra import (
    GeometryError,
    _dd_pointed,
    _simplicial_start,
    cone_from_inequalities,
)


def reference_independent_rows(rows, dim):
    """Indices of the greedy linearly independent subset of the integer rows.

    A fraction-free integer echelon: each row is reduced by the rows kept
    so far (cancelled at the pivot of each) and kept, with its first
    nonzero column as pivot, unless it reduces to 0.
    """
    base, echelon = [], []
    for i, r in enumerate(rows):
        for c, b in echelon:
            if r[c]:
                r = _cancel(r, b, c)
        piv = next((c for c, x in enumerate(r) if x), None)
        if piv is None:
            continue
        base.append(i)
        echelon.append((piv, r))
        if len(base) == dim:
            break
    return base


def _spanned_rows(rng, dim, rank, lim):
    """1-12 integer combinations of rank random rows: a span of rank at most rank."""
    basis = [tuple(rng.randint(-lim, lim) for _ in range(dim)) for _ in range(rank)]
    return [tuple(sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(dim))
            for coeffs in ([rng.randint(-3, 3) for _ in basis]
                           for _ in range(rng.randint(1, 12)))]


def _mixed_rows(rng):
    """Rows in dim 0-8: random, zero, repeated, multiples, or of deficient rank."""
    dim = rng.randint(0, 8)
    lim = rng.choice((1, 3, 50, 10 ** 12))
    if rng.random() < 0.3:
        rows = _spanned_rows(rng, dim, rng.randint(0, dim), lim)
    else:
        rows = [tuple(rng.randint(-lim, lim) for _ in range(dim))
                for _ in range(rng.randint(0, 12))]
    for _ in range(rng.randint(0, 3)):
        extra = (0,) * dim
        if rows and rng.random() < 0.7:
            extra = tuple(rng.choice((1, -2, 5)) * x for x in rng.choice(rows))
        rows.insert(rng.randint(0, len(rows)), extra)
    return rows, dim


def test_start_base_is_the_greedy_independent_subset():
    rng = random.Random(8008)
    full = short = 0
    reached = set()
    for _ in range(1500):
        rows, dim = _mixed_rows(rng)
        base, rays = _simplicial_start(rows, dim)
        assert base == reference_independent_rows(rows, dim), (rows, dim)
        reached.add((dim, rays is not None))
        if rays is None:
            assert len(base) < dim
            short += 1
            continue
        full += 1
        # the rays are the primitive columns of the base's inverse
        assert len(rays) == dim
        for j, ray in enumerate(rays):
            assert content(ray) == 1
            values = [dot(rows[i], ray) for i in base]
            assert values[j] > 0 and not any(values[:j] + values[j + 1:]), (rows, dim)
    assert full >= 300 and short >= 300, (full, short)
    # the closed form of dimensions 1-3 meets full and deficient bases alike
    assert {(d, f) for d in (1, 2, 3) for f in (True, False)} <= reached


def test_rational_rank_matches_the_fraction_elimination():
    rng = random.Random(7007)
    ranks = set()
    for k in range(1500):
        rows, dim = _mixed_rows(rng)
        if k % 3 == 0:
            # about half the entries divided by 1 to 7, as Fractions
            rows = [tuple(Fraction(x, rng.randint(1, 7)) if rng.random() < 0.5
                          else x for x in r) for r in rows]
        want = reference_rational_rank(rows, dim)
        assert rational_rank(rows, dim) == want, (rows, dim)
        ranks.add((want == dim, any(isinstance(x, Fraction) for r in rows for x in r)))
    assert ranks == {(False, False), (False, True), (True, False), (True, True)}


def _large_rows(rng, dim):
    """dim to dim + 2 rows of entries up to 10^12, some rows small."""
    rows = []
    for _ in range(dim + rng.randint(0, 2)):
        lim = rng.choice((10 ** 12, 10 ** 12, 10 ** 6, 3))
        rows.append(tuple(rng.randint(-lim, lim) for _ in range(dim)))
    return rows


def test_dd_pointed_matches_reference_on_large_rows_in_high_dimension():
    rng = random.Random(9009)
    dims = set()
    many = 0
    for _ in range(30):
        dim = rng.randint(6, 10)
        rows = _large_rows(rng, dim)
        want = reference_dd_pointed(rows, dim)
        assert _dd_pointed(rows, dim) == want, (rows, dim)
        dims.add(dim)
        many += len(want) > dim
    assert dims == set(range(6, 11))
    assert many >= 10


def test_rank_deficient_rows_are_not_pointed():
    rng = random.Random(1010)
    for _ in range(100):
        dim = rng.randint(1, 10)
        rows = _spanned_rows(rng, dim, rng.randint(0, dim - 1), 10 ** 12)
        assert _simplicial_start(rows, dim)[1] is None
        with pytest.raises(GeometryError, match="cone is not pointed"):
            _dd_pointed(rows, dim)
        assert cone_from_inequalities(rows, dim)[1]
