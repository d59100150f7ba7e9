"""The simplicial start of the double description: one elimination gives base and rays.

`_simplicial_start` picks the greedy independent rows and the columns
of their inverse in one fraction-free Gauss-Jordan elimination.  These
tests check its base against the integer echelon of `rational_rank`, its
rays against the inverse they stand for, and the whole double
description against the Fraction reference kernel on rows with large
entries in dimensions 6-10, where the homogenized product germs live.
"""

import random

import pytest

from test_double_description import reference_dd_pointed
from toricmld.lattice import _independent_rows, content, dot
from toricmld.polyhedra import (
    GeometryError,
    _dd_pointed,
    _simplicial_start,
    cone_from_inequalities,
)


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
    for _ in range(1500):
        rows, dim = _mixed_rows(rng)
        base, rays = _simplicial_start(rows, dim)
        assert base == _independent_rows(rows, dim), (rows, dim)
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
