"""The integer double description against the Fraction kernel it replaced.

`reference_rational_rank` is the former `lattice.rational_rank`, kept
here verbatim as a Fraction Gaussian elimination; `rational_rank` now
counts the rows that the integer echelon keeps.
`reference_dd_pointed` is the former `polyhedra._dd_pointed`, kept here
verbatim (its local import of `solve_rational` moved to the top, and its
rank calls pointed at `reference_rational_rank`) as the slow reference:
a growing rank picks the start rows, one `solve_rational` per start ray
inverts them, and each candidate ray is kept iff its active rows have
rank dim - 1.
`reference_cone_from_inequalities` is the former
`cone_from_inequalities`, which computed the SNF kernel first and called
the reference kernel on the quotient.
"""

import itertools
import random
from fractions import Fraction

from toricmld.lattice import (
    dot,
    is_zero,
    kernel_basis,
    primitive,
    quotient_by_span,
    rational_rank,
    solve_rational,
    sublattice_from_vectors,
)
from toricmld.polyhedra import (
    GeometryError,
    _dd_pointed,
    _integer_direction,
    cone_from_inequalities,
    make_cone,
)


def reference_rational_rank(rows, ncols):
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / prow[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def reference_dd_pointed(rows, dim):
    """Extreme rays of the pointed cone {x : rows.x >= 0} (kernel must be 0)."""
    if dim == 0:
        return ()
    # greedy linearly independent subset for the simplicial start
    base = []
    for i, r in enumerate(rows):
        if reference_rational_rank([rows[j] for j in base] + [r], dim) > len(base):
            base.append(i)
        if len(base) == dim:
            break
    if len(base) < dim:
        raise GeometryError("cone is not pointed")

    rays = []
    bmat = [rows[i] for i in base]
    for j in range(dim):
        e = [Fraction(1) if k == j else Fraction(0) for k in range(dim)]
        sol = solve_rational(bmat, e, dim)
        rays.append(_integer_direction(sol))
    processed = list(base)
    for i in range(len(rows)):
        if i in base:
            continue
        a = rows[i]
        processed.append(i)
        vals = [dot(a, r) for r in rays]
        kept = {r: None for r, v in zip(rays, vals) if v >= 0}
        for (rp, vp), (rm, vm) in itertools.product(
                [(r, v) for r, v in zip(rays, vals) if v > 0],
                [(r, v) for r, v in zip(rays, vals) if v < 0]):
            cand = tuple(vp * x - vm * y for x, y in zip(rm, rp))
            if is_zero(cand):
                continue
            cand = primitive(cand)
            if cand in kept:
                continue
            active = [rows[j] for j in processed if dot(rows[j], cand) == 0]
            if reference_rational_rank(active, dim) == dim - 1:
                kept[cand] = None
        rays = list(kept)
    return tuple(sorted(rays))


def reference_cone_from_inequalities(rows, dim):
    rows = [tuple(r) for r in rows if not is_zero(r)]
    lines = kernel_basis(tuple(rows), dim)
    if not lines:
        return reference_dd_pointed(rows, dim), ()
    sub = sublattice_from_vectors(dim, lines)
    q = quotient_by_span(dim, sub)
    d2 = dim - len(lines)
    reduced = [tuple(sum(a[k] * q.section[k][j] for k in range(dim)) for j in range(d2))
               for a in rows]
    lifted = []
    for r in reference_dd_pointed(reduced, d2):
        v = tuple(sum(q.section[k][j] * r[j] for j in range(d2)) for k in range(dim))
        lifted.append(primitive(v))
    return tuple(sorted(lifted)), tuple(sorted(tuple(l) for l in lines))


def _outcome(kernel, rows, dim):
    try:
        return kernel(rows, dim)
    except GeometryError as exc:
        return "GeometryError: %s" % exc


def _random_rows(rng):
    """1-14 rows in dim 1-5, entries up to +-50, sometimes with repeats."""
    dim = rng.randint(1, 5)
    lim = rng.choice((1, 3, 50))
    rows = [tuple(rng.randint(-lim, lim) for _ in range(dim))
            for _ in range(rng.randint(1, 14))]
    if rng.random() < 0.3:
        rows += [rng.choice(rows) for _ in range(rng.randint(1, 3))]
        rng.shuffle(rows)
    return rows, dim


def test_dd_pointed_matches_reference_on_random_rows():
    rng = random.Random(4004)
    counts = {"pointed": 0, "not pointed": 0, "many rays": 0}
    for _ in range(2000):
        rows, dim = _random_rows(rng)
        want = _outcome(reference_dd_pointed, rows, dim)
        assert _outcome(_dd_pointed, rows, dim) == want, (rows, dim)
        if want == "GeometryError: cone is not pointed":
            counts["not pointed"] += 1
        else:
            counts["pointed"] += 1
            counts["many rays"] += len(want) > dim
    # both sides of the pointedness test and non-simplicial cones are hit
    assert min(counts.values()) >= 100, counts


def test_dd_pointed_matches_reference_on_degenerate_rows():
    cases = [
        ([], 0),
        ([(), ()], 0),
        ([(3,), (-2,)], 1),
        ([(1, 0), (0, 1), (1, 0), (0, 1)], 2),
        ([(1, 0), (0, 1), (0, 0), (-1, -1)], 2),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)], 3),
        ([(2, 4), (1, 2)], 2),
    ]
    for rows, dim in cases:
        assert _outcome(_dd_pointed, rows, dim) == \
            _outcome(reference_dd_pointed, rows, dim), (rows, dim)


def _rows_with_lineality(rng):
    """Rows spanning a proper subspace: integer combinations of rank < dim rows."""
    dim = rng.randint(1, 5)
    rank = rng.randint(0, dim - 1)
    basis = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rank)]
    rows = []
    for _ in range(rng.randint(1, 10)):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        rows.append(tuple(sum(c * b[k] for c, b in zip(coeffs, basis))
                          for k in range(dim)))
    return rows, dim


def test_cone_from_inequalities_matches_reference():
    rng = random.Random(5005)
    lineal = 0
    for i in range(600):
        rows, dim = _rows_with_lineality(rng) if i % 2 else _random_rows(rng)
        want = _outcome(reference_cone_from_inequalities, rows, dim)
        assert _outcome(cone_from_inequalities, rows, dim) == want, (rows, dim)
        lineal += isinstance(want, tuple) and bool(want[1])
    assert lineal >= 300


def _rank_rows(rng):
    """0-8 rows in dim 0-5: ints, Fractions, zero rows, repeats and multiples."""
    dim = rng.randint(0, 5)
    lim = rng.choice((1, 3, 50))
    rows = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if kind < 0.15 or not dim:
            rows.append((0,) * dim)
        elif kind < 0.3 and rows:
            k = rng.choice((1, -2, Fraction(1, 3)))
            rows.append(tuple(k * x for x in rng.choice(rows)))
        elif kind < 0.5:
            rows.append(tuple(Fraction(rng.randint(-lim, lim), rng.randint(1, 7))
                              for _ in range(dim)))
        else:
            rows.append(tuple(rng.randint(-lim, lim) for _ in range(dim)))
    return rows, dim


def test_rational_rank_matches_reference():
    rng = random.Random(6006)
    seen = set()
    for _ in range(1500):
        rows, dim = _rank_rows(rng)
        want = reference_rational_rank(rows, dim)
        assert rational_rank(rows, dim) == want, (rows, dim)
        seen.add((dim, want))
    # every rank from 0 to dim is hit in every dimension
    assert seen == {(d, r) for d in range(6) for r in range(d + 1)}


def test_cone_dim_and_pointedness_match_reference():
    """Cone reads its dimension off the double description; check it against a rank."""
    rng = random.Random(7007)
    kinds = set()
    for _ in range(400):
        rows, dim = _random_rows(rng)
        gens = [r for r in rows if not is_zero(r)]
        cone = make_cone(dim, gens)
        assert cone.cone_dim() == reference_rational_rank(gens, dim), (gens, dim)
        sides = list(cone.dual_rays) + list(cone.dual_lines) + \
            [tuple(-a for a in l) for l in cone.dual_lines]
        pointed = not kernel_basis(tuple(sides), dim)
        assert cone.is_pointed() == pointed, (gens, dim)
        kinds.add((cone.is_full_dim(), pointed))
    assert len(kinds) == 4, kinds
