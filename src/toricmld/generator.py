"""Seeded random germs satisfying the hyperplane-search hypotheses.

Instances are built backwards from valid data: a random lattice
projection, a random pointed full-dimensional base cone, a fan obtained
by cutting the pulled-back support along hyperplanes (plus optional
stellar subdivisions), and pair data sampled with rejection until the
pair is R-Cartier, f-nef, g-lc and has positive mld over the fiber.
Everything is drawn from a single random.Random(seed), so a seed pins
the instance exactly.

Every cone the generator builds takes at most one double description.
The support pi^{-1}(sigma_bar) comes from sigma_bar's pulled-back facets
(`pairs.pullback_cone`), and the contraction keeps that very cone.  A
pointed piece of the fan is cut in one double-description step from its
own extreme rays, facets and zero sets (`polyhedra._cut_cone`, the one
cut, which `search.subdivide_fan` makes too): a covector that misses the
piece leaves it as it is, and each half of a cut is read off the piece
with no double description: its primitive crossing rays and the rays on
its side, and the piece's facets that stay on its side plus the
covector.  A piece with lines, met while the lineality of the
support is split away, knows the facets of both halves, so each half is
built from them (`cone_from_facets`) with no double description: its
generators are converted when first read, which a half with lines never
is (it is only split again and tested for being pointed), and a pointed
half is, once, when it is cut again or the fan is assembled.  The
support is built the same way, and an attempt rejected before anything
reads its generators never converts it.  A covector is redrawn when it
vanishes on the lines of the piece, tested as a rank over the piece's
normals, with no kernel.  A stellar subdivision takes no double
description either: each of its pieces is a sorted generator tuple, a
facet's generators and the interior ray (`_stellar`), from which
`_build_fan` reads the rays and cones of the fan.

The pair data is drawn in integers too.  A and A_j are drawn as their
integer point rows (x, q) and built once as a `SupportSet` each
(`_rand_a_points`, `_rand_general`), which `pairs._fold` and
`make_pair` take as they are.  psi is drawn as 6 psi (`_rand_psi`), the
fixed parts of the general boundaries and h_A are integer pairs
(`pairs._fold`, `polyhedra._support_ratio`), and each coefficient
becomes one Fraction, which `make_pair` keeps.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .lattice import (LatticeError, dot, identity, is_zero, primitive,
                      rational_rank, vec_add)
from .pairs import (
    PairError,
    ToricContraction,
    _fold,
    analyze,
    make_fan,
    make_pair,
    mld_over_fiber,
    pullback_cone,
    validate_contraction,
)
from .polyhedra import (
    GeometryError,
    SupportSet,
    _cut_cone,
    _support_ratio,
    cone_from_facets,
    make_cone,
)

MAX_ATTEMPTS = 400
UNIMODULAR_STEPS = 8


def _rand_unimodular(rng, n):
    m = [list(r) for r in identity(n)]
    for _ in range(UNIMODULAR_STEPS):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
            if max(abs(x) for x in m[i]) > 9:
                m[i] = [a - c * b for a, b in zip(m[i], m[j])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        elif op == 2:
            m[i] = [-a for a in m[i]]
    return tuple(tuple(r) for r in m)


def _rand_sigma_bar(rng, nbar):
    while True:
        k = nbar + rng.randint(0, 2)
        gens = []
        for _ in range(k):
            v = tuple(rng.randint(-3, 3) for _ in range(nbar))
            if not is_zero(v):
                gens.append(primitive(v))
        if not gens:
            continue
        c = make_cone(nbar, gens)
        if c.is_pointed() and c.is_full_dim():
            return c


def _split(cone, pointed, cov):
    """The full-dimensional halves cov >= 0 and cov <= 0 of a piece, in order, as (piece, pointed).

    `_cut_cone` cuts a pointed piece from its extreme rays, facets and
    zero sets: one the covector misses comes back as it is (the other
    side is a face of it), and each half of a cut is read off the piece
    with no double description, as `make_cone` would build it.  A piece with lines
    must have a line on which cov is not 0, as `_build_fan` ensures; each
    half is then built from its facets, the piece's and -/+cov, by
    `cone_from_facets`, which converts its generators only on their first
    read: there is no double description here.
    """
    if pointed:
        cut = _cut_cone(cone, cov)
        if cut is None:
            return [(cone, True)]
        return [(half, True) for half in cut[0]]
    # Every piece with lines has the same lineality space L: each cut
    # splits every such piece in two, and cuts L down to L cap cov-perp.
    # `_build_fan` redraws a cov that vanishes on L.  Each facet of the
    # piece contains L, hence a line on which cov > 0, so it stays a facet
    # of both halves; cov = 0 meets the interior, so both halves are
    # full-dimensional and +/-cov is their one new facet.
    pieces = []
    for sign in (1, -1):
        piece = cone_from_facets(cone.dim, cone.dual_rays + (tuple(sign * x for x in cov),))
        pieces.append((piece, piece.is_pointed()))
    return pieces


def _stellar(cone):
    """The stellar subdivision of a pointed full-dimensional piece at v, the
    primitive sum of its generators: one piece per facet d of the cone, as
    its sorted generator tuple sorted(fgens + [v]), fgens the generators on
    d, with no double description.

    Each piece is full-dimensional.  v is a positive sum of generators that
    span R^dim, so it is interior: d.v > 0 on every facet d, and v is not in
    fgens.  The generators on a facet include its extreme rays (the cone is
    pointed), which span d-perp.  So fgens + [v] spans R^dim at every rank
    >= 2, and no piece needs a double description to test its dimension.
    At rank 1 no facet holds a generator, so the cone stays whole, as its
    own generator tuple.
    """
    gens = cone.generators
    v = (0,) * cone.dim
    for g in gens:
        v = vec_add(v, g)
    v = primitive(v)
    out = []
    for d in cone.dual_rays:
        fgens = [g for g in gens if dot(d, g) == 0]
        if fgens:
            out.append(tuple(sorted(fgens + [v])))
    return out if len(out) >= 2 else [gens]


def _rand_covector(rng, n):
    while True:
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        if not is_zero(v):
            return primitive(v)


def _vanishes_on_lines(normals, cov, n):
    """Whether cov vanishes on {x : a.x = 0 for a in normals}, i.e. lies in the normals' rational span."""
    return rational_rank(normals + (cov,), n) == rational_rank(normals, n)


def _build_fan(rng, support):
    """A fan with support the full-dimensional cone `support`, drawn from rng.

    Random covectors split the pieces until every piece is pointed (a
    covector that vanishes on the lines of the first piece with lines is
    redrawn), then split them 0-2 more times, and at most one piece is
    stellarly subdivided.  Each piece carries whether it is pointed,
    tested once when it is made.  The lines of a piece are the common
    kernel of its normals, so a covector vanishes on them exactly when it
    lies in the normals' rational span: when adding it leaves their rank
    as it is (`_vanishes_on_lines`).
    """
    n = support.dim
    pieces = [(support, support.is_pointed())]
    guard = 0
    while True:
        bad = next((p for p, pointed in pieces if not pointed), None)
        if bad is None:
            break
        guard += 1
        if guard > 60:
            raise PairError("fan generation stalled on a lineality split")
        cov = _rand_covector(rng, n)
        if _vanishes_on_lines(bad.dual_rays + bad.dual_lines, cov, n):
            continue
        pieces = [q for p in pieces for q in _split(*p, cov)]
    for _ in range(rng.randint(0, 2)):
        cov = _rand_covector(rng, n)
        pieces = [q for p in pieces for q in _split(*p, cov)]
    gens = [p.generators for p, _pointed in pieces]
    if rng.randint(0, 1):
        i = rng.randrange(len(pieces))
        gens[i:i + 1] = _stellar(pieces[i][0])
    rays = sorted({g for p in gens for g in p})
    index = {g: i for i, g in enumerate(rays)}
    cones = sorted({tuple(sorted(index[g] for g in p)) for p in gens})
    return make_fan(n, rays, cones)


def _support_rows(rows):
    """The SupportSet of point rows (x, q), sorted and distinct as `make_support` keeps them."""
    return SupportSet(tuple(sorted(set(rows))))


def _rand_row(rng, n, k, den):
    """The point row primitive(x + (den,)) of x / den, x drawn from {-k..k}^n."""
    return primitive(tuple(rng.randint(-k, k) for _ in range(n)) + (den,))


def _rand_a_points(rng, n):
    """The b-divisor set A, built from its integer point rows (x, q).

    One of four modes: the origin; the origin and a point of {-1, 0, 1}^n;
    two points of {-2..2}^n / den, den in {2, 3, 5}; the origin and a point
    of {-den..den}^n / den, den in {4, 5, 25}.  An integer point x is the
    row (x, 1) and a point x / den the row primitive(x + (den,))
    (`_rand_row`), so the rows are those `make_support` gives the points.
    """
    origin = (0,) * n + (1,)
    mode = rng.randrange(4)
    if mode == 0:
        return _support_rows([origin])
    if mode == 1:
        return _support_rows([origin, _rand_row(rng, n, 1, 1)])
    if mode == 2:
        den = rng.choice((2, 3, 5))
        return _support_rows([_rand_row(rng, n, 2, den) for _ in range(2)])
    den = rng.choice((4, 5, 25))
    return _support_rows([origin, _rand_row(rng, n, den, den)])


_BJ_POOL = (Fraction(1, 2), Fraction(1), Fraction(3, 2))


def _rand_general(rng, n):
    """No general boundary with probability 0.7, else one (b_j, A_j): b_j in
    {1/2, 1, 3/2} and A_j the origin and a point of {-1, 0, 1}^n, built from
    their integer point rows (x, 1)."""
    if rng.random() < 0.7:
        return []
    bj = rng.choice(_BJ_POOL)
    return [(bj, _support_rows([(0,) * n + (1,), _rand_row(rng, n, 1, 1)]))]


def _rand_psi(rng, support):
    """6 psi for a random psi in (1/6) Z^n: a sum of the support's dual rays
    with coefficients in {0, 1/3, 1/2, 2/3, 1}, plus a shift by a vector
    in {-1, 0, 1}^n / den, den in {2, 3}, with probability 0.3."""
    duals = list(support.dual_rays) + [(0,) * support.dim]
    psi = (0,) * support.dim
    for d in duals:
        c = rng.choice((0, 0, 2, 3, 4, 6))
        psi = tuple(p + c * x for p, x in zip(psi, d))
    if rng.random() < 0.3:
        step = 6 // rng.choice((2, 3))
        psi = tuple(p + rng.randint(-1, 1) * step for p in psi)
    return psi


# the free mode's coefficients (0, 0, 1/4, 1/3, 1/2, 2/3, 3/4, 1), times 12
_B_POOL = (0, 0, 3, 4, 6, 8, 9, 12)


def _candidate_pair(rng, tc):
    """One sampled pair; raises PairError when the sample is invalid.

    Each coefficient is one integer pair over the fixed part (fn, fd) of
    its ray (`_fold`) and becomes one Fraction: in the log Calabi-Yau
    mode 1 - psi.e + h_A(e) - fn / fd with psi = P / 6 (`_rand_psi`) and
    h_A(e) = s / q (`_support_ratio` of the folded rows), in the free
    mode c / 12 - fn / fd for c in `_B_POOL`.
    """
    fan = tc.fan
    n = fan.rank
    a_set = _rand_a_points(rng, n)
    general = _rand_general(rng, n)
    fixes, a_eff = _fold(fan.rays, a_set, general)
    if rng.random() < 0.55:
        # log Calabi-Yau mode: boundary determined by a single global psi
        psi = _rand_psi(rng, tc.support)
        rows = a_eff.rows
        b = []
        for e, (fn, fd) in zip(fan.rays, fixes):
            s, q = _support_ratio(rows, e)
            b.append(Fraction(((6 - dot(psi, e)) * q + 6 * s) * fd - 6 * q * fn, 6 * q * fd))
    else:
        # free mode: random coefficients, relies on the nef rejection test
        b = [Fraction(rng.choice(_B_POOL) * fd - 12 * fn, 12 * fd) for fn, fd in fixes]
    return make_pair(fan, b, a_set, general)


def random_instance(seed):
    """Deterministic valid instance for the given seed.

    Returns (tc, pair, meta); the pair is R-Cartier, f-nef, g-lc, and has
    positive mld over the fiber (the search hypotheses, checked exactly),
    and the contraction passes validate_contraction.

    The cheap rejections run first: most samples fail the boundary test
    in make_pair or the f-nef test in analyze.  validate_contraction is
    the last check, run once on the candidate about to be returned.  It
    draws nothing from rng, so where it runs changes neither the random
    stream, nor the instance, nor meta["attempts"]; a contraction it
    rejects counts as one more rejected sample.  After MAX_ATTEMPTS
    rejected samples it raises PairError naming the seed and the count.
    """
    rng = random.Random(seed)
    for attempt in range(MAX_ATTEMPTS):
        try:
            n = rng.choice((1, 2, 2, 3, 3, 3))
            nbar = rng.randint(1, n)
            uni = _rand_unimodular(rng, n)
            pi = tuple(uni[i] for i in range(nbar))
            sigma_bar = _rand_sigma_bar(rng, nbar)
            support = pullback_cone(n, pi, sigma_bar)
            tc = ToricContraction(_build_fan(rng, support), pi, sigma_bar, support)
            pair = _candidate_pair(rng, tc)
            bd = analyze(tc, pair)
            if mld_over_fiber(bd) is None:
                raise PairError("sampled pair has non-positive mld")
            validate_contraction(tc)
            return tc, pair, {"seed": seed, "attempts": attempt + 1,
                              "rank": n, "base_rank": nbar}
        except (PairError, GeometryError, LatticeError):
            continue
    raise PairError("no valid instance found for seed %r in %d attempts"
                    % (seed, MAX_ATTEMPTS))
