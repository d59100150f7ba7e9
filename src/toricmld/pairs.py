"""Toric contraction germs and generalized pair structures.

A germ f: X -> Y over an invariant point is a fan in N = Z^n together
with a lattice projection pi: N -> Nbar and a pointed full-dimensional
cone sigma_bar with |fan| = pi^{-1}(sigma_bar).  Pair data consists of
invariant boundary coefficients on the rays, a finite rational set A
inducing the free b-divisor, and optional general boundaries (b_j, A_j)
that fold into (B, A).  make_pair takes A and each A_j as points or as
a built SupportSet, which it keeps, so a caller that holds the set (the
generator, fold_general) hands it on with no round trip through
Fraction points.

The computational heart: the polyhedron box = Conv(A) + {m : <m,e> >=
-(1 - b_e + h_A(e))}, its polar u, whose rays span the recession cone
sigma0 (read off u, never rebuilt), and the derived invariants (log
discrepancies, the g-lc test, the minimal log discrepancy over the
central fiber, and lct of pulled-back invariant hyperplanes).

Each check lives in one place and raises PairError.  The constructors
own shapes and ranges: make_fan the rank, the integer rays (entry counts,
nonzero, primitive, distinct) and cone indices, make_contraction the
integer pi and sigma_bar, their entry counts, pi onto and sigma_bar pointed
and full-dimensional, make_pair the boundary coefficients, nonempty A and
A_j, their points' entry counts and integral A_j.  validate_fan and
validate_contraction own the fan and |fan| = pi^{-1}(sigma_bar), analyze
the Cartier and nef conditions of the pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import (
    _solve_row,
    apply_hom,
    compose_covector,
    content,
    dot,
    hom_is_surjective,
    identity,
    is_zero,
    primitive,
    quotient_by_span,
    rational_rank,
    saturated_span,
    vec_add,
)
from .polyhedra import (
    Cone,
    Polyhedron,
    SupportSet,
    _dd_add_rows,
    _from_hpoints,
    _from_vertices,
    _gauge_ratio,
    _gauge_rows,
    _generators_from_ineqs,
    _on_first_read,
    _point_sum,
    _polar_raw,
    _support_ratio,
    cone_from_facets,
    integer_points,
    interval_image,
    make_cone,
    make_support,
    support_scale,
    support_sum,
)


class PairError(ValueError):
    """Invalid germ or pair data; the message names the violated condition."""


class NotRCartier(PairError):
    def __init__(self, cone_index):
        super().__init__("not R-Cartier on maximal cone %d" % cone_index)
        self.cone_index = cone_index


# ---------------------------------------------------------------------------
# fans and contractions


@dataclass(frozen=True)
class Fan:
    rank: int
    rays: tuple          # primitive integer vectors
    max_cones: tuple     # tuples of ray indices

    def cone(self, i):
        return self._cones[i]

    @_on_first_read
    def _cones(self):
        return tuple(make_cone(self.rank, [self.rays[j] for j in c])
                     for c in self.max_cones)


def _check_entries(rows, n, what):
    """PairError naming the first of rows that does not have n entries."""
    for i, r in enumerate(rows):
        if len(r) != n:
            raise PairError("%s %d has %d entries, not %d" % (what, i, len(r), n))


def _int_vector(v, what):
    """v's entries as ints; PairError naming what unless each equals an integer."""
    try:
        v = tuple(v)
        out = tuple(int(x) for x in v)
        if out == v:
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise PairError("%s is not an integer vector: %r" % (what, v))


def make_fan(rank, rays, max_cones):
    if rank < 0:
        raise PairError("fan rank %d is negative" % rank)
    rays = tuple(_int_vector(r, "fan ray %d" % i) for i, r in enumerate(rays))
    _check_entries(rays, rank, "fan ray")
    for r in rays:
        if is_zero(r) or primitive(r) != r:
            raise PairError("fan rays must be nonzero and primitive: %r" % (r,))
    if len(set(rays)) != len(rays):
        raise PairError("duplicate fan ray")
    cones = tuple(tuple(sorted(set(_int_vector(c, "maximal cone %d" % i))))
                  for i, c in enumerate(max_cones))
    for i, c in enumerate(cones):
        if not c:
            raise PairError("maximal cone %d is empty" % i)
        for j in c:
            if not 0 <= j < len(rays):
                raise PairError("maximal cone %d has ray index %d, not the index of "
                                "one of the %d rays" % (i, j, len(rays)))
    if len(set(cones)) != len(cones):
        raise PairError("duplicate maximal cone")
    used = {i for c in cones for i in c}
    if used != set(range(len(rays))):
        raise PairError("fan ray not used by any maximal cone")
    if rank > 0 and not cones:
        raise PairError("fan of rank %d has no maximal cones" % rank)
    return Fan(rank, rays, cones)


def validate_fan(fan):
    """Cones pointed and full-dimensional, pairwise intersections faces.

    A cone with fewer rays than the rank is refused before any cone is
    built, since converting it costs an SNF cubic in the rank.  A
    full-dimensional cone on exactly rank rays is simplicial, so it is
    pointed and each of its rays is extremal: it takes neither test.  In
    any other cone a ray is extremal iff the facets vanishing on it, read
    off the zero set the cone keeps (`Cone._zero_sets`), have rank
    rank - 1.  Every cone has passed these tests before any pair is
    tested, which `_check_face_intersection` needs: each cone's generators
    are then its extreme rays and its dual rays its facets.
    """
    for i, c in enumerate(fan.max_cones):
        if len(c) < fan.rank:
            raise PairError("maximal cone %d is not full-dimensional" % i)
    for i, c in enumerate(fan.max_cones):
        cone = fan.cone(i)
        if len(c) == fan.rank and cone.is_full_dim():
            continue
        if not cone.is_pointed():
            raise PairError("maximal cone %d is not strongly convex" % i)
        if not cone.is_full_dim():
            raise PairError("maximal cone %d is not full-dimensional" % i)
        zeros = dict(zip(cone.generators, cone._zero_sets))
        for j in c:
            z = zeros[fan.rays[j]]
            active = [d for m, d in enumerate(cone.dual_rays) if z >> m & 1]
            if rational_rank(active, fan.rank) != fan.rank - 1:
                raise PairError("ray %d is not extremal in maximal cone %d" % (j, i))
    for i in range(len(fan.max_cones)):
        for j in range(i + 1, len(fan.max_cones)):
            _check_face_intersection(fan, i, j)


def _check_face_intersection(fan, i, j):
    """The cones i and j of fan meet in a face of each, from a's own double description.

    Precondition: both cones are pointed and full-dimensional with their
    generators as extreme rays, as `validate_fan` checks first, so a's
    generators and the zero sets it keeps (`Cone._zero_sets`) are the
    double description of a over its facets.  The row loop `_dd_add_rows`
    adds b's facets to it and ends at the extreme rays of a cap b, each
    with its exact zero set over the facets of both cones.  The AND of
    those zero sets is the set of facets vanishing on a cap b (every
    facet when a cap b = {0}), which cuts out each cone's smallest face
    containing a cap b; that face is generated by the cone's generators
    whose zero set contains those facets.  It contains a cap b, so the
    two are equal exactly when those generators lie in the other cone.
    """
    a, b = fan.cone(i), fan.cone(j)
    za, zb = a._zero_sets, b._zero_sets
    k = len(a.dual_rays)
    _rays, masks = _dd_add_rows(a.dual_rays + b.dual_rays, fan.rank, a.generators, za, range(k))
    common = (1 << (k + len(b.dual_rays))) - 1
    for z in masks:
        common &= z
    for cone, zeros, sel, other in ((a, za, common & ((1 << k) - 1), b),
                                    (b, zb, common >> k, a)):
        if not all(other.contains(g) for g, z in zip(cone.generators, zeros) if z & sel == sel):
            raise PairError(
                "cones %d and %d do not intersect in a common face" % (i, j))


@dataclass(frozen=True)
class ToricContraction:
    """Germ f: X -> Y over the invariant point, via pi and sigma_bar.

    `support` is the cone pi^{-1}(sigma_bar), built by `pullback_cone`
    (or, in the generator, the very cone the fan was cut from); |fan|
    must equal it, which validate_contraction checks from the support's
    facets alone.  A valid contraction's support is read only through
    its facets: `validate_contraction` and `analyze` take no double
    description of it.
    """

    fan: Fan
    pi: tuple          # nbar x n integer matrix (rows may be empty)
    sigma_bar: Cone
    support: Cone = field(compare=False)

    @property
    def rank(self):
        return self.fan.rank

    @property
    def base_rank(self):
        return len(self.pi)


def pullback_cone(rank, pi, sigma_bar):
    """pi^{-1}(sigma_bar) as a cone in N = Z^rank, built from its facets.

    Precondition: pi is onto and sigma_bar is pointed and full-dimensional,
    which make_contraction checks.  pi then maps R^rank onto the base, so
    the pulled-back facets of sigma_bar are exactly the facets of the
    full-dimensional preimage, and `cone_from_facets` builds it with no
    conversion.  Its generators take one double description on their
    first read, and three readers in the package make one:
    validate_contraction on a contraction it refuses, `_cone_over_is` on a
    row through 0 that is not one of the support's facets, and the
    generator's `_build_fan`, which cuts a pointed support from its
    generators.  A valid contraction that is loaded and analyzed never
    converts its support.
    """
    return cone_from_facets(rank, [compose_covector(d, pi, rank) for d in sigma_bar.dual_rays])


def make_contraction(fan, pi, sigma_bar_gens=None):
    """The ToricContraction of fan over the integer pi and sigma_bar, not yet validated.

    pi is a list of integer rows with fan.rank entries each and must map
    Z^rank onto Z^len(pi).  sigma_bar is the cone of sigma_bar_gens, or,
    when they are None, the cone of the rays' images under pi; it must be
    pointed and full-dimensional.  Each refusal is a PairError, raised
    before the support is built: a bad pi before any conversion, a bad
    sigma_bar after sigma_bar's own.  The support is `pullback_cone`'s,
    stored by its facets.  The fan and |fan| = support are
    validate_contraction's.
    """
    pi = tuple(_int_vector(row, "pi row %d" % i) for i, row in enumerate(pi))
    nbar = len(pi)
    _check_entries(pi, fan.rank, "pi row")
    if not hom_is_surjective(pi, fan.rank):
        raise PairError("pi is not surjective")
    if sigma_bar_gens is None:
        sigma_bar_gens = [apply_hom(pi, r) for r in fan.rays]   # make_cone drops zeros
    sigma_bar_gens = [_int_vector(g, "sigma_bar generator %d" % i)
                      for i, g in enumerate(sigma_bar_gens)]
    _check_entries(sigma_bar_gens, nbar, "sigma_bar generator")
    sigma_bar = make_cone(nbar, sigma_bar_gens)
    # the zero cone of a rank-0 base is pointed and full-dimensional
    if not sigma_bar.is_pointed():
        raise PairError("sigma_bar is not strongly convex")
    if not sigma_bar.is_full_dim():
        raise PairError("sigma_bar is not full-dimensional (no invariant point)")
    return ToricContraction(fan, pi, sigma_bar, pullback_cone(fan.rank, pi, sigma_bar))


def validate_contraction(tc):
    """The fan is valid (`validate_fan`) and |fan| = pi^-1(sigma_bar), read off the support's facets.

    The rays must lie in the support, so |fan| does, the support being
    convex.  The support is then covered iff no interior wall is
    unmatched (`_check_walls`), so a valid contraction never reads the
    support's generators.  Only when `_check_walls` refuses does the
    covering loop read them, to name the reason as the all-generators
    test would: "pi^-1(sigma_bar) is not covered" if a generator of the
    support lies in no maximal cone, the wall error otherwise.

    Why, for a fan that passes `validate_fan` with its rays in the
    support S, which is full-dimensional (make_contraction checks it).
    Call a facet F of cone i a wall, interior when it lies on no facet of
    S.  Lemma: a cone j != i holding points beyond F (on the side away
    from i) arbitrarily near a relative interior point p of F shares F.
    j is closed, so it holds p and meets i in a face of i through p, which
    is F (not i, as two maximal cones differ); F is then a face of j of
    dimension rank - 1, a facet of j with j beyond it.  If an interior
    wall F is unmatched, the points beyond F near p lie in S, as p is
    interior to S, and by the lemma, the cones being finitely many, some
    of them lie in no cone: S is not covered.  Conversely, let S not be
    covered.  Its interior is connected and meets both |fan| (at rank > 0
    the fan has a full-dimensional cone) and S minus |fan|, which is
    nonempty and open in S.  So the boundary of |fan| inside it separates it, has dimension
    rank - 1, and holds a point p in the relative interior of a wall F of
    some cone i.  F is interior, as p is, and unmatched: a cone sharing F
    would cover, with i, a neighbourhood of p.  At rank 1 a cone's one
    wall is {0}, with no generators, which `_check_walls` tests like any
    other: it lies on the facet of a half-line support, and on a support
    with no facets (base rank 0, the whole line) it must be shared by
    the cone on the other half-line.
    """
    validate_fan(tc.fan)
    sup = tc.support
    for i, r in enumerate(tc.fan.rays):
        if not sup.contains(r):
            raise PairError("support condition fails: ray %d leaves pi^-1(sigma_bar)" % i)
    try:
        _check_walls(tc)
    except PairError:
        for g in sup.generators:
            if not any(tc.fan.cone(i).contains(g) for i in range(len(tc.fan.max_cones))):
                raise PairError(
                    "support condition fails: pi^-1(sigma_bar) is not covered") from None
        raise


def _check_walls(tc):
    """Every facet of a maximal cone is shared or lies on the support boundary.

    Precondition: the fan passes `validate_fan`, so each facet's
    generators are the cone's generators whose zero set (`Cone._zero_sets`)
    has its bit, and any two cones meet in a common face.  A facet F of
    cone i with normal d is shared when another cone j contains it.
    Then i meets j in a face of i that contains F, so in F or in i; not
    in i, as a full-dimensional face of j is j and make_fan refuses two
    maximal cones on the same rays.  So F is a face of j of dimension
    rank - 1, a facet of j with normal d or -d, and not d: both cones
    would then contain the half-ball on d.x >= 0 about a relative
    interior point of F, and meet in more than F.  So only the cones
    with the facet normal -d can share F, and only they are searched.
    """
    fan = tc.fan
    sup = tc.support
    owners = {}
    for j in range(len(fan.max_cones)):
        for d in fan.cone(j).dual_rays:
            owners.setdefault(d, []).append(j)
    for i in range(len(fan.max_cones)):
        cone = fan.cone(i)
        for m, d in enumerate(cone.dual_rays):
            fgens = [g for g, z in zip(cone.generators, cone._zero_sets) if z >> m & 1]
            on_boundary = any(all(dot(s, g) == 0 for g in fgens)
                              for s in sup.dual_rays)
            if on_boundary:
                continue
            shared = any(all(fan.cone(j).contains(g) for g in fgens)
                         for j in owners.get(tuple(-x for x in d), ()))
            if not shared:
                raise PairError(
                    "support condition fails: unmatched interior wall of cone %d" % i)


# ---------------------------------------------------------------------------
# pairs


@dataclass(frozen=True)
class GPair:
    """Invariant boundary, free b-divisor data, general boundaries."""

    b_inv: tuple       # Fractions aligned with fan.rays, in [0, 1]
    bdiv_a: SupportSet
    general: tuple = ()   # (b_j >= 0, SupportSet with integer points)

    @property
    def folded(self):
        return not self.general


def make_pair(fan, b_inv, bdiv_points, general=()):
    """The GPair of boundary coefficients b_inv (one per ray of fan, in [0, 1]),
    the b-divisor set A and the general boundaries (b_j >= 0, A_j).

    A and each A_j are given in either of two forms: as points (ints,
    Fractions, or anything `Fraction()` reads), which `make_support`
    converts, or as a built `SupportSet` of dimension fan.rank, which is
    kept as it is (`_support_of`).  Each A_j must be integral.  A
    coefficient that is a Fraction is kept; any other becomes Fraction(x).
    """
    b = tuple(_fraction(x) for x in b_inv)
    if len(b) != len(fan.rays):
        raise PairError("boundary coefficient count does not match the rays")
    for i, x in enumerate(b):
        if not 0 <= x <= 1:
            raise PairError("boundary coefficient %s on ray %d outside [0,1]" % (x, i))
    a_set = _support_of(fan, bdiv_points, "b-divisor")
    gen = []
    for j, (bj, pts) in enumerate(general):
        bj = _fraction(bj)
        if bj < 0:
            raise PairError("general boundary %d coefficient %s must be nonnegative"
                            % (j, bj))
        s = _support_of(fan, pts, "general boundary %d" % j)
        if any(h[-1] != 1 for h in s.rows):
            raise PairError("general boundary support sets must be integral")
        gen.append((bj, s))
    return GPair(b, a_set, tuple(gen))


def _fraction(x):
    """x itself when it is a Fraction, else Fraction(x)."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _support_of(fan, points, what):
    """The support set of points once they are nonempty with fan.rank entries each.

    A built `SupportSet` is returned as it is once its rows have fan.rank
    entries before the denominator; a row that has not gets the PairError
    its point would get.  Points are converted by make_support.
    """
    if isinstance(points, SupportSet):
        _check_entries([h[:-1] for h in points.rows], fan.rank, what + " point")
        return points
    points = list(points)
    if not points:
        raise PairError("%s has no points" % what)
    _check_entries(points, fan.rank, what + " point")
    return make_support(points)


def _fold(rays, a_set, general):
    """(fixed parts, folded A) of the general boundaries (b_j, A_j) on rays.

    The fixed part on a ray e is sum_j b_j * min_{a in A_j} <a, e>, an
    integer pair (n, d), d > 0, not reduced: b_j = u / v adds
    u s / (v q) for h_{A_j}(e) = s / q (`_support_ratio` of A_j's rows).
    The folded b-divisor set is a_set + sum_j b_j * A_j.  h_A reads only
    its vertices, which each partial sum keeps from the second boundary
    on (k boundaries make O(k^(rank-1)) points, not 2^k); the first sum,
    the generator's only one, is kept whole, as hulling it slowed
    generation.
    """
    fixes = [(0, 1)] * len(rays)
    for j, (bj, aj) in enumerate(general):
        u, v = bj.numerator, bj.denominator
        fixes = [(n * v * q + u * s * d, d * v * q)
                 for (n, d), (s, q) in zip(fixes, [_support_ratio(aj.rows, e) for e in rays])]
        a_set = support_sum(a_set, support_scale(bj, aj))
        if j:
            a_set = SupportSet(_from_hpoints(a_set.dim, a_set.rows, ()).hpoints)
    return fixes, a_set


def fold_general(fan, pair):
    """Replace general boundaries by generalized ones.

    b_inv gains the fixed parts (`_fold`), one Fraction per ray; the
    b-divisor set becomes A + sum_j b_j * A_j, kept as its vertices from
    the second boundary on, and handed to make_pair as the set `_fold`
    built, with no round trip through Fraction points; toric g-log
    discrepancies are unchanged.
    """
    if pair.folded:
        return pair
    fixes, a_set = _fold(fan.rays, pair.bdiv_a, pair.general)
    return make_pair(fan, [Fraction(x.numerator * d + n * x.denominator, x.denominator * d)
                           for x, (n, d) in zip(pair.b_inv, fixes)], a_set, ())


def nef_values(fan, pair):
    """r_e = 1 - b_e + h_A(e), the coefficients of -(K + B + D_X), as pairs (n, d), d > 0.

    At b_e = u / v and h_A(e) = s / q (`_support_ratio` of A's rows) the pair
    is ((v - u) q + s v, v q), not reduced, as in `_gauge_ratio`.
    """
    if not pair.folded:
        raise PairError("nef_values needs a folded pair")
    rows = pair.bdiv_a.rows
    return tuple(((b.denominator - b.numerator) * q + s * b.denominator, b.denominator * q)
                 for b, (s, q) in zip(pair.b_inv, [_support_ratio(rows, e) for e in fan.rays]))


def cartier_psi(tc, r):
    """Per-cone psi_sigma with <psi_sigma, e> = r_e (`nef_values`) on its rays, as point rows.

    One `lattice._solve_row` per maximal cone, on its rays and r_e's
    integer pairs (the adjugate closed form for a simplicial cone of rank
    <= 3); NotRCartier if a cone's system is unsolvable.
    """
    psis = []
    for ci, c in enumerate(tc.fan.max_cones):
        row = _solve_row([tc.fan.rays[i] for i in c], [r[i] for i in c], tc.rank)
        if row is None:
            raise NotRCartier(ci)
        psis.append(row)
    return tuple(psis)


def is_f_nef(tc, r, psi_rows):
    """Toric relative nef test: each -psi_sigma lies in the section box.

    psi_rows are the point rows (x, q) of the psi_sigma (`cartier_psi`).
    At r_e = (n, d) (`nef_values`), the test <psi_sigma, e> <= n / d reads
    x.e * d <= n * q, in integers.
    """
    return all(dot(x[:-1], e) * d <= rn * x[-1]
               for x in psi_rows for e, (rn, d) in zip(tc.fan.rays, r))


@dataclass(frozen=True)
class BoxData:
    box: Polyhedron
    u: Polyhedron
    l: int
    a_eff: SupportSet = field(compare=False)
    psi: tuple = field(compare=False)
    tc: ToricContraction = field(compare=False)

    @_on_first_read
    def quotient(self):
        """(projection N -> N / span(sigma0), image up of u), up read off u's facets.

        When sigma0 = 0 (u has no rays) this is the quotient by the zero
        sublattice: the identity, and up is u.  Otherwise u's rays span
        sigma0 = ker(projection), so up is compact.  A facet of up pulls
        back to a facet of u whose normal vanishes on sigma0, and each such
        facet (a, c) of u maps onto the facet (a.section, c) of up,
        primitive because the projection is onto; one double description
        of those rows gives up's generators.
        """
        n, l, u = self.tc.rank, self.l, self.u
        if not u.rays:
            return identity(n), u
        q = quotient_by_span(n, saturated_span(n, u.rays))
        rows = sorted((compose_covector(a, q.section, l), c) for a, c in u.ineqs
                      if all(dot(a, r) == 0 for r in u.rays))
        hpoints, rays = _generators_from_ineqs(rows, l)
        return q.projection, Polyhedron(l, hpoints, rays, tuple(rows))


def _nef_box_generators(tc, psi_rows):
    """(hpoints, rays) of box_{-K-B-D} = {m : <m, e> >= -r_e}, read off psi and the support.

    Let psi(v) = <psi_sigma, v> for v in sigma, so psi(e) = r_e on the
    rays.  f-nef (every -psi_sigma in the box) makes psi the max of the
    psi_sigma on |fan| = tc.support, so the box is {m : <m, v> >= -psi(v)
    on |fan|} = conv(-psi_sigma) + support^vee, the polyhedron of a nef
    Cartier divisor on a fan with convex support (Cox-Little-Schenck,
    Toric Varieties, 6.1 and 7.2).  Each -psi_sigma is a vertex, as the
    rays of sigma have rank n, and support^vee is pointed with the
    support's normals as its extreme rays.  Both come out as the double
    description of the rows would return them: distinct primitive point
    rows, sorted, and the support's sorted primitive dual rays, so they are
    the box's vertices and extreme rays, which `analyze` translates when A
    is one point.  psi_rows are the point rows (x, q) of the psi_sigma; the
    row of -psi_sigma is (-x, q), primitive as (x, q) is.  A fan of rank 0
    has no maximal cone; its box is M = R^0, the one point ().
    """
    if not tc.rank:
        return ((1,),), ()
    return (tuple(sorted({tuple(-a for a in x[:-1]) + x[-1:] for x in psi_rows})),
            tc.support.normals)


def analyze(tc, pair):
    """Fold, solve the Cartier data, test nef, build the box.

    Precondition: |fan| == tc.support, which validate_contraction checks.
    The box is Conv(A) + box_{-K-B-D}, generated by the sums of the
    points of A and of box_{-K-B-D} and by the rays of box_{-K-B-D}, with
    every point as an integer row (A's stored `SupportSet.rows`).
    `_nef_box_generators` reads the vertices and extreme rays
    of box_{-K-B-D} off the Cartier data and the support, with no double
    description; `cartier_psi` gives the psi_sigma as point rows, for it and
    for the f-nef test.  When the folded A is one point a (and the rank is
    positive), the box is a + box_{-K-B-D}, whose vertices are the
    distinct translated points and whose extreme rays are the same, so one
    double description gives its rows and none converts them back
    (`_from_vertices`); otherwise `_from_hpoints` converts both ways.
    BoxData adds its polar u and l = n - dim sigma0, where the recession
    cone sigma0 of u is spanned by u's rays (cone(u) == support keeps it in
    the support), so dim sigma0 is their rank.  When the box contains 0
    (the g-lc case) and is full-dimensional and pointed, u is read off the
    box's own rows and generators, byte-identical to the computed polar
    because both homogenized cones are then pointed and the double
    description's canonical rays are the box's stored rows (`_polar_raw`):
    on a g-lc pair one double description in all for a one-point A and two
    for more points, both for the box; two more off g-lc.  Returns the
    BoxData; its a_eff and psi are the folded pair's A and the Cartier rows.
    """
    fan = tc.fan
    n = fan.rank
    folded = fold_general(fan, pair)
    r = nef_values(fan, folded)
    psi = cartier_psi(tc, r)
    if not is_f_nef(tc, r, psi):
        raise PairError("-(K+B+D) is not f-nef")
    d_points, d_rays = _nef_box_generators(tc, psi)
    a_rows = folded.bdiv_a.rows
    if n and len(a_rows) == 1:
        # box = a + box_{-K-B-D}: its vertices and rays are box_{-K-B-D}'s, translated
        box = _from_vertices(n, sorted({_point_sum(a_rows[0], h) for h in d_points}), d_rays)
    else:
        box = _from_hpoints(n, [_point_sum(g, h) for g in a_rows for h in d_points], d_rays)
    u = _polar_raw(box)
    l = n - rational_rank(u.rays, n)
    if not _cone_over_is(u, tc.support):
        raise PairError("cone over u does not match the support")
    return BoxData(box, u, l, folded.bdiv_a, psi, tc)


def _cone_over_is(u, cone):
    """cone(u) == cone, read off u's own descriptions.

    With 0 in u, cone(u) is generated by u's points and rays and cut out
    by u's inequalities through 0.  A row through 0 holds on the cone
    when its primitive normal is one of the cone's dual rays; any other
    is checked on the cone's generators.  On `analyze`'s u every row
    through 0 comes from a ray of the box, and the box's recession cone is
    support^vee with the support's facets as its extreme rays
    (`_nef_box_generators`), so the support's generators are not read.
    """
    return (u.contains((0,) * u.dim)
            and all(cone.contains(h[:-1]) for h in u.hpoints)   # x / q in cone iff x is
            and all(cone.contains(r) for r in u.rays)
            and all(primitive(a) in cone.dual_rays
                    or all(dot(a, g) >= 0 for g in cone.generators)
                    for a, c in u.ineqs if c == 0))


def log_discrepancy(bd, e):
    """-h_box(e): the g-log discrepancy in the toric valuation of e."""
    e = _int_vector(e, "valuation vector")
    if is_zero(e):
        raise PairError("log discrepancy of the zero vector")
    if not bd.tc.support.contains(e):
        raise PairError("vector outside the support of the fan")
    # the box's rays generate support^dual, so e.r >= 0 on each and lo is finite
    lo, _hi = interval_image(e, bd.box)
    val = -lo
    # cross-check in integers against the per-cone <psi_sigma, e> - h_A(e) = x.e / q - s / m
    fan = bd.tc.fan
    for ci in range(len(fan.max_cones)):
        if fan.cone(ci).contains(e):
            x, (s, m) = bd.psi[ci], _support_ratio(bd.a_eff.rows, e)
            if (dot(x[:-1], e) * m - s * x[-1]) * val.denominator != val.numerator * x[-1] * m:
                raise PairError("box and per-cone log discrepancies disagree")
            break
    return val


def is_glc(bd):
    """Generalized log canonical test: 0 in box."""
    return bd.box.contains((0,) * bd.tc.rank)


def _least_gauge(rows, points):
    """The least gauge pair over points, compared by cross-multiplying; None if none.

    Every point must have a positive gauge, as every candidate of the mld does.
    """
    best = None
    for v in points:
        g = _gauge_ratio(rows, v)
        if g is None or g[0] <= 0:
            raise PairError("a candidate point must have a positive gauge")
        if best is None or g[0] * best[1] < best[0] * g[1]:
            best = g
    return best


def mld_over_fiber(bd):
    """Minimal log discrepancy over the fiber through the invariant point of bd.tc.

    Returns the exact positive rational, or None when the mld is not
    positive.  Works in the quotient by the span of sigma0, where the
    image up of u is compact and full-dimensional, as cone(u) is the
    support.  The gauge of up is checked once (`_gauge_rows`), and every
    point then goes through the integer kernel `_gauge_ratio`.  The rows
    of up through 0 are the facets of the image of the support, so with
    none the mld is not positive (0 is interior to up).  The candidates
    are the lattice points v interior to that cone: for an integer normal
    d of a row through 0, d.v > 0 is d.v >= 1.  So the answer reads up
    alone, past the g-lc, base-rank and l tests.

    The sum `total` of the primitive directions of up's nonzero vertices
    is always a candidate.  up is full-dimensional and the hull of its
    vertices, so the normal d of a row through 0 is >= 0 on every vertex
    and > 0 on some; d.g is then an integer >= 0 on every direction g
    and >= 1 on one, and d.total >= 1.  The cut check on total is this
    lemma's run-time check.

    Closed form on a unimodular corner simplex.  Let up have exactly one
    facet (a, m) off 0 and l facets through 0, and let the primitive
    directions g_1..g_l of its nonzero vertices be a lattice basis
    (`hom_is_surjective` of the square matrix: |det| = 1).  A compact
    full-dimensional polytope with l + 1 facets is a simplex; 0 lies on
    the l facets through 0, so it is the vertex opposite (a, m), dirs
    holds the l directions g_i, and the cone of up at 0 is
    cone(g_1..g_l) with the facets through 0 as its facets.  (The basis
    test alone implies the two counts: up is full-dimensional and
    contains 0, so it has at least l + 1 vertices, at most l of them
    nonzero only when 0 is a vertex and up a simplex, and a map from Z^l
    onto Z^k needs k <= l.)  The primitive normal d_j of the facet that
    misses g_j vanishes on the other g_i and is positive on g_j, so it is
    a positive multiple of the dual basis vector g_j^*, which is
    primitive as the dual basis is a basis of the dual lattice: d_j =
    g_j^*, and d_i.g_j = 1 if i = j and 0 otherwise.  Every lattice point
    is v = sum k_i g_i with integer k_i, and d_j.v = k_j, so the
    candidates are exactly the points with every k_i >= 1.  The nonzero
    vertices t_i g_i (t_i > 0) lie on a.x = -m, so the gauge -a.v / m of
    a point v of the cone is linear, with -a.g_i / m = 1 / t_i > 0 on
    each g_i, and its least value over the candidates is at every
    k_i = 1: the mld is the gauge of g_1 + ... + g_l = total.  A smooth
    cone with A = {0} takes this path at any coefficient height: up is
    conv(0, e / r_e over its rays e).

    Any other up is enumerated.  The enumeration bound t_cap is the least
    gauge over a few candidates at hand: total, then the primitive
    direction of each vertex of up and the sum of each pair of those
    directions, each kept only if d.v >= 1 on every row through 0, which
    total passes.  A kept point is a candidate, so t_cap is attained and
    the mld is the least gauge over the lattice points of t_cap * up that
    pass the same cuts.  Those are enumerated once, with the cuts in the
    enumeration and every row in integers, and the running minimum is an
    integer pair compared by cross-multiplying; one Fraction is built at
    the end.
    """
    if bd.tc.base_rank == 0:
        raise PairError("dim Y = 0: use a global mld variant (out of scope)")
    if not is_glc(bd):
        raise PairError("pair is not g-lc")
    l = bd.l
    if l == 0:
        return None
    _proj, up = bd.quotient
    rows = _gauge_rows(up)
    through_zero = rows[1]
    if not through_zero:
        return None
    dirs = [primitive(h[:-1]) for h in up.hpoints if not is_zero(h[:-1])]
    total = tuple(map(sum, zip(*dirs)))
    if not all(dot(d, total) >= 1 for d in through_zero):
        raise PairError("the vertex directions' sum must pass the cuts")
    if len(rows[0]) == 1 and len(through_zero) == l and hom_is_surjective(dirs, l):
        return Fraction(*_least_gauge(rows, [total]))
    at_hand = itertools.chain([total], dirs,
                              itertools.starmap(vec_add, itertools.combinations(dirs, 2)))
    # total passes the cuts, so the bound is set
    num, den = _least_gauge(rows, (v for v in at_hand
                                   if all(dot(d, v) >= 1 for d in through_zero)))
    cuts = ([(tuple(den * x for x in a), num * c) for a, c in up.ineqs]   # a.x >= (num / den) c
            + [(d, 1) for d in through_zero])
    best = _least_gauge(rows, integer_points(l, cuts))
    if best is None:
        raise PairError("the witness point must be enumerated")
    return Fraction(*best)


def lct_pullback(bd, phibar):
    """sup{g >= 0 : -g * pi^*(phibar) in box}, exact, with pi that of bd.tc."""
    tc = bd.tc
    phibar = _int_vector(phibar, "functional")
    if len(phibar) != tc.base_rank:
        raise PairError("functional has %d entries but the base has rank %d"
                        % (len(phibar), tc.base_rank))
    if is_zero(phibar):
        raise PairError("lct of the zero functional")
    if not all(dot(phibar, g) >= 0 for g in tc.sigma_bar.generators):
        raise PairError("functional is not in the dual of sigma_bar")
    if not is_glc(bd):
        raise PairError("lct_pullback needs a g-lc pair")
    phi = compose_covector(phibar, tc.pi, tc.rank)
    best = None
    # g-lc puts 0 in the box, so every c <= 0; the least -c / s >= 0 is kept as a pair.
    # phi != 0 (pi is onto) lies in support^dual, the box's recession cone, which is
    # pointed, so -phi does not: some row has s > 0 and best is set
    for a, c in bd.box.ineqs:
        s = dot(a, phi)
        if s > 0 and (best is None or -c * best[1] < best[0] * s):
            best = (-c, s)
    return Fraction(*best)


ORACLE_BOX_LIMIT = 10 ** 6


def oracle_mld(bd, radius):
    """Brute-force scan: min log discrepancy over primitive points in a box.

    Scans [-radius, radius]^n intersected with the strict interior of the
    support.  The result is an upper bound for the mld; it is exact once
    the box contains a minimizer.  Returns (value, witness) or None.
    Raises PairError before scanning a box of more than ORACLE_BOX_LIMIT
    points.
    """
    if radius < 1:
        raise PairError("oracle box radius must be positive")
    n = bd.tc.rank
    size = (2 * radius + 1) ** n
    if size > ORACLE_BOX_LIMIT:
        raise PairError("oracle box of %d points exceeds the limit of %d points"
                        % (size, ORACLE_BOX_LIMIT))
    best = None
    for v in itertools.product(range(-radius, radius + 1), repeat=n):
        if is_zero(v) or content(v) != 1:
            continue
        if not bd.tc.support.interior_contains(v):
            continue
        a = log_discrepancy(bd, v)
        if best is None or a < best[0] or (a == best[0] and v < best[1]):
            best = (a, v)
    return best
