"""Toric contraction germs and generalized pair structures.

A germ f: X -> Y over an invariant point is a fan in N = Z^n together
with a lattice projection pi: N -> Nbar and a pointed full-dimensional
cone sigma_bar with |fan| = pi^{-1}(sigma_bar).  Pair data consists of
invariant boundary coefficients on the rays, a finite rational set A
inducing the free b-divisor, and optional general boundaries (b_j, A_j)
that fold into (B, A).

The computational heart: the polyhedron box = Conv(A) + {m : <m,e> >=
-(1 - b_e + h_A(e))}, its polar u, the recession cone sigma0, and the
derived invariants (log discrepancies, the g-lc test, the minimal log
discrepancy over the central fiber, and lct of pulled-back invariant
hyperplanes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .lattice import (
    apply_hom,
    compose_covector,
    content,
    dot,
    hom_is_surjective,
    is_zero,
    primitive,
    quotient_by_span,
    rational_rank,
    saturated_span,
    solve_rational,
    vec_add,
)
from .polyhedra import (
    Cone,
    GeometryError,
    Polyhedron,
    SupportSet,
    _from_hpoints,
    _gauge_ratio,
    _gauge_rows,
    _generators_from_ineqs,
    _integer_row,
    _point_row,
    _point_sum,
    _polar_raw,
    cone_from_inequalities,
    cone_from_normals,
    gauge,
    integer_points,
    interval_image,
    make_cone,
    make_support,
    map_polyhedron,
    strict_interior_contains,
    support_scale,
    support_sum,
    support_value,
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

    @cached_property
    def _cones(self):
        return tuple(make_cone(self.rank, [self.rays[j] for j in c])
                     for c in self.max_cones)


def make_fan(rank, rays, max_cones):
    rays = tuple(tuple(int(x) for x in r) for r in rays)
    for r in rays:
        if is_zero(r) or primitive(r) != r:
            raise PairError("fan rays must be nonzero and primitive: %r" % (r,))
    if len(set(rays)) != len(rays):
        raise PairError("duplicate fan ray")
    cones = tuple(tuple(sorted(set(int(i) for i in c))) for c in max_cones)
    if len(set(cones)) != len(cones):
        raise PairError("duplicate maximal cone")
    for c in cones:
        if not c or any(i < 0 or i >= len(rays) for i in c):
            raise PairError("maximal cone with bad ray index")
    used = {i for c in cones for i in c}
    if used != set(range(len(rays))):
        raise PairError("fan ray not used by any maximal cone")
    return Fan(rank, rays, cones)


def validate_fan(fan):
    """Cones pointed and full-dimensional, pairwise intersections faces."""
    for i, c in enumerate(fan.max_cones):
        cone = fan.cone(i)
        if not cone.is_pointed():
            raise PairError("maximal cone %d is not strongly convex" % i)
        if not cone.is_full_dim():
            raise PairError("maximal cone %d is not full-dimensional" % i)
        for j in c:
            if not _is_extremal_ray(cone, fan.rays[j]):
                raise PairError("ray %d is not extremal in maximal cone %d" % (j, i))
    for i in range(len(fan.max_cones)):
        for j in range(i + 1, len(fan.max_cones)):
            _check_face_intersection(fan, i, j)


def _is_extremal_ray(cone, v):
    active = [d for d in cone.dual_rays if dot(d, v) == 0]
    return rational_rank(active, cone.dim) == cone.dim - 1


def _check_face_intersection(fan, i, j):
    """One double description of a cap b; each side's smallest face over it.

    The smallest face of a cone containing the intersection is cut out by
    the facets vanishing on it and generated by the cone's generators on
    which all those facets vanish.  It contains the intersection, so the
    two are equal exactly when those generators lie in the other cone.
    """
    a, b = fan.cone(i), fan.cone(j)
    normals = list(a.dual_rays) + list(b.dual_rays)
    for l in list(a.dual_lines) + list(b.dual_lines):
        normals.append(l)
        normals.append(tuple(-x for x in l))
    rays, lines = cone_from_inequalities(normals, fan.rank)
    gens = rays + lines
    for cone, other in ((a, b), (b, a)):
        sel = [d for d in cone.dual_rays if all(dot(d, g) == 0 for g in gens)]
        face = [g for g in cone.generators if all(dot(d, g) == 0 for d in sel)]
        if not all(other.contains(g) for g in face):
            raise PairError(
                "cones %d and %d do not intersect in a common face" % (i, j))


@dataclass(frozen=True)
class ToricContraction:
    """Germ f: X -> Y over the invariant point, via pi and sigma_bar."""

    fan: Fan
    pi: tuple          # nbar x n integer matrix (rows may be empty)
    sigma_bar: Cone

    @property
    def rank(self):
        return self.fan.rank

    @property
    def base_rank(self):
        return len(self.pi)

    @cached_property
    def support(self):
        """|fan| = pi^{-1}(sigma_bar) as a cone."""
        normals = [compose_covector(d, self.pi, self.rank)
                   for d in self.sigma_bar.dual_rays]
        for l in self.sigma_bar.dual_lines:
            w = compose_covector(l, self.pi, self.rank)
            normals.append(w)
            normals.append(tuple(-x for x in w))
        return cone_from_normals(self.rank, normals)


def make_contraction(fan, pi, sigma_bar_gens=None):
    pi = tuple(tuple(int(x) for x in row) for row in pi)
    nbar = len(pi)
    if sigma_bar_gens is None:
        sigma_bar_gens = [apply_hom(pi, r) for r in fan.rays]
        sigma_bar_gens = [g for g in sigma_bar_gens if not is_zero(g)]
    sigma_bar = make_cone(nbar, sigma_bar_gens)
    return ToricContraction(fan, pi, sigma_bar)


def validate_contraction(tc):
    validate_fan(tc.fan)
    n, nbar = tc.rank, tc.base_rank
    if any(len(row) != n for row in tc.pi):
        raise PairError("pi has the wrong shape")
    if not hom_is_surjective(tc.pi, n):
        raise PairError("pi is not surjective")
    if nbar > 0:
        if not tc.sigma_bar.is_pointed():
            raise PairError("sigma_bar is not strongly convex")
        if not tc.sigma_bar.is_full_dim():
            raise PairError("sigma_bar is not full-dimensional (no invariant point)")
    sup = tc.support
    for i, r in enumerate(tc.fan.rays):
        if not sup.contains(r):
            raise PairError("support condition fails: ray %d leaves pi^-1(sigma_bar)" % i)
    for g in sup.generators:
        if not any(tc.fan.cone(i).contains(g) for i in range(len(tc.fan.max_cones))):
            raise PairError("support condition fails: pi^-1(sigma_bar) is not covered")
    _check_walls(tc)


def _check_walls(tc):
    """Every facet of a maximal cone is shared or lies on the support boundary."""
    fan = tc.fan
    sup = tc.support
    for i in range(len(fan.max_cones)):
        cone = fan.cone(i)
        for d in cone.dual_rays:
            fgens = [g for g in cone.generators if dot(d, g) == 0]
            if not fgens:
                continue
            on_boundary = any(all(dot(s, g) == 0 for g in fgens)
                              for s in sup.dual_rays)
            if on_boundary:
                continue
            shared = any(j != i and all(fan.cone(j).contains(g) for g in fgens)
                         for j in range(len(fan.max_cones)))
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
    b = tuple(Fraction(x) for x in b_inv)
    if len(b) != len(fan.rays):
        raise PairError("boundary coefficient count does not match the rays")
    for i, x in enumerate(b):
        if not 0 <= x <= 1:
            raise PairError("boundary coefficient %s on ray %d outside [0,1]" % (x, i))
    a_set = make_support(bdiv_points)
    if a_set.dim != fan.rank:
        raise PairError("b-divisor points have the wrong dimension")
    gen = []
    for bj, pts in general:
        bj = Fraction(bj)
        if bj < 0:
            raise PairError("general boundary coefficient must be nonnegative")
        s = make_support(pts)
        if s.dim != fan.rank:
            raise PairError("general boundary points have the wrong dimension")
        if any(x.denominator != 1 for p in s.points for x in p):
            raise PairError("general boundary support sets must be integral")
        gen.append((bj, s))
    return GPair(b, a_set, tuple(gen))


def fix_mov(a_set, l_coeffs, rays):
    """Fixed part of the system induced by A with twist L.

    Its coefficient on each ray e is min_{a in A} <a, e> + mult_e L; the
    mobile part is the system of A itself.
    """
    return tuple(support_value(a_set, e) + Fraction(l)
                 for e, l in zip(rays, l_coeffs))


def fold_general(fan, pair):
    """Replace general boundaries by generalized ones.

    b_inv gains the fixed parts b_j * min_a <a, e>; the b-divisor set
    becomes A + sum_j b_j * A_j; toric g-log discrepancies are unchanged.
    """
    if pair.folded:
        return pair
    b = list(pair.b_inv)
    a_set = pair.bdiv_a
    for bj, aj in pair.general:
        fix = fix_mov(aj, (0,) * len(fan.rays), fan.rays)
        b = [x + bj * f for x, f in zip(b, fix)]
        a_set = support_sum(a_set, support_scale(bj, aj))
    return make_pair(fan, b, a_set.points, ())


def nef_values(fan, pair):
    """r_e = 1 - b_e + h_A(e): the coefficients of -(K + B + D_X)."""
    if not pair.folded:
        raise PairError("nef_values needs a folded pair")
    return tuple(1 - b + support_value(pair.bdiv_a, e)
                 for e, b in zip(fan.rays, pair.b_inv))


def cartier_psi(tc, r):
    """Per-cone solutions psi with <psi,e> = r_e on the rays (r from nef_values)."""
    fan = tc.fan
    psis = []
    for ci, cone_rays in enumerate(fan.max_cones):
        rows = [fan.rays[i] for i in cone_rays]
        rhs = [r[i] for i in cone_rays]
        sol = solve_rational(rows, rhs, fan.rank)
        if sol is None:
            raise NotRCartier(ci)
        psis.append(sol)
    return tuple(psis)


def is_f_nef(tc, r, psi):
    """Toric relative nef test: each -psi_sigma lies in the section box."""
    return all(dot(p, e) <= re for p in psi for e, re in zip(tc.fan.rays, r))


@dataclass(frozen=True)
class BoxData:
    box: Polyhedron
    u: Polyhedron
    sigma0: Cone
    l: int
    a_eff: SupportSet = field(compare=False)
    psi: tuple = field(compare=False)
    tc: ToricContraction = field(compare=False)

    @cached_property
    def quotient(self):
        """(projection N -> N / span(sigma0), compact image of u there)."""
        n = self.tc.rank
        span = saturated_span(n, self.sigma0.generators)
        proj = quotient_by_span(n, span).projection
        up = map_polyhedron(proj, self.u, self.l)
        if not up.is_compact():
            raise PairError("projected u is not compact")
        return proj, up


def analyze(tc, pair):
    """Fold, solve the Cartier data, test nef, build the box.

    The box is Conv(A) + box_{-K-B-D}, generated by the sums of the
    points of A and of box_{-K-B-D} and by the rays of box_{-K-B-D}, with
    every point as an integer row (A's rows made once);
    BoxData adds its polar u, the recession cone sigma0 of u and
    l = n - dim sigma0.  Returns (folded pair, psi, BoxData).
    """
    fan = tc.fan
    n = fan.rank
    folded = fold_general(fan, pair)
    r = nef_values(fan, folded)
    psi = cartier_psi(tc, r)
    if not is_f_nef(tc, r, psi):
        raise PairError("-(K+B+D) is not f-nef")
    # box_{-K-B-D} = {m : <m, e> >= -r_e}: only its generators are needed
    d_points, d_rays = _generators_from_ineqs(
        [_integer_row(e, -re) for e, re in zip(fan.rays, r)], n)
    if not d_points:
        raise PairError("empty section box")
    a_rows = [_point_row(a) for a in folded.bdiv_a.points]
    box = _from_hpoints(n, [_point_sum(g, h) for g in a_rows for h in d_points], d_rays)
    u = _polar_raw(box)
    sigma0 = make_cone(n, u.rays) if u.rays else make_cone(n, [])
    l = n - sigma0.cone_dim()
    sup = tc.support
    for g in sigma0.generators:
        if not sup.contains(g):
            raise PairError("sigma0 leaves the support")
    if not _cone_over_is(u, sup):
        raise PairError("cone over u does not match the support")
    return folded, psi, BoxData(box, u, sigma0, l, folded.bdiv_a, psi, tc)


def _cone_over_is(u, cone):
    """cone(u) == cone, read off u's own descriptions.

    With 0 in u, cone(u) is generated by u's points and rays and cut out
    by u's inequalities through 0.
    """
    return (u.contains((0,) * u.dim)
            and all(cone.contains(h[:-1]) for h in u.hpoints)   # x / q in cone iff x is
            and all(cone.contains(r) for r in u.rays)
            and all(dot(a, g) >= 0 for a, c in u.ineqs if c == 0
                    for g in cone.generators))


def log_discrepancy(bd, e):
    """-h_box(e): the g-log discrepancy in the toric valuation of e."""
    e = tuple(int(x) for x in e)
    if is_zero(e):
        raise PairError("log discrepancy of the zero vector")
    if not bd.tc.support.contains(e):
        raise PairError("vector outside the support of the fan")
    lo, _hi = interval_image(e, bd.box)
    if lo is None:
        raise PairError("h_box must be finite on the support")
    val = -lo
    # cross-check against the per-cone formula <psi_sigma, e> - h_A(e)
    fan = bd.tc.fan
    for ci in range(len(fan.max_cones)):
        if fan.cone(ci).contains(e):
            alt = dot(bd.psi[ci], e) - support_value(bd.a_eff, e)
            if alt != val:
                raise PairError("box and per-cone log discrepancies disagree")
            break
    return val


def is_glc(bd):
    """Generalized log canonical test: 0 in box."""
    return bd.box.contains((0,) * bd.tc.rank)


def _fiber_witness(fan):
    """A lattice point interior to the support: the ray sum of a top cone."""
    c = fan.max_cones[0]
    v = (0,) * fan.rank
    for i in c:
        v = vec_add(v, fan.rays[i])
    return v


def mld_over_fiber(tc, bd):
    """Minimal log discrepancy over the fiber through the invariant point.

    Returns the exact positive rational, or None when the mld is not
    positive.  Works in the quotient by the span of sigma0, where the
    image up of u is compact.  The candidates are the lattice points of
    t_cap * up interior to the image of the support, t_cap being the
    gauge of the fiber witness; for an integer dual ray d and a lattice
    point v, d.v > 0 is d.v >= 1, so the interior enters the enumeration
    as cuts and only the candidates are enumerated.  The gauge of up is
    checked once (`_gauge_rows`, after the one `gauge` call for t_cap);
    each candidate then goes through the integer kernel `_gauge_ratio`,
    the running minimum is an integer pair compared by cross-multiplying,
    and one Fraction is built at the end.
    """
    if tc.base_rank == 0:
        raise PairError("dim Y = 0: use a global mld variant (out of scope)")
    if not is_glc(bd):
        raise PairError("mld_over_fiber needs a g-lc pair")
    if bd.l == 0:
        return None
    proj, up = bd.quotient
    if strict_interior_contains(up, (0,) * bd.l):
        return None
    estar = _fiber_witness(tc.fan)
    pstar = apply_hom(proj, estar)
    t_cap = gauge(up, pstar)
    if t_cap is None or t_cap <= 0:
        raise PairError("the fiber witness must have a positive gauge")
    rows = _gauge_rows(up)
    sup_gens = [g2 for g2 in (apply_hom(proj, g) for g in tc.support.generators)
                if not is_zero(g2)]
    pcone = make_cone(bd.l, sup_gens)
    if not pcone.is_full_dim():
        raise GeometryError("interior test needs a full-dimensional cone")
    cuts = [(a, t_cap * c) for a, c in up.ineqs] + [(d, 1) for d in pcone.dual_rays]
    best = None
    for v in integer_points(bd.l, cuts):
        g = _gauge_ratio(rows, v)
        if g is None or g[0] <= 0:
            raise PairError("an enumerated point must have a positive gauge")
        if best is None or g[0] * best[1] < best[0] * g[1]:
            best = g
    if best is None:
        raise PairError("the witness point must be enumerated")
    return Fraction(*best)


def lct_pullback(tc, bd, phibar):
    """sup{g >= 0 : -g * pi^*(phibar) in box}, exact."""
    phibar = tuple(int(x) for x in phibar)
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
    for a, c in bd.box.ineqs:
        s = dot(a, phi)
        if s > 0:
            cand = Fraction(-c, s)
            best = cand if best is None else min(best, cand)
        elif s == 0 and c > 0:
            raise PairError("box is infeasible along the functional")
    if best is None:
        raise PairError("unbounded lct: functional is trivial on the box")
    return best


ORACLE_BOX_LIMIT = 10 ** 6


def oracle_mld(tc, bd, radius):
    """Brute-force scan: min log discrepancy over primitive points in a box.

    Scans [-radius, radius]^n intersected with the strict interior of the
    support.  The result is an upper bound for the mld; it is exact once
    the box contains a minimizer.  Returns (value, witness) or None.
    Raises PairError before scanning a box of more than ORACLE_BOX_LIMIT
    points.
    """
    if radius < 1:
        raise PairError("oracle box radius must be positive")
    n = tc.rank
    size = (2 * radius + 1) ** n
    if size > ORACLE_BOX_LIMIT:
        raise PairError("oracle box of %d points exceeds the limit of %d points"
                        % (size, ORACLE_BOX_LIMIT))
    best = None
    for v in itertools.product(range(-radius, radius + 1), repeat=n):
        if is_zero(v) or content(v) != 1:
            continue
        if not tc.support.interior_contains(v):
            continue
        a = log_discrepancy(bd, v)
        if best is None or a < best[0] or (a == best[0] and v < best[1]):
            best = (a, v)
    return best
