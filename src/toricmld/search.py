"""Constructive search for invariant hyperplane sections with certificates.

Implements the bound function gamma(d, a), lattice width search over the
compact quotient image of u, fan subdivision along a functional, the
slice germ along the width functional (w, lam = 1/w and the subdivision
derived from it), the extension of non-negative functionals with length
control, hyperplane lifting, and the recursion tying these together.
Every lemma is re-validated at run time and the final (phi_bar, gamma)
pair is checked against the box independently of the search trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .lattice import (
    _solve_row,
    apply_hom,
    compose_covector,
    content,
    dot,
    extend_hom,
    is_zero,
    kernel_sublattice,
    primitive,
    rational_rank,
    sublattice_from_vectors,
    transpose,
)
from .pairs import (
    BoxData,
    GPair,
    PairError,
    _int_vector,
    analyze,
    is_glc,
    log_discrepancy,
    make_contraction,
    make_fan,
    make_pair,
    mld_over_fiber,
    validate_contraction,
)
from .polyhedra import (
    SupportSet,
    _dd_cut,
    _interval_ends,
    _rescaled,
    from_inequalities,
    make_cone,
    interval_image,
    polyhedra_equal,
    scale_polyhedron,
)

WIDTH_NORM_CAP = 16


class SearchError(PairError):
    pass


# ---------------------------------------------------------------------------
# the bound function


def gamma(d, a):
    """gamma(1, a) = a, gamma(d, a) = gamma(d-1, a^2/d^2), for an integer d >= 1.

    a = n / m stays reduced by small gcds, as gcd(n, m) = 1 makes gcd(n^2,
    m^2 k^2) = gcd(n, k)^2 at level k; one Fraction is built at the end.
    """
    if d < 1 or d % 1:
        raise ValueError("gamma needs an integer d >= 1")
    d, a = int(d), Fraction(a)
    if a <= 0:
        raise ValueError("gamma needs a > 0")
    n, m = a.numerator, a.denominator
    for k in range(d, 1, -1):
        g = gcd(n, k)
        n, m = (n // g) ** 2, (m * (k // g)) ** 2
    return Fraction(n, m)


def gamma_closed(d, a):
    """Closed form a^(2^(d-1)) / prod_i i^(2^(i-1))."""
    a = Fraction(a)
    if d < 1 or d % 1 or a <= 0:
        raise ValueError("gamma_closed needs an integer d >= 1 and a > 0")
    d = int(d)
    num = a ** (2 ** (d - 1))
    den = Fraction(1)
    for i in range(1, d + 1):
        den *= Fraction(i) ** (2 ** (i - 1))
    return num / den


# ---------------------------------------------------------------------------
# width search


@dataclass(frozen=True)
class WidthResult:
    phi: tuple        # primitive covector on the quotient lattice N'
    lo: Fraction
    hi: Fraction
    w: Fraction

    @property
    def boundary(self):
        return self.lo == 0


def _covector_level(l, k):
    """Primitive covectors of sup-norm k, one per +/- pair, in colex order.

    product() runs in lex order, so its reversed tuples come in colex
    order; of each +/- pair the one with a positive first nonzero entry
    is kept.
    """
    for v in itertools.product(range(-k, k + 1), repeat=l):
        v = v[::-1]
        if (max(abs(x) for x in v) == k and content(v) == 1
                and next(x for x in v if x) > 0):
            yield v


def _width_result(phi, lo, hi):
    """The pick from its end pairs, oriented so that [0, w] is its interval when 0 is an end."""
    lo, hi = Fraction(*lo), Fraction(*hi)
    if hi == 0:
        phi, lo, hi = tuple(-x for x in phi), -hi, -lo
    return WidthResult(phi, lo, hi, hi - lo)


def width_functional(up, t):
    """First usable functional of length <= l^2/t over up, with l = up.dim.

    Candidates are enumerated by increasing sup-norm and, within a level,
    by colexicographic order on a sign-canonical representative.  At each
    level the first functional with 0 on the boundary of its interval and
    1/w >= gamma(l, t) wins, oriented to [0, w], and the walk stops there;
    failing that, the first functional with 0 interior to its interval,
    kept while the level is walked, wins at its end.  The search stops
    after sup-norm WIDTH_NORM_CAP.  up is compact and full-dimensional
    (`BoxData.quotient`), so each width w = hs/hq - ls/lq from the end
    pairs (`_interval_ends`) is positive: w <= l^2/t and 1/w >= gamma(l, t)
    are compared by cross-multiplying, with Fractions only for the result.
    """
    if up.empty or not up.is_compact():
        raise PairError("width search needs a compact nonempty polyhedron")
    l, t = up.dim, Fraction(t)
    bn, bd = l * l * t.denominator, t.numerator      # the bound l^2 / t
    need = gamma(l, t)
    gn, gd = need.numerator, need.denominator
    for k in range(1, WIDTH_NORM_CAP + 1):
        interior = None
        for phi in _covector_level(l, k):
            (ls, lq), (hs, hq) = ends = _interval_ends(phi, up)
            wn, wd = hs * lq - ls * hq, hq * lq       # w = wn / wd
            if wn * bd > bn * wd:
                continue
            if ls == 0 or hs == 0:
                if wd * gd >= gn * wn:
                    return _width_result(phi, *ends)
            elif interior is None and ls < 0 < hs:
                interior = (phi, *ends)
        if interior is not None:
            return _width_result(*interior)
    raise SearchError("width bound violated: no functional of length <= %s "
                      "with sup-norm <= %d" % (Fraction(bn, bd), WIDTH_NORM_CAP))


# ---------------------------------------------------------------------------
# fan subdivision along a functional


def subdivide_fan(fan, phi):
    """Split every cone along phi; new rays follow the crossing formula.

    Returns (fan', q) where q maps each new primitive ray e' to the
    positive integer with q(e') * e' = phi(e2) e1 - phi(e1) e2, for the
    rays e1, e2 of a 2-face with phi(e1) < 0 < phi(e2).  The fan must pass
    validate_fan, so that each cone's generators are its extreme rays and
    `_dd_cut` cuts it in one step from the zero sets the fan holds
    (`Fan._zero_sets`), returning those raw crossing rays.
    """
    if len(phi) != fan.rank:
        raise PairError("functional has %d entries but the fan has rank %d"
                        % (len(phi), fan.rank))
    if is_zero(phi):
        raise PairError("cannot subdivide along the zero functional")
    newq = {}
    pieces = []
    for ci in range(len(fan.max_cones)):
        cone = fan.cone(ci)
        halves = _dd_cut(cone.generators, cone.dual_rays, fan._zero_sets[ci], phi)
        if halves is None:
            pieces.append(cone.generators)
            continue
        # the rays of a half that are not the cone's are its crossing rays
        for w in (w for w in halves[0][0] if w not in cone.generators):
            p, qv = primitive(w), content(w)
            if newq.setdefault(p, qv) != qv:
                raise SearchError("subdivision gives the new ray %r two "
                                  "multiplicities, %d and %d" % (p, newq[p], qv))
        pieces += [[primitive(w) for w in half] for half, _kept in halves]
    rays = list(fan.rays) + sorted(set(newq) - set(fan.rays))
    index = {g: i for i, g in enumerate(rays)}
    cones = {tuple(sorted(index[g] for g in piece)) for piece in pieces}
    return make_fan(fan.rank, rays, sorted(cones)), newq


# ---------------------------------------------------------------------------
# the slice germ


@dataclass(frozen=True)
class SliceData:
    pair1: GPair
    bd1: BoxData              # bd1.tc is the slice contraction
    phi: tuple                # the width functional on N
    w: Fraction               # the width of phi(U)
    lam: Fraction             # 1 / w
    new_rays: int             # rays the subdivision along phi adds
    nbar0: object             # Sublattice pi(N0) inside Nbar
    u0: object                # U cap phi-perp in N0 coordinates
    mld1: Fraction
    max_ray_discrepancy: Fraction


def make_slice(bd, phi_n, t):
    """Build the codimension-one germ of bd.tc cut out by ker(phi) and validate it.

    With w the width of phi(U) and lam = 1/w, the slice fan is read off
    the fan subdivided along phi.  Validations, each raising with the
    violated statement named: w > 1, no subdivided-fan ray of discrepancy
    above w, slice anti-log canonical class nef, u of the slice equal to
    lam^{-1} (u cap phi-perp), the base of the slice has an invariant
    point, and the slice mld is at least lam * t.  make_pair checks that
    the boundary coefficients of the rescaled pair lie in [0, 1]; its
    message numbers the rays of the slice fan.
    """
    n = bd.tc.rank
    lo, hi = interval_image(phi_n, bd.u)
    if lo is None or hi is None or not lo < 0 < hi:
        raise PairError("slice needs 0 interior to phi(U)")
    w = hi - lo
    if not w > 1:
        raise SearchError("interior width must exceed 1")
    lam = 1 / w
    fan2, newq = subdivide_fan(bd.tc.fan, phi_n)
    disc = {e: log_discrepancy(bd, e) for e in fan2.rays}
    max_ray_discrepancy = max(disc.values())
    if max_ray_discrepancy > w:
        raise SearchError("a subdivided-fan ray has discrepancy above the width")
    kern = kernel_sublattice(phi_n)

    # maximal cones of the phi-perp fan: the rays with phi = 0 of each cone
    zero = [dot(phi_n, r) == 0 for r in fan2.rays]
    zero_sets, low_sets = [], []
    for cidx in fan2.max_cones:
        gens = [fan2.rays[i] for i in cidx if zero[i]]
        if not gens or gens in zero_sets:
            continue
        if rational_rank(gens, n) == n - 1:
            zero_sets.append(gens)
        else:
            low_sets.append(gens)
    if not zero_sets:
        raise PairError("slice fan is empty: phi-perp misses the support")

    rays_n = sorted({g for gens in zero_sets for g in gens})
    # phi vanishes on every slice ray, so each lies in the saturated ker(phi)
    rays0 = [kern.coordinates(g) for g in rays_n]
    index = {g: i for i, g in enumerate(rays_n)}
    cones0 = [tuple(sorted(index[g] for g in gens)) for gens in zero_sets]
    fan0 = make_fan(n - 1, rays0, cones0)
    for gens in low_sets:
        cone_hit = any(all(fan0.cone(i).contains(kern.coordinates(g))
                           for g in gens) for i in range(len(cones0)))
        if not cone_hit:
            raise PairError("slice fan does not cover phi-perp")

    # contraction of the slice: pi restricted to ker(phi), onto its image
    images = [apply_hom(bd.tc.pi, b) for b in kern.basis]
    nbar0 = sublattice_from_vectors(bd.tc.base_rank, images)
    if nbar0.rank == 0:
        raise PairError("slice base has rank zero")
    # the images generate nbar0, so each has coordinates in it
    pi0 = transpose([nbar0.coordinates(img) for img in images], nbar0.rank)
    tc1 = make_contraction(fan0, pi0)
    validate_contraction(tc1)

    # rescaled boundary (1 - lam) Sigma + lam B restricted to the slice;
    # make_pair checks that it lies in [0, 1].  The point row (x, q) of A
    # maps to lam * basis.x / q, the row (p * basis.x, r * q) at lam = p / r
    b1 = [1 - lam * disc[g] for g in rays_n]
    a1 = SupportSet(tuple(sorted({_rescaled(apply_hom(kern.basis, h[:-1]) + h[-1:],
                                            lam.numerator, lam.denominator)
                                  for h in bd.a_eff.rows})))
    pair1 = make_pair(fan0, b1, a1)
    try:
        bd1 = analyze(tc1, pair1)
    except PairError as exc:
        raise PairError("slice anti-log-canonical class is not nef: %s" % exc)

    # U(slice) = lam^{-1} (U cap phi-perp), exactly
    restricted = [(apply_hom(kern.basis, a), c) for a, c in bd.u.ineqs]
    u0 = from_inequalities(n - 1, restricted)
    if not polyhedra_equal(bd1.u, scale_polyhedron(u0, w)):
        raise PairError("slice identity fails: U(slice) != lam^-1 (U cap phi-perp)")

    mld1 = mld_over_fiber(bd1)
    if mld1 is None or mld1 < lam * t:
        raise PairError("slice mld drops below lam * t")
    if bd1.l != bd.l - 1:
        raise PairError("slice lc-place dimension did not drop by one")
    return SliceData(pair1, bd1, phi_n, w, lam, len(newq), nbar0, u0,
                     mld1, max_ray_discrepancy)


# ---------------------------------------------------------------------------
# extension of non-negative functionals


@dataclass(frozen=True)
class ExtensionTrace:
    phi_prime: tuple
    q: int
    branch: str
    w_minus: Fraction
    w_plus: Fraction
    interval_prime: tuple
    l0: Fraction


def extend_functional(gens, c_body, phi, phi0_vals):
    """Extend q * phi0 from ker(phi) to a functional nonnegative on the cone.

    Needs phi0(C cap ker phi) = [0, l0] with l0 > 0.  Follows the
    extension argument step by step: extend phi0 arbitrarily to phi2,
    move to the extremal admissible multiple c of phi, and combine at a
    generator attaining it.  Postconditions checked exactly: 1 <= q < w,
    restriction q * phi0, and phi'(C) inside [0, w * l0].
    """
    gens = [_int_vector(g, "generator %d" % i) for i, g in enumerate(gens)]
    if not c_body.contains((0,) * c_body.dim):
        raise PairError("extension hypothesis fails: 0 not in C")
    for g in gens:
        if not c_body.contains(g):
            raise PairError("extension hypothesis fails: generator %r not in C" % (g,))
    sigma = make_cone(c_body.dim, gens)
    # the point x / q of a row (x, q) is in the cone iff x is
    if not all(sigma.contains(x) for x in [h[:-1] for h in c_body.hpoints] + list(c_body.rays)):
        raise PairError("extension hypothesis fails: C is not inside the cone")
    lo, hi = interval_image(phi, c_body)
    if lo is None or hi is None or not lo < 0 < hi:
        raise PairError("extension hypothesis fails: phi(C) must be compact "
                        "with 0 interior")
    w_minus, w_plus, w = -lo, hi, hi - lo
    kern = kernel_sublattice(phi)
    if len(phi0_vals) != kern.rank:
        raise PairError("phi0 values do not match ker(phi)")
    restricted = [(apply_hom(kern.basis, a), c) for a, c in c_body.ineqs]
    c0 = from_inequalities(kern.rank, restricted)
    lo0, l0 = interval_image(tuple(phi0_vals), c0)
    if lo0 != 0 or l0 is None or l0 <= 0:
        raise PairError("extension hypothesis fails: phi0(C0) != [0, l0]")
    phi2 = extend_hom(kern, tuple(phi0_vals))

    # the first generator on the short side of 0 (phi < 0 when w- <= w+) to
    # attain the extremal multiple c of phi: the least for phi < 0, else the greatest
    side, branch = (-1, "w- <= w+") if w_minus <= w_plus else (1, "w+ < w-")
    cands = [(Fraction(-side * dot(phi2, g), side * dot(phi, g)), g)
             for g in gens if side * dot(phi, g) > 0]
    if not cands:
        raise PairError("no generator with phi %s 0" % ("<" if side < 0 else ">"))
    _c, g = min(cands, key=lambda x: -side * x[0])
    q = side * dot(phi, g)
    phi_prime = tuple(-side * dot(phi2, g) * x + q * y for x, y in zip(phi, phi2))

    if not 1 <= q < w:
        raise PairError("extension postcondition fails: q = %s not in [1, w)" % q)
    if apply_hom(kern.basis, phi_prime) != tuple(q * val for val in phi0_vals):
        raise PairError("extension postcondition fails: restriction != q phi0")
    plo, phi_hi = interval_image(phi_prime, c_body)
    if plo is None or phi_hi is None or plo < 0 or phi_hi > w * l0:
        raise PairError("extension postcondition fails: phi'(C) not in [0, w l0]")
    return ExtensionTrace(phi_prime, int(q), branch, w_minus, w_plus, (plo, phi_hi), l0)


# ---------------------------------------------------------------------------
# lifting and the recursion


def _descend(tc, phi):
    """phi_bar with pi^*(phi_bar) = phi, for phi vanishing on ker(pi).

    The point row (x, q) of `lattice._solve_row` is integral iff q == 1,
    and then phi_bar = x.
    """
    row = _solve_row(transpose(tc.pi, tc.rank), [(x, 1) for x in phi], tc.base_rank)
    if row is None:
        raise PairError("descent failed: functional is not pulled back from the base")
    if row[-1] != 1:
        raise PairError("descent failed: non-integral solution")
    phibar = row[:-1]
    if is_zero(phibar):
        raise PairError("descent failed: zero functional")
    if not all(dot(phibar, g) >= 0 for g in tc.sigma_bar.generators):
        raise PairError("descended functional leaves the dual of sigma_bar")
    return phibar


def lift_hyperplane(bd, sl, phibar0, gamma1):
    """Lift a slice certificate (phibar0, gamma1) of bd's slice sl through its functional.

    Applies the nonnegative-functional extension with C = u and the fan rays as
    generators, descends the result along pi, and returns the primitive
    phi_bar, gamma = gamma1 / (lam w) = gamma1 (as lam = 1 / w), the extension
    trace (its q is that of the pullback relation), and the primitivization scale.
    """
    tc = bd.tc
    phi0 = compose_covector(phibar0, sl.bd1.tc.pi, tc.rank - 1)
    tr = extend_functional(tc.fan.rays, bd.u, sl.phi, phi0)
    if tr.l0 > sl.lam / gamma1:
        raise PairError("slice certificate too weak: l0 > lam / gamma1")
    if not bd.box.contains_scaled(-gamma1, tr.phi_prime):
        raise PairError("lifted functional misses the box at gamma")
    phibar_raw = _descend(tc, tr.phi_prime)
    ustar = apply_hom(sl.nbar0.basis, phibar_raw)
    if ustar != tuple(tr.q * x for x in phibar0):
        raise PairError("pullback relation u^* H = q H1 fails")
    scale = content(phibar_raw)
    phibar = primitive(phibar_raw)
    if not bd.box.contains_scaled(-gamma1, compose_covector(phibar, tc.pi, tc.rank)):
        raise PairError("primitive descent misses the box")
    return phibar, gamma1, tr, scale


@dataclass(frozen=True)
class HyperplaneCertificate:
    phi_bar: tuple
    gamma: Fraction
    mld: Fraction
    d: int
    transcript: tuple


def _search(bd, t, transcript, depth):
    """(phi_bar, gamma) for bd, whose mld t over the fiber is positive (so l >= 1)."""
    l = bd.l
    proj, up = bd.quotient
    wr = width_functional(up, t)
    phi_n = compose_covector(wr.phi, proj, bd.tc.rank)
    lo, hi, w = wr.lo, wr.hi, wr.w
    if wr.boundary:
        gamma_here = Fraction(1) / w
        if not bd.box.contains_scaled(-gamma_here, phi_n):
            raise SearchError("boundary functional misses the box at 1/w")
        phibar = _descend(bd.tc, phi_n)
        # at l = 1 the pick is +-sigma0's dual line, recorded as "l1" without w
        rec = dict(depth=depth, l=l, case="l1", t=t, phi=phi_n, interval=(lo, hi))
        if l > 1:
            rec.update(case="boundary", w=w)
        rec.update(gamma=gamma_here, phibar=phibar)
        transcript.append(rec)
        return phibar, gamma_here
    # interior: slice and recurse
    sl = make_slice(bd, phi_n, t)
    rec = dict(depth=depth, l=l, case="interior", t=t, phi=phi_n,
               interval=(lo, hi), w=w, w_minus=-lo,
               w_plus=hi, lam=sl.lam, new_rays=sl.new_rays,
               max_ray_discrepancy=sl.max_ray_discrepancy,
               slice_mld=sl.mld1, width_gt_one=bool(w > 1),
               slice_u_ok=True, invariant_point_ok=True)
    transcript.append(rec)
    phibar0, gamma1 = _search(sl.bd1, t * sl.lam, transcript, depth + 1)
    phibar, gamma_here, tr, scale = lift_hyperplane(bd, sl, phibar0, gamma1)
    rec.update(q=tr.q, branch=tr.branch, descent_scale=scale,
               gamma=gamma_here, phibar=phibar)
    return phibar, gamma_here


def find_hyperplane(tc, pair):
    """Produce a certified invariant hyperplane section for the germ.

    Requires dim Y > 0, -(K+B+D) f-nef and a positive mld over the
    fiber; returns a HyperplaneCertificate whose (phi_bar, gamma) pass
    verify_certificate and satisfy gamma >= gamma(d, mld).
    """
    bd = analyze(tc, pair)
    a = mld_over_fiber(bd)
    if a is None:
        raise PairError("mld over the fiber is not positive")
    transcript = []
    phibar, gamma_val = _search(bd, a, transcript, 0)
    cert = HyperplaneCertificate(phibar, gamma_val, a, tc.rank,
                                 tuple(transcript))
    ok, reasons = _check_certificate(bd, a, cert)
    if not ok:
        raise SearchError("internal: produced certificate fails verification: %s"
                          % "; ".join(reasons))
    return cert


def verify_certificate(tc, pair, cert):
    """Re-check a certificate from scratch, ignoring its transcript.

    Returns (ok, reasons).  Recomputes the box data of the pair and its
    mld over the fiber, then runs every check of _check_certificate on
    them.
    """
    try:
        bd = analyze(tc, pair)
    except PairError as exc:
        return False, ["pair data invalid: %s" % exc]
    mld = None
    # mld_over_fiber refuses dim Y = 0, where every phi_bar is zero
    if tc.base_rank > 0 and is_glc(bd):
        mld = mld_over_fiber(bd)
    return _check_certificate(bd, mld, cert)


def _check_certificate(bd, mld, cert):
    """Check a certificate against the box data bd and the mld of the pair.

    Returns (ok, reasons).  Checks: phi_bar is an integer vector of the
    base's dimension, primitive, nonzero and in the dual of sigma_bar;
    gamma > 0; the pair is g-lc; -gamma pi^*(phi_bar) lies in the box;
    the mld is positive and gamma >= gamma(d, mld); the stored mld and
    dimension match.
    """
    tc = bd.tc
    reasons = []
    try:
        phibar = _int_vector(cert.phi_bar, "phi_bar")
    except PairError:
        return False, ["phi_bar is not an integer vector"]
    if len(phibar) != tc.base_rank:
        return False, ["phi_bar has the wrong dimension"]
    if is_zero(phibar):
        reasons.append("phi_bar is zero")
    elif content(phibar) != 1:
        reasons.append("phi_bar is not primitive")
    if not all(dot(phibar, g) >= 0 for g in tc.sigma_bar.generators):
        reasons.append("phi_bar is not in the dual of sigma_bar")
    gamma_val = Fraction(cert.gamma)
    if gamma_val <= 0:
        reasons.append("gamma is not positive")
    if reasons:
        return False, reasons
    if not is_glc(bd):
        return False, ["pair is not g-lc"]
    phi = compose_covector(phibar, tc.pi, tc.rank)
    if not bd.box.contains_scaled(-gamma_val, phi):
        reasons.append("-gamma pi^*(phi_bar) is outside the box")
    if mld is None:
        reasons.append("mld over the fiber is not positive")
    else:
        if Fraction(cert.mld) != mld:
            reasons.append("stored mld %s differs from recomputed %s"
                           % (cert.mld, mld))
        if cert.d != tc.rank:
            reasons.append("stored dimension differs from rank N")
        if gamma_val < gamma(tc.rank, mld):
            reasons.append("gamma below the bound gamma(d, mld)")
    return not reasons, reasons
