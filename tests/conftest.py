from fractions import Fraction as F

import pytest

from toricmld.lattice import (
    content,
    dot,
    identity,
    is_zero,
    kernel_sublattice,
    primitive,
    rational_rank,
    solve_rational,
)
from toricmld.pairs import (
    NotRCartier,
    PairError,
    fold_general,
    make_contraction,
    make_fan,
    make_pair,
    validate_contraction,
    validate_fan,
)
from toricmld.polyhedra import (
    GeometryError,
    _generators_of,
    _homogenize_generators,
    _point_row,
    _support_ratio,
    from_generators,
    from_inequalities,
    interval_image,
    make_cone,
)
from toricmld.search import (
    WIDTH_NORM_CAP,
    SearchError,
    WidthResult,
    _covector_level,
)

# the acceptance set's seeded instances: random_instance(s) for s = 1000..1095,
# then the seeds whose searches are known to take the slice-and-lift path, two
# of them through two nested slices; they keep the acceptance suite's
# criterion 6 well-exercised
INTERIOR_SEEDS = (5, 27, 82, 93, 119, 159, 271, 362)
ACCEPTANCE_SEEDS = tuple(range(1000, 1096)) + INTERIOR_SEEDS


def germ(rank, rays, cones, pi, sigma_bar=None):
    fan = make_fan(rank, rays, cones)
    tc = make_contraction(fan, pi, sigma_bar)
    validate_contraction(tc)
    return tc


@pytest.fixture(scope="session")
def a1_germ():
    return germ(1, [(1,)], [(0,)], identity(1))


def a1_pair(tc, a):
    return make_pair(tc.fan, (1 - F(a),), [(0,)])


@pytest.fixture(scope="session")
def a2_germ():
    return germ(2, [(1, 0), (0, 1)], [(0, 1)], identity(2))


@pytest.fixture(scope="session")
def a3_germ():
    return germ(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)], identity(3))


@pytest.fixture(scope="session")
def halfplane_germ():
    return germ(2, [(1, -1), (0, 1), (-1, 1)], [(0, 1), (1, 2)], ((1, 1),))


@pytest.fixture(scope="session")
def cax4_germ():
    # octant in the index-2 lattice {v : sum v_i even}, basis
    # (1,1,0), (0,1,1), (0,0,2); edge generators in that basis:
    return germ(3, [(2, -2, 1), (0, 2, -1), (0, 0, 1)], [(0, 1, 2)], identity(3))


@pytest.fixture(scope="session")
def wedge25_germ():
    return germ(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)], ((0, 1),))


def wedge25_pair(tc):
    return make_pair(tc.fan, (0, F(17, 25), 0),
                     [(1, F(-8, 25)), (-1, F(6, 25))])


def zero_pair(tc):
    n = tc.rank
    return make_pair(tc.fan, (0,) * len(tc.fan.rays), [(0,) * n])


# ---------------------------------------------------------------------------
# shared helpers for the extension property suites


def random_extension_input(rng, n):
    """A valid (gens, C, phi, phi0, l0, kernel) tuple, built by rejection."""
    while True:
        gens = []
        for _ in range(rng.randint(n, n + 2)):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if not is_zero(v):
                gens.append(primitive(v))
        if not gens:
            continue
        sigma = make_cone(n, gens)
        if not sigma.is_pointed():
            continue
        phi = tuple(rng.randint(-2, 2) for _ in range(n))
        if is_zero(phi) or content(phi) != 1:
            continue
        vals = [dot(phi, g) for g in gens]
        if not (any(v > 0 for v in vals) and any(v < 0 for v in vals)):
            continue
        # extra points stay inside the cone: ray rescalings and midpoints
        extra = []
        for g in gens:
            den = rng.choice((1, 2))
            extra.append(tuple(F(x, den) for x in g))
        extra += [tuple((F(a) + F(b)) / 2 for a, b in zip(g1, g2))
                  for g1, g2 in zip(gens, gens[1:])]
        c_body = from_generators(n, [(F(0),) * n] + [tuple(map(F, g)) for g in gens]
                                 + extra[:rng.randint(0, len(extra))])
        lo, hi = interval_image(phi, c_body)
        if lo is None or hi is None or not lo < 0 < hi:
            continue
        kern = kernel_sublattice(phi)
        phi0 = tuple(rng.randint(-2, 2) for _ in range(kern.rank))
        restricted = [(tuple(dot(a, b) for b in kern.basis), c)
                      for a, c in c_body.ineqs]
        c0 = from_inequalities(kern.rank, restricted)
        lo0, hi0 = interval_image(phi0, c0)
        if lo0 != 0 or hi0 is None or hi0 <= 0:
            continue
        return gens, c_body, phi, phi0, hi0, kern


def extension_posts_hold(phi_prime, q, kern, phi0, c_body, w, l0):
    if not 1 <= q < w:
        return False
    if any(dot(phi_prime, b) != q * v for b, v in zip(kern.basis, phi0)):
        return False
    lo, hi = interval_image(phi_prime, c_body)
    return lo is not None and hi is not None and lo >= 0 and hi <= w * l0


# ---------------------------------------------------------------------------
# reference helpers: former package functions that the tests still use to
# describe a polyhedron independently of the code under test


def affine_dim(p):
    """-1 if p is empty, else the rank of its homogenized generators minus 1."""
    if p.empty:
        return -1
    return rational_rank(_homogenize_generators(p.hpoints, p.rays), p.dim + 1) - 1


def cone_from_normals(dim, normals):
    """Cone {x : <a, x> >= 0 for a in normals}, as generators."""
    return make_cone(dim, _generators_of(normals, dim))


def strict_interior_contains(p, x):
    """True iff every inequality is strict at x; p must be full-dimensional."""
    if affine_dim(p) != p.dim:
        raise GeometryError("strict interior needs a full-dimensional polyhedron")
    return all(dot(a, x) > c for a, c in p.ineqs)


def reference_check_walls(tc):
    """The former `pairs._check_walls`: every facet of a maximal cone lies on
    the support boundary or in another cone, each facet's generators found
    by evaluating its normal and every other cone searched."""
    fan = tc.fan
    sup = tc.support
    for i in range(len(fan.max_cones)):
        cone = fan.cone(i)
        for d in cone.dual_rays:
            fgens = [g for g in cone.generators if dot(d, g) == 0]
            if not fgens:
                continue
            if any(all(dot(s, g) == 0 for g in fgens) for s in sup.dual_rays):
                continue
            if not any(j != i and all(fan.cone(j).contains(g) for g in fgens)
                       for j in range(len(fan.max_cones))):
                raise PairError(
                    "support condition fails: unmatched interior wall of cone %d" % i)


def reference_validate_contraction(tc):
    """The former `pairs.validate_contraction`: the fan, the rays in the
    support, then every generator of the support covered by a maximal cone,
    then the walls (`reference_check_walls`), each refusal with its message."""
    validate_fan(tc.fan)
    sup = tc.support
    for i, r in enumerate(tc.fan.rays):
        if not sup.contains(r):
            raise PairError("support condition fails: ray %d leaves pi^-1(sigma_bar)" % i)
    for g in sup.generators:
        if not any(tc.fan.cone(i).contains(g) for i in range(len(tc.fan.max_cones))):
            raise PairError("support condition fails: pi^-1(sigma_bar) is not covered")
    reference_check_walls(tc)


def product_germ(first, second):
    """X1 x X2 -> Y1 x Y2 from two (germ, pair): rays, pi and sigma_bar are
    block-diagonal, the maximal cones are the products of the factors', B is
    concatenated and A is the set of pairs of points of the folded A's."""
    (tc1, pair1), (tc2, pair2) = first, second
    n1, n2, k = tc1.rank, tc2.rank, len(tc1.fan.rays)
    m1, m2 = tc1.base_rank, tc2.base_rank

    def blocks(left, right, w1, w2):
        return ([tuple(v) + (0,) * w2 for v in left]
                + [(0,) * w1 + tuple(v) for v in right])

    rays = blocks(tc1.fan.rays, tc2.fan.rays, n1, n2)
    cones = [c1 + tuple(k + j for j in c2)
             for c1 in tc1.fan.max_cones for c2 in tc2.fan.max_cones]
    pi = blocks(tc1.pi, tc2.pi, n1, n2)
    sigma_bar = blocks(tc1.sigma_bar.generators, tc2.sigma_bar.generators, m1, m2)
    tc = germ(n1 + n2, rays, cones, pi, sigma_bar)
    pair1, pair2 = fold_general(tc1.fan, pair1), fold_general(tc2.fan, pair2)
    points = [a + b for a in pair1.bdiv_a.points for b in pair2.bdiv_a.points]
    return tc, make_pair(tc.fan, pair1.b_inv + pair2.b_inv, points)


# ---------------------------------------------------------------------------
# reference forms in Fractions: the former bodies of the Cartier data, the
# width search, gamma and the fixed parts, which now run in integer pairs


def support_value(a_set, e):
    """The former `polyhedra.support_value`: h_A(e) = min over A of <a, e>,
    one Fraction of `_support_ratio`."""
    if len(e) != a_set.dim:
        raise GeometryError("dimension mismatch in support_value")
    return F(*_support_ratio(a_set.rows, e))


def fix_mov(a_set, rays):
    """The former `pairs.fix_mov`: the fixed part min_{a in A} <a, e> of the
    system of A on each ray e, as Fractions."""
    return tuple(support_value(a_set, e) for e in rays)


def reference_nef_values(fan, pair):
    """The former `pairs.nef_values`: r_e = 1 - b_e + h_A(e) as Fractions."""
    return tuple(1 - b + support_value(pair.bdiv_a, e) for e, b in zip(fan.rays, pair.b_inv))


def reference_cartier_rows(tc, r):
    """The former `pairs.cartier_psi` then `_point_row`: one `solve_rational` per
    maximal cone over the Fractions of the pairs r, each solution as its point row."""
    rows = []
    for ci, c in enumerate(tc.fan.max_cones):
        sol = solve_rational([tc.fan.rays[i] for i in c], [F(*r[i]) for i in c], tc.rank)
        if sol is None:
            raise NotRCartier(ci)
        rows.append(_point_row(sol))
    return tuple(rows)


def reference_width_functional(up, t):
    """The former `search.width_functional`: Fraction ends, width and 1/w per candidate."""
    if up.empty or not up.is_compact():
        raise PairError("width search needs a compact nonempty polyhedron")
    bound = F(up.dim ** 2) / F(t)
    need = reference_gamma(up.dim, t)
    for k in range(1, WIDTH_NORM_CAP + 1):
        interior = None
        for phi in _covector_level(up.dim, k):
            lo, hi = interval_image(phi, up)
            if hi - lo > bound:
                continue
            if lo == 0 or hi == 0:
                if F(1) / (hi - lo) >= need:
                    return _reference_width_result(phi, lo, hi)
            elif interior is None and lo < 0 < hi:
                interior = (phi, lo, hi)
        if interior is not None:
            return _reference_width_result(*interior)
    raise SearchError("width bound violated: no functional of length <= %s "
                      "with sup-norm <= %d" % (bound, WIDTH_NORM_CAP))


def _reference_width_result(phi, lo, hi):
    """The former `search._width_result`: the pick oriented to [0, w] when 0 is an end."""
    if hi == 0:
        phi, lo, hi = tuple(-x for x in phi), -hi, -lo
    return WidthResult(phi, lo, hi, hi - lo)


def reference_gamma(d, a):
    """The former `search.gamma`: a Fraction reduced at every level."""
    if d < 1 or d % 1:
        raise ValueError("gamma needs an integer d >= 1")
    d, a = int(d), F(a)
    if a <= 0:
        raise ValueError("gamma needs a > 0")
    while d > 1:
        a = a * a / (d * d)
        d -= 1
    return a


# ---------------------------------------------------------------------------
# reference draws in Fraction points: the former `generator._rand_a_points`
# and `_rand_general`, which now build their support sets from integer rows


def reference_rand_a_points(rng, n):
    """The former `generator._rand_a_points`: A as a list of Fraction points."""
    mode = rng.randrange(4)
    if mode == 0:
        return [(0,) * n]
    if mode == 1:
        return [(0,) * n, tuple(rng.randint(-1, 1) for _ in range(n))]
    if mode == 2:
        den = rng.choice((2, 3, 5))
        return [tuple(F(rng.randint(-2, 2), den) for _ in range(n))
                for _ in range(2)]
    den = rng.choice((4, 5, 25))
    return [(0,) * n,
            tuple(F(rng.randint(-den, den), den) for _ in range(n))]


def reference_rand_general(rng, n):
    """The former `generator._rand_general`: each A_j as a list of integer points."""
    if rng.random() < 0.7:
        return []
    bj = rng.choice((F(1, 2), F(1), F(3, 2)))
    pts = [(0,) * n, tuple(rng.randint(-1, 1) for _ in range(n))]
    return [(bj, pts)]
