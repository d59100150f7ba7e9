"""Exact rational cones and polyhedra in small dimension.

Both descriptions are kept on every object, in integers: generators
(points + rays) and inequalities <a, x> >= c.  Each inequality is a row
(a, c) of integers with (a, -c) primitive in Z^(n+1), the homogenized row
a.x - c t >= 0, and each point x / q is a primitive row (x, q) with q > 0,
the homogenized ray; both exactly as the double description returns them.
A `SupportSet` stores its points as the same sorted rows, and its sums
and scalings work on them.  A caller's rational row becomes this form in
one place, `_integer_row`, and a caller's rational point in `_point_row`;
the readers compare ratios by cross-multiplying, and Fraction points exist
only as the `points` view of the public API (`_fraction_points`).

Conversion runs through a single primitive, the double description of a
cone given by homogeneous integer inequalities, in integer arithmetic
only: the kernel behind `rational_rank` and `_solve_row` picks the
start rows and gives the start rays (the closed form `lattice._small_base`
in dimension <= 3, the fraction-free Gauss-Jordan elimination
`lattice._gauss_jordan` from dimension 4 on), and two rays are combined
iff `_crossings` finds them adjacent.  The rays come out primitive and
sorted, so the result is deterministic.  That lets `_polar_raw` read the
polar of a full-dimensional pointed polyhedron containing 0 off its
stored rows; `_cut_cone` cut a pointed full-dimensional cone by a
hyperplane in one step, from the extreme rays and facets it holds and
their zero sets (`Cone._zero_sets`, kept on the cone): the one cut of
the generator's fan pieces and of `search.subdivide_fan`, which builds
both halves, facets included, and gives the raw crossing rays;
`cone_from_facets` take a full-dimensional cone's dual rays as its known
facets; and `_from_vertices` keep a pointed polyhedron's vertices and
extreme rays as its generators, converting only its rows.  The row loop
of the double description, `_dd_add_rows`, has a second user: the
pairwise face test of `pairs.validate_fan` starts it from one fan cone's
extreme rays and their zero sets over its facets, and adds only the
other cone's facets.

The membership tests (`Cone.contains`, `Cone.interior_contains`,
`Polyhedron.contains_scaled`, which `Polyhedron.contains` calls with
t = 1) are kernels with one contract: the stored rows are ints, the
length of the vector is checked once per call with `dot`'s LatticeError
(`_check_length`, also when the object has no rows), and a short-circuit
loop then evaluates `sum(map(mul, a, x))` per row.

Everything is exact (int and Fraction); there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .lattice import (
    LatticeError,
    _as_integers,
    _gauss_jordan,
    _small_base,
    apply_hom,
    compose_covector,
    content,
    dot,
    is_zero,
    kernel_basis,
    primitive,
    quotient_by_span,
    rational_rank,
    sublattice_from_vectors,
)


class GeometryError(ValueError):
    pass


def _check_length(dim, v):
    """The membership kernels' one length check per call, with `dot`'s error."""
    if len(v) != dim:
        raise LatticeError("dimension mismatch: %d vs %d" % (dim, len(v)))


def _integer_direction(v):
    """Scale a vector of ints and Fractions to a primitive integer one."""
    if is_zero(v):
        raise GeometryError("zero direction")
    return primitive(_as_integers(v))


def _point_row(p):
    """The rational point p as its integer row (x, q): primitive, q > 0, p = x / q."""
    return _integer_direction(tuple(p) + (1,))


def _fraction_points(hpoints):
    """The points x / q of the point rows (x, q) as Fraction tuples, sorted by value."""
    return tuple(sorted(tuple(Fraction(x, h[-1]) for x in h[:-1]) for h in hpoints))


def _point_sum(g, h):
    """The point row of y / s + x / q for the point rows g = (y, s) and h = (x, q)."""
    s, q = g[-1], h[-1]
    return primitive(tuple(q * y + s * x for y, x in zip(g[:-1], h)) + (s * q,))


def _integer_row(a, c):
    """The rational row a.x >= c as integers (a', c') with (a', -c') primitive.

    A positive multiple of the row, so it has the same solutions.  With a
    zero normal, c > 0 gives the empty marker (0, 1); callers drop the rows
    0 >= c with c <= 0, which hold everywhere (0 >= 0 has no such form).
    """
    w = _integer_direction(tuple(a) + (-c,))
    return w[:-1], -w[-1]


class _on_first_read:
    """A method whose value is computed on the first read and kept on the instance.

    `functools.cached_property` without its cost: a descriptor with no
    __set__, so the value the first read stores on the instance hides it
    from then on and a later read is a plain attribute lookup.  It is
    stored by object.__setattr__, which also passes a frozen dataclass,
    not through `__dict__`: asking CPython for an object's `__dict__`
    builds it, and reads of every attribute of that object then take a
    slower path.  `func` is the method, as on `cached_property`.
    """

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


# ---------------------------------------------------------------------------
# cone engine


def _simplicial_start(rows, dim):
    """(base, rays): the greedy independent rows and the start rays of the double description.

    The rays are the primitive columns of B^-1 for the base matrix B, so
    ray j is zero on every base row but the j-th; rays is None below dim
    rows.  For dim <= 3, `lattice._small_base` gives B's adjugate and
    determinant in closed form, and the rays are the primitive columns of
    sign(det) adj.  From dim = 4 on, `lattice._gauss_jordan` runs with a
    slot per base row: kept row k then reads M_k B = d_k e_c, so the rays
    are the primitive columns of lcm(d) M_k / d_k at c.
    """
    if dim <= 3:
        base, adj, det = _small_base(rows, dim)
        if adj is None:
            return base, None
        if det < 0:
            adj = [tuple(-x for x in col) for col in adj]
        return base, [primitive(col) for col in adj]
    base, kept = _gauss_jordan(rows, dim, dim)
    if len(base) < dim:
        return base, None
    den = lcm(*(b[c] for c, b in kept))
    inv = [[den // b[c] * x for x in b[dim:]] for c, b in sorted(kept)]
    return base, [primitive(col) for col in zip(*inv)]


def _dd_pointed(rows, dim):
    """Extreme rays of the pointed cone {x : rows.x >= 0} (kernel must be 0)."""
    base, rays = _simplicial_start(rows, dim)
    if rays is None:
        raise GeometryError("cone is not pointed")
    return _dd_from_base(rows, dim, base, rays)


def _crossings(pos, neg, masks, dim):
    """(crossing ray, common zero set) of each adjacent pair of a positive and a negative ray.

    pos and neg hold (r, z, a.r) for the rays r off the added row a, z the
    zero set of r over the processed rows as a bitmask (bit i for row i);
    masks holds every ray's.  r+ and r- are adjacent iff z = z+ & z- has
    at least dim - 2 bits and no third ray's zero set contains z (the
    combinatorial test of Fukuda-Prodon).  The crossing ray
    a(r+) r- - a(r-) r+ lies on a.x = 0; it is not made primitive.
    """
    out = []
    for rp, zp, vp in pos:
        for rm, zm, vm in neg:
            z = zp & zm
            # distinct extreme rays have distinct zero sets, so comparing masks
            # by value leaves out exactly r+ and r-
            if z.bit_count() < dim - 2 or any(
                    y & z == z for y in masks if y != zp and y != zm):
                continue
            out.append((tuple(vp * x - vm * y for x, y in zip(rm, rp)), z))
    return out


def _dd_from_base(rows, dim, base, rays):
    """Double description of {x : rows.x >= 0} from `_simplicial_start`.

    Start ray j is zero on every base row but the j-th; `_dd_add_rows`
    adds the other rows.
    """
    full = sum(1 << i for i in base)
    rays, _masks = _dd_add_rows(rows, dim, rays, [full & ~(1 << i) for i in base], set(base))
    return tuple(sorted(rays))


def _dd_add_rows(rows, dim, rays, masks, skip):
    """The double-description row loop: add each row i of rows not in skip.

    rays are the extreme rays of a pointed cone cut out by the rows in
    skip, masks their zero sets over those rows (bit i for row i).
    Adding a row keeps the rays on its nonnegative side and adds each
    crossing ray of `_crossings`, made primitive, with the added row in
    its zero set.  Returns the final (rays, masks), unsorted; a mask is
    the ray's exact zero set over every row, as a crossing ray's is the
    AND of its parents'.  `_dd_from_base` starts it from a simplicial
    base, and `pairs._check_face_intersection` from a fan cone's own
    extreme rays and facets.
    """
    for i, a in enumerate(rows):
        if i in skip:
            continue
        bit = 1 << i
        pos, neg, kept, kept_masks = [], [], [], []
        for r, z in zip(rays, masks):
            v = sum(map(mul, a, r))
            if v < 0:
                neg.append((r, z, v))
                continue
            if v > 0:
                pos.append((r, z, v))
            else:
                z |= bit
            kept.append(r)
            kept_masks.append(z)
        if pos and neg:
            for r, z in _crossings(pos, neg, masks, dim):
                kept.append(primitive(r))
                kept_masks.append(z | bit)
        rays, masks = kept, kept_masks
    return rays, masks


def _zero_set(facets, r):
    """The zero set of r over facets as a bitmask: bit i for each facets[i] vanishing on r."""
    return sum(1 << i for i, d in enumerate(facets) if not sum(map(mul, d, r)))


def _cut_cone(cone, a):
    """One double-description step: a pointed full-dimensional cone cut by a.x = 0.

    Precondition: `cone` stores its extreme rays as generators and its
    facets as dual rays, as `make_cone` does for such a cone, so
    `_crossings` applies to them and their zero sets (`Cone._zero_sets`).
    Returns None when a.x has one sign on every ray: a misses the cone.
    Otherwise returns (halves, crossings): the Cones a.x >= 0 and
    a.x <= 0, field for field what `make_cone` returns for each, and the
    crossing rays as `_crossings` returns them for a as given, whose
    content is the multiplicity `search.subdivide_fan` reports.  A half's
    generators, its extreme rays, are the rays on its side (a.x = 0
    included) and the crossing rays made primitive, sorted; its facets
    are the cone's facets that stay on its side, plus +/-primitive(a).

    Why: let C = {x : d.x >= 0 for its facets d} and H = C cap {a.x >= 0},
    where a takes both signs on the rays of C, so a.x = 0 meets the
    interior of C and H is full-dimensional.  H is cut out by C's facets
    and a, so each facet of H lies in a facet F of C or in a.x = 0.  The
    latter is a facet of H: it meets the interior of C, so primitive(a)
    is H's primitive normal there.  For a facet F of C with normal d,
    H cap {d.x = 0} = F cap {a.x >= 0}.  If an extreme ray of F has
    a.x > 0, then so does a relatively open subset of F, and
    F cap {a.x >= 0} has dimension n - 1: a facet of H.  If not, F is
    generated by its extreme rays (C is pointed), so a.x <= 0 on all of
    F and F cap {a.x >= 0} = F cap {a.x = 0}, which has dimension at
    most n - 2, as F does not lie in a.x = 0 (its normal d would then be
    +/-primitive(a), which has one sign on C).  So facet F stays iff one
    of its extreme rays, an extreme ray of C on F, has a.x > 0: a ray with
    bit F in its zero set.  The same holds for a.x <= 0 with -a.
    """
    masks = cone._zero_sets
    pos, neg, zero = [], [], []
    pos_bits = neg_bits = 0
    for r, z in zip(cone.generators, masks):
        v = sum(map(mul, a, r))
        if v > 0:
            pos.append((r, z, v))
            pos_bits |= z
        elif v < 0:
            neg.append((r, z, v))
            neg_bits |= z
        else:
            zero.append(r)
    if not pos or not neg:
        return None
    crossings = [r for r, _z in _crossings(pos, neg, masks, len(a))]
    cut = zero + [primitive(r) for r in crossings]
    a = primitive(a)
    halves = [Cone(cone.dim, tuple(sorted({r for r, _z, _v in side}.union(cut))),
                   tuple(sorted([d for i, d in enumerate(cone.dual_rays) if bits >> i & 1]
                                + [tuple(sign * x for x in a)])), ())
              for side, bits, sign in ((pos, pos_bits, 1), (neg, neg_bits, -1))]
    return halves, crossings


def cone_from_inequalities(rows, dim):
    """Generator description of {x in R^dim : <a, x> >= 0 for a in rows}.

    Returns (rays, lines): extreme rays of a pointed complement plus an
    integer basis of the lineality space.  Rows of rank dim give a
    pointed cone; only below that is the lineality space computed.
    """
    rows = [tuple(r) for r in rows if not is_zero(r)]
    base, rays = _simplicial_start(rows, dim)
    if rays is not None:
        return _dd_from_base(rows, dim, base, rays), ()
    lines = kernel_basis(tuple(rows), dim)
    sub = sublattice_from_vectors(dim, lines)
    q = quotient_by_span(dim, sub)
    d2 = dim - len(lines)
    reduced = [compose_covector(a, q.section, d2) for a in rows]
    lifted = [primitive(apply_hom(q.section, r)) for r in _dd_pointed(reduced, d2)]
    return tuple(sorted(lifted)), tuple(sorted(tuple(l) for l in lines))


@dataclass(frozen=True)
class Cone:
    """Rational polyhedral cone, generators plus cached dual generators.

    Built by make_cone, so dual_lines is an integer basis of the
    orthogonal complement of the generators' span, and the generators
    are stored when the cone is built.  `cone_from_facets` builds one
    from its facets instead, and converts its generators on their first
    read (`_FacetCone`).
    """

    dim: int
    generators: tuple
    dual_rays: tuple = field(compare=False)
    dual_lines: tuple = field(compare=False)

    @_on_first_read
    def _zero_sets(self):
        """Each generator's zero set over the dual rays: bit m of entry k is
        set when `dual_rays[m]` vanishes on `generators[k]` (`_zero_set`)."""
        return tuple(_zero_set(self.dual_rays, g) for g in self.generators)

    @property
    def normals(self):
        """Rows a with cone = {x : a.x >= 0}: the dual rays, then l and -l per dual line."""
        return self.dual_rays + tuple(s for l in self.dual_lines
                                      for s in (l, tuple(-x for x in l)))

    def contains(self, v):
        _check_length(self.dim, v)
        for d in self.dual_rays:
            if sum(map(mul, d, v)) < 0:
                return False
        for d in self.dual_lines:
            if sum(map(mul, d, v)):
                return False
        return True

    def interior_contains(self, v):
        if not self.is_full_dim():
            raise GeometryError("interior test needs a full-dimensional cone")
        _check_length(self.dim, v)
        for d in self.dual_rays:
            if sum(map(mul, d, v)) <= 0:
                return False
        return True

    def cone_dim(self):
        return self.dim - len(self.dual_lines)

    def is_full_dim(self):
        return self.cone_dim() == self.dim

    def is_pointed(self):
        return rational_rank(self.dual_rays + self.dual_lines, self.dim) == self.dim

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return (self.dim == other.dim
                and all(self.contains(g) for g in other.generators)
                and all(other.contains(g) for g in self.generators))

    def __hash__(self):
        # `==` is set equality, so only what equal cones share may be hashed,
        # not the stored generators
        return hash((self.dim, self.cone_dim()))


def make_cone(dim, generators):
    """Cone spanned by integer generators (deduped, primitive, sorted)."""
    gens = sorted({primitive(tuple(g)) for g in generators if not is_zero(tuple(g))})
    rays, lines = cone_from_inequalities(tuple(gens), dim)
    return Cone(dim, tuple(gens), rays, lines)


def _generators_of(normals, dim):
    """Generators of {x : <a, x> >= 0 for a in normals}: its rays, then each line both ways."""
    rays, lines = cone_from_inequalities(tuple(normals), dim)
    return list(rays) + list(lines) + [tuple(-a for a in l) for l in lines]


class _FacetCone(Cone):
    """A Cone built from its facets, whose generators are converted on their first read.

    The conversion is the one double description of the rows as given.
    """

    def __init__(self, dim, facets):
        # the fields a frozen dataclass's __init__ sets, all but `generators`
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "dual_rays", tuple(sorted(primitive(tuple(a)) for a in facets)))
        object.__setattr__(self, "dual_lines", ())
        object.__setattr__(self, "_facets", tuple(facets))

    @_on_first_read
    def generators(self):
        return tuple(sorted({primitive(g) for g in _generators_of(self._facets, self.dim)}))


def cone_from_facets(dim, facets):
    """Full-dimensional cone {x : <a, x> >= 0 for a in facets}, its generators built on first read.

    Precondition: the cone is full-dimensional and the rows are exactly
    its facet normals, none redundant and no two positive multiples of
    each other.  Its dual cone is then pointed with the rows as extreme
    rays, so `dual_rays` are the rows made primitive and sorted and
    `dual_lines` is (), as `make_cone` would find them, with no
    conversion.  Only the generators take a double description, fed the
    rows as given, and only when they are first read: `contains`,
    `is_pointed` and a cut by `_split` need none, and a cone whose
    generators nothing reads is never converted.
    """
    return _FacetCone(dim, facets)


# ---------------------------------------------------------------------------
# polyhedra


@dataclass(frozen=True)
class Polyhedron:
    """Rational polyhedron conv(points) + cone(rays) = {x : <a,x> >= c}.

    `==` compares stored descriptions: set equality only at full dimension.
    """

    dim: int
    hpoints: tuple  # sorted rows (x, q): int x, int q > 0, (x, q) primitive; the point x / q
    rays: tuple     # tuple of primitive integer tuples (lineality as +/- pairs)
    ineqs: tuple    # sorted rows (a, c) of <a,x> >= c: int a, int c, (a, -c) primitive

    @_on_first_read
    def points(self):
        """The points x / q of hpoints as sorted Fraction tuples."""
        return _fraction_points(self.hpoints)

    @property
    def empty(self):
        return not self.hpoints

    def contains(self, x):
        return self.contains_scaled(1, x)

    def contains_scaled(self, t, v):
        """contains(t * v) for a rational t, in integers when v is integral.

        With t = n / d and d > 0, a.(t v) >= c reads n (a.v) >= c d, so
        no Fraction point is built.
        """
        _check_length(self.dim, v)
        if self.empty:
            return False
        n, d = t.numerator, t.denominator
        for a, c in self.ineqs:
            if n * sum(map(mul, a, v)) < c * d:
                return False
        return True

    def is_compact(self):
        return not self.rays


def _empty(dim):
    """The empty polyhedron, cut out by the single row 0 >= 1."""
    return Polyhedron(dim, (), (), (((0,) * dim, 1),))


def _homogenize_generators(hpoints, rays):
    """The point rows (x, q) as they are, and a row (r, 0) per primitive ray."""
    return list(hpoints) + [tuple(r) + (0,) for r in rays]


def _rows_of(dim, hpoints, rays):
    """Sorted rows (a, c) of conv(hpoints) + cone(rays): its homogenized dual rays and lines."""
    gens = _generators_of(_homogenize_generators(hpoints, rays), dim + 1)
    return tuple(sorted({(g[:dim], -g[dim]) for g in gens if not is_zero(g[:dim])}))


def _generators_from_ineqs(ineqs, dim):
    """(hpoints, rays) of {x : a.x >= c} for integer rows (a, c).

    The point rows are the rays (x, q) with q > 0 of the homogenized cone,
    primitive as the double description returns them; its other rays, and
    its lines both ways (their last entry is 0), give the rays.
    """
    rows = [tuple(a) + (-c,) for a, c in ineqs]
    rows.append((0,) * dim + (1,))
    hpoints, rrays = [], set()
    for r in _generators_of(rows, dim + 1):
        if r[dim] > 0:
            hpoints.append(r)
        else:
            rrays.add(primitive(r[:dim]))
    return tuple(sorted(hpoints)), tuple(sorted(rrays))


def from_generators(dim, points, rays=()):
    """Polyhedron conv(points) + cone(rays); empty when points is empty."""
    return _from_hpoints(dim, [_point_row(p) for p in points], rays)


def _from_hpoints(dim, hpoints, rays):
    """from_generators with each point given as an integer row (x, q), q > 0."""
    rays = [primitive(tuple(r)) for r in rays if not is_zero(tuple(r))]
    if not hpoints:
        return _empty(dim)
    ineqs = _rows_of(dim, hpoints, rays)
    return Polyhedron(dim, *_generators_from_ineqs(ineqs, dim), ineqs)


def _from_vertices(dim, hpoints, rays):
    """`_from_hpoints` for a pointed polyhedron given by its vertices and extreme rays.

    Precondition: the polyhedron is pointed, hpoints are the distinct
    point rows of its vertices, sorted, and rays its distinct primitive
    extreme rays, sorted.  The homogenized cone is then pointed with
    these rows as its extreme rays, which its double description returns
    primitive and sorted, so `_from_hpoints`' second conversion, rows back
    to generators, would return hpoints and rays as given: only the one
    for the rows runs.
    """
    return Polyhedron(dim, tuple(hpoints), tuple(rays), _rows_of(dim, hpoints, rays))


def from_inequalities(dim, ineqs):
    """Polyhedron {x : <a, x> >= c for (a, c) in ineqs}, rational rows allowed."""
    return _from_rows(dim, [_integer_row(a, c) for a, c in ineqs
                            if not (is_zero(a) and c <= 0)])


def _from_rows(dim, rows):
    """from_inequalities for integer rows (a, c), (a, -c) primitive; a zero a means empty."""
    if any(is_zero(a) for a, _ in rows):
        return _empty(dim)
    hpts, rrays = _generators_from_ineqs(rows, dim)
    if not hpts:
        return _empty(dim)
    return Polyhedron(dim, hpts, rrays, _rows_of(dim, hpts, rrays))


def _generators_within(p, q):
    """Every generator of p satisfies q's rows: a.x >= c q at (x, q), a.r >= 0 at a ray r."""
    # map(mul, a, g) stops after the dim entries of a, so it sums a.x
    return all(sum(map(mul, a, g)) >= c * g[-1]
               for g in _homogenize_generators(p.hpoints, p.rays) for a, c in q.ineqs)


def polyhedra_equal(p, q):
    if p.empty or q.empty:
        return p.empty and q.empty
    return _generators_within(p, q) and _generators_within(q, p)


def _rescaled(row, s, t):
    """The primitive row of (s * row[:-1], t * row[-1]) for ints s >= 0, t > 0; (0, 1) at s = 0."""
    return primitive(tuple(s * x for x in row[:-1]) + (t * row[-1],))


def scale_polyhedron(p, t):
    """t * p for t > 0: points and right-hand sides scale, rays stay.

    With t = n / d, the point row (x, q) becomes (n x, d q) and the row
    a.x >= c becomes d a.x >= n c, each made primitive and re-sorted, so
    on a full-dimensional p the result equals from_generators of the
    scaled points and rays.
    """
    t = Fraction(t)
    if t <= 0:
        raise GeometryError("scale factor must be positive")
    if p.empty:
        return p
    n, d = t.numerator, t.denominator
    rows = (_rescaled(a + (-c,), d, n) for a, c in p.ineqs)
    return Polyhedron(p.dim, tuple(sorted(_rescaled(h, n, d) for h in p.hpoints)), p.rays,
                      tuple(sorted((w[:-1], -w[-1]) for w in rows)))


# ---------------------------------------------------------------------------
# support sets and pointwise operations


@dataclass(frozen=True)
class SupportSet:
    """Finite nonempty set A of rational points of M, inducing h_A; `make_support` takes points."""

    rows: tuple  # sorted distinct rows (x, q) of the points x / q, as in `Polyhedron.hpoints`

    def __post_init__(self):
        if not self.rows:
            raise GeometryError("support set must be nonempty")

    @property
    def dim(self):
        return len(self.rows[0]) - 1

    @_on_first_read
    def points(self):
        """The points x / q of rows as Fraction tuples, sorted by value."""
        return _fraction_points(self.rows)


def _exact(a):
    """An int or Fraction as it is; anything else `Fraction()` reads (0.5, "1/2") as a Fraction."""
    return a if isinstance(a, (int, Fraction)) else Fraction(a)


def make_support(points):
    return SupportSet(tuple(sorted({_point_row([_exact(a) for a in p]) for p in points})))


def _support_ratio(rows, e):
    """h_A(e) as a pair (s, q), q > 0, from the rows (x, q) of A (`SupportSet.rows`).

    Each row gives s / q with s = x.e, compared by cross-multiplying.
    """
    first, *rest = rows
    # map(mul, e, h) stops after the dim entries of e, so it sums x.e
    ms, mq = sum(map(mul, e, first)), first[-1]
    for h in rest:
        s, q = sum(map(mul, e, h)), h[-1]
        if s * mq < ms * q:
            ms, mq = s, q
    return ms, mq


def support_sum(a_set, b_set):
    return SupportSet(tuple(sorted({_point_sum(g, h) for g in a_set.rows for h in b_set.rows})))


def support_scale(t, a_set):
    t = _exact(t)
    if t < 0:
        raise GeometryError("support sets scale by nonnegative rationals")
    return SupportSet(tuple(sorted({_rescaled(h, t.numerator, t.denominator) for h in a_set.rows})))


def _polar_raw(p):
    """{y : <v, y> >= -1 for the points v of p, <r, y> >= 0 for its rays}.

    For p containing 0 this is the polar {y : <x, y> >= -1 for all x in p}.
    Its homogenized cone is then the dual of p's, and the dual of its own
    is p's.  When p contains 0 (every row has c <= 0), is
    full-dimensional (no row (a, 0) has (-a, 0) as a row too) and is
    pointed (no ray r has -r as a ray too), both cones are pointed.  The
    double description returns a pointed cone's extreme rays, primitive
    and sorted, and p's stored rows are exactly these rays of the two
    cones, so the polar is read off p with no double description,
    equal field by field to the one `_from_rows` computes:
    - its point rows are a + (-c,) for p's rows with c < 0, plus the
      origin (0, 1) when p's rays have full rank (only then is (0, 1) an
      extreme ray of the dual cone);
    - its rays are the normals a of p's rows with c = 0;
    - its rows are the ones built below from p's points and rays.
    Otherwise `_from_rows` computes it: without 0 in p the homogenized
    cone is not the dual of p's, and a cone with lines has no canonical
    rays to read off.
    """
    # v.y >= -1 at v = x / q is the row (x, -q), already in integer form
    rows = ([(h[:-1], -h[-1]) for h in p.hpoints if not is_zero(h[:-1])]
            + [(r, 0) for r in p.rays])
    if not _reads_off_polar(p):
        return _from_rows(p.dim, rows)
    hpoints = [a + (-c,) for a, c in p.ineqs if c]
    if rational_rank(p.rays, p.dim) == p.dim:
        hpoints.append((0,) * p.dim + (1,))
    return Polyhedron(p.dim, tuple(sorted(hpoints)),
                      tuple(sorted(a for a, c in p.ineqs if not c)), tuple(sorted(rows)))


def _reads_off_polar(p):
    """p contains 0, is full-dimensional and is pointed: `_polar_raw` reads the polar off."""
    if any(c > 0 for _, c in p.ineqs):
        return False
    through_zero = {a for a, c in p.ineqs if not c}
    rays = set(p.rays)
    return (not any(tuple(-x for x in a) in through_zero for a in through_zero)
            and not any(tuple(-x for x in r) in rays for r in rays))


def _gauge_rows(p):
    """Check p once for the gauge and return the rows it reads: (facets, through_zero).

    p must be compact and contain 0, so every row (a, c) of p has c <= 0.
    facets holds (a, -c) for the rows with c < 0, through_zero the normals
    a of the rows with c = 0.  `_gauge_ratio` evaluates any number of
    points against them.
    """
    if not p.is_compact():
        raise GeometryError("gauge needs a compact polyhedron")
    if not p.contains((0,) * p.dim):
        raise GeometryError("gauge needs 0 in the polyhedron")
    return (tuple((a, -c) for a, c in p.ineqs if c),
            tuple(a for a, c in p.ineqs if not c))


def _gauge_ratio(rows, x):
    """The gauge of x as a pair (n, d) with d > 0, or None for +inf.

    rows is `_gauge_rows(p)`.  x lies in t*p iff a.x >= 0 on every row
    through 0 and a.x >= -t*m on every facet (a, m), so the gauge is None
    if some row through 0 has a.x < 0, and otherwise the largest s/m over
    the facets with s = -(a.x), or (0, 1) if no s is positive.  The ratios
    are compared as s*d > n*m from (n, d) = (0, 1), with no Fraction
    built: integers in, integers out, for an integer x.
    """
    facets, through_zero = rows
    for a in through_zero:
        if sum(map(mul, a, x)) < 0:
            return None
    n, d = 0, 1
    for a, m in facets:
        s = -sum(map(mul, a, x))
        if s * d > n * m:
            n, d = s, m
    return n, d


def gauge(p, x):
    """inf{t > 0 : x in t*p} for compact p containing 0; Fraction or None (+inf).

    The check step `_gauge_rows` runs once per call, then the integer
    kernel `_gauge_ratio` evaluates x; a caller with many points to
    evaluate against one p runs the two parts itself.  The kernel does not
    compare lengths, so the dimension of x is checked here.
    """
    rows = _gauge_rows(p)
    _check_length(p.dim, x)
    ratio = _gauge_ratio(rows, x)
    return None if ratio is None else Fraction(*ratio)


def interval_image(phi, p):
    """Exact (min, max) of a functional over p: the Fractions of `_interval_ends`."""
    lo, hi = _interval_ends(phi, p)
    return (None if lo is None else Fraction(*lo),
            None if hi is None else Fraction(*hi))


def _interval_ends(phi, p):
    """(min, max) of a functional over p as pairs (s, q), q > 0; None encodes an infinite end.

    The point row (x, q) gives the value s / q with s = phi.x, compared by
    cross-multiplying.
    """
    if p.empty:
        raise GeometryError("interval over the empty polyhedron")
    if len(phi) != p.dim:
        raise LatticeError("dimension mismatch: %d vs %d" % (len(phi), p.dim))
    first = p.hpoints[0]
    # map(mul, phi, h) stops after the dim entries of phi, so it sums phi.x
    ls = hs = sum(map(mul, phi, first))
    lq = hq = first[-1]
    for h in p.hpoints[1:]:
        s, q = sum(map(mul, phi, h)), h[-1]
        if s * lq < ls * q:
            ls, lq = s, q
        elif s * hq > hs * q:
            hs, hq = s, q
    lo, hi = (ls, lq), (hs, hq)
    for r in p.rays:
        v = dot(phi, r)
        if v > 0:
            hi = None
        elif v < 0:
            lo = None
    return lo, hi


def lattice_points(p):
    """All integer points of a compact polyhedron, in lexicographic order."""
    if p.empty:
        return []
    if not p.is_compact():
        raise GeometryError("lattice enumeration needs a compact polyhedron")
    return list(integer_points(p.dim, p.ineqs))


def _tighten(a, c):
    """(a', c') with a' primitive and a'.x >= c' iff a.x >= c on Z^n, for integer rows.

    The rhs is rounded up after dividing by the content; a zero normal stays.
    """
    g = content(a)
    if g <= 1:
        return a, c
    return tuple(x // g for x in a), -(-c // g)


def _eliminate(rows, k):
    """Project x_k away from integer rows {normal: rhs} in x_0..x_k.

    Returns (lower, upper, projected), or None once a row 0 >= c with
    c > 0 shows the system infeasible.  lower and upper hold
    (x_k coefficient, prefix normal, rhs) of the rows bounding x_k from
    below and from above.  projected maps each primitive normal in
    x_0..x_{k-1} to its tightest rhs over the rows free of x_k and the
    Fourier-Motzkin combinations of a lower with an upper row.
    """
    lower, upper, projected = [], [], {}

    def add(a, c):
        a, c = _tighten(a, c)
        if not any(a):
            return c <= 0
        if projected.get(a, c) <= c:
            projected[a] = c
        return True

    for a, c in rows.items():
        if a[k] > 0:
            lower.append((a[k], a[:k], c))
        elif a[k] < 0:
            upper.append((a[k], a[:k], c))
        elif not add(a[:k], c):
            return None
    for p, a, c in lower:
        for q, b, d in upper:
            # -q * (p x_k + a.x >= c)  +  p * (q x_k + b.x >= d)
            if not add(tuple(p * y - q * x for x, y in zip(a, b)), p * d - q * c):
                return None
    return lower, upper, projected


def integer_points(dim, ineqs):
    """Integer points of {x in R^dim : a.x >= c for (a, c) in ineqs}.

    Project and lift.  Fourier-Motzkin elimination of x_{dim-1}, ...,
    x_0 computes the systems S_dim ... S_0 once; every row, given or
    combined, is scaled to a primitive integer normal a' and its rhs
    rounded up (`_tighten`), which is exact on integer points.  A given
    row with a Fraction entry is first made integer (`_integer_row`); an
    integer row, a tuple of ints with an int rhs, goes to `_tighten` as
    it is.  The points are then lifted one coordinate at a time: x_k runs
    between the integer ceil and floor bounds that the rows of S_{k+1}
    give over x_0..x_{k-1}.  Each row of S_k holds on every integer point
    of the system, and each input row bounds some coordinate, so exactly
    the integer points come out, as int tuples in lexicographic order.

    The elimination runs before this returns; it raises GeometryError
    for an unbounded system that it does not show to be empty.
    """
    rows = {}
    for a, c in ineqs:
        if len(a) != dim:
            raise GeometryError("inequality has the wrong dimension")
        if is_zero(a) and c <= 0:
            continue
        # _tighten alone on an integer row: gcd(a, c) divides content(a), so
        # _integer_row first would round to the same rhs
        if type(c) is int and type(a) is tuple and _as_integers(a) is a:
            a, c = _tighten(a, c)
        else:
            a, c = _tighten(*_integer_row(a, c))
        if rows.get(a, c) <= c:
            rows[a] = c
    levels = [None] * dim
    for k in range(dim - 1, -1, -1):
        step = _eliminate(rows, k)
        if step is None:
            return iter(())
        levels[k] = step[:2]
        rows = step[2]
    if any(c > 0 for c in rows.values()):
        return iter(())
    if not all(lower and upper for lower, upper in levels):
        raise GeometryError("lattice enumeration needs a bounded system")
    return _lift(levels)


def _lift(levels):
    """Depth first through levels[k] = (lower, upper) bounds of x_k, in lex order."""
    last = len(levels) - 1
    if last < 0:
        return iter(((),))

    def walk(x):
        lower, upper = levels[len(x)]
        lo = max(-((sum(map(mul, a, x)) - c) // p) for p, a, c in lower)
        hi = min((c - sum(map(mul, a, x))) // q for q, a, c in upper)
        if len(x) == last:
            for v in range(lo, hi + 1):
                yield x + (v,)
        else:
            for v in range(lo, hi + 1):
                yield from walk(x + (v,))

    return walk(())
