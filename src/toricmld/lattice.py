"""Exact integer and rational linear algebra for lattice computations.

Vectors are tuples of ints (or Fractions), matrices are tuples of row
tuples.  A lattice homomorphism N -> N' is a matrix with rows indexed by
the target and columns by the source, applied to column vectors via
``apply_hom``.  Covectors (elements of the dual lattice M) are plain
tuples paired against vectors with ``dot``.

Empty matrices lose their column count, so the functions that can meet
them take an explicit ``ncols`` argument.

Elimination over Q picks the greedy independent rows of integer rows in
one of two ways, chosen by the number n of columns.  For n <= 3, where
nearly every call of the pipeline falls (germs of rank <= 3),
``_small_base`` finds them by 2x2 minors, cross products and
determinants, and returns the base's adjugate and determinant.  From
n = 4 on, one fraction-free Gauss-Jordan elimination, ``_gauss_jordan``,
runs.  ``rational_rank``, ``_solve_row`` (square systems only on the
closed form; singular and non-square ones always eliminate) and the
start of the double description in ``polyhedra`` all take this choice.
``_solve_row`` is the one exact solver (Cartier data, descent along pi,
sublattice coordinates): integer rows and pairs in, a point row (x, q)
out, no Fraction; ``solve_rational`` is its Fraction view.
``hom_is_surjective`` takes each maximal minor of a map with n <= 3
columns (at most three) as the determinant ``_small_base`` returns.

The leaf kernels, called about 10^4 times per pass of the certify
benchmark, run in C-level builtins with no generator frame per entry:
``is_zero`` is ``not any``, ``primitive`` and ``_cancel`` take one
``gcd`` (``primitive`` returns the vector as a tuple when the gcd is 1), and
``_as_integers`` scans for a non-int in an early-exit loop.  Their
contract is ints in: ``_as_integers`` is where a Fraction row becomes an
integer one, and ``gcd`` refuses Fractions in the others.  A kernel that
compares lengths (``dot``, the membership tests in ``polyhedra``) does
so once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul


class LatticeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# vector / matrix helpers


def dot(u, v):
    if len(u) != len(v):
        raise LatticeError("dimension mismatch: %d vs %d" % (len(u), len(v)))
    return sum(map(mul, u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def is_zero(v):
    return not any(v)


def identity(n):
    """The n x n identity matrix; row i is a slice of one tuple with its 1 at n - 1."""
    line = (0,) * (n - 1) + (1,) + (0,) * (n - 1)
    return tuple(line[n - 1 - i:2 * n - 1 - i] for i in range(n))


def apply_hom(mat, v):
    """mat applied to the column vector v (rows = target coordinates)."""
    return tuple(dot(row, v) for row in mat)


def compose_covector(f, mat, ncols):
    """The covector f . mat, i.e. the pullback of f along mat."""
    if len(f) != len(mat):
        raise LatticeError("covector/hom mismatch")
    return tuple(sum(f[i] * mat[i][j] for i in range(len(mat))) for j in range(ncols))


def transpose(mat, ncols=None):
    if not mat:
        if ncols is None:
            raise LatticeError("transpose of empty matrix needs ncols")
        return tuple(() for _ in range(ncols))
    return tuple(tuple(row[j] for row in mat) for j in range(len(mat[0])))


def content(v):
    """gcd of the entries (0 for the zero or empty vector)."""
    return gcd(*v)


def primitive(v):
    """v divided by the gcd of its coordinates.  v must be nonzero."""
    g = gcd(*v)
    if g == 1:
        return tuple(v)
    if g == 0:
        raise LatticeError("primitive() of the zero vector")
    return tuple(a // g for a in v)


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms


def hnf(m, ncols=None):
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U.m = H; pivots are positive,
    entries above a pivot are reduced modulo it, zero rows sit at the
    bottom.
    """
    rows = [list(r) for r in m]
    nr = len(rows)
    nc = len(rows[0]) if nr else (ncols or 0)
    U = [list(r) for r in identity(nr)]

    def row_op(i, j, q):
        rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    r = 0
    for c in range(nc):
        while True:
            nz = [i for i in range(r, nr) if rows[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(rows[i][c]), i))
            if i0 != r:
                rows[r], rows[i0] = rows[i0], rows[r]
                U[r], U[i0] = U[i0], U[r]
            done = True
            for i in range(r + 1, nr):
                if rows[i][c] != 0:
                    row_op(i, r, rows[i][c] // rows[r][c])
                    if rows[i][c] != 0:
                        done = False
            if done:
                break
        if r < nr and rows[r][c] != 0:
            if rows[r][c] < 0:
                rows[r] = [-a for a in rows[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                q = rows[i][c] // rows[r][c]
                if q:
                    row_op(i, r, q)
            r += 1
            if r == nr:
                break
    return tuple(tuple(x) for x in rows), tuple(tuple(x) for x in U)


def snf(m, nrows=None, ncols=None):
    """Smith normal form with transforms.

    Returns (D, U, V, Uinv, Vinv) with U.m.V = D, D diagonal with
    nonnegative entries d1 | d2 | ..., and U, V unimodular.
    """
    nr = len(m) if nrows is None else nrows
    nc = (len(m[0]) if m else ncols) if ncols is None else ncols
    if nc is None:
        raise LatticeError("snf of empty matrix needs ncols")
    D = [list(r) for r in m]
    U = [list(r) for r in identity(nr)]
    Ui = [list(r) for r in identity(nr)]
    V = [list(r) for r in identity(nc)]
    Vi = [list(r) for r in identity(nc)]

    def row_op(i, j, q):  # row i -= q * row j
        D[i] = [a - q * b for a, b in zip(D[i], D[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]
        for row in Ui:  # col j += q * col i on the inverse
            row[j] += q * row[i]

    def col_op(i, j, q):  # col i -= q * col j
        for row in D:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]
        Vi[j] = [a + q * b for a, b in zip(Vi[j], Vi[i])]

    def row_swap(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]
        for row in Ui:
            row[i], row[j] = row[j], row[i]

    def col_swap(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def row_neg(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]
        for row in Ui:
            row[i] = -row[i]

    k = 0
    while k < min(nr, nc):
        while True:
            ent = [(abs(D[i][j]), i, j) for i in range(k, nr)
                   for j in range(k, nc) if D[i][j] != 0]
            if not ent:
                return tuple(tuple(map(tuple, m)) for m in (D, U, V, Ui, Vi))
            _, i, j = min(ent)
            if i != k:
                row_swap(i, k)
            if j != k:
                col_swap(j, k)
            clean = True
            for i in range(k + 1, nr):
                if D[i][k] != 0:
                    row_op(i, k, D[i][k] // D[k][k])
                    if D[i][k] != 0:
                        clean = False
            for j in range(k + 1, nc):
                if D[k][j] != 0:
                    col_op(j, k, D[k][j] // D[k][k])
                    if D[k][j] != 0:
                        clean = False
            if not clean:
                continue
            # enforce the divisibility chain
            bad = next((i for i in range(k + 1, nr) for j in range(k + 1, nc)
                        if D[i][j] % D[k][k]), None)
            if bad is None:
                break
            row_op(k, bad, -1)
        if D[k][k] < 0:
            row_neg(k)
        k += 1
    return tuple(tuple(map(tuple, m)) for m in (D, U, V, Ui, Vi))


def hom_is_surjective(mat, ncols):
    """True iff the map Z^ncols -> Z^nrows given by mat is onto.

    With nrows <= ncols the map is onto iff its invariant factors are all
    1, i.e. iff the gcd of its nrows x nrows minors, their product, is 1.
    Up to 3 columns (at most three minors) each minor is the determinant
    `_small_base` returns for its columns, stopping at the first gcd of 1;
    from 4 columns on one SNF, not C(ncols, nrows) minors, gives the
    invariant factors.  More rows than columns are never onto.
    """
    nr = len(mat)
    if nr == 0:
        return True
    if nr > ncols:
        return False
    if ncols <= 3:
        return _minors_gcd_is_one(
            _small_base(cols, nr)[2] for cols in combinations(zip(*mat), nr))
    D, *_ = snf(mat, nr, ncols)
    return all(D[i][i] == 1 for i in range(nr))


def _minors_gcd_is_one(minors):
    """gcd(minors) == 1, stopping at the first running gcd of 1."""
    g = 0
    for m in minors:
        g = gcd(g, m)
        if g == 1:
            return True
    return False


def kernel_basis(mat, ncols):
    """Saturated basis (list of vectors) of {v : mat.v = 0}."""
    nr = len(mat)
    if nr == 0:
        return [tuple(r) for r in identity(ncols)]
    D, _U, V, _Ui, _Vi = snf(mat, nr, ncols)
    rank = sum(1 for i in range(min(nr, ncols)) if D[i][i] != 0)
    return [tuple(V[i][j] for i in range(ncols)) for j in range(rank, ncols)]


def _cancel(r, b, c):
    """b[c] r - r[c] b, which is 0 at column c, divided by its content."""
    p, q = b[c], r[c]
    r = [p * x - q * y for x, y in zip(r, b)]
    g = gcd(*r)
    return [x // g for x in r] if g > 1 else r


def _gauss_jordan(rows, ncols, slots=0):
    """(base, kept): fraction-free Gauss-Jordan elimination of integer rows.

    Each row in order is reduced by the rows kept so far (`_cancel` at
    each pivot), dropped if 0 in the first ncols columns, else kept with
    its first nonzero column there as pivot, cleared from the kept rows;
    it stops at ncols kept rows.  base indexes the kept rows (the greedy
    independent subset); kept holds (pivot, row) pairs, the reduced
    echelon form up to row order and nonzero multiples.  slots > 0 appends
    slots columns holding the unit vector of each row's slot in base.
    """
    base, kept = [], []
    for i, r in enumerate(rows):
        if slots:
            r = list(r) + [0] * slots
            r[ncols + len(base)] = 1
        for c, b in kept:
            if r[c]:
                r = _cancel(r, b, c)
        for piv in range(ncols):
            if r[piv]:
                break
        else:
            continue
        kept = [(c, _cancel(b, r, piv) if b[piv] else b) for c, b in kept]
        kept.append((piv, r))
        base.append(i)
        if len(base) == ncols:
            break
    return base, kept


def _as_integers(r):
    """An int row as it is; a row with a Fraction entry times the lcm of its denominators."""
    for x in r:
        if not isinstance(x, int):
            break
    else:
        return r
    den = lcm(*(x.denominator for x in r))
    return [x.numerator * (den // x.denominator) for x in r]


def _small_base(rows, n):
    """(base, adj, det) for n <= 3: the base `_gauss_jordan` keeps, in closed form.

    base indexes the greedy independent rows over the first n columns:
    the first nonzero row, then the first whose 2x2 minor (n = 2) or cross
    product (n = 3) with it is nonzero, then the first whose determinant
    with those two is nonzero.  Once n rows are kept, adj lists the
    columns of their adjugate, column j zero on every base row but the
    j-th, where it is det != 0; below n rows adj is None and det 0.
    """
    if n == 0:
        return [], (), 1
    it = enumerate(rows)
    if n == 1:
        for i, a in it:
            if a[0]:
                return [i], ((1,),), a[0]
        return [], None, 0
    if n == 2:
        for i, a in it:
            a0, a1 = a[0], a[1]
            if a0 or a1:
                for j, b in it:
                    b0, b1 = b[0], b[1]
                    d = a0 * b1 - a1 * b0
                    if d:
                        return [i, j], ((b1, -b0), (-a1, a0)), d
                return [i], None, 0
        return [], None, 0
    for i, a in it:
        a0, a1, a2 = a[0], a[1], a[2]
        if a0 or a1 or a2:
            for j, b in it:
                b0, b1, b2 = b[0], b[1], b[2]
                w = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
                if any(w):
                    for k, c in it:
                        c0, c1, c2 = c[0], c[1], c[2]
                        d = c0 * w[0] + c1 * w[1] + c2 * w[2]
                        if d:
                            return [i, j, k], (
                                (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0),
                                (c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0),
                                w), d
                    return [i, j], None, 0
            return [i], None, 0
    return [], None, 0


def rational_rank(rows, ncols):
    """Rank over Q of int or Fraction rows, scaled to integers by `_as_integers`.

    The number of rows in the base: `_small_base` for ncols <= 3, the
    rows `_gauss_jordan` keeps from ncols = 4 on.
    """
    rows = map(_as_integers, rows)
    if ncols <= 3:
        return len(_small_base(rows, ncols)[0])
    return len(_gauss_jordan(rows, ncols)[0])


def _solve_row(rows, rhs, ncols):
    """The point row (x, q) of one solution x / q of rows.x = rhs, or None if inconsistent.

    rows are integer rows, rhs integer pairs (n, d), d > 0; free variables
    are 0, so the result is deterministic, and (x, q) is primitive, q > 0.
    A square system of ncols <= 3 unknowns with a full `_small_base` has
    the one solution adj.(den rhs) / (det den), den the lcm of the d's.
    Any other system runs `_gauss_jordan` on the rows (d a | n) over
    ncols + 1 columns: a pivot in the rhs column means 0 = nonzero, else
    each kept row with pivot c reads p x[c] + (free variables) = m, so
    x[c] = m / p and q is the lcm of the pivots p.  No Fraction is built.
    """
    if ncols <= 3 and len(rows) == ncols:
        _base, adj, det = _small_base(rows, ncols)
        if adj is not None:
            den = lcm(*(d for _n, d in rhs))
            b = [n * (den // d) for n, d in rhs]
            x = [sum(col[k] * v for col, v in zip(adj, b)) for k in range(ncols)] + [det * den]
            return primitive(x if det > 0 else [-v for v in x])
    _base, kept = _gauss_jordan([[d * a for a in r] + [n] for r, (n, d) in zip(rows, rhs)],
                                ncols + 1)
    if any(c == ncols for c, _r in kept):
        return None
    q = lcm(*(r[c] for c, r in kept))
    x = [0] * ncols + [q]
    for c, r in kept:
        x[c] = r[ncols] * (q // r[c])
    return primitive(x)


def solve_rational(rows, rhs, ncols):
    """Fraction view of `_solve_row`: x with rows.x = rhs, or None if inconsistent.

    Each row of [rows | rhs] is scaled to integers (`_as_integers`).
    """
    aug = [_as_integers(tuple(r) + (b,)) for r, b in zip(rows, rhs)]
    row = _solve_row([r[:ncols] for r in aug], [(r[ncols], 1) for r in aug], ncols)
    return None if row is None else tuple(Fraction(x, row[-1]) for x in row[:-1])


# ---------------------------------------------------------------------------
# sublattices, quotients, hom extension


@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^ambient_rank given by an HNF basis (rows)."""

    ambient_rank: int
    basis: tuple

    @property
    def rank(self):
        return len(self.basis)

    def coordinates(self, v):
        """Integer coordinates of v in the basis, or None: the point row of `_solve_row`."""
        row = _solve_row(transpose(self.basis, self.ambient_rank), [(x, 1) for x in v], self.rank)
        return row[:-1] if row is not None and row[-1] == 1 else None


def sublattice_from_vectors(rank, vectors):
    """The sublattice generated by the vectors (canonical HNF basis)."""
    if not vectors:
        return Sublattice(rank, ())
    H, _ = hnf(tuple(tuple(v) for v in vectors), rank)
    basis = tuple(r for r in H if not is_zero(r))
    return Sublattice(rank, basis)


def saturated_span(rank, vectors):
    """The saturation of the span of the vectors: span_R(vectors) cap Z^rank.

    One SNF U.M.V = D of the rows M: M = Ui.D.Vi, so the rows of M span
    the rows d_i * Vi[i] with d_i != 0, and Vi[0..r-1] (r nonzero d_i), a
    direct summand because Vi is unimodular, is the saturation; its HNF
    is canonical.
    """
    vectors = tuple(tuple(v) for v in vectors)
    if not vectors:
        return Sublattice(rank, ())
    D, _U, _V, _Ui, Vi = snf(vectors, len(vectors), rank)
    r = sum(1 for i in range(min(len(vectors), rank)) if D[i][i] != 0)
    return sublattice_from_vectors(rank, Vi[:r])


def kernel_sublattice(phi):
    """Saturated kernel of a surjective functional phi: Z^n -> Z.

    phi is a covector; it must be primitive ("not primitive" otherwise).
    """
    n = len(phi)
    if content(phi) != 1:
        raise LatticeError("not primitive")
    return sublattice_from_vectors(n, kernel_basis((tuple(phi),), n))


@dataclass(frozen=True)
class QuotientPresentation:
    projection: tuple  # (n-r) x n integer matrix
    section: tuple     # n x (n-r) integer matrix, right inverse


def _saturated_snf(sub, n):
    """(U, V, Uinv) of the SNF of the matrix with columns sub.basis; raises unless saturated."""
    D, U, V, Ui, _Vi = snf(transpose(sub.basis), n, sub.rank)
    if any(D[i][i] != 1 for i in range(sub.rank)):
        raise LatticeError("sublattice not saturated")
    return U, V, Ui


def quotient_by_span(rank, sub):
    """Quotient of Z^rank by a saturated sublattice, with a splitting."""
    r = sub.rank
    if r == 0:
        return QuotientPresentation(identity(rank), identity(rank))
    U, _V, Ui = _saturated_snf(sub, rank)
    projection = tuple(U[i] for i in range(r, rank))
    section = tuple(tuple(Ui[i][j] for j in range(r, rank)) for i in range(rank))
    return QuotientPresentation(projection, section)


def extend_hom(sub, values):
    """Extend a functional on a saturated sublattice to all of Z^n.

    values are taken on the rows of sub.basis; the extension is pinned
    deterministically by zeroing the complement coordinates in the
    SNF-completed basis.
    """
    n = sub.ambient_rank
    r = sub.rank
    if r == 0:
        return (0,) * n
    if len(values) != r:
        raise LatticeError("value count does not match the basis")
    U, V, _Ui = _saturated_snf(sub, n)
    vv = tuple(sum(values[i] * V[i][j] for i in range(r)) for j in range(r))
    g = vv + (0,) * (n - r)
    f = tuple(sum(g[i] * U[i][j] for i in range(n)) for j in range(n))
    for row, val in zip(sub.basis, values):
        if dot(f, row) != val:
            raise LatticeError("extension takes %s instead of %s on the basis "
                               "vector %r" % (dot(f, row), val, row))
    return f
