import random
from fractions import Fraction as F

import pytest

import toricmld.lattice
from conftest import ACCEPTANCE_SEEDS
from toricmld.lattice import (
    LatticeError,
    Sublattice,
    content,
    dot,
    extend_hom,
    hnf,
    hom_is_surjective,
    identity,
    kernel_basis,
    kernel_sublattice,
    primitive,
    quotient_by_span,
    saturated_span,
    snf,
    solve_rational,
    sublattice_from_vectors,
)


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def det(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(n))


def test_dot_and_content():
    assert dot((2, -3, 5), (4, 1, -1)) == 0 and dot((), ()) == 0
    assert dot((F(1, 2), 3), (F(2, 3), F(-1, 9))) == 0
    with pytest.raises(LatticeError, match="dimension mismatch: 2 vs 3"):
        dot((1, 2), (1, 2, 3))
    assert content((6, -4, 0)) == 2 and content((-7,)) == 7
    assert content((0, 0)) == 0 and content(()) == 0


def rand_matrix(rng, nr, nc, lim=9):
    return tuple(tuple(rng.randint(-lim, lim) for _ in range(nc)) for _ in range(nr))


def test_hnf_identity():
    H, U = hnf(identity(3))
    assert H == identity(3) and U == identity(3)


def test_hnf_zero():
    z = ((0, 0), (0, 0))
    H, U = hnf(z)
    assert H == z and U == identity(2)


def test_hnf_gcd_pivot():
    H, U = hnf(((2, 4), (1, 3)))
    assert H[0][0] == 1
    assert mat_mul(U, ((2, 4), (1, 3))) == H
    assert abs(det([list(r) for r in U])) == 1


def test_hnf_random_properties():
    rng = random.Random(7)
    for _ in range(60):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_matrix(rng, nr, nc)
        H, U = hnf(m)
        assert mat_mul(U, m) == H
        assert abs(det([list(r) for r in U])) == 1
        H2, U2 = hnf(H)
        assert H2 == H  # idempotent on its own output
        # echelon shape: pivot columns strictly increase, pivots positive
        last = -1
        for row in H:
            nz = [j for j, x in enumerate(row) if x != 0]
            if not nz:
                continue
            assert nz[0] > last and row[nz[0]] > 0
            last = nz[0]


def test_snf_random_properties():
    rng = random.Random(11)
    for _ in range(60):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_matrix(rng, nr, nc)
        D, U, V, Ui, Vi = snf(m)
        assert mat_mul(mat_mul(U, m), V) == D
        assert mat_mul(U, Ui) == identity(nr)
        assert mat_mul(V, Vi) == identity(nc)
        diag = [D[i][i] for i in range(min(nr, nc))]
        for i in range(len(diag) - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        for i in range(nr):
            for j in range(nc):
                if i != j:
                    assert D[i][j] == 0


def test_kernel_sublattice_examples():
    assert kernel_sublattice((1, -1)).basis == ((1, 1),)
    assert kernel_sublattice((1, 0, 0)).basis == ((0, 1, 0), (0, 0, 1))
    with pytest.raises(LatticeError, match="not primitive"):
        kernel_sublattice((2, 0))


def test_kernel_then_quotient_reproduces_functional():
    # the quotient projection is the kernel's functional up to a sign
    for phi in [(1, -1), (2, 3), (1, 0, 2), (3, -5, 7)]:
        sub = kernel_sublattice(phi)
        q = quotient_by_span(len(phi), sub)
        assert len(q.projection) == 1
        proj = q.projection[0]
        assert proj == phi or proj == tuple(-x for x in phi)


def test_quotient_by_span_examples():
    sub = sublattice_from_vectors(2, [(1, 1)])
    q = quotient_by_span(2, sub)
    assert q.projection[0] in ((1, -1), (-1, 1))
    assert mat_mul(q.projection, q.section) == identity(1)
    assert all(dot(q.projection[0], b) == 0 for b in sub.basis)

    q0 = quotient_by_span(3, sublattice_from_vectors(3, []))
    assert q0.projection == identity(3)

    qfull = quotient_by_span(2, sublattice_from_vectors(2, [(1, 0), (0, 1)]))
    assert qfull.projection == ()

    with pytest.raises(LatticeError, match="saturated"):
        quotient_by_span(2, sublattice_from_vectors(2, [(2, 0)]))


def test_quotient_random_properties():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        r = rng.randint(0, n)
        vecs = [rand_matrix(rng, 1, n, 4)[0] for _ in range(r)]
        sub = saturated_span(n, vecs)
        q = quotient_by_span(n, sub)
        k = n - sub.rank
        assert mat_mul(q.projection, q.section) == identity(k)
        for b in sub.basis:
            assert all(dot(row, b) == 0 for row in q.projection)
        assert hom_is_surjective(q.projection, n)


def test_primitive():
    assert primitive((6, -6, 3)) == (2, -2, 1)
    assert primitive((1, 0)) == (1, 0)
    with pytest.raises(LatticeError):
        primitive((0, 0))
    rng = random.Random(5)
    for _ in range(40):
        v = rand_matrix(rng, 1, rng.randint(1, 4), 6)[0]
        if all(x == 0 for x in v):
            continue
        for k in (1, 2, 5):
            assert primitive(tuple(k * x for x in v)) == primitive(v)


def test_extend_hom_examples():
    sub = sublattice_from_vectors(2, [(1, 1)])
    f = extend_hom(sub, (1,))
    assert dot(f, (1, 1)) == 1
    assert f == extend_hom(sub, (1,))  # deterministic

    whole = sublattice_from_vectors(2, [(1, 0), (0, 1)])
    g = extend_hom(whole, (3, -2))
    assert dot(g, whole.basis[0]) == 3 and dot(g, whole.basis[1]) == -2

    z = extend_hom(sub, (0,))
    assert dot(z, (1, 1)) == 0


def test_extend_hom_rejects_unsaturated():
    with pytest.raises(LatticeError, match="saturated"):
        extend_hom(sublattice_from_vectors(2, [(2, 0)]), (1,))


def test_quotient_and_extension_take_one_snf(monkeypatch):
    """The SNF that splits the sublattice is also its saturation test."""
    import toricmld.lattice

    calls = []
    real_snf = toricmld.lattice.snf

    def counted(*args):
        calls.append(args)
        return real_snf(*args)

    monkeypatch.setattr(toricmld.lattice, "snf", counted)
    sub = sublattice_from_vectors(3, [(1, 1, 0), (0, 1, 1)])
    for run in (lambda s: quotient_by_span(3, s), lambda s: extend_hom(s, (1, 2))):
        calls.clear()
        run(sub)
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(LatticeError, match="sublattice not saturated"):
            run(sublattice_from_vectors(3, [(2, 0, 0), (0, 1, 1)]))
        assert len(calls) == 1


def test_extend_hom_postcondition_raises(monkeypatch):
    """A wrong extension is a LatticeError, not an assert that -O removes."""
    import toricmld.lattice

    real_snf = toricmld.lattice.snf

    def negated_v(*args):
        D, U, V, Ui, Vi = real_snf(*args)
        return D, U, tuple(tuple(-x for x in row) for row in V), Ui, Vi

    sub = sublattice_from_vectors(2, [(1, 1)])
    monkeypatch.setattr(toricmld.lattice, "snf", negated_v)
    with pytest.raises(LatticeError, match="extension takes -1 instead of 1"):
        extend_hom(sub, (1,))


def test_extend_hom_random_restriction():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 4)
        r = rng.randint(0, n)
        sub = saturated_span(n, [rand_matrix(rng, 1, n, 4)[0] for _ in range(r)])
        vals = tuple(rng.randint(-5, 5) for _ in range(sub.rank))
        f = extend_hom(sub, vals)
        for b, v in zip(sub.basis, vals):
            assert dot(f, b) == v


def test_membership_and_coordinates():
    sub = sublattice_from_vectors(3, [(1, 1, 0), (0, 2, 2)])
    assert sub.coordinates((0, 1, 1)) is None
    c = sub.coordinates((1, 3, 2))
    assert mat_mul((c,), sub.basis) == ((1, 3, 2),)


def test_solve_rational():
    assert solve_rational(((1, 1), (1, -1)), (2, 0), 2) == (F(1), F(1))
    assert solve_rational(((1, 1), (2, 2)), (1, 3), 2) is None
    assert solve_rational(((2, 0), (0, 0)), (1, 0), 2) == (F(1, 2), F(0))


def reference_solve_rational(rows, rhs, ncols):
    """Gauss-Jordan elimination over Q, each pivot row normalized to 1."""
    aug = [list(map(F, r)) + [F(b)] for r, b in zip(rows, rhs)]
    pivots = []
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        prow = aug[rank]
        inv = 1 / prow[c]
        aug[rank] = [a * inv for a in prow]
        for i in range(len(aug)):
            if i != rank and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        pivots.append(c)
        rank += 1
    for i in range(rank, len(aug)):
        if aug[i][ncols] != 0:
            return None
    x = [F(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = aug[i][ncols]
    return tuple(x)


def _random_system(rng, kind):
    """Seeded systems rows.x = rhs of the given kind, with int or Fraction entries."""
    nr, nc = rng.randint(1, 4), rng.randint(1, 4)

    def entry():
        x = rng.randint(-4, 4)
        return F(x, rng.randint(1, 5)) if kind == "fraction" else x

    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    if kind in ("rank-deficient", "inconsistent"):
        # one row a combination of the others, so the rank is below the row count
        i = rng.randrange(nr)
        rows.append([rng.randint(-2, 2) * x for x in rows[i]])
        rows.append([x + y for x, y in zip(rows[i], rows[-1])])
    x0 = [entry() for _ in range(nc)]
    rhs = [sum(a * b for a, b in zip(r, x0)) for r in rows]
    if kind == "inconsistent":
        rhs[-1] += F(1, rng.randint(1, 3))
    order = list(range(len(rows)))
    rng.shuffle(order)
    return [tuple(rows[i]) for i in order], [rhs[i] for i in order], nc


def _square_system(rng):
    """A seeded system of 1-3 equations in as many unknowns: int entries up to
    10^12 or Fractions, singular about half the time, with a rhs off the
    row space now and then."""
    nc = rng.randint(1, 3)
    lim = rng.choice((4, 10 ** 12))
    fraction = rng.random() < 0.3

    def entry():
        x = rng.randint(-lim, lim)
        return F(x, rng.randint(1, 5)) if fraction else x

    rows = [[entry() for _ in range(nc)] for _ in range(nc)]
    if rng.random() < 0.5:
        # one row a combination of the others (0 when nc = 1)
        rows[-1] = [sum(rng.randint(-2, 2) * r[k] for r in rows[:-1]) for k in range(nc)]
    x0 = [entry() for _ in range(nc)]
    rhs = [sum(a * b for a, b in zip(r, x0)) for r in rows]
    if rng.random() < 0.3:
        rhs[-1] += 1
    order = list(range(nc))
    rng.shuffle(order)
    return [tuple(rows[i]) for i in order], [rhs[i] for i in order], nc


@pytest.mark.parametrize("kind", ["consistent", "inconsistent", "rank-deficient", "fraction",
                                  "square"])
def test_solve_rational_matches_the_fraction_elimination(kind, monkeypatch):
    """A square system of at most 3 unknowns is solved in closed form when it
    is nonsingular and by `_gauss_jordan` when it is singular."""
    eliminations = [0]
    real = toricmld.lattice._gauss_jordan

    def counted(*args):
        eliminations[0] += 1
        return real(*args)

    monkeypatch.setattr(toricmld.lattice, "_gauss_jordan", counted)
    rng = random.Random(83)
    outcomes, paths = set(), set()
    for _ in range(150):
        rows, rhs, nc = _square_system(rng) if kind == "square" else _random_system(rng, kind)
        eliminations[0] = 0
        got = solve_rational(rows, rhs, nc)
        assert got == reference_solve_rational(rows, rhs, nc), (rows, rhs)
        if kind == "square":
            assert eliminations[0] == (det(rows) == 0), (rows, rhs)
            paths.add(eliminations[0])
        if got is None:
            outcomes.add("none")
            continue
        assert all(type(x) is F for x in got)
        assert all(sum(a * b for a, b in zip(r, got)) == b for r, b in zip(rows, rhs))
        outcomes.add("solved")
    if kind == "square":
        assert outcomes == {"none", "solved"} and paths == {0, 1}
    else:
        assert outcomes == ({"none"} if kind == "inconsistent" else {"solved"})


@pytest.mark.parametrize("where", ["last", "second"])
def test_solve_rational_finds_an_inconsistent_row_among_more_than_ncols_plus_one(where):
    """Systems of ncols + 2 to ncols + 6 rows, one of them a multiple of another
    row with its rhs off by 1, placed last or second.  The elimination of
    [rows | rhs] stops at ncols + 1 kept rows: a last such row is reached
    only after every other row, a second one is seen before the stop."""
    rng = random.Random(89)
    for _ in range(200):
        nc = rng.randint(1, 4)
        basis = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(rng.randint(1, nc))]
        rows = [[sum(rng.randint(-2, 2) * b[k] for b in basis) for k in range(nc)]
                for _ in range(nc + rng.randint(1, 5))]
        x0 = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(nc)]
        rhs = [sum(a * b for a, b in zip(r, x0)) for r in rows]
        i, m = rng.randrange(len(rows)), rng.choice((1, -2, 3))
        at = len(rows) if where == "last" else 1
        rows.insert(at, [m * x for x in rows[i]])
        rhs.insert(at, m * rhs[i] + 1)
        rows = [tuple(r) for r in rows]
        assert len(rows) > nc + 1
        assert reference_solve_rational(rows, rhs, nc) is None, (rows, rhs)
        assert solve_rational(rows, rhs, nc) is None, (rows, rhs)
        # without the bad row the same system is solved, as over Q
        rows, rhs = rows[:at] + rows[at + 1:], rhs[:at] + rhs[at + 1:]
        got = solve_rational(rows, rhs, nc)
        assert got == reference_solve_rational(rows, rhs, nc), (rows, rhs)
        assert all(sum(a * b for a, b in zip(r, got)) == b for r, b in zip(rows, rhs))


def test_kernel_basis_saturated():
    rng = random.Random(17)
    for _ in range(30):
        nr, nc = rng.randint(1, 3), rng.randint(1, 4)
        m = rand_matrix(rng, nr, nc, 5)
        ker = kernel_basis(m, nc)
        for v in ker:
            assert all(dot(row, v) == 0 for row in m)
        sub = sublattice_from_vectors(nc, ker)
        # quotient_by_span raises "sublattice not saturated" otherwise
        q = quotient_by_span(nc, sub)
        assert len(q.projection) == nc - sub.rank


# ---------------------------------------------------------------------------
# saturated span: one SNF against the former kernel of the kernel


def reference_saturated_span(rank, vectors):
    """The former saturated_span: the kernel of the kernel, two SNFs and an HNF."""
    ann = kernel_basis(tuple(tuple(v) for v in vectors), rank)
    return sublattice_from_vectors(rank, kernel_basis(tuple(ann), rank))


def test_saturated_span_matches_kernel_of_kernel_on_random_matrices():
    rng = random.Random(29)
    ranks = set()
    for _ in range(600):
        n = rng.randint(1, 5)
        vecs = [rand_matrix(rng, 1, n, 6)[0] for _ in range(rng.randint(0, n + 2))]
        if vecs and rng.random() < 0.4:
            # dependent rows: a multiple or a sum of rows already there, and zeros
            vecs.append(tuple(rng.randint(-3, 3) * x for x in rng.choice(vecs)))
            vecs.append(tuple(map(sum, zip(*vecs))))
            vecs.append((0,) * n)
        sub = saturated_span(n, vecs)
        assert sub == reference_saturated_span(n, vecs), (n, vecs)
        ranks.add((n, sub.rank))
    assert {(n, 0) for n in range(1, 6)} <= ranks and (5, 5) in ranks


def test_saturated_span_matches_kernel_of_kernel_on_acceptance_spans(monkeypatch):
    """Every u.rays that find and verify saturate, over the corpus and the acceptance seeds.

    bd.quotient saturates u.rays exactly when they are nonempty: the
    quotient by sigma0 = 0 is the identity.
    """
    from functools import cached_property

    import toricmld.pairs
    from toricmld.generator import random_instance
    from toricmld.instances import CORPUS, load_corpus
    from toricmld.search import find_hyperplane, verify_certificate

    seen = []
    inner = toricmld.pairs.saturated_span

    def recording(rank, vectors):
        seen.append((rank, tuple(vectors)))
        return inner(rank, vectors)

    quotient_rays = []
    inner_quotient = toricmld.pairs.BoxData.quotient.func

    def recording_quotient(bd):
        quotient_rays.append(bd.u.rays)
        return inner_quotient(bd)

    quotient = cached_property(recording_quotient)
    quotient.__set_name__(toricmld.pairs.BoxData, "quotient")
    monkeypatch.setattr(toricmld.pairs, "saturated_span", recording)
    monkeypatch.setattr(toricmld.pairs.BoxData, "quotient", quotient)
    germs = [load_corpus(name)[:2] for name in CORPUS]
    germs += [random_instance(s)[:2] for s in ACCEPTANCE_SEEDS]
    for tc, pair in germs:
        ok, reasons = verify_certificate(tc, pair, find_hyperplane(tc, pair))
        assert ok, reasons
    assert len(seen) == sum(1 for rays in quotient_rays if rays) > 0
    assert any(vectors for _rank, vectors in seen)
    for rank, vectors in seen:
        assert inner(rank, vectors) == reference_saturated_span(rank, vectors), vectors


def test_saturated_span_takes_one_snf(monkeypatch):
    import toricmld.lattice

    calls = []
    real_snf = toricmld.lattice.snf

    def counted(*args):
        calls.append(args)
        return real_snf(*args)

    monkeypatch.setattr(toricmld.lattice, "snf", counted)
    assert saturated_span(3, [(2, 2, 0), (0, 3, 3), (2, 5, 3)]).basis == ((1, 0, -1), (0, 1, 1))
    assert len(calls) == 1
    calls.clear()
    assert saturated_span(3, []) == Sublattice(3, ())
    assert calls == []


def test_identity_matches_the_entrywise_form():
    for n in range(10):
        assert identity(n) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
