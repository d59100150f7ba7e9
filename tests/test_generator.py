import random
from fractions import Fraction as F

import pytest

import toricmld.generator as generator
from conftest import (
    cone_from_normals,
    fix_mov,
    reference_rand_a_points,
    reference_rand_general,
    support_value,
)
from toricmld.generator import (
    MAX_ATTEMPTS,
    _build_fan,
    _candidate_pair,
    _rand_a_points,
    _rand_general,
    _rand_psi,
    _rand_sigma_bar,
    _rand_unimodular,
    _split,
    _stellar,
    random_instance,
)
from toricmld.instances import dumps_canonical, instance_to_obj
from toricmld.lattice import LatticeError, dot, is_zero, kernel_basis, primitive
from toricmld.pairs import (
    PairError,
    ToricContraction,
    analyze,
    is_glc,
    make_contraction,
    mld_over_fiber,
    validate_contraction,
)
from toricmld.polyhedra import (
    GeometryError,
    make_cone,
    make_support,
    support_scale,
    support_sum,
)


def reference_random_instance(seed):
    """The sampling loop as it was when every attempt validated its fan
    before sampling a pair: the slow reference for random_instance."""
    rng = random.Random(seed)
    for attempt in range(MAX_ATTEMPTS):
        try:
            n = rng.choice((1, 2, 2, 3, 3, 3))
            nbar = rng.randint(1, n)
            uni = _rand_unimodular(rng, n)
            pi = tuple(uni[i] for i in range(nbar))
            sigma_bar = _rand_sigma_bar(rng, nbar)
            normals = [tuple(sum(d[i] * pi[i][j] for i in range(nbar))
                             for j in range(n)) for d in sigma_bar.dual_rays]
            support = cone_from_normals(n, normals)
            fan = _build_fan(rng, support)
            tc = make_contraction(fan, pi, sigma_bar.generators)
            validate_contraction(tc)
            pair = _candidate_pair(rng, tc)
            bd = analyze(tc, pair)
            if not is_glc(bd):
                raise PairError("sampled pair not g-lc")
            if mld_over_fiber(bd) is None:
                raise PairError("sampled pair has non-positive mld")
            return tc, pair, {"seed": seed, "attempts": attempt + 1,
                              "rank": n, "base_rank": nbar}
        except (PairError, GeometryError, LatticeError):
            continue
    raise PairError("no valid instance found for seed %r" % seed)


def reference_split(cone, cov, n):
    """`_split` as it was, two conversions per side for every piece: the slow reference."""
    pieces = []
    for sign in (1, -1):
        piece = cone_from_normals(n, cone.normals + (tuple(sign * x for x in cov),))
        if piece.cone_dim() == n:
            pieces.append(piece)
    return pieces


def _fields(cone):
    return cone.generators, cone.dual_rays, cone.dual_lines


def _assert_split_matches_reference(cone, pointed, cov, n):
    got = _split(cone, pointed, cov)
    want = reference_split(cone, cov, n)
    assert [_fields(c) for c, _pointed in got] == [_fields(c) for c in want], (cone, cov)
    assert [p for _c, p in got] == [c.is_pointed() for c in want], (cone, cov)
    return got


def _recorded_splits(monkeypatch, seeds):
    """Every (piece, pointed, covector, rank) that `_build_fan` splits for the seeds."""
    seen = []

    def recording_split(cone, pointed, cov):
        seen.append((cone, pointed, cov, cone.dim))
        return _split(cone, pointed, cov)

    monkeypatch.setattr(generator, "_split", recording_split)
    for seed in seeds:
        random_instance(seed)
    return seen


def test_split_matches_reference_on_every_piece_the_generator_cuts(monkeypatch):
    seen = _recorded_splits(monkeypatch, [*range(120), *range(2000, 2064)])
    cut = pointed = 0
    for cone, is_pointed, cov, n in seen:
        assert is_pointed == cone.is_pointed()
        halves = _assert_split_matches_reference(cone, is_pointed, cov, n)
        pointed += is_pointed
        cut += is_pointed and len(halves) == 2
    # 2449 splits, 1787 of a pointed piece, 893 of them cut
    assert len(seen) - pointed >= 600 and pointed >= 1700 and cut >= 800


def _rand_pointed_cone(rng, n):
    """A pointed full-dimensional cone whose generators are its extreme rays."""
    while True:
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + rng.randint(0, 3))]
        cone = make_cone(n, gens)
        if cone.is_full_dim() and cone.is_pointed():
            return cone_from_normals(n, cone.dual_rays)


def _rand_cutting_covector(rng, cone, n):
    """A covector positive on some ray of the cone and negative on another, or None."""
    for _ in range(50):
        cov = tuple(rng.randint(-3, 3) for _ in range(n))
        values = [dot(cov, r) for r in cone.generators]
        if min(values) < 0 < max(values):
            return primitive(cov)
    return None


def _vanishing_covector(rng, ray, n):
    """A nonzero covector that is 0 on the ray."""
    basis = kernel_basis((ray,), n)
    while True:
        cov = [0] * n
        for b in basis:
            c = rng.randint(-2, 2)
            cov = [x + c * y for x, y in zip(cov, b)]
        if not is_zero(cov):
            return primitive(tuple(cov))


def _covector_cases(rng, cone, n):
    """(kind, covector): one that cuts the cone if found, ones that miss it,
    one that vanishes on a ray, and facet normals of both signs."""
    interior = tuple(sum(col) for col in zip(*cone.dual_rays))
    cases = [("miss", interior), ("miss", tuple(-x for x in interior))]
    for d in cone.dual_rays[:2]:
        cases += [("facet", d), ("facet", tuple(-x for x in d))]
    if n > 1:
        cases.append(("vanish", _vanishing_covector(rng, rng.choice(cone.generators), n)))
    cov = _rand_cutting_covector(rng, cone, n)
    if cov is not None:
        cases.append(("cut", cov))
    return cases


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_split_matches_reference_on_random_pointed_cones(n):
    rng = random.Random(7100 + n)
    kinds = {"cut": 0, "miss": 0, "vanish": 0, "facet": 0}
    vanish_cut = 0
    for _ in range(40):
        cone = _rand_pointed_cone(rng, n)
        for kind, cov in _covector_cases(rng, cone, n):
            got = _assert_split_matches_reference(cone, True, cov, n)
            if kind in ("miss", "facet"):
                assert len(got) == 1 and got[0][0] is cone
            elif kind == "cut":
                assert len(got) == 2
            else:
                vanish_cut += len(got) == 2
            kinds[kind] += 1
    assert kinds["miss"] == 80 and kinds["facet"] >= 80
    if n > 1:
        assert kinds["vanish"] == 40 and kinds["cut"] >= 30
    if n > 2:
        assert vanish_cut >= 10


def _rand_product_cone(rng):
    """C1 x C2 in dimension 6 for pointed 3-dimensional cones with at least 4 rays each.

    Below dimension 6 two extreme rays whose common zero set over the
    facets has dim - 2 members are always adjacent, so only from there on
    does the third-ray test of the cut decide anything.  Here two rays of
    C1 that are not adjacent in C1 are zero on all of C2's facets and on
    none of C1's: at least 4 = dim - 2 members, yet not adjacent.
    """
    factors = []
    while len(factors) < 2:
        cone = _rand_pointed_cone(rng, 3)
        if len(cone.generators) >= 4:
            factors.append(cone)
    gens = [g + (0, 0, 0) for g in factors[0].generators]
    gens += [(0, 0, 0) + g for g in factors[1].generators]
    return make_cone(6, gens)


def test_split_matches_reference_on_products_where_the_third_ray_test_decides():
    rng = random.Random(7106)
    cut = 0
    for _ in range(12):
        cone = _rand_product_cone(rng)
        for _kind, cov in _covector_cases(rng, cone, 6):
            cut += len(_assert_split_matches_reference(cone, True, cov, 6)) == 2
    assert cut >= 12


def test_instances_satisfy_hypotheses():
    for tc, pair, meta in [random_instance(100 + i) for i in range(15)]:
        validate_contraction(tc)
        bd = analyze(tc, pair)
        assert is_glc(bd)
        assert mld_over_fiber(bd) is not None
        assert 1 <= tc.rank <= 3 and 1 <= tc.base_rank <= tc.rank


def test_generation_is_deterministic():
    a = random_instance(42)
    b = random_instance(42)
    assert dumps_canonical(instance_to_obj(a[0], a[1])) == \
        dumps_canonical(instance_to_obj(b[0], b[1]))


def test_some_variety():
    ranks = set()
    nontrivial_a = 0
    general = 0
    for tc, pair, _meta in [random_instance(300 + i) for i in range(25)]:
        ranks.add(tc.rank)
        if len(pair.bdiv_a.points) > 1:
            nontrivial_a += 1
        if pair.general:
            general += 1
    assert len(ranks) >= 2
    assert nontrivial_a > 0


def test_validating_last_returns_what_validating_first_did(monkeypatch):
    made = []

    def recording_contraction(*args):
        tc = ToricContraction(*args)
        made.append(tc)
        return tc

    monkeypatch.setattr(generator, "ToricContraction", recording_contraction)
    for seed in [*range(64), *range(1000, 1032)]:
        tc, pair, meta = random_instance(seed)
        ref_tc, ref_pair, ref_meta = reference_random_instance(seed)
        assert dumps_canonical(instance_to_obj(tc, pair)) == \
            dumps_canonical(instance_to_obj(ref_tc, ref_pair)), seed
        assert meta == ref_meta
    # every attempt's contraction passes validation: that is why checking
    # only the returned one leaves the random stream and the attempts alone
    assert len(made) >= 96
    for tc in made:
        validate_contraction(tc)


def test_each_instance_is_validated_once(monkeypatch):
    calls = []

    def counting_validate(tc):
        calls.append(tc)
        return validate_contraction(tc)

    monkeypatch.setattr(generator, "validate_contraction", counting_validate)
    attempts = 0
    for seed in range(2000, 2016):
        tc, _pair, meta = random_instance(seed)
        assert calls[-1] is tc
        attempts += meta["attempts"]
    assert len(calls) == 16 < attempts


def test_an_instance_that_fails_validation_is_never_returned(monkeypatch):
    def failing_validate(tc):
        raise PairError("validation refused")

    monkeypatch.setattr(generator, "validate_contraction", failing_validate)
    with pytest.raises(PairError, match="no valid instance found for seed 2000"):
        random_instance(2000)


def reference_vanishes_on_lines(normals, cov, n):
    """`_build_fan`'s redraw test as it was, over an integer basis of the lines: the slow reference."""
    return all(dot(cov, l) == 0 for l in kernel_basis(tuple(normals), n))


def test_redraw_by_rank_matches_the_kernel_on_every_covector_the_generator_tests(monkeypatch):
    seen = []
    real = generator._vanishes_on_lines

    def recording(normals, cov, n):
        redraw = real(normals, cov, n)
        seen.append((normals, cov, n, redraw))
        return redraw

    monkeypatch.setattr(generator, "_vanishes_on_lines", recording)
    for seed in [*range(120), *range(2000, 2064)]:
        random_instance(seed)
    for normals, cov, n, redraw in seen:
        assert redraw == reference_vanishes_on_lines(normals, cov, n), (normals, cov)
    redrawn = sum(redraw for *_test, redraw in seen)
    # 625 tests, 89 of them redrawn (87 and 16 over seeds 2000-2015)
    assert redrawn >= 80 and len(seen) - redrawn >= 500


# ---------------------------------------------------------------------------
# the sampler in integer pairs against its former Fractions


def reference_rand_psi(rng, support):
    """`_rand_psi` as it was, psi itself in Fractions: the reference for 6 psi."""
    duals = list(support.dual_rays) + [(0,) * support.dim]
    psi = (F(0),) * support.dim
    for d in duals:
        c = rng.choice((0, 0, F(1, 3), F(1, 2), F(2, 3), 1))
        psi = tuple(p + c * x for p, x in zip(psi, d))
    if rng.random() < 0.3:
        den = rng.choice((2, 3))
        psi = tuple(p + F(rng.randint(-1, 1), den) for p in psi)
    return psi


REFERENCE_B_POOL = (F(0), F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4), F(1))


def reference_candidate_pair(rng, tc):
    """`_candidate_pair` as it was, in Fractions: the fixed parts by `fix_mov`,
    h_A by `support_value` over the unhulled sum, psi by `reference_rand_psi`,
    A and A_j as Fraction points by `reference_rand_a_points` and
    `reference_rand_general`."""
    fan = tc.fan
    a_pts = reference_rand_a_points(rng, fan.rank)
    general = reference_rand_general(rng, fan.rank)
    fixes, a_eff = [F(0)] * len(fan.rays), make_support(a_pts)
    for bj, pts in general:
        aj = make_support(pts)
        fixes = [f + bj * x for f, x in zip(fixes, fix_mov(aj, fan.rays))]
        a_eff = support_sum(a_eff, support_scale(bj, aj))
    if rng.random() < 0.55:
        psi = reference_rand_psi(rng, tc.support)
        b = [1 - (dot(psi, e) - support_value(a_eff, e)) - fx
             for e, fx in zip(fan.rays, fixes)]
    else:
        b = [rng.choice(REFERENCE_B_POOL) - fx for fx in fixes]
    return generator.make_pair(fan, b, a_pts, general)


def _sample(candidate, rng, tc):
    try:
        return candidate(rng, tc)
    except PairError as exc:
        return str(exc)


def test_integer_psi_is_six_times_the_fraction_reference():
    supports = [random_instance(seed)[0].support for seed in range(2000, 2008)]
    assert {s.dim for s in supports} == {1, 2, 3}
    assert any(not s.is_pointed() for s in supports)
    values = set()
    for seed in range(400):
        support = supports[seed % len(supports)]
        rng, ref_rng = random.Random(seed), random.Random(seed)
        got = _rand_psi(rng, support)
        want = reference_rand_psi(ref_rng, support)
        assert all(type(x) is int for x in got), got
        assert got == tuple(6 * x for x in want), (seed, got, want)
        # the same draws: the rng streams end in the same state
        assert rng.getstate() == ref_rng.getstate(), seed
        values.update(x % 6 for x in got)
    # thirds and halves, from the pool and from the shift
    assert values == {0, 1, 2, 3, 4, 5}


def test_candidate_pairs_match_the_fraction_reference():
    outcomes = {"pair": 0, "refused": 0}
    general = 0
    for seed in range(2000, 2016):
        tc = random_instance(seed)[0]
        for k in range(25):
            rng, ref_rng = random.Random(k), random.Random(k)
            got = _sample(_candidate_pair, rng, tc)
            want = _sample(reference_candidate_pair, ref_rng, tc)
            assert got == want, (seed, k)
            assert rng.getstate() == ref_rng.getstate(), (seed, k)
            outcomes["refused" if isinstance(got, str) else "pair"] += 1
            general += not isinstance(got, str) and bool(got.general)
    # 275 pairs, 44 of them with a general boundary, and 125 refusals
    assert outcomes["pair"] >= 250 and outcomes["refused"] >= 100, outcomes
    assert general >= 40


# ---------------------------------------------------------------------------
# support sets drawn as integer rows, stellar pieces as generator tuples


@pytest.mark.parametrize("n", [1, 2, 3])
def test_drawn_support_sets_are_make_support_of_the_reference_points(n):
    modes = set()
    general = 0
    for seed in range(400):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        a_set = _rand_a_points(rng, n)
        pts = reference_rand_a_points(ref_rng, n)
        assert a_set == make_support(pts), (seed, a_set, pts)
        got, want = _rand_general(rng, n), reference_rand_general(ref_rng, n)
        assert [bj for bj, _aj in got] == [bj for bj, _pts in want], seed
        assert [aj for _bj, aj in got] == [make_support(p) for _bj, p in want], seed
        # the same draws: the rng streams end in the same state
        assert rng.getstate() == ref_rng.getstate(), seed
        modes.add(max(h[-1] for h in a_set.rows))
        general += bool(got)
    # every denominator of the four modes, and general boundaries
    assert modes >= {1, 2, 3, 4, 5}, modes
    assert general >= 80


def _pointed_pieces(monkeypatch, seeds):
    """Every pointed piece that `_split` returns to `_build_fan` for the seeds."""
    seen = []

    def recording_split(cone, pointed, cov):
        halves = _split(cone, pointed, cov)
        seen.extend(half for half, is_pointed in halves if is_pointed)
        return halves

    monkeypatch.setattr(generator, "_split", recording_split)
    for seed in seeds:
        random_instance(seed)
    return seen


def test_stellar_pieces_are_the_full_dimensional_cones_make_cone_builds(monkeypatch):
    pieces = _pointed_pieces(monkeypatch, range(2000, 2096))
    facets = whole = 0
    for cone in pieces:
        n = cone.dim
        if n == 1:
            assert _stellar(cone) == [cone.generators], cone
            whole += 1
            continue
        v = primitive(tuple(map(sum, zip(*cone.generators))))
        want = []
        for d in cone.dual_rays:
            fgens = [g for g in cone.generators if dot(d, g) == 0]
            ref = make_cone(n, fgens + [v])
            assert ref.cone_dim() == n, (cone, d)
            want.append(ref.generators)
        facets += len(want)
        assert _stellar(cone) == want, cone
    # 2162 pieces of rank 2 or 3 with 6452 facets in all, 73 of rank 1
    assert facets >= 6000 and whole >= 60, (facets, whole)


def test_stellar_keeps_a_rank_one_cone_whole():
    for gens in ([(1,)], [(-1,)]):
        cone = make_cone(1, gens)
        assert _stellar(cone) == [cone.generators] == [tuple(gens)]
