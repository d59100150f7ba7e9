import dataclasses
import random
from fractions import Fraction as F

import pytest

import toricmld.generator as generator
import toricmld.pairs as pairs
import toricmld.polyhedra as polyhedra
from conftest import (
    a1_pair,
    cone_from_normals,
    fix_mov,
    germ,
    product_germ,
    reference_check_walls,
    reference_validate_contraction,
    support_value,
    wedge25_pair,
    zero_pair,
)
from toricmld.generator import random_instance
from toricmld.instances import (
    CORPUS,
    InstanceError,
    corpus_bytes,
    instance_from_obj,
    load_corpus,
    load_instance,
    save_instance,
)
from toricmld.lattice import compose_covector, dot, identity, primitive, rational_rank
from toricmld.pairs import (
    NotRCartier,
    PairError,
    ToricContraction,
    _check_face_intersection,
    _fold,
    analyze,
    cartier_psi,
    fold_general,
    is_f_nef,
    is_glc,
    lct_pullback,
    log_discrepancy,
    make_contraction,
    make_fan,
    make_pair,
    mld_over_fiber,
    nef_values,
    oracle_mld,
    validate_contraction,
)
from toricmld.polyhedra import (
    from_generators,
    make_cone,
    make_support,
    polyhedra_equal,
    support_scale,
    support_sum,
)
from toricmld.search import find_hyperplane, subdivide_fan


# ---------------------------------------------------------------------------
# validation


def test_fan_rejects_bad_rays():
    with pytest.raises(PairError):
        make_fan(2, [(2, 4), (0, 1)], [(0, 1)])
    with pytest.raises(PairError):
        make_fan(2, [(1, 0), (0, 1)], [(0,)])  # ray 1 unused


def test_contraction_support_mismatch():
    # quadrant fan but pi = (1,1): the pullback of sigma_bar is a halfplane
    fan = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    tc = make_contraction(fan, ((1, 1),), [(1,)])
    with pytest.raises(PairError, match="support"):
        validate_contraction(tc)


def test_contraction_needs_full_dim_base_cone():
    fan = make_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)],
                   [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(PairError, match="strongly convex"):
        make_contraction(fan, identity(2), [(1, 0), (-1, 0), (0, 1), (0, -1)])


def _fields(cone):
    return cone.generators, cone.dual_rays, cone.dual_lines


def reference_support(tc):
    """pi^-1(sigma_bar) converted from all pulled-back normals: the slow reference."""
    return cone_from_normals(tc.rank, [compose_covector(d, tc.pi, tc.rank)
                                       for d in tc.sigma_bar.normals])


QUADRANT = {"rank_N": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}


@pytest.mark.parametrize("obj, reason", [
    ({"rank_N": 2, "rays": [[1, 0], [-1, 0], [0, 1]], "max_cones": [[0, 1, 2]], "pi": [[0, 1]]},
     "maximal cone 0 is not strongly convex"),
    ({"rank_N": 3, "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 0]], "max_cones": [[0, 1, 2]],
      "pi": [[0, 0, 1]], "sigma_bar": [[1]]},
     "maximal cone 0 is not full-dimensional"),
    (dict(QUADRANT, rays=[[1, 0], [1, 1], [0, 1]], max_cones=[[0, 1, 2]], pi=[[1, 0], [0, 1]]),
     "ray 1 is not extremal in maximal cone 0"),
    (dict(QUADRANT, rays=[[1, 0], [0, 1], [1, 1]], max_cones=[[0, 1], [0, 2]], pi=[[1, 0], [0, 1]]),
     "cones 0 and 1 do not intersect in a common face"),
    ({"rank_N": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 0, -1]],
      "max_cones": [[0, 1, 2], [0, 3, 4]], "pi": [[1, 0, 0], [0, 1, 0]]},
     "cones 0 and 1 do not intersect in a common face"),
    ({"rank_N": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 0, -1]],
      "max_cones": [[0, 3, 4], [0, 1, 2]], "pi": [[1, 0, 0], [0, 1, 0]]},
     "cones 0 and 1 do not intersect in a common face"),
    ({"rank_N": 3, "rays": [[1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1]],
      "max_cones": [[0, 1, 2, 3]], "pi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     "ray 1 is not extremal in maximal cone 0"),
    ({"rank_N": 3, "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]],
      "max_cones": [[0, 1, 2], [0, 2, 3]], "pi": [[0, 1, 0], [0, 0, 1]]},
     "maximal cone 0 is not strongly convex"),
    ({"rank_N": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 2, 0]],
      "max_cones": [[0, 2, 3], [1, 2, 4]], "pi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     "support condition fails: unmatched interior wall of cone 0"),
])
def test_invalid_fan_names_its_reason(obj, reason):
    """A cone holding a line; rank-many coplanar rays, so the ray count
    passes; a ray inside the cone over the other two; overlapping cones;
    a ray of one cone inside a facet of the other, in both orders, as
    only the cone with that facet sees it; a ray inside a 2-face
    of a 4-ray rank-3 cone; rank-many rays holding a line, so the
    simplicial shortcut does not apply; the octant split along x = y with
    a gap beside the wall of cone 0."""
    with pytest.raises(InstanceError) as exc:
        instance_from_obj(obj)
    assert str(exc.value) == reason


INVALID_CONTRACTIONS = [
    ({"rank_N": 1, "rays": [[1]], "max_cones": [[0]], "pi": [[2]]},
     "pi is not surjective"),
    (dict(QUADRANT, pi=[[1, 0], [1, 0]], sigma_bar=[[1, 0], [0, 1]]),
     "pi is not surjective"),
    ({"rank_N": 2, "rays": [[1, 0], [0, 1], [-1, 0]], "max_cones": [[0, 1], [1, 2]],
      "pi": [[1, 0], [0, 1]], "sigma_bar": [[0, 1]]},
     "sigma_bar is not full-dimensional (no invariant point)"),
    (dict(QUADRANT, pi=[[1, 0], [0, 1]], sigma_bar=[[1, 0], [1, 1]]),
     "support condition fails: ray 1 leaves pi^-1(sigma_bar)"),
    (dict(QUADRANT, pi=[[1, 0], [0, 1]], sigma_bar=[[1, 0], [-1, 1]]),
     "support condition fails: pi^-1(sigma_bar) is not covered"),
    ({"rank_N": 2, "rays": [[1, 0], [2, 1], [1, 2], [0, 1]], "max_cones": [[0, 1], [2, 3]],
      "pi": [[1, 0], [0, 1]]},
     "support condition fails: unmatched interior wall of cone 0"),
    ({"rank_N": 1, "rays": [[1]], "max_cones": [[0]], "pi": [[1]] * 200},
     "pi is not surjective"),
    ({"rank_N": 1, "rays": [[1]], "max_cones": [[0]], "pi": []},
     "support condition fails: pi^-1(sigma_bar) is not covered"),
]


@pytest.mark.parametrize("obj, reason", INVALID_CONTRACTIONS)
def test_invalid_contraction_names_its_reason(monkeypatch, obj, reason):
    """Not surjective over Z, then with dependent rows; a base cone that is
    not full-dimensional; the three support conditions; 200 rows of pi on
    a rank-1 fan; one half-line over a rank-0 base, whose support is the
    whole line and whose one wall {0} lies inside it, unshared.
    make_contraction refuses pi and sigma_bar before it
    builds the support: a bad pi before any conversion, a bad sigma_bar
    after sigma_bar's own.  The support of a contraction it builds is the
    reference's."""
    with pytest.raises(InstanceError) as exc:
        instance_from_obj(obj)
    assert str(exc.value) == reason
    fan = make_fan(obj["rank_N"], obj["rays"], obj["max_cones"])
    if not reason.startswith("support condition fails"):
        calls = []
        real = polyhedra.cone_from_inequalities

        def counted(rows, dim):
            calls.append(dim)
            return real(rows, dim)

        monkeypatch.setattr(polyhedra, "cone_from_inequalities", counted)
        with pytest.raises(PairError) as exc:
            make_contraction(fan, obj["pi"], obj.get("sigma_bar"))
        assert str(exc.value) == reason
        assert calls == ([] if reason == "pi is not surjective" else [len(obj["pi"])])
        return
    tc = make_contraction(fan, obj["pi"], obj.get("sigma_bar"))
    assert _fields(tc.support) == _fields(reference_support(tc))


def _refuse_support_conversion(monkeypatch):
    """Make any read of the generators of a cone built from its facets fail."""
    def refuse(cone):
        raise AssertionError("the generators of a cone built from its facets were read")

    monkeypatch.setattr(polyhedra._FacetCone, "generators", property(refuse))


@pytest.mark.parametrize("obj", [
    dict(QUADRANT, pi=[[1, 0], [0, 1]]),
    {"rank_N": 1, "rays": [[1]], "max_cones": [[0]], "pi": [[1]]},
    {"rank_N": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]], "pi": []},
])
def test_valid_contraction_is_accepted(monkeypatch, obj):
    """The valid twins of the cases above: the quadrant over itself; the
    half-line over the half-line, whose wall {0} lies on the support's one
    facet; the line as two half-lines over a rank-0 base, whose wall {0}
    each cone shares with the other.  Each validates without reading the
    support's generators, and its support is the reference's."""
    _refuse_support_conversion(monkeypatch)
    tc, _pair = instance_from_obj(obj)
    monkeypatch.undo()
    assert _fields(tc.support) == _fields(reference_support(tc))


def _recorded_contractions(monkeypatch, module, run):
    """Every ToricContraction that `module` builds while `run()` runs."""
    made = []

    def recording(*args):
        made.append(ToricContraction(*args))
        return made[-1]

    monkeypatch.setattr(module, "ToricContraction", recording)
    run()
    monkeypatch.undo()
    return made


def test_support_matches_the_pulled_back_normals(monkeypatch):
    """The support as built, from the pulled-back facets in one double
    description, is field-identical to the reference on the corpus, on
    every attempt of the acceptance and generator seeds, and on every
    slice contraction `find_hyperplane` builds on the certify instances."""
    tcs = [load_corpus(name)[0] for name in CORPUS]
    seeds = [*range(120), *range(1000, 1096), *range(2000, 2064)]
    generated = {}

    def generate():
        for seed in seeds:
            generated[seed] = random_instance(seed)

    tcs += _recorded_contractions(monkeypatch, generator, generate)
    certify = [load_corpus(name)[:2] for name in CORPUS]
    certify += [generated[s][:2] for s in (*range(1000, 1064), 5, 27, 82, 93, 119)]
    # make_slice builds each slice contraction with pairs.make_contraction
    slices = _recorded_contractions(
        monkeypatch, pairs, lambda: [find_hyperplane(tc, pair) for tc, pair in certify])
    assert len(slices) >= 9
    for tc in tcs + slices:
        assert _fields(tc.support) == _fields(reference_support(tc))
    assert len(tcs) >= 1000


def test_overlapping_cones_rejected():
    fan = make_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
    with pytest.raises(PairError, match="face"):
        from toricmld.pairs import validate_fan
        validate_fan(fan)


def test_cone_with_fewer_rays_than_the_rank_is_refused_before_any_conversion(monkeypatch):
    """A one-ray cone at rank 60 is refused unconverted: converting it would
    take the cubic SNF of the lineality branch of `cone_from_inequalities`."""
    calls = []
    real = polyhedra.cone_from_inequalities

    def counted(rows, dim):
        calls.append(dim)
        return real(rows, dim)

    monkeypatch.setattr(polyhedra, "cone_from_inequalities", counted)
    fan = make_fan(60, [(1,) + (0,) * 59], [(0,)])
    with pytest.raises(PairError, match="^maximal cone 0 is not full-dimensional$"):
        pairs.validate_fan(fan)
    assert calls == []


def _reference_face_intersection(fan, i, j):
    """Slow reference: rebuild the intersection and both faces by double description."""
    a, b = fan.cone(i), fan.cone(j)
    normals = list(a.dual_rays) + list(b.dual_rays)
    for l in list(a.dual_lines) + list(b.dual_lines):
        normals.append(l)
        normals.append(tuple(-x for x in l))
    gens = cone_from_normals(a.dim, normals).generators
    inter = make_cone(fan.rank, gens)
    for cone in (a, b):
        sel = [d for d in cone.dual_rays if all(dot(d, g) == 0 for g in gens)]
        face = cone
        if sel:
            u = tuple(sum(d[k] for d in sel) for k in range(fan.rank))
            face = cone_from_normals(
                fan.rank, list(cone.dual_rays) + [u, tuple(-x for x in u)])
        if not (all(inter.contains(g) for g in face.generators)
                and all(face.contains(g) for g in inter.generators)):
            return False
    return True


def _fast_face_intersection(fan, i, j):
    try:
        _check_face_intersection(fan, i, j)
    except PairError as exc:
        assert "do not intersect in a common face" in str(exc)
        return False
    return True


def _random_vector(rng, n):
    while True:
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(v):
            return v


def _random_cone_pair(rng, n):
    """Two pointed full-dimensional cones; half of them glued along a face of the first."""
    a = make_cone(n, [_random_vector(rng, n) for _ in range(rng.randint(n, n + 2))])
    if not (a.is_pointed() and a.is_full_dim()):
        return None
    if rng.random() < 0.5:
        d = rng.choice(a.dual_rays)
        face = [g for g in make_cone(n, a.dual_rays).dual_rays if dot(d, g) == 0]
        face = face[:rng.randint(1, len(face))]
        below = [v for v in (_random_vector(rng, n) for _ in range(n + 1))
                 if dot(d, v) < 0]
        b = make_cone(n, face + below)
    else:
        b = make_cone(n, [_random_vector(rng, n) for _ in range(rng.randint(n, n + 2))])
    if not (b.is_pointed() and b.is_full_dim()) or a == b:
        return None
    return a, b


def test_face_intersection_matches_reference_on_random_fans():
    """Ranks 2, 3 and 4, both verdicts at each: at rank 4 the double
    description starts from cones that need not be simplicial and the
    faces compared are up to 3-dimensional."""
    rng = random.Random(29)
    verdicts = {2: [], 3: [], 4: []}
    for trial in range(360):
        n = 2 + trial % 3
        cones = _random_cone_pair(rng, n)
        if cones is None:
            continue
        extremal = [make_cone(n, c.dual_rays).dual_rays for c in cones]
        rays = sorted(set(extremal[0]) | set(extremal[1]))
        fan = make_fan(n, rays, [[rays.index(r) for r in e] for e in extremal])
        expected = _reference_face_intersection(fan, 0, 1)
        # either cone may start the double description
        assert _fast_face_intersection(fan, 0, 1) == expected, fan
        assert _fast_face_intersection(fan, 1, 0) == expected, fan
        verdicts[n].append((expected, len(fan.max_cones[0]) > n))
    for n, seen in verdicts.items():
        assert {v for v, _ in seen} == {True, False}, n
    assert any(wide for _, wide in verdicts[4])


def test_face_intersection_matches_reference_on_generator_fans(monkeypatch):
    """Every pair the corpus and generator seeds 2000-2063 test.

    Each of these pairs meets in a common face; the random fans above
    reach the rejections.
    """
    checked = []

    def both(fan, i, j):
        expected = _reference_face_intersection(fan, i, j)
        assert _fast_face_intersection(fan, i, j) == expected, fan
        checked.append(expected)
        if not expected:
            raise PairError("cones %d and %d do not intersect in a common face" % (i, j))

    monkeypatch.setattr(pairs, "_check_face_intersection", both)
    for name in CORPUS:
        load_corpus(name)
    for seed in range(2000, 2064):
        random_instance(seed)
    assert checked.count(True) > 0


# fans with a wall on no other cone: the octant split along x = y with a
# gap beside the wall; a quadrant with a gap between two cones; three
# cones of which the middle one's outer wall is unmatched
UNMATCHED_WALLS = [
    ({"rank_N": 3, "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 2, 0]],
      "max_cones": [[0, 2, 3], [1, 2, 4]], "pi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, 0),
    ({"rank_N": 2, "rays": [[1, 0], [2, 1], [1, 2], [0, 1]], "max_cones": [[0, 1], [2, 3]],
      "pi": [[1, 0], [0, 1]]}, 0),
    ({"rank_N": 2, "rays": [[1, 0], [2, 1], [1, 1], [1, 2], [0, 1]],
      "max_cones": [[0, 1], [1, 2], [3, 4]], "pi": [[1, 0], [0, 1]]}, 1),
]


def _wall_verdict(check, tc):
    try:
        check(tc)
    except PairError as exc:
        return str(exc)
    return None


def test_walls_match_the_all_cones_scan(monkeypatch):
    """`_check_walls` searches a wall's partner only among the cones with the
    opposite facet normal; the reference scans every cone.  They agree on
    the corpus, on generator seeds 2000-2063 and on the unmatched walls."""
    checked = []
    real = pairs._check_walls

    def both(tc):
        expected = _wall_verdict(reference_check_walls, tc)
        assert _wall_verdict(real, tc) == expected, tc.fan
        checked.append(expected)
        if expected:
            raise PairError(expected)

    monkeypatch.setattr(pairs, "_check_walls", both)
    for name in CORPUS:
        load_corpus(name)
    for seed in range(2000, 2064):
        random_instance(seed)
    assert checked and set(checked) == {None}
    for obj, cone in UNMATCHED_WALLS:
        with pytest.raises(InstanceError) as exc:
            instance_from_obj(obj)
        assert str(exc.value) == checked[-1] == (
            "support condition fails: unmatched interior wall of cone %d" % cone)


def test_validation_converts_each_cone_once_and_no_pair(monkeypatch):
    """On the fan of generator seed 2004 (7 maximal cones, 21 pairs)
    validate_contraction takes 7 double descriptions, one per maximal cone.
    The face test converts no pair (29 when each pair took one), and the
    support, read through its facets alone, is not converted (8 when it
    was)."""
    tc = random_instance(2004)[0]
    fan = make_fan(tc.rank, tc.fan.rays, tc.fan.max_cones)
    fresh = make_contraction(fan, tc.pi, tc.sigma_bar.generators)
    calls = []
    real = polyhedra.cone_from_inequalities

    def counted(rows, dim):
        calls.append(dim)
        return real(rows, dim)

    monkeypatch.setattr(polyhedra, "cone_from_inequalities", counted)
    validate_contraction(fresh)
    assert len(fan.max_cones) == 7
    assert len(calls) == 7


def test_loading_and_analyzing_a_valid_instance_reads_no_support_generator(
        monkeypatch, tmp_path):
    """The corpus, acceptance seeds 1000-1095 and generator seeds 2000-2063,
    each written out and read back by load_instance, then analyzed, with
    every read of the generators of a cone built from its facets refused:
    validate_contraction and `_cone_over_is` read the support only through
    its facets."""
    paths = []
    for name in CORPUS:
        paths.append(tmp_path / (name + ".json"))
        paths[-1].write_bytes(corpus_bytes(name))
    for seed in (*range(1000, 1096), *range(2000, 2064)):
        tc, pair, _meta = random_instance(seed)
        paths.append(tmp_path / ("seed%d.json" % seed))
        save_instance(paths[-1], tc, pair)
    _refuse_support_conversion(monkeypatch)
    base_ranks = set()
    for path in paths:
        tc, pair, _obj = load_instance(path)
        analyze(tc, pair)
        base_ranks.add(tc.base_rank < tc.rank)
    assert len(paths) == 168 and base_ranks == {True, False}


def _dropped_cones(fan, keep):
    """The fan on the maximal cones with indices in keep, its unused rays dropped."""
    cones = [fan.max_cones[i] for i in keep]
    used = sorted({j for c in cones for j in c})
    index = {j: k for k, j in enumerate(used)}
    return make_fan(fan.rank, [fan.rays[j] for j in used],
                    [[index[j] for j in c] for c in cones])


def _perturbed(rng, gens):
    """sigma_bar's generators with one moved, one added or one dropped."""
    gens = [list(g) for g in gens]
    k = rng.randrange(3)
    if k == 0:
        g = rng.choice(gens)
        g[rng.randrange(len(g))] += rng.choice((-1, 1))
    elif k == 1:
        gens.append([rng.randint(-1, 1) for _ in gens[0]])
    elif len(gens) > 1:
        gens.pop(rng.randrange(len(gens)))
    return gens


def _rank_one_cases():
    """Every rank-1 fan on (1,) and (-1,) over the bases of rank 0 and 1."""
    for rays, cones in (([(1,)], [(0,)]), ([(-1,)], [(0,)]),
                        ([(1,), (-1,)], [(0,), (1,)]), ([(1,), (-1,)], [(0, 1)])):
        for pi, sigma_bar in (((), None), (((1,),), None), (((1,),), [(1,)]),
                              (((1,),), [(-1,)]), (((-1,),), [(1,)])):
            yield make_fan(1, rays, cones), pi, sigma_bar


def _varied_contractions():
    """(fan, pi, sigma_bar generators): valid germs, then each with maximal
    cones dropped and with sigma_bar perturbed, the rank-1 cases, and the
    invalid inputs of the tests above."""
    rng = random.Random(41)
    germs = [load_corpus(name)[0] for name in CORPUS]
    germs += [random_instance(seed)[0] for seed in range(2000, 2064)]
    for tc in germs:
        fan, gens = tc.fan, tc.sigma_bar.generators
        yield fan, tc.pi, gens
        k = len(fan.max_cones)
        if k > 1:
            for i in range(k):
                yield _dropped_cones(fan, [j for j in range(k) if j != i]), tc.pi, gens
        if k > 2:
            yield _dropped_cones(fan, sorted(rng.sample(range(k), k - 2))), tc.pi, gens
        for _ in range(3):
            yield fan, tc.pi, _perturbed(rng, gens)
    yield from _rank_one_cases()
    for obj, _reason in INVALID_CONTRACTIONS + UNMATCHED_WALLS:
        fan = make_fan(obj["rank_N"], obj["rays"], obj["max_cones"])
        yield fan, obj["pi"], obj.get("sigma_bar")


def test_validation_matches_the_covering_loop_first(monkeypatch):
    """validate_contraction reads the support's generators only once the
    walls have refused it; `reference_validate_contraction` runs the
    covering loop over them first.  Both give the same verdict and the same
    message on valid germs, on germs with one or two maximal cones dropped
    (covered or not at the support's generators), with sigma_bar perturbed,
    on every rank-1 fan over the bases of rank 0 and 1, and on the invalid
    inputs of the tests above.  A valid contraction reads no generator of
    its support."""
    verdicts = []
    for fan, pi, gens in _varied_contractions():
        try:
            tc = make_contraction(fan, pi, gens)
        except PairError:
            continue
        expected = _wall_verdict(reference_validate_contraction,
                                 make_contraction(fan, pi, gens))
        if expected is None:
            _refuse_support_conversion(monkeypatch)
        assert _wall_verdict(validate_contraction, tc) == expected, (fan, pi, gens)
        monkeypatch.undo()
        verdicts.append((expected, tc.rank, tc.base_rank))
    kinds = ("leaves pi^-1(sigma_bar)", "is not covered", "unmatched interior wall")
    seen = {v and next((k for k in kinds if k in v), v) for v, _n, _m in verdicts}
    assert {None, *kinds} <= seen, seen
    assert len(verdicts) >= 300
    for m in (0, 1):
        assert {v is None for v, n, base in verdicts if n == 1 and base == m} == {True, False}


def test_pair_coefficient_range():
    fan = make_fan(1, [(1,)], [(0,)])
    with pytest.raises(PairError, match="outside"):
        make_pair(fan, (F(3, 2),), [(0,)])
    with pytest.raises(PairError, match="nonnegative"):
        make_pair(fan, (0,), [(0,)], [(-1, [(0,)])])


# ---------------------------------------------------------------------------
# fix / mov and folding


def test_fix_mov_fixed_system():
    rays = ((1, 0), (0, 1))
    a = make_support([(2, 3)])
    fix = fix_mov(a, rays)
    assert fix == (2, 3)  # the system of a single character is its own fixed part
    assert _fold(rays, make_support([(0, 0)]), [(F(1), a)])[0] == [(2, 1), (3, 1)]


def test_fix_mov_basepoint_free():
    rays = ((1, 0), (0, 1))
    a = make_support([(0, 0), (1, 1)])
    fix = fix_mov(a, rays)
    assert fix == (0, 0)
    assert _fold(rays, make_support([(0, 0)]), [(F(1), a)])[0] == [(0, 1), (0, 1)]


def test_fold_fixed_parts_match_the_fraction_reference():
    """_fold's integer fixed parts are sum_j b_j * fix_mov(A_j, rays), for
    k = 1, 2, 3 general boundaries, so also past the hull of the partial
    sums from the second boundary on, whose h_A is the unhulled sum's."""
    rng = random.Random(53)
    seen = set()
    for trial in range(180):
        n, k = rng.randint(1, 3), 1 + trial % 3
        rays = [primitive(v) for v in
                (tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 5)))
                if any(v)]
        a_set = make_support([tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n))
                              for _ in range(rng.randint(1, 3))])
        general = [(rng.choice((F(1, 2), F(1), F(3, 2), F(2, 7))),
                    make_support([tuple(rng.randint(-2, 2) for _ in range(n))
                                  for _ in range(rng.randint(1, 4))]))
                   for _ in range(k)]
        fixes, folded = _fold(rays, a_set, general)
        want = [F(0)] * len(rays)
        unhulled = a_set
        for bj, aj in general:
            want = [f + bj * x for f, x in zip(want, fix_mov(aj, rays))]
            unhulled = support_sum(unhulled, support_scale(bj, aj))
        assert all(type(x) is int and type(d) is int and d > 0 for x, d in fixes)
        assert [F(x, d) for x, d in fixes] == want, (rays, general)
        for e in rays:
            assert support_value(folded, e) == support_value(unhulled, e)
        seen.add((k, len(folded.rows) < len(unhulled.rows)))
    # every k, and the hull dropping points from the second boundary on
    assert {1, 2, 3} <= {k for k, _dropped in seen} and (3, True) in seen


def test_fix_additivity_random():
    rng = random.Random(3)
    rays = ((1, 0), (0, 1), (-1, 2))
    for _ in range(30):
        a1 = make_support([tuple(rng.randint(-3, 3) for _ in range(2))
                           for _ in range(rng.randint(1, 3))])
        a2 = make_support([tuple(rng.randint(-3, 3) for _ in range(2))
                           for _ in range(rng.randint(1, 3))])
        f1 = fix_mov(a1, rays)
        f2 = fix_mov(a2, rays)
        from toricmld.polyhedra import support_sum
        fs = fix_mov(support_sum(a1, a2), rays)
        assert fs == tuple(x + y for x, y in zip(f1, f2))


def test_fold_mobile_example(a2_germ):
    pair = make_pair(a2_germ.fan, (0, 0), [(0, 0)], [(1, [(0, 0), (1, 1)])])
    folded = fold_general(a2_germ.fan, pair)
    assert folded.bdiv_a.points == ((0, 0), (1, 1))
    assert folded.b_inv == (0, 0)  # no fixed part
    assert folded.general == ()


def test_fold_identity_when_folded(a2_germ):
    pair = zero_pair(a2_germ)
    assert fold_general(a2_germ.fan, pair) is pair


def test_fold_singleton_is_pure_fixed_part(a2_germ):
    # a singleton system is a single principal divisor: all fixed part
    pair = make_pair(a2_germ.fan, (F(1, 4), F(1, 4)), [(0, 0)],
                     [(F(1, 2), [(1, 1)])])
    folded = fold_general(a2_germ.fan, pair)
    assert folded.b_inv == (F(3, 4), F(3, 4))  # gains b_j * <(1,1), e_i>
    assert folded.bdiv_a.points == ((F(1, 2), F(1, 2)),)


def test_fold_preserves_log_discrepancies(a2_germ):
    pair = make_pair(a2_germ.fan, (F(1, 3), 0), [(0, 0)],
                     [(F(1, 2), [(0, 0), (1, 0), (0, 1)])])
    folded = fold_general(a2_germ.fan, pair)
    bd = analyze(a2_germ, folded)
    # independent route: the per-cone value psi with the combined support
    a_eff = folded.bdiv_a
    psi = cartier_psi(a2_germ, nef_values(a2_germ.fan, folded))[0]
    for e in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 3)]:
        assert log_discrepancy(bd, e) == F(dot(psi[:-1], e), psi[-1]) - support_value(a_eff, e)


def _segment_boundaries(fan, k):
    """The quadrant's pair with general boundaries A_j = {(0,0), (1,2^j)}, b_j = 1/64, j < k."""
    return make_pair(fan, (0, 0), [(0, 0)],
                     [(F(1, 64), [(0, 0), (1, 2 ** j)]) for j in range(k)])


def unhulled_fold(fan, pair):
    """fold_general keeping every point of each Minkowski sum: 2^k points for k segments."""
    fixes, a_set = [F(0)] * len(fan.rays), pair.bdiv_a
    for bj, aj in pair.general:
        fixes = [f + bj * x for f, x in zip(fixes, fix_mov(aj, fan.rays))]
        a_set = support_sum(a_set, support_scale(bj, aj))
    return make_pair(fan, [x + f for x, f in zip(pair.b_inv, fixes)], a_set.points)


def test_fold_keeps_the_vertices_of_each_sum(a2_germ):
    # the sum of k segments in distinct directions is a 2k-gon
    for k in (3, 6, 10, 14):
        folded = fold_general(a2_germ.fan, _segment_boundaries(a2_germ.fan, k))
        assert len(folded.bdiv_a.points) == 2 * k
    for k in (3, 6, 10):
        pair = _segment_boundaries(a2_germ.fan, k)
        bd = analyze(a2_germ, pair)
        ref = analyze(a2_germ, unhulled_fold(a2_germ.fan, pair))
        assert len(ref.a_eff.points) == 2 ** k
        assert (bd.box, bd.psi) == (ref.box, ref.psi)
        assert mld_over_fiber(bd) == mld_over_fiber(ref)


# ---------------------------------------------------------------------------
# Cartier data and nef


def test_cartier_a2(a2_germ):
    # psi_sigma = (1, 1) as its point row
    psi = cartier_psi(a2_germ, nef_values(a2_germ.fan, zero_pair(a2_germ)))
    assert psi == ((1, 1, 1),)


def test_cartier_halfplane(halfplane_germ):
    psi = cartier_psi(halfplane_germ,
                      nef_values(halfplane_germ.fan, zero_pair(halfplane_germ)))
    assert psi[0] == (2, 1, 1) and psi[1] == (0, 1, 1)


def test_not_r_cartier():
    # cone over a quadrilateral with incompatible heights
    fan = make_fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 2)],
                   [(0, 1, 2, 3)])
    tc = make_contraction(fan, identity(3))
    validate_contraction(tc)
    pair = zero_pair(tc)
    with pytest.raises(NotRCartier) as err:
        cartier_psi(tc, nef_values(tc.fan, pair))
    assert err.value.cone_index == 0


def test_nef_values_need_a_folded_pair(a2_germ):
    pair = make_pair(a2_germ.fan, (0, 0), [(0, 0)], [(1, [(0, 0), (1, 0)])])
    with pytest.raises(PairError, match="needs a folded pair"):
        nef_values(a2_germ.fan, pair)


def test_nef_failure_deterministic():
    # blown-up plane germ; heavy boundary off the exceptional ray breaks nef
    tc = germ(2, [(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2)], identity(2),
              [(1, 0), (0, 1)])
    good = nef_values(tc.fan, make_pair(tc.fan, (0, F(1, 2), 0), [(0, 0)]))
    psi = cartier_psi(tc, good)
    assert is_f_nef(tc, good, psi)
    bad = nef_values(tc.fan, make_pair(tc.fan, (1, F(1, 2), 1), [(0, 0)]))
    psib = cartier_psi(tc, bad)
    assert not is_f_nef(tc, bad, psib)


def test_nef_failure_randomized_search():
    tc = germ(2, [(1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2)], identity(2),
              [(1, 0), (0, 1)])
    rng = random.Random(29)
    pool = (0, F(1, 4), F(1, 2), F(3, 4), 1)
    hits = 0
    for _ in range(200):
        pair = make_pair(tc.fan, tuple(rng.choice(pool) for _ in range(3)),
                         [(0, 0)])
        r = nef_values(tc.fan, pair)
        if not is_f_nef(tc, r, cartier_psi(tc, r)):
            hits += 1
    assert hits > 0


def test_single_cone_always_nef(a3_germ):
    rng = random.Random(31)
    pool = (0, F(1, 3), F(1, 2), 1)
    for _ in range(20):
        pair = make_pair(a3_germ.fan, tuple(rng.choice(pool) for _ in range(3)),
                         [(0, 0, 0)])
        r = nef_values(a3_germ.fan, pair)
        assert is_f_nef(a3_germ, r, cartier_psi(a3_germ, r))


# ---------------------------------------------------------------------------
# box, u, discrepancies


def test_box_a1_half(a1_germ):
    bd = analyze(a1_germ, a1_pair(a1_germ, F(1, 2)))
    assert polyhedra_equal(bd.box, from_generators(1, [(F(-1, 2),)], [(1,)]))
    assert polyhedra_equal(bd.u, from_generators(1, [(0,), (2,)]))


def test_box_a2(a2_germ):
    bd = analyze(a2_germ, zero_pair(a2_germ))
    assert polyhedra_equal(bd.box, from_generators(2, [(-1, -1)], [(1, 0), (0, 1)]))
    assert polyhedra_equal(bd.u, from_generators(2, [(0, 0), (1, 0), (0, 1)]))
    assert bd.u.rays == ()
    assert bd.l == 2


def test_box_full_boundary(halfplane_germ):
    pair = make_pair(halfplane_germ.fan, (1, 1, 1), [(0, 0)])
    bd = analyze(halfplane_germ, pair)
    sup = halfplane_germ.support
    assert all(bd.u.contains(g) for g in sup.generators)
    # sigma0 is the cone over u's rays
    assert all(sup.contains(g) for g in bd.u.rays)
    assert rational_rank(bd.u.rays, 2) == 2 and bd.l == 0
    for e in halfplane_germ.fan.rays:
        assert log_discrepancy(bd, e) == 0
    assert mld_over_fiber(bd) is None


def test_log_discrepancy_examples(a2_germ, cax4_germ):
    bd = analyze(a2_germ, zero_pair(a2_germ))
    assert log_discrepancy(bd, (1, 1)) == 2
    bdc = analyze(cax4_germ, zero_pair(cax4_germ))
    # (2,-1,1) is the basis image of the ambient point (2,1,1)
    assert log_discrepancy(bdc, (2, -1, 1)) == 2
    with pytest.raises(PairError):
        log_discrepancy(bd, (-1, 0))


def test_log_discrepancy_refuses_an_entry_that_is_not_an_integer(a2_germ):
    bd = analyze(a2_germ, zero_pair(a2_germ))
    # int() took (3/2, 1) for (1, 1)
    with pytest.raises(PairError, match="is not an integer vector"):
        log_discrepancy(bd, (F(3, 2), 1))
    assert log_discrepancy(bd, (F(1), 1.0)) == 2


def test_log_discrepancy_cross_check_raises(a2_germ):
    bd = analyze(a2_germ, zero_pair(a2_germ))
    assert log_discrepancy(bd, (1, 1)) == 2
    wrong = dataclasses.replace(bd, psi=((3, 0, 1),))
    with pytest.raises(PairError, match="log discrepancies disagree"):
        log_discrepancy(wrong, (1, 1))


def test_is_glc_examples(a2_germ):
    bd = analyze(a2_germ, zero_pair(a2_germ))
    assert is_glc(bd)
    shifted = make_pair(a2_germ.fan, (0, 0), [(3, 0), (0, 3)])
    bds = analyze(a2_germ, shifted)
    assert not is_glc(bds)
    sig = make_pair(a2_germ.fan, (1, 1), [(0, 0)])
    bdsig = analyze(a2_germ, sig)
    assert is_glc(bdsig)


def test_mld_examples(a1_germ, a2_germ, a3_germ, halfplane_germ, cax4_germ):
    cases = [
        (a2_germ, zero_pair(a2_germ), F(2)),
        (a3_germ, zero_pair(a3_germ), F(3)),
        (a1_germ, a1_pair(a1_germ, F(2, 3)), F(2, 3)),
        (halfplane_germ, zero_pair(halfplane_germ), F(1)),
        (cax4_germ, zero_pair(cax4_germ), F(2)),
    ]
    for tc, pair, expected in cases:
        bd = analyze(tc, pair)
        assert mld_over_fiber(bd) == expected


def _corpus_germ(name):
    tc, pair, _obj = load_corpus(name)
    return tc, pair


@pytest.mark.parametrize("first, second, l, mld", [
    ("wedge25", "wedge25", 4, F(14, 25)),
    ("a3_identity", "a3_identity", 6, F(6)),
    ("cax4", "halfplane", 5, F(3)),
    ("wedge25", "cax4", 5, F(57, 25)),
    ("cax4", "cax4", 6, F(4)),
])
def test_product_mld_is_the_sum(first, second, l, mld):
    # the box of X1 x X2 is box1 x box2, so a log discrepancy is the sum of
    # the factors' and the mld over the fiber is additive
    factors = [_corpus_germ(first), _corpus_germ(second)]
    tc, pair = product_germ(*factors)
    bd = analyze(tc, pair)
    assert (tc.rank, bd.l) == (sum(f[0].rank for f in factors), l)
    assert is_glc(bd)
    assert mld_over_fiber(bd) == mld == sum(mld_over_fiber(analyze(t, p))
                                                for t, p in factors)


def test_product_is_glc_iff_both_factors_are(a2_germ):
    not_glc = (a2_germ, make_pair(a2_germ.fan, (0, 0), [(3, 0), (0, 3)]))
    factors = [not_glc, _corpus_germ("wedge25"), _corpus_germ("halfplane")]
    seen = set()
    for first in factors:
        for second in factors:
            tc, pair = product_germ(first, second)
            glc = is_glc(analyze(tc, pair))
            assert glc == all(is_glc(analyze(t, p)) for t, p in (first, second))
            seen.add(glc)
    assert seen == {True, False}


def test_mld_rejects_dim_y_zero():
    fan = make_fan(1, [(1,), (-1,)], [(0,), (1,)])
    tc = make_contraction(fan, ())
    validate_contraction(tc)
    bd = analyze(tc, make_pair(fan, (0, 0), [(0,)]))
    with pytest.raises(PairError, match="dim Y = 0"):
        mld_over_fiber(bd)


def test_mld_against_oracle_corpus(a1_germ, a2_germ, a3_germ, halfplane_germ,
                                   cax4_germ, wedge25_germ):
    # box radii documented per instance: large enough to hold a minimizer
    cases = [
        (a1_germ, a1_pair(a1_germ, F(1, 3)), 2),
        (a2_germ, zero_pair(a2_germ), 3),
        (a3_germ, zero_pair(a3_germ), 2),
        (halfplane_germ, zero_pair(halfplane_germ), 3),
        (cax4_germ, zero_pair(cax4_germ), 4),
        (wedge25_germ, wedge25_pair(wedge25_germ), 5),
    ]
    for tc, pair, radius in cases:
        bd = analyze(tc, pair)
        value, witness = oracle_mld(bd, radius)
        assert mld_over_fiber(bd) == value
        assert log_discrepancy(bd, witness) == value


def test_lct_examples(a1_germ, a2_germ, halfplane_germ):
    bd = analyze(a2_germ, zero_pair(a2_germ))
    assert lct_pullback(bd, (1, 0)) == 1
    for a in (F(1, 3), F(1, 2), F(2, 3)):
        bda = analyze(a1_germ, a1_pair(a1_germ, a))
        assert lct_pullback(bda, (1,)) == a
    bdh = analyze(halfplane_germ, zero_pair(halfplane_germ))
    assert lct_pullback(bdh, (1,)) == 1
    with pytest.raises(PairError):
        lct_pullback(bd, (0, 0))


def test_lct_pullback_refuses_an_entry_that_is_not_an_integer(a1_germ):
    bd = analyze(a1_germ, a1_pair(a1_germ, F(1, 2)))
    with pytest.raises(PairError, match="is not an integer vector"):
        lct_pullback(bd, (F(3, 2),))
    assert lct_pullback(bd, (1.0,)) == F(1, 2)


def test_mld_dominates_lct(a1_germ, a2_germ, a3_germ, halfplane_germ,
                           cax4_germ, wedge25_germ):
    rng = random.Random(53)
    cases = [
        (a1_germ, a1_pair(a1_germ, F(2, 3))),
        (a2_germ, zero_pair(a2_germ)),
        (a3_germ, zero_pair(a3_germ)),
        (halfplane_germ, zero_pair(halfplane_germ)),
        (cax4_germ, zero_pair(cax4_germ)),
        (wedge25_germ, wedge25_pair(wedge25_germ)),
    ]
    for tc, pair in cases:
        bd = analyze(tc, pair)
        a = mld_over_fiber(bd)
        duals = tc.sigma_bar.dual_rays
        for _ in range(8):
            coeffs = [rng.randint(0, 2) for _ in duals]
            phibar = tuple(sum(c * g[i] for c, g in zip(coeffs, duals))
                           for i in range(tc.base_rank))
            if all(x == 0 for x in phibar):
                continue
            assert a >= lct_pullback(bd, phibar)


def test_translation_invariance(a2_germ, wedge25_germ):
    rng = random.Random(59)
    for tc, pair in [(a2_germ, make_pair(a2_germ.fan, (0, F(1, 3)),
                                         [(0, 0), (1, 1)])),
                     (wedge25_germ, wedge25_pair(wedge25_germ))]:
        bd = analyze(tc, pair)
        for _ in range(5):
            m = tuple(rng.randint(-2, 2) for _ in range(tc.rank))
            moved = make_pair(
                tc.fan, pair.b_inv,
                [tuple(x + y for x, y in zip(p, m)) for p in pair.bdiv_a.points])
            bd2 = analyze(tc, moved)
            assert polyhedra_equal(bd.box, bd2.box)
            for e in [(1, 1), (1, 2), (2, 1)]:
                if tc.support.contains(e):
                    assert log_discrepancy(bd, e) == log_discrepancy(bd2, e)


def _pulled_back_pair(tc, bd, fan2):
    coeffs = [1 - log_discrepancy(bd, e) for e in fan2.rays]
    return make_pair(fan2, coeffs, bd.a_eff.points)


def test_log_pullback_box_equality_sigma(halfplane_germ):
    # B = Sigma_X: every refinement carries the pair with coefficients 1
    pair = make_pair(halfplane_germ.fan, (1, 1, 1), [(0, 0)])
    bd = analyze(halfplane_germ, pair)
    fan2, _ = subdivide_fan(halfplane_germ.fan, (1, 0))
    tc2 = make_contraction(fan2, halfplane_germ.pi,
                           halfplane_germ.sigma_bar.generators)
    validate_contraction(tc2)
    bd2 = analyze(tc2, _pulled_back_pair(tc2, bd, fan2))
    assert polyhedra_equal(bd.box, bd2.box)


def test_log_pullback_box_equality_wedge(wedge25_germ):
    # refine along the kink of h_A so the b-divisor descends
    pair = wedge25_pair(wedge25_germ)
    bd = analyze(wedge25_germ, pair)
    fan2, q = subdivide_fan(wedge25_germ.fan, (25, -7))
    assert (7, 25) in q
    tc2 = make_contraction(fan2, wedge25_germ.pi,
                           wedge25_germ.sigma_bar.generators)
    validate_contraction(tc2)
    bd2 = analyze(tc2, _pulled_back_pair(tc2, bd, fan2))
    assert polyhedra_equal(bd.box, bd2.box)
    assert mld_over_fiber(bd2) == mld_over_fiber(bd)


def test_box_independent_of_bdiv_translation_only_through_difference(a1_germ):
    # replacing A by a singleton translate is a principal shift: box moves
    # with psi but discrepancies are unchanged
    base = make_pair(a1_germ.fan, (F(1, 4),), [(0,)])
    shifted = make_pair(a1_germ.fan, (F(1, 4),), [(F(5, 2),)])
    b1 = analyze(a1_germ, base)
    b2 = analyze(a1_germ, shifted)
    for e in [(1,), (2,), (3,)]:
        assert log_discrepancy(b1, e) == log_discrepancy(b2, e)
