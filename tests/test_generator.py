import random

import pytest

import toricmld.generator as generator
from toricmld.generator import (
    MAX_ATTEMPTS,
    _build_fan,
    _candidate_pair,
    _rand_sigma_bar,
    _rand_unimodular,
    random_instance,
)
from toricmld.instances import dumps_canonical, instance_to_obj
from toricmld.lattice import LatticeError
from toricmld.pairs import (
    PairError,
    analyze,
    is_glc,
    make_contraction,
    mld_over_fiber,
    validate_contraction,
)
from toricmld.polyhedra import GeometryError, cone_from_normals


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
            fan = _build_fan(rng, support, n)
            tc = make_contraction(fan, pi, sigma_bar.generators)
            validate_contraction(tc)
            pair = _candidate_pair(rng, tc)
            bd = analyze(tc, pair)
            if not is_glc(bd):
                raise PairError("sampled pair not g-lc")
            if mld_over_fiber(tc, bd) is None:
                raise PairError("sampled pair has non-positive mld")
            return tc, pair, {"seed": seed, "attempts": attempt + 1,
                              "rank": n, "base_rank": nbar}
        except (PairError, GeometryError, LatticeError):
            continue
    raise PairError("no valid instance found for seed %r" % seed)


def test_instances_satisfy_hypotheses():
    for tc, pair, meta in [random_instance(100 + i) for i in range(15)]:
        validate_contraction(tc)
        bd = analyze(tc, pair)
        assert is_glc(bd)
        assert mld_over_fiber(tc, bd) is not None
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

    def recording_make_contraction(*args):
        tc = make_contraction(*args)
        made.append(tc)
        return tc

    monkeypatch.setattr(generator, "make_contraction", recording_make_contraction)
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
