from toricmld.generator import random_instance
from toricmld.instances import dumps_canonical, instance_to_obj
from toricmld.pairs import analyze, is_glc, mld_over_fiber, validate_contraction


def test_instances_satisfy_hypotheses():
    for tc, pair, meta in [random_instance(100 + i) for i in range(15)]:
        validate_contraction(tc)
        _folded, psi, bd = analyze(tc, pair)
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
