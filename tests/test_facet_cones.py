"""A cone built from its facets converts its generators on their first read, once, to the value it held when it converted them on construction."""

import itertools

import pytest

import toricmld.generator
import toricmld.pairs
import toricmld.polyhedra as polyhedra
from toricmld.generator import random_instance
from toricmld.instances import CORPUS, load_corpus
from toricmld.lattice import primitive
from toricmld.polyhedra import _generators_of, cone_from_facets, make_cone

SEEDS = [*range(120), *range(2000, 2064)]


def reference_facet_generators(facets, dim):
    """`cone_from_facets`'s generators as it computed them on construction: the reference."""
    return tuple(sorted({primitive(g) for g in _generators_of(facets, dim)}))


@pytest.fixture
def conversions(monkeypatch):
    """A one-element list counting `polyhedra.cone_from_inequalities` calls."""
    calls = [0]
    real = polyhedra.cone_from_inequalities

    def counted(rows, dim):
        calls[0] += 1
        return real(rows, dim)

    monkeypatch.setattr(polyhedra, "cone_from_inequalities", counted)
    return calls


def _recorded_facet_cones(monkeypatch, conversions, run):
    """(dim, facets, cone, conversions while building it) of every cone_from_facets call in run()."""
    seen = []

    def recording(dim, facets):
        before = conversions[0]
        cone = cone_from_facets(dim, facets)
        seen.append((dim, tuple(facets), cone, conversions[0] - before))
        return cone

    with monkeypatch.context() as patch:
        patch.setattr(toricmld.generator, "cone_from_facets", recording)
        patch.setattr(toricmld.pairs, "cone_from_facets", recording)
        run()
    return seen


def _assert_lazy_and_as_before(dim, facets, conversions):
    """A fresh cone from the facets: no conversion until its generators are
    read, one at that read, none after; the former eager generators; and
    ==, hash and contains as on the eager cone."""
    conversions[0] = 0
    cone = cone_from_facets(dim, facets)
    assert conversions[0] == 0
    eager = make_cone(dim, reference_facet_generators(facets, dim))
    conversions[0] = 0
    probes = [*facets, *eager.generators, *itertools.product(range(-1, 2), repeat=dim)]
    assert [cone.contains(v) for v in probes] == [eager.contains(v) for v in probes]
    assert hash(cone) == hash(eager)
    assert cone.is_pointed() == eager.is_pointed()
    assert conversions[0] == 0
    assert cone.generators == eager.generators
    assert conversions[0] == 1
    assert cone.generators is cone.generators
    assert conversions[0] == 1
    assert (cone.dual_rays, cone.dual_lines) == (eager.dual_rays, eager.dual_lines)
    assert cone == eager and eager == cone
    assert conversions[0] == 1


def test_every_facet_cone_the_generator_builds_is_lazy_and_as_before(monkeypatch, conversions):
    seen = _recorded_facet_cones(monkeypatch, conversions,
                                 lambda: [random_instance(seed) for seed in SEEDS])
    assert all(built == 0 for _dim, _facets, _cone, built in seen)
    unread = [cone for _dim, _facets, cone, _built in seen if "generators" not in vars(cone)]
    for cone in unread:
        conversions[0] = 0
        assert cone.generators and conversions[0] == 1
        assert cone.generators and conversions[0] == 1
    with_lines = 0
    for dim, facets, _cone, _built in seen:
        _assert_lazy_and_as_before(dim, facets, conversions)
        with_lines += not cone_from_facets(dim, facets).is_pointed()
    # 2147 cones, 662 with lines; the generators of 595 are never read
    assert len(seen) >= 2000 and with_lines >= 600 and len(unread) >= 500


def test_the_corpus_supports_are_lazy_and_as_before(monkeypatch, conversions):
    seen = _recorded_facet_cones(monkeypatch, conversions,
                                 lambda: [load_corpus(name) for name in CORPUS])
    assert len(seen) == len(CORPUS)
    for dim, facets, _cone, built in seen:
        assert built == 0
        _assert_lazy_and_as_before(dim, facets, conversions)
