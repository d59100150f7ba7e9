"""The generators of box_{-K-B-D} and the quotient by sigma0 = 0, read off.

`analyze` takes the generators of box_{-K-B-D} = {m : <m, e> >= -r_e}
from the Cartier data and the support (`_nef_box_generators`), converts
only the rows of the box when the folded A is one point, and
`BoxData.quotient` returns the identity and u itself when u has no rays.
The references are the conversions they replaced: the double description
of the rows (e, -r_e), `_from_hpoints` of the box's generators, and up
read off u's facets by one double description.  Each must agree field by
field, not only as sets: the certificates hash the box's and up's stored
rows.
"""

from fractions import Fraction as F

from conftest import ACCEPTANCE_SEEDS, germ, product_germ
from toricmld.generator import random_instance
from toricmld.instances import CORPUS, load_corpus
from toricmld.lattice import compose_covector, dot, identity, quotient_by_span, saturated_span
from toricmld.pairs import (
    _nef_box_generators,
    analyze,
    fold_general,
    make_contraction,
    make_fan,
    make_pair,
    nef_values,
    validate_contraction,
)
from toricmld.polyhedra import (
    Polyhedron,
    _from_hpoints,
    _generators_from_ineqs,
    _integer_row,
    _point_sum,
)


def reference_nef_box_generators(tc, pair):
    """The former conversion: (hpoints, rays) of {m : <m, e> >= -r_e} by double description."""
    fan = tc.fan
    r = nef_values(fan, fold_general(fan, pair))
    return _generators_from_ineqs([_integer_row(e, -F(*re)) for e, re in zip(fan.rays, r)],
                                  fan.rank)


def reference_facet_quotient(bd):
    """The former BoxData.quotient for every sigma0: up read off u's facets, converted once."""
    n, l, u = bd.tc.rank, bd.l, bd.u
    q = quotient_by_span(n, saturated_span(n, u.rays))
    rows = sorted((compose_covector(a, q.section, l), c) for a, c in u.ineqs
                  if all(dot(a, r) == 0 for r in u.rays))
    hpoints, rays = _generators_from_ineqs(rows, l)
    return q.projection, Polyhedron(l, hpoints, rays, tuple(rows))


def _corpus_germ(name):
    return load_corpus(name)[:2]


def _cases():
    """The corpus, the acceptance seeds, generator seeds 0-119, products, smooth and rank 0.

    The products are a3_identity x cax4, wedge25^2 and wedge25^3 (rank 6);
    the smooth germs are the near-boundary points A^3 with B = (1-1/d,
    1-1/d, 0) and A^2 with B = (1-1/d, 0); the rank-0 germ has no maximal
    cone.
    """
    for name in CORPUS:
        yield name, _corpus_germ(name)
    for seed in ACCEPTANCE_SEEDS + tuple(range(120)):
        yield "seed%d" % seed, random_instance(seed)[:2]
    wedge = _corpus_germ("wedge25")
    wedge2 = product_germ(wedge, wedge)
    yield "a3_identity x cax4", product_germ(_corpus_germ("a3_identity"), _corpus_germ("cax4"))
    yield "wedge25^2", wedge2
    yield "wedge25^3", product_germ(wedge2, wedge)
    for n, boundary in ((3, 2), (2, 1)):
        tc = germ(n, identity(n), [tuple(range(n))], identity(n))
        for d in (2, 45, 3162):
            b = [1 - F(1, d)] * boundary + [0] * (n - boundary)
            yield "A%d_d%d" % (n, d), (tc, make_pair(tc.fan, b, [(0,) * n]))
    fan = make_fan(0, [], [])
    tc = make_contraction(fan, ())
    validate_contraction(tc)
    yield "rank 0", (tc, make_pair(fan, (), [()]))


def test_box_generators_and_the_quotient_by_zero_match_the_conversions():
    checked = identities = quotients = 0
    ranks = set()
    for name, (tc, pair) in _cases():
        bd = analyze(tc, pair)
        assert _nef_box_generators(tc, bd.psi) == reference_nef_box_generators(tc, pair), name
        checked += 1
        ranks.add(tc.rank)
        if bd.l == 0:
            continue
        proj, up = bd.quotient
        assert (proj, up) == reference_facet_quotient(bd), name
        if not bd.u.rays:
            assert proj == identity(tc.rank) and up is bd.u, name
            identities += 1
        quotients += 1
    assert checked == 8 + 104 + 120 + 3 + 6 + 1
    assert ranks == {0, 1, 2, 3, 4, 6}
    assert (quotients, identities) == (241, 207)


def test_the_box_matches_both_conversions_of_its_generators():
    """The box analyze builds is `_from_hpoints` of its generators, field by field,
    whether the folded A is one point (one conversion, its generators
    translated) or more (both conversions)."""
    one_point = more = 0
    for name, (tc, pair) in _cases():
        bd = analyze(tc, pair)
        d_points, d_rays = _nef_box_generators(tc, bd.psi)
        hpoints = [_point_sum(g, h) for g in bd.a_eff.rows for h in d_points]
        assert bd.box == _from_hpoints(tc.rank, hpoints, d_rays), name
        if len(bd.a_eff.rows) == 1:
            one_point += 1
        else:
            more += 1
    assert (one_point, more) == (93, 149)
