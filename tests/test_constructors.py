"""Shape and range checks belong to the constructors that own the data.

`make_fan`, `make_contraction` and `make_pair` refuse malformed shapes
and ranges with a PairError that names the index and the expected
length, before any lattice or polyhedron code sees the data.  The
instance loader keeps only the JSON typing, so `toricmld check` reports
the constructors' messages and exits 2.
"""

import json
import tracemalloc
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricmld.cli import main
from toricmld.instances import (
    InstanceError,
    corpus_bytes,
    dumps_canonical,
    instance_from_obj,
)
from toricmld.lattice import identity
from toricmld.pairs import PairError, make_contraction, make_fan, make_pair
from toricmld.polyhedra import make_support


def _a2_fan():
    return make_fan(2, [(1, 0), (0, 1)], [(0, 1)])


def test_make_pair_refuses_a_ragged_b_divisor_set():
    # the first point has the right length, so A's dimension looked right
    with pytest.raises(PairError, match=r"^b-divisor point 1 has 3 entries, not 2$"):
        make_pair(_a2_fan(), (0, 0), [(0, 0), (1, 2, 3)])


def test_make_pair_refuses_a_ragged_general_boundary():
    with pytest.raises(PairError, match=r"^general boundary 0 point 1 has 1 entries, not 2$"):
        make_pair(_a2_fan(), (0, 0), [(0, 0)], [(1, [(0, 0), (1,)])])


def test_make_fan_refuses_a_ray_of_the_wrong_length():
    with pytest.raises(PairError, match=r"^fan ray 0 has 3 entries, not 2$"):
        make_fan(2, [(1, 0, 0), (0, 1)], [(0, 1)])


def test_make_fan_refuses_a_negative_rank():
    # validate_contraction accepted the empty fan of rank -1 over a rank-0 base
    with pytest.raises(PairError, match=r"^fan rank -1 is negative$"):
        make_fan(-1, [], [])


def test_make_fan_refuses_positive_rank_without_cones_only():
    with pytest.raises(PairError, match=r"^fan of rank 3 has no maximal cones$"):
        make_fan(3, [], [])
    assert make_fan(0, [], []).max_cones == ()


def test_make_pair_refuses_an_empty_point_set():
    with pytest.raises(PairError, match=r"^b-divisor has no points$"):
        make_pair(_a2_fan(), (0, 0), [])
    with pytest.raises(PairError, match=r"^general boundary 0 has no points$"):
        make_pair(_a2_fan(), (0, 0), [(0, 0)], [(1, [])])


def _pair_error(*args):
    with pytest.raises(PairError) as info:
        make_pair(*args)
    return str(info.value)


def test_make_pair_takes_a_built_support_set_as_its_points():
    fan = _a2_fan()
    a_pts = [(F(1, 2), F(-1, 3)), (0, 0)]
    a_j = [(0, 0), (1, -1)]
    want = make_pair(fan, (0, F(1, 2)), a_pts, [(F(1, 2), a_j)])
    for a, g in [(make_support(a_pts), a_j), (a_pts, make_support(a_j)),
                 (make_support(a_pts), make_support(a_j))]:
        got = make_pair(fan, (0, F(1, 2)), a, [(F(1, 2), g)])
        assert got == want
        if not isinstance(a, list):
            assert got.bdiv_a is a
        if not isinstance(g, list):
            assert got.general[0][1] is g


def test_make_pair_refuses_a_support_set_of_the_wrong_dimension_as_its_points():
    fan = _a2_fan()
    for pts in ([(1, 2, 3)], [(1, 2, 3), (0, 0, 0)], [(1,)]):
        a_set = make_support(pts)
        assert _pair_error(fan, (0, 0), a_set) == _pair_error(fan, (0, 0), pts)
        assert (_pair_error(fan, (0, 0), [(0, 0)], [(1, a_set)])
                == _pair_error(fan, (0, 0), [(0, 0)], [(1, pts)]))
    message = _pair_error(fan, (0, 0), make_support([(1,)]))
    assert message == "b-divisor point 0 has 1 entries, not 2"


def test_make_pair_refuses_a_general_support_set_with_a_fractional_point():
    a_set = make_support([(0, 0), (F(1, 2), 1)])
    assert any(h[-1] != 1 for h in a_set.rows)
    with pytest.raises(PairError, match=r"^general boundary support sets must be integral$"):
        make_pair(_a2_fan(), (0, 0), [(0, 0)], [(1, a_set)])


def test_make_pair_keeps_a_fraction_coefficient_and_converts_the_others():
    half, one = F(1, 2), F(1)
    pair = make_pair(_a2_fan(), (half, "1/2"), [(0, 0)], [(one, [(0, 0)]), (2, [(0, 0)])])
    assert pair.b_inv[0] is half and pair.general[0][0] is one
    assert pair.b_inv[1] == half and type(pair.b_inv[1]) is F
    assert pair.general[1][0] == 2 and type(pair.general[1][0]) is F
    assert make_pair(_a2_fan(), (0, 1), [(0, 0)]).b_inv == (F(0), F(1))
    assert all(type(x) is F for x in make_pair(_a2_fan(), (0, 1), [(0, 0)]).b_inv)


def test_make_contraction_refuses_pi_of_the_wrong_width():
    with pytest.raises(PairError, match=r"^pi row 0 has 3 entries, not 2$"):
        make_contraction(_a2_fan(), [(1, 0, 0)])


def test_make_contraction_refuses_a_sigma_bar_generator_of_the_wrong_length():
    with pytest.raises(PairError, match=r"^sigma_bar generator 1 has 2 entries, not 1$"):
        make_contraction(_a2_fan(), [(1, 1)], [(1,), (1, 0)])


def test_make_fan_refuses_an_entry_that_is_not_an_integer():
    # int() took the ray (3/2, 0) for (1, 0)
    with pytest.raises(PairError, match=r"^fan ray 0 is not an integer vector"):
        make_fan(2, [(F(3, 2), 0), (0, 1)], [(0, 1)])
    with pytest.raises(PairError, match=r"^maximal cone 0 is not an integer vector"):
        make_fan(2, [(1, 0), (0, 1)], [(0, 1.5)])
    fan = make_fan(2, [(F(1), 0), (0, 1.0)], [(0.0, 1)])
    assert fan.rays == ((1, 0), (0, 1)) and fan.max_cones == ((0, 1),)
    assert all(type(x) is int for r in fan.rays for x in r)


def test_make_contraction_refuses_an_entry_that_is_not_an_integer():
    with pytest.raises(PairError, match=r"^pi row 0 is not an integer vector"):
        make_contraction(_a2_fan(), [(F(1, 2), 0)])
    # a Fraction generator raised a bare TypeError
    with pytest.raises(PairError, match=r"^sigma_bar generator 0 is not an integer vector"):
        make_contraction(_a2_fan(), [(1, 1)], [(F(1, 2),)])
    tc = make_contraction(_a2_fan(), [(1.0, F(1))], [(F(1),)])
    assert tc.pi == ((1, 1),) and tc.sigma_bar.generators == ((1,),)


def _off_length(draw, n):
    return draw(st.sampled_from([k for k in (n - 1, n + 1, n + 2) if k >= 0]))


def _vector(draw, length):
    return tuple(draw(st.lists(st.integers(-3, 3), min_size=length, max_size=length)))


def _put(draw, rows, row):
    i = draw(st.integers(0, len(rows)))
    return rows[:i] + [row] + rows[i:]


@st.composite
def malformed_constructor_calls(draw):
    """A call of make_fan, make_contraction or make_pair with one defect in it.

    Everything else in the call is the valid smooth germ of rank n, so the
    constructor's own check is the only thing that can refuse it.
    """
    n = draw(st.integers(1, 3))
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    cones = [tuple(range(n))]
    fan = make_fan(n, rays, cones)
    b = [F(0)] * n
    a_pts = [(0,) * n]
    defect = draw(st.sampled_from([
        "rank", "ray length", "cone index", "pi row length", "sigma_bar length",
        "b count", "b range", "A empty", "A point length", "A_j empty",
        "A_j point length", "b_j negative"]))
    bad = _vector(draw, _off_length(draw, n))
    if defect == "rank":
        some_rays = rays[:draw(st.integers(0, n))]
        return partial(make_fan, -n, some_rays, [])
    if defect == "ray length":
        i = draw(st.integers(0, n - 1))
        return partial(make_fan, n, rays[:i] + [bad] + rays[i + 1:], cones)
    if defect == "cone index":
        j = draw(st.sampled_from([-1, n, n + 5]))
        return partial(make_fan, n, rays, [tuple(range(n - 1)) + (j,)])
    if defect == "pi row length":
        pi = _put(draw, list(identity(n))[:draw(st.integers(0, n - 1))], bad)
        return partial(make_contraction, fan, pi)
    if defect == "sigma_bar length":
        gens = _put(draw, list(rays), bad)
        return partial(make_contraction, fan, identity(n), gens)
    if defect == "b count":
        count = draw(st.sampled_from([k for k in (0, n - 1, n + 1) if k != n]))
        return partial(make_pair, fan, [F(0)] * count, a_pts)
    if defect == "b range":
        x = draw(st.sampled_from([F(-1), F(-1, 7), F(8, 7), F(2)]))
        b_bad = _put(draw, b[1:], x)
        return partial(make_pair, fan, b_bad, a_pts)
    if defect == "A empty":
        return partial(make_pair, fan, b, [])
    if defect == "A point length":
        pts = _put(draw, a_pts, bad)
        return partial(make_pair, fan, b, pts)
    if defect == "A_j empty":
        return partial(make_pair, fan, b, a_pts, [(1, [])])
    if defect == "A_j point length":
        pts = _put(draw, a_pts, bad)
        return partial(make_pair, fan, b, a_pts, [(1, pts)])
    return partial(make_pair, fan, b, a_pts, [(F(-1, 2), a_pts)])   # "b_j negative"


@settings(max_examples=150, deadline=None)
@given(malformed_constructor_calls())
def test_malformed_shapes_and_ranges_raise_pair_error(call):
    # pytest.raises(PairError) lets a LatticeError, GeometryError or
    # IndexError through, which fails the test
    with pytest.raises(PairError):
        call()


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


@pytest.mark.parametrize("field, value, message", [
    ("rays", [[1, 0], [0, 1, 0]], "fan ray 1 has 3 entries, not 2"),
    ("pi", [[1, 0], [0, 1, 1]], "pi row 1 has 3 entries, not 2"),
    ("sigma_bar", [[1, 0], [0]], "sigma_bar generator 1 has 1 entries, not 2"),
    ("B", {"1": "3/2"}, "boundary coefficient 3/2 on ray 1 outside [0,1]"),
    ("bdiv_A", [], "b-divisor has no points"),
    ("bdiv_A", [["0", "0"], ["1"]], "b-divisor point 1 has 1 entries, not 2"),
    ("general", [{"b": "-1", "A": [[0, 0]]}],
     "general boundary 0 coefficient -1 must be nonnegative"),
    ("general", [{"b": "1", "A": []}], "general boundary 0 has no points"),
    ("general", [{"b": "1", "A": [[0, 0, 0]]}],
     "general boundary 0 point 0 has 3 entries, not 2"),
    ("max_cones", [[]], "maximal cone 0 is empty"),
    ("max_cones", [[0, 1], []], "maximal cone 1 is empty"),
    ("max_cones", [[], []], "maximal cone 0 is empty"),
    ("max_cones", [[0, 5]], "maximal cone 0 has ray index 5, not the index of one of the 2 rays"),
    ("max_cones", [[0, 1], [-1, 0]],
     "maximal cone 1 has ray index -1, not the index of one of the 2 rays"),
    ("max_cones", [[0, 1], [1, 0]], "duplicate maximal cone"),
    ("rays", [[1, 0], [1, 0]], "duplicate fan ray"),
])
def test_check_reports_each_malformed_field(tmp_path, capsys, field, value, message):
    obj = json.loads(corpus_bytes("a2_identity").decode())
    obj[field] = value
    p = tmp_path / "bad.json"
    p.write_text(dumps_canonical(obj))
    rc, out, err = run(capsys, "check", str(p))
    assert rc == 2 and out == "" and err == "error: %s\n" % message
    rc, out, err = run(capsys, "check", str(p), "--json")
    assert rc == 2 and err == "" and json.loads(out) == {"error": message}


@pytest.mark.parametrize("general", [5, "1/2", {"b": "1", "A": [[0, 0]]}])
def test_check_requires_a_list_of_general_boundaries(tmp_path, capsys, general):
    obj = json.loads(corpus_bytes("a2_identity").decode())
    obj["general"] = general
    p = tmp_path / "general.json"
    p.write_text(dumps_canonical(obj))
    rc, out, err = run(capsys, "check", str(p))
    assert rc == 2 and out == ""
    assert err == "error: general: expected a list of {b, A} objects\n"


def test_check_refuses_a_huge_rank_before_building_anything_of_that_size(tmp_path, capsys):
    # the default b-divisor point has rank_N entries: the ray check in
    # make_fan must refuse the file before that point is built
    rank = 10 ** 7
    obj = json.loads(corpus_bytes("a2_identity").decode())
    obj["rank_N"] = rank
    del obj["bdiv_A"]
    p = tmp_path / "huge.json"
    p.write_text(dumps_canonical(obj))
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "check", str(p))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == ""
    assert err == "error: fan ray 0 has 2 entries, not %d\n" % rank
    assert peak < rank       # a list of rank_N entries takes 8 bytes an entry


def test_check_refuses_a_fan_of_positive_rank_without_cones(tmp_path, capsys):
    # make_fan refuses it before validate_contraction builds pi^-1(sigma_bar)
    # in rank rank_N, which took about 0.5 s at rank 200
    p = tmp_path / "empty.json"
    p.write_text(dumps_canonical({"rank_N": 200, "rays": [], "max_cones": [], "pi": []}))
    rc, out, err = run(capsys, "check", str(p))
    assert rc == 2 and out == ""
    assert err == "error: fan of rank 200 has no maximal cones\n"


def test_instance_without_bdiv_a_gets_the_point_zero():
    obj = json.loads(corpus_bytes("a2_identity").decode())
    del obj["bdiv_A"]
    _tc, pair = instance_from_obj(obj)
    assert pair.bdiv_a.points == ((0, 0),)
    obj["bdiv_A"] = None
    with pytest.raises(InstanceError, match="^bdiv_A: expected a list"):
        instance_from_obj(obj)
