import ast
import importlib
import inspect
import pathlib
import sys

import toricmld
import toricmld.generator
import toricmld.lattice
import toricmld.pairs
import toricmld.polyhedra
import toricmld.search
from conftest import INTERIOR_SEEDS, cone_from_normals
from toricmld.generator import _build_fan, _split, random_instance
from toricmld.instances import CORPUS, load_corpus
from toricmld.lattice import apply_hom, kernel_sublattice
from toricmld.pairs import analyze, is_glc, make_contraction, make_fan, make_pair, mld_over_fiber
from toricmld.polyhedra import make_cone
from toricmld.search import find_hyperplane, verify_certificate


def test_no_assert_statements_in_the_package():
    """A check that matters must raise: python -O strips every assert."""
    package = pathlib.Path(toricmld.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def _unused_imports(source, filename):
    """(line, name) of each name a module imports and never reads."""
    tree = ast.parse(source, filename=filename)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append((node.lineno, name))
    return unused


def test_no_unused_imports_in_the_package():
    """A deleted check leaves no import behind; __init__.py's imports are the API."""
    package = pathlib.Path(toricmld.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            found += ["%s:%d %s" % (path.name, line, name)
                      for line, name in _unused_imports(path.read_text(), str(path))]
    assert found == []


def test_unused_import_scan_sees_a_planted_import():
    source = "from fractions import Fraction\nimport os\nfrom .lattice import dot, primitive\n" \
             "x = primitive(Fraction(1))\n"
    assert _unused_imports(source, "planted.py") == [(2, "os"), (3, "dot")]


def _cached_properties(source, filename):
    """Lines that name cached_property: in an import, as a name or as an attribute."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source, filename=filename))
                   if isinstance(node, ast.Name) and node.id == "cached_property"
                   or isinstance(node, ast.Attribute) and node.attr == "cached_property"
                   or isinstance(node, ast.alias) and node.name == "cached_property"})


def test_no_cached_property_in_the_package():
    """functools.cached_property stores through `__dict__`, and once CPython has
    built an instance's dict every attribute read of it is slower; the
    package's one first-read descriptor, `polyhedra._on_first_read`, stores
    without it."""
    package = pathlib.Path(toricmld.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += ["%s:%d" % (path.name, line)
                  for line in _cached_properties(path.read_text(), str(path))]
    assert found == []


def test_cached_property_scan_sees_planted_uses():
    source = "import functools\nfrom functools import cached_property as cp, wraps\n" \
             "class Fan:\n    @functools.cached_property\n    def cones(self):\n" \
             "        return ()\n    rows = cached_property(len)\n" \
             "# a comment on cached_property is no use\n"
    assert _cached_properties(source, "planted.py") == [2, 4, 7]


def _unread_private_definitions(sources):
    """(file, line, name) of each _name function or class that no source reads.

    sources maps file names to their text; a name is read where it occurs
    as an ast.Name or as the attribute of an ast.Attribute in any of them.
    """
    defined, read = [], set()
    for filename, source in sources.items():
        for node in ast.walk(ast.parse(source, filename=filename)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((filename, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [d for d in defined if d[2] not in read]


def test_every_private_definition_in_the_package_is_read():
    """A helper left behind by a deleted caller is dead code."""
    package = pathlib.Path(toricmld.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _unread_private_definitions(sources) == []


def test_private_definition_scan_sees_a_leftover_helper():
    sources = {
        "search.py": "from .polyhedra import _dd_cut\n"
                     "def _two_face_pairs(cone, n):\n    return []\n"
                     "class _Piece:\n    def __init__(self):\n        self._cut = _dd_cut\n"
                     "def subdivide_fan(fan, phi):\n    return _Piece()._cut(fan, phi)\n",
        "polyhedra.py": "def _dd_cut(rays, facets, a):\n    return None\n",
    }
    assert _unread_private_definitions(sources) == [("search.py", 2, "_two_face_pairs")]


def _readers(sources, name):
    """(file, function) of each top-level definition that reads name, as an
    ast.Name or an attribute; function is None for a read outside any."""
    found = set()
    for filename, source in sources.items():
        for node in ast.parse(source, filename=filename).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Name) and sub.id == name) or (
                        isinstance(sub, ast.Attribute) and sub.attr == name):
                    found.add((filename, owner))
    return sorted(found, key=lambda f: (f[0], f[1] or ""))


def test_one_fraction_free_elimination_in_the_package():
    """The row cancellation is read only by lattice._gauss_jordan, so the
    rank, the solver and the double-description start share one elimination
    wherever they do not take the closed form of dimension <= 3."""
    package = pathlib.Path(toricmld.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _readers(sources, "_cancel") == [("lattice.py", "_gauss_jordan")]


def test_one_closed_form_solve_in_the_package():
    """The adjugate closed form of dimension <= 3 is read only by the one
    exact solver, the surjectivity test, the rank and the double-description
    start, so every exact solve of the package goes through lattice._solve_row."""
    package = pathlib.Path(toricmld.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _readers(sources, "_small_base") == [
        ("lattice.py", "_solve_row"), ("lattice.py", "hom_is_surjective"),
        ("lattice.py", "rational_rank"), ("polyhedra.py", "_simplicial_start")]


def test_one_cut_in_the_package():
    """The adjacency pair loop is read only by the double-description row
    loop and the one cut, polyhedra._cut_cone; zero sets are computed only
    by the cone that keeps them (Cone._zero_sets); and no second cut
    (_dd_cut) is defined or read."""
    package = pathlib.Path(toricmld.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert _readers(sources, "_crossings") == [
        ("polyhedra.py", "_cut_cone"), ("polyhedra.py", "_dd_add_rows")]
    assert _readers(sources, "_zero_set") == [("polyhedra.py", "Cone")]
    assert _readers(sources, "_dd_cut") == []
    assert not any(isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "_dd_cut"
                   for source in sources.values() for node in ast.walk(ast.parse(source)))


def test_reader_scan_sees_a_second_elimination():
    sources = {
        "lattice.py": "def _cancel(r, b, c):\n    return r\n"
                      "def _gauss_jordan(rows):\n    return _cancel(rows, rows, 0)\n",
        "polyhedra.py": "from . import lattice\nfrom .lattice import _cancel\n"
                        "def _start(rows):\n    return lattice._cancel(rows, rows, 0)\n"
                        "STEP = _cancel\n",
    }
    assert _readers(sources, "_cancel") == [
        ("lattice.py", "_gauss_jordan"), ("polyhedra.py", None), ("polyhedra.py", "_start")]


def test_dimension_at_most_3_takes_the_closed_form(monkeypatch):
    """Over find + verify of the corpus, `lattice._gauss_jordan` sees no start
    or rank in <= 3 columns and no square solve of <= 3 unknowns: those take
    `lattice._small_base` (the corpus has no singular square solve, which
    would eliminate).  The dimension-4 starts of the rank-3 germs' boxes
    still eliminate, and only theirs."""
    real = toricmld.lattice._gauss_jordan
    calls = []

    def counted(rows, ncols, slots=0):
        rows = list(rows)
        calls.append((sys._getframe(1).f_code.co_name, ncols, len(rows)))
        return real(rows, ncols, slots)

    monkeypatch.setattr(toricmld.lattice, "_gauss_jordan", counted)
    monkeypatch.setattr(toricmld.polyhedra, "_gauss_jordan", counted)
    ranks = set()
    for name in CORPUS:
        tc, pair, _obj = load_corpus(name)
        calls.clear()
        verify_certificate(tc, pair, find_hyperplane(tc, pair))
        small = [(caller, ncols, nrows) for caller, ncols, nrows in calls
                 if (caller in ("_simplicial_start", "rational_rank") and ncols <= 3)
                 or (caller == "_solve_row" and nrows == ncols - 1 <= 3)]
        assert small == [], name
        starts = [ncols for caller, ncols, _nrows in calls if caller == "_simplicial_start"]
        assert bool(starts) == (tc.rank == 3) and set(starts) <= {4}, (name, starts)
        ranks.add(tc.rank)
    assert ranks == {1, 2, 3}


def test_width_search_and_cartier_data_run_in_integer_pairs(monkeypatch):
    """Over find + verify of the corpus, `search.width_functional` reads its
    candidates' ends as pairs (`polyhedra._interval_ends`) and never calls
    `interval_image`, and `pairs.cartier_psi` reaches `_gauss_jordan`
    through `lattice._solve_row` only for a cone that is not simplicial or
    has rank >= 4: a simplicial cone of rank <= 3 takes the closed form of
    `lattice._small_base`.  The cone over a quadrilateral is not simplicial
    and eliminates."""
    callers = {"interval_image": []}

    def recording(name, real):
        def wrapper(*args):
            callers[name].append((sys._getframe(1).f_code.co_name, args))
            return real(*args)
        return wrapper

    for module in (toricmld.search, toricmld.pairs):
        monkeypatch.setattr(module, "interval_image",
                            recording("interval_image", toricmld.polyhedra.interval_image))
    psi_solves = []    # (rows, unknowns): _solve_row eliminates them and the rhs column
    real_gauss_jordan = toricmld.lattice._gauss_jordan

    def eliminating(rows, ncols, slots=0):
        rows, caller = list(rows), sys._getframe(1)
        if (caller.f_code.co_name, caller.f_back.f_code.co_name) == ("_solve_row", "cartier_psi"):
            psi_solves.append((len(rows), ncols - 1))
        return real_gauss_jordan(rows, ncols, slots)

    monkeypatch.setattr(toricmld.lattice, "_gauss_jordan", eliminating)
    widths = [0]
    real_width = toricmld.search.width_functional

    def counted_width(up, t):
        widths[0] += 1
        return real_width(up, t)

    monkeypatch.setattr(toricmld.search, "width_functional", counted_width)
    for name in CORPUS:
        tc, pair, _obj = load_corpus(name)
        verify_certificate(tc, pair, find_hyperplane(tc, pair))
    assert widths[0] >= len(CORPUS)
    assert [c for c, _args in callers["interval_image"] if c == "width_functional"] == []
    assert callers["interval_image"]    # log_discrepancy and the slices still call it
    assert [(nrows, n) for nrows, n in psi_solves if nrows == n <= 3] == []
    square = make_fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3)])
    tc = make_contraction(square, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    psi_solves.clear()
    analyze(tc, make_pair(square, (0, 0, 0, 0), [(0, 0, 0)]))
    assert psi_solves == [(4, 3)]


def _tc_and_bd_parameters(source, filename):
    """(line, name) of each function or method with both a tc and a bd parameter."""
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            if {"tc", "bd"} <= {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                found.append((node.lineno, node.name))
    return found


def test_no_function_takes_both_a_contraction_and_box_data():
    """bd.tc is the contraction bd was analyzed on; a second tc beside it could differ."""
    package = pathlib.Path(toricmld.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        found += ["%s:%d %s" % (path.name, line, name)
                  for line, name in _tc_and_bd_parameters(path.read_text(), str(path))]
    assert found == []


def test_tc_and_bd_scan_sees_planted_functions():
    source = "def lct_pullback(tc, bd, phibar):\n    return phibar\n" \
             "class Slice:\n    def lift(self, bd, *, tc=None):\n        return bd\n" \
             "def mld_over_fiber(bd):\n    return bd.tc\n" \
             "def analyze(tc, pair):\n    def inner(bd):\n        return tc\n    return inner\n"
    assert _tc_and_bd_parameters(source, "planted.py") == [(1, "lct_pullback"), (4, "lift")]


def _fiber_reads(source, filename):
    """(names, projections) of `mld_over_fiber` in source: every name and
    attribute it reads, and the loaded names bound to the quotient's
    projection, the first item unpacked from `.quotient` (or "quotient[0]")."""
    fn = next(node for node in ast.walk(ast.parse(source, filename=filename))
              if isinstance(node, ast.FunctionDef) and node.name == "mld_over_fiber")
    names, bound, projections = set(), set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute)
              and node.value.attr == "quotient"):
            bound.update(t.elts[0].id for t in node.targets
                         if isinstance(t, ast.Tuple) and isinstance(t.elts[0], ast.Name))
        elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
              and node.value.attr == "quotient" and isinstance(node.slice, ast.Constant)
              and node.slice.value == 0):
            projections.add("quotient[0]")
    return names, projections | (bound & names)


def test_mld_over_fiber_reads_neither_the_fan_nor_the_projection():
    """The mld is a question about up alone: no fan, no fiber witness, no projection."""
    path = pathlib.Path(toricmld.__file__).parent / "pairs.py"
    names, projections = _fiber_reads(path.read_text(), str(path))
    assert "quotient" in names
    assert {"fan", "_fiber_witness"} & names == set()
    assert projections == set()


def test_fiber_read_scan_sees_planted_reads():
    source = "def mld_over_fiber(bd):\n    proj, up = bd.quotient\n" \
             "    return apply_hom(proj, _fiber_witness(bd.tc.fan)), up\n" \
             "def other(bd):\n    return bd.tc.rays\n"
    names, projections = _fiber_reads(source, "planted.py")
    assert {"fan", "_fiber_witness"} <= names and "rays" not in names
    assert projections == {"proj"}
    source = "def mld_over_fiber(bd):\n    _proj, up = bd.quotient\n    return bd.quotient[0]\n"
    assert _fiber_reads(source, "planted.py")[1] == {"quotient[0]"}


def test_analyze_and_mld_build_no_cone_their_polyhedra_describe(monkeypatch):
    """analyze runs 1 double description on a g-lc box of a one-point A, 2 on one of
    more points, 4 off g-lc; bd.quotient 0 or 1, mld none.

    With tc.support cached, analyze reads the generators of box_{-K-B-D}
    off the Cartier data and the support's normals.  When the folded A is
    one point a, the box is a + box_{-K-B-D}, so its generators are those
    translated and only its rows are converted (one call: seven corpus
    germs and seed 1025); otherwise the box is converted both ways (two
    calls: wedge25, whose A has two points).  Every corpus box contains 0
    and is full-dimensional and pointed, so u is read off it; a box
    without 0 costs two more for u.  sigma0 is read off u's rays.  When
    sigma0 = 0 (every corpus germ) bd.quotient is the identity and u
    itself; otherwise it reads up's rows off u's facets and converts them
    once (seed 1025).  With bd.quotient cached, mld_over_fiber reads the
    interior of the support's image off up's rows through 0.
    """
    calls = [0]
    real = toricmld.polyhedra.cone_from_inequalities

    def counted(rows, dim):
        calls[0] += 1
        return real(rows, dim)

    monkeypatch.setattr(toricmld.polyhedra, "cone_from_inequalities", counted)
    germs = [(name, load_corpus(name)[:2]) for name in CORPUS]
    germs.append((1025, random_instance(1025)[:2]))
    scanned = quotients = 0
    one_point = []
    for name, (tc, pair) in germs:
        assert tc.support
        calls[0] = 0
        bd = analyze(tc, pair)
        if len(bd.a_eff.points) == 1:
            one_point.append(name)
            assert calls[0] == 1, name
        else:
            assert calls[0] == 2, name
        if bd.l == 0:
            continue
        calls[0] = 0
        assert bd.quotient
        assert calls[0] == (1 if bd.u.rays else 0), name
        assert bool(bd.u.rays) == (name == 1025), name
        quotients += bool(bd.u.rays)
        calls[0] = 0
        scanned += mld_over_fiber(bd) is not None
        assert calls[0] == 0, name
    assert scanned >= 6 and quotients == 1
    assert one_point == [name for name in CORPUS if name != "wedge25"] + [1025]
    tc, _pair, _obj = load_corpus("a2_identity")
    calls[0] = 0
    bd = analyze(tc, make_pair(tc.fan, (0, 0), [(3, 0), (0, 3)]))
    assert not is_glc(bd) and calls[0] == 4


def test_split_converts_only_the_halves_of_a_cut_pointed_piece(monkeypatch):
    """_split runs no double description on a pointed piece, whether the
    covector misses it or cuts it: each half of a cut is read off the
    piece (polyhedra._cut_cone), its crossing rays and kept facets.
    On a piece with lines it runs none either: each half comes from its
    facets (cone_from_facets) and converts its generators once, on their
    first read, whether it is pointed or has lines; testing it for being
    pointed, membership and splitting it again read no generators."""
    calls = [0]
    real = toricmld.polyhedra.cone_from_inequalities

    def counted(rows, dim):
        calls[0] += 1
        return real(rows, dim)

    monkeypatch.setattr(toricmld.polyhedra, "cone_from_inequalities", counted)
    square = make_cone(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    for cov in [(0, 0, 1), (1, 1, 2), (1, 0, 1), (0, -1, -1)]:
        calls[0] = 0
        assert _split(square, True, cov) == [(square, True)]
        assert calls[0] == 0, cov
    for cov in [(1, 0, 0), (1, 1, 0), (1, -1, 0), (2, 1, -1)]:
        calls[0] = 0
        assert len(_split(square, True, cov)) == 2
        assert calls[0] == 0, cov
    wedge = cone_from_normals(3, [(1, 0, 0), (0, 1, 0)])
    for cov in [(0, 0, 1), (1, -1, 1), (2, 1, -1)]:
        calls[0] = 0
        halves = _split(wedge, False, cov)
        assert [pointed for _half, pointed in halves] == [True, True]
        assert calls[0] == 0, cov
        for half, _pointed in halves:
            assert half.generators and calls[0] == 1, cov
            assert half.generators and calls[0] == 1, cov
            calls[0] = 0
    slab = cone_from_normals(3, [(1, 0, 0)])
    calls[0] = 0
    halves = _split(slab, False, (0, 1, 1))
    assert [pointed for _half, pointed in halves] == [False, False]
    for half, _pointed in halves:
        assert half.contains((1, 1, 1)) != half.contains((1, -1, -1))
        assert len(_split(half, False, (0, 1, -1))) == 2
    assert calls[0] == 0
    for half, _pointed in halves:
        assert half.generators and calls[0] == 1
        calls[0] = 0


def test_a_generated_contraction_keeps_the_support_its_fan_was_cut_from(monkeypatch):
    started = []

    def recording_build_fan(rng, support):
        started.append(support)
        return _build_fan(rng, support)

    monkeypatch.setattr(toricmld.generator, "_build_fan", recording_build_fan)
    for seed in range(2000, 2004):
        tc, _pair, _meta = random_instance(seed)
        assert tc.support is started[-1]


def test_generate_hands_on_the_support_sets_and_stellar_pieces_it_builds(monkeypatch):
    """One generate pass over seeds 2000-2015 calls make_support 0 times:
    A and A_j are drawn as integer rows and make_pair keeps the built
    sets.  No double description runs under _stellar, whose pieces are
    generator tuples.  analyze folds a general boundary into the set
    `_fold` built and makes no Fraction point (`_fraction_points`)."""
    counts = {"make_support": 0, "stellar_dd": 0, "fraction_points": 0}
    in_stellar = [False]

    def counting(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)
        return counted

    real_support = toricmld.polyhedra.make_support
    for module in (toricmld.polyhedra, toricmld.pairs):
        monkeypatch.setattr(module, "make_support", counting("make_support", real_support))
    real_dd = toricmld.polyhedra.cone_from_inequalities

    def dd(rows, dim):
        counts["stellar_dd"] += in_stellar[0]
        return real_dd(rows, dim)

    monkeypatch.setattr(toricmld.polyhedra, "cone_from_inequalities", dd)
    real_stellar = toricmld.generator._stellar
    stellar_calls = [0]

    def stellar(cone):
        stellar_calls[0] += 1
        in_stellar[0] = True
        try:
            return real_stellar(cone)
        finally:
            in_stellar[0] = False

    monkeypatch.setattr(toricmld.generator, "_stellar", stellar)
    monkeypatch.setattr(toricmld.polyhedra, "_fraction_points",
                        counting("fraction_points", toricmld.polyhedra._fraction_points))
    instances = [random_instance(seed) for seed in range(2000, 2016)]
    assert counts == {"make_support": 0, "stellar_dd": 0, "fraction_points": 0}
    assert stellar_calls[0] >= 5
    general = [(tc, pair) for tc, pair, _meta in instances if pair.general]
    # 4 of the 16 instances carry a general boundary
    assert len(general) >= 3
    for tc, pair in general:
        analyze(tc, pair)
    assert counts["fraction_points"] == 0


def test_slice_maps_the_rows_of_a_with_no_fraction_point(monkeypatch):
    """find_hyperplane on the eight interior seeds takes 12 slices and calls
    neither make_support nor `_fraction_points`: make_slice maps A's point
    rows in integers and hands make_pair the set.  Each slice's A is the
    set make_support builds from the mapped Fraction points."""
    counts = {"make_support": 0, "fraction_points": 0}

    def counting(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)
        return counted

    real_support = toricmld.polyhedra.make_support
    for module in (toricmld.polyhedra, toricmld.pairs):
        monkeypatch.setattr(module, "make_support", counting("make_support", real_support))
    monkeypatch.setattr(toricmld.polyhedra, "_fraction_points",
                        counting("fraction_points", toricmld.polyhedra._fraction_points))
    slices = []
    real_slice = toricmld.search.make_slice

    def recording(bd, phi, t):
        slices.append((bd, phi, real_slice(bd, phi, t)))
        return slices[-1][2]

    monkeypatch.setattr(toricmld.search, "make_slice", recording)
    for seed in INTERIOR_SEEDS:
        find_hyperplane(*random_instance(seed)[:2])
    assert counts == {"make_support": 0, "fraction_points": 0}
    assert len(slices) == 12
    monkeypatch.undo()
    for bd, phi, sd in slices:
        basis = kernel_sublattice(phi).basis
        assert sd.pair1.bdiv_a == real_support(
            [tuple(sd.lam * x for x in apply_hom(basis, a)) for a in bd.a_eff.points])


# public module-level names that nothing in the package reads, each with its reason
UNREAD_PUBLIC_ALLOWED = {
    "gauge": "bench/tracer.py probes it by name",
    "lattice_points": "bench/tracer.py probes it by name",
    "solve_rational": "bench/tracer.py probes it by name",
    "load_corpus": "the loader of the packaged corpus",
    "from_generators": "the public polyhedron constructor",
}


def _unread_public_definitions(sources):
    """(file, line, name) of each public module-level function or class that
    no module reads outside its own definition, as an ast.Name or an
    attribute; `__init__.py`, which only re-exports, is not a reader."""
    defined, readers = [], {}
    for filename, source in sources.items():
        if filename == "__init__.py":
            continue
        for node in ast.parse(source, filename=filename).body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if owner and not owner.startswith("_"):
                defined.append((filename, node.lineno, owner))
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else (
                    sub.attr if isinstance(sub, ast.Attribute) else None)
                if name:
                    readers.setdefault(name, set()).add((filename, owner))
    return [d for d in defined if not readers.get(d[2], set()) - {(d[0], d[2])}]


def test_every_public_definition_in_the_package_is_read():
    """A public function nothing calls is deleted, not kept for the API:
    only the names on the allow-list, each for its stated reason, may go
    unread, and each of them must still be unread and defined."""
    package = pathlib.Path(toricmld.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    unread = [name for _file, _line, name in _unread_public_definitions(sources)]
    assert sorted(unread) == sorted(UNREAD_PUBLIC_ALLOWED)


def test_public_definition_scan_sees_an_unread_function():
    sources = {
        "__init__.py": "from .pairs import fix_mov, make_pair\n",
        "pairs.py": "def fix_mov(a, rays):\n    return fix_mov(a, rays[1:])\n"
                    "def make_pair(fan):\n    return Fan(fan)\n"
                    "class Fan:\n    pass\n",
        "cli.py": "from . import pairs\ndef main():\n    return pairs.make_pair(0)\n",
    }
    assert _unread_public_definitions(sources) == [
        ("pairs.py", 1, "fix_mov"), ("cli.py", 2, "main")]


BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _traced_names(source):
    """The "layer.function" strings the tracer reads: c(...), t(...), names.index(...), PROBES."""
    tree = ast.parse(source)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id in ("c", "t")
                or isinstance(node.func, ast.Attribute) and node.func.attr == "index"):
            found.update(a.value for a in node.args if isinstance(a, ast.Constant))
        if isinstance(node, ast.Assign) and any(
                isinstance(x, ast.Name) and x.id == "PROBES" for x in node.targets):
            found.update(k.value for k in node.value.keys)
    return found


def _package_attributes(source):
    """The "module.name" of each toricmld.module.name the source reads."""
    return {"%s.%s" % (node.value.attr, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "toricmld"}


def test_every_name_the_bench_reads_exists():
    """A renamed function would read as zero calls in the traced metrics, not fail."""
    traced = _traced_names((BENCH / "tracer.py").read_text())
    asserted = _package_attributes((BENCH / "test_harness.py").read_text())
    assert "polyhedra.cone_from_inequalities" in traced
    assert "polyhedra._dd_pointed" in asserted
    missing = []
    for qualname in sorted(traced):
        layer, name = qualname.split(".")
        module = importlib.import_module("toricmld." + layer)
        fn = getattr(module, name, None)
        # the tracer wraps only the public functions a layer defines itself
        if not (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not name.startswith("_")):
            missing.append(qualname)
    for qualname in sorted(asserted):
        layer, name = qualname.split(".")
        if not hasattr(importlib.import_module("toricmld." + layer), name):
            missing.append(qualname)
    assert missing == []


def test_bench_name_scan_sees_planted_names():
    source = 'PROBES = {"a.b": f}\n' \
             'def g():\n    return c("l.x"), t("l.y", "l.z"), names.index("l.w"), d("no")\n'
    assert _traced_names(source) == {"a.b", "l.x", "l.y", "l.z", "l.w"}
    assert _package_attributes("toricmld.polyhedra._dd_pointed is toricmld.dot") == \
        {"polyhedra._dd_pointed"}
