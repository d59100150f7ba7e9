"""Span tracer that wraps the public functions of `toricmld` from outside.

`Tracer.install()` replaces every public function of the traced layers
(`lattice`, `polyhedra`, `pairs`, `search`, `generator`, `instances`,
`cli`) in every `toricmld.*` namespace that holds it, matched by
identity: `pairs` and `search` bind names with `from .polyhedra import
...`, so patching only the defining module would miss their calls.
`uninstall()` puts every original back.

Each call records a span (function, start, end, parent) in flat arrays
kept in memory.  A layer's self time is the time of its spans minus the
part covered by their child spans; time outside every span is the
harness's own.  Leaf helpers such as `dot` are not wrapped: they do no
layer work of their own and are called millions of times, so wrapping
them would measure the tracer instead of the program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from math import ceil, floor

PACKAGE = "toricmld"
LAYERS = ("lattice", "polyhedra", "pairs", "search", "generator", "instances", "cli")

# leaf helpers: vector arithmetic and value formatting called in inner loops
LEAVES = frozenset({
    "dot", "vec_add", "vec_sub", "vec_scale", "vec_neg", "is_zero",
    "identity", "apply_hom", "compose_covector", "mat_mul", "transpose",
    "content", "primitive", "frac_str", "parse_fraction",
})


def _scanned_points(p):
    """Points of the bounding box that `lattice_points(p)` iterates."""
    if p.empty or not p.is_compact():
        return 0
    count = 1
    for i in range(p.dim):
        lo = min(x[i] for x in p.points)
        hi = max(x[i] for x in p.points)
        count *= max(0, floor(hi) - ceil(lo) + 1)
    return count


def _probe_enum(counters, args, _kwargs, result):
    counters["enum_scanned"] += _scanned_points(args[0])
    counters["enum_found"] += len(result)


def _probe_generator(counters, _args, _kwargs, result):
    counters["generator_attempts"] += result[2]["attempts"]
    counters["generator_accepted"] += 1


def _probe_find(counters, _args, _kwargs, result):
    counters["interior_levels"] += sum(
        1 for rec in result.transcript if rec["case"] == "interior")


PROBES = {
    "polyhedra.lattice_points": _probe_enum,
    "generator.random_instance": _probe_generator,
    "search.find_hyperplane": _probe_find,
}


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.names = []              # function id -> "layer.function"
        self.fid = array("i")        # per span: function id
        self.parent = array("i")     # per span: index of the parent span, -1 at the root
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")      # per span: 1 unless nested in a span of the same function
        self.counters = {"enum_scanned": 0, "enum_found": 0, "generator_attempts": 0,
                         "generator_accepted": 0, "interior_levels": 0}
        self._stack = [-1]
        self._depth = []
        self._patched = []

    # -- installation ------------------------------------------------------

    def targets(self):
        """(qualified name, function) for every function to wrap."""
        out = []
        for layer in LAYERS:
            module = sys.modules["%s.%s" % (PACKAGE, layer)]
            for name, obj in vars(module).items():
                if (name.startswith("_") or name in LEAVES
                        or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                out.append(("%s.%s" % (layer, name), obj))
        return out

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        __import__(PACKAGE + ".cli")    # cli imports every other traced layer
        wrappers = {}
        for qualname, fn in self.targets():
            fid = len(self.names)
            self.names.append(qualname)
            self._depth.append(0)
            wrappers[id(fn)] = (fn, self._wrap(fid, fn, PROBES.get(qualname)))
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fid, fn, probe):
        fids, parents, starts, ends, outer = self.fid, self.parent, self.start, self.end, self.outer
        stack, depth, counters = self._stack, self._depth, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            outer.append(depth[fid] == 0)
            ends.append(0.0)
            stack.append(i)
            depth[fid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                depth[fid] -= 1
                stack.pop()
            if probe is not None:
                probe(counters, args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# analysis


def self_times(starts, ends, parents):
    """Per span: its duration minus the union of its children's intervals.

    Children are clipped to their parent's interval.  Sweeping them in
    order of start time, each adds only the part beyond the furthest end
    seen so far for the same parent, which measures the union exactly.
    """
    n = len(starts)
    order = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(order, key=starts.__getitem__)
    covered = [0.0] * n
    reach = list(starts)
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        s = max(starts[i], reach[p])
        e = min(ends[i], ends[p])
        if e > s:
            covered[p] += e - s
            reach[p] = e
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def layer_metrics(tracer, wall_s, overhead_frac):
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json.

    wall_s is the pass's traced wall time; overhead_frac how much longer
    the pass took traced than untraced.
    """
    names = tracer.names
    layer_of = [q.split(".", 1)[0] for q in names]
    fids, parents, starts, ends, outer = (tracer.fid, tracer.parent, tracer.start,
                                          tracer.end, tracer.outer)
    selfs = self_times(starts, ends, parents)
    n = len(fids)

    calls = [0] * len(names)
    incl = [0.0] * len(names)     # inclusive time, nested calls of a function counted once
    layer_self = dict.fromkeys(LAYERS, 0.0)
    root_time = 0.0
    width_candidates = 0
    interval_fid = names.index("polyhedra.interval_image")
    for i in range(n):
        f = fids[i]
        calls[f] += 1
        dur = ends[i] - starts[i]
        if outer[i]:
            incl[f] += dur
        layer_self[layer_of[f]] += selfs[i]
        p = parents[i]
        if p < 0:
            root_time += dur
        elif f == interval_fid and layer_of[fids[p]] == "search":
            width_candidates += 1

    def c(q):
        return calls[names.index(q)]

    def t(*qs):
        return sum(incl[names.index(q)] for q in qs)

    counters = tracer.counters
    lattice_calls = sum(k for k, layer in zip(calls, layer_of) if layer == "lattice")
    return {
        "lattice.self_s": layer_self["lattice"],
        "lattice.calls": lattice_calls,
        "lattice.snf_calls": c("lattice.snf"),
        "lattice.rational_rank_calls": c("lattice.rational_rank"),
        "lattice.solve_rational_calls": c("lattice.solve_rational"),
        "polyhedra.self_s": layer_self["polyhedra"],
        "polyhedra.dd_calls": c("polyhedra.cone_from_inequalities"),
        "polyhedra.dd_s": t("polyhedra.cone_from_inequalities"),
        "polyhedra.enum_calls": c("polyhedra.lattice_points"),
        "polyhedra.enum_s": t("polyhedra.lattice_points"),
        "polyhedra.enum_scanned": counters["enum_scanned"],
        "polyhedra.enum_found": counters["enum_found"],
        "polyhedra.enum_yield": (counters["enum_found"] / counters["enum_scanned"]
                                 if counters["enum_scanned"] else 0.0),
        "polyhedra.gauge_calls": c("polyhedra.gauge"),
        "polyhedra.interval_image_calls": c("polyhedra.interval_image"),
        "pairs.self_s": layer_self["pairs"],
        "pairs.validate_calls": c("pairs.validate_contraction"),
        "pairs.validate_s": t("pairs.validate_contraction"),
        "pairs.analyze_calls": c("pairs.analyze"),
        "pairs.analyze_s": t("pairs.analyze"),
        "pairs.mld_calls": c("pairs.mld_over_fiber"),
        "pairs.mld_s": t("pairs.mld_over_fiber"),
        "pairs.log_discrepancy_calls": c("pairs.log_discrepancy"),
        "search.self_s": layer_self["search"],
        "search.width_candidates": width_candidates,
        "search.interior_levels": counters["interior_levels"],
        "search.slice_calls": c("search.make_slice"),
        "search.slice_s": t("search.make_slice"),
        "search.subdivide_s": t("search.subdivide_fan"),
        "search.extend_s": t("search.extend_functional"),
        "search.verify_calls": c("search.verify_certificate"),
        "search.verify_s": t("search.verify_certificate"),
        "generator.self_s": layer_self["generator"],
        "generator.attempts": counters["generator_attempts"],
        "generator.accept_ratio": (counters["generator_accepted"] / counters["generator_attempts"]
                                   if counters["generator_attempts"] else 0.0),
        "instances.self_s": layer_self["instances"],
        "instances.load_calls": c("instances.load_instance"),
        "instances.load_s": t("instances.load_instance"),
        "instances.dump_s": t("instances.instance_to_obj", "instances.certificate_to_obj",
                              "instances.dumps_canonical"),
        "cli.self_s": layer_self["cli"],
        "cli.calls": c("cli.main"),
        "harness.self_s": wall_s - root_time,
        "trace.wall_s": wall_s,
        "trace.spans": n,
        "trace.overhead_frac": overhead_frac,
    }
