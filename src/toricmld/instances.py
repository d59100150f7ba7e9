"""Instance and certificate files, with a canonical JSON serializer.

Rationals travel as strings "p/q" (never floats).  The canonical
serializer fixes field order and formatting, so serializing a parsed
corpus file reproduces it byte for byte.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from importlib import resources

from .pairs import (
    PairError,
    make_contraction,
    make_fan,
    make_pair,
    validate_contraction,
)
from .search import HyperplaneCertificate


class InstanceError(ValueError):
    """Bad instance or certificate file; the message carries the field."""


# Python's default limit on the digits of an int converted to str
DIGIT_LIMIT = 4300
_TOO_LONG = 10 ** DIGIT_LIMIT    # the least int of more digits

# a decimal m * 10^e in the grammar of Fraction(): the digits of m, then e
_SCIENTIFIC = re.compile(r"\s*[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
                         r"(?:\.(\d*|\d+(?:_\d+)*))?E([-+]?\d+(?:_\d+)*)\s*", re.I)


def _sized_fraction(s):
    """Fraction(s), or None when its numerator or denominator has more than
    DIGIT_LIMIT digits; ValueError or ZeroDivisionError as from Fraction().

    Fraction() computes the 10^|e| of a decimal m * 10^e first, so a nonzero
    one is sized from the lengths of m and e: its value is at least 10^(e - f)
    for f fractional digits, and below 10^(e - f + l) for l digits in all.
    """
    match = _SCIENTIFIC.fullmatch(s)
    if match is not None:
        whole, frac, exp = (g.replace("_", "") for g in match.groups(""))
        # the conversions Fraction() makes, with its limit on digits
        e = int(exp)
        if int(whole or "0") == int(frac or "0") == 0:
            return Fraction(0)
        if e - len(frac) > DIGIT_LIMIT or -e - len(whole) > DIGIT_LIMIT:
            return None
    value = Fraction(s)
    if max(abs(value.numerator), value.denominator) >= _TOO_LONG:
        return None
    return value


def parse_fraction(s, where="value"):
    if isinstance(s, bool) or isinstance(s, float):
        raise InstanceError("%s: rationals must be strings, not %r" % (where, s))
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise InstanceError("%s: expected a rational string, got %r" % (where, s))
    try:
        value = _sized_fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InstanceError("%s: cannot parse rational %r" % (where, s))
    if value is None:
        raise InstanceError("%s: more than %d digits in numerator or denominator"
                            % (where, DIGIT_LIMIT))
    return value


def frac_str(f):
    """The rational f as "p/q"; InstanceError past DIGIT_LIMIT digits in p or q."""
    f = Fraction(f)
    if max(abs(f.numerator), f.denominator) >= _TOO_LONG:
        raise InstanceError("a result has more than %d digits in its numerator or "
                            "denominator" % DIGIT_LIMIT)
    return str(f)


def _is_int(x):
    """A JSON integer: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_vector(v, where):
    if not isinstance(v, list) or not all(_is_int(x) for x in v):
        raise InstanceError("%s: expected a list of integers, got %r" % (where, v))
    return tuple(v)


def _int_matrix(m, where):
    if not isinstance(m, list):
        raise InstanceError("%s: expected a list of integer vectors" % where)
    return tuple(_int_vector(row, where) for row in m)


# ---------------------------------------------------------------------------
# instances


def instance_from_obj(obj):
    """Parse a JSON object into (ToricContraction, GPair), fully validated.

    Checks here: JSON types, rank_N >= 0, unknown fields, and that each
    key of B names a ray.  Other shapes and ranges are make_fan's,
    make_contraction's and make_pair's; make_contraction also checks pi
    onto and sigma_bar pointed and full-dimensional before it builds the
    support.  The geometry of the fan and |fan| = pi^{-1}(sigma_bar) are
    validate_contraction's; each PairError keeps its message.
    """
    if not isinstance(obj, dict):
        raise InstanceError("instance: expected a JSON object")
    known = {"comment", "rank_N", "rays", "max_cones", "pi", "sigma_bar",
             "B", "bdiv_A", "general"}
    for k in obj:
        if k not in known:
            raise InstanceError("instance: unknown field %r" % k)
    rank = obj.get("rank_N")
    if not _is_int(rank) or rank < 0:
        raise InstanceError("rank_N: expected a nonnegative integer, got %r" % (rank,))
    rays = _int_matrix(obj.get("rays", None), "rays")
    mc = obj.get("max_cones", None)
    if not isinstance(mc, list):
        raise InstanceError("max_cones: expected a list of index lists")
    max_cones = tuple(_int_vector(c, "max_cones") for c in mc)
    pi = _int_matrix(obj.get("pi", None), "pi")
    sb = obj.get("sigma_bar")
    sb_gens = None
    if sb is not None:
        sb_gens = _int_matrix(sb, "sigma_bar")
    b_map = obj.get("B", {})
    if not isinstance(b_map, dict):
        raise InstanceError("B: expected an object mapping ray index to rational")
    b = [Fraction(0)] * len(rays)
    index = {str(i): i for i in range(len(rays))}
    for k, v in b_map.items():
        if k not in index:
            raise InstanceError("B: key %r is not the index of one of the %d rays"
                                % (k, len(rays)))
        b[index[k]] = parse_fraction(v, "B[%s]" % k)
    a_pts = None        # default [0], built once make_fan has checked the rays
    if "bdiv_A" in obj:
        if not isinstance(obj["bdiv_A"], list):
            raise InstanceError("bdiv_A: expected a list of rational vectors")
        a_pts = []
        for j, p in enumerate(obj["bdiv_A"]):
            if not isinstance(p, list):
                raise InstanceError("bdiv_A[%d]: expected a list of rationals" % j)
            a_pts.append(tuple(parse_fraction(x, "bdiv_A[%d]" % j) for x in p))
    g_raw = obj.get("general", [])
    if not isinstance(g_raw, list):
        raise InstanceError("general: expected a list of {b, A} objects")
    general = []
    for j, g in enumerate(g_raw):
        if not isinstance(g, dict) or set(g) - {"b", "A"}:
            raise InstanceError("general[%d]: expected {b, A}" % j)
        bj = parse_fraction(g.get("b"), "general[%d].b" % j)
        aj = _int_matrix(g.get("A", None), "general[%d].A" % j)
        general.append((bj, aj))
    try:
        fan = make_fan(rank, rays, max_cones)
        tc = make_contraction(fan, pi, sb_gens)
        pair = make_pair(fan, b, [[0] * fan.rank] if a_pts is None else a_pts, general)
        validate_contraction(tc)
    except PairError as exc:
        raise InstanceError(str(exc))
    return tc, pair


def instance_to_obj(tc, pair, comment=None):
    obj = {}
    if comment is not None:
        obj["comment"] = comment
    obj["rank_N"] = tc.rank
    obj["rays"] = [list(r) for r in tc.fan.rays]
    obj["max_cones"] = [list(c) for c in tc.fan.max_cones]
    obj["pi"] = [list(row) for row in tc.pi]
    obj["sigma_bar"] = [list(g) for g in tc.sigma_bar.generators]
    obj["B"] = {str(i): frac_str(x) for i, x in enumerate(pair.b_inv)}
    obj["bdiv_A"] = [[frac_str(x) for x in p] for p in pair.bdiv_a.points]
    obj["general"] = [{"b": frac_str(bj), "A": [[int(x) for x in h[:-1]] for h in aj.rows]}
                      for bj, aj in pair.general]
    return obj


def dumps_canonical(obj):
    return json.dumps(obj, indent=2) + "\n"


def load_instance(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InstanceError("cannot read %s: %s" % (path, exc))
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError as exc:   # also a JSON integer past Python's limit on digits
        raise InstanceError("%s: not valid JSON (%s)" % (path, exc))
    tc, pair = instance_from_obj(obj)
    return tc, pair, obj


def save_instance(path, tc, pair, comment=None):
    text = dumps_canonical(instance_to_obj(tc, pair, comment))   # a failure leaves path as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# certificates


def _encode(x):
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, tuple):
        return [_encode(v) for v in x]
    if isinstance(x, list):
        return [_encode(v) for v in x]
    if isinstance(x, dict):
        return {k: _encode(x[k]) for k in x}
    return x


def certificate_to_obj(cert):
    return {
        "phi_bar": list(cert.phi_bar),
        "gamma": frac_str(cert.gamma),
        "mld": frac_str(cert.mld),
        "d": cert.d,
        "transcript": _encode(cert.transcript),
    }


def certificate_from_obj(obj):
    if not isinstance(obj, dict):
        raise InstanceError("certificate: expected a JSON object")
    for k in ("phi_bar", "gamma", "mld", "d"):
        if k not in obj:
            raise InstanceError("certificate: missing field %r" % k)
    phibar = _int_vector(obj["phi_bar"], "phi_bar")
    gamma = parse_fraction(obj["gamma"], "gamma")
    mld = parse_fraction(obj["mld"], "mld")
    d = obj["d"]
    if not _is_int(d):
        raise InstanceError("d: expected an integer, got %r" % (d,))
    transcript = obj.get("transcript", [])
    if not isinstance(transcript, list):
        raise InstanceError("transcript: expected a list")
    return HyperplaneCertificate(phibar, gamma, mld, d, tuple(transcript))


def load_certificate(path):
    try:
        with open(path, "rb") as fh:
            obj = json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise InstanceError("cannot read %s: %s" % (path, exc))
    except ValueError as exc:   # also a JSON integer past Python's limit on digits
        raise InstanceError("%s: not valid JSON (%s)" % (path, exc))
    return certificate_from_obj(obj)


def save_certificate(path, cert):
    text = dumps_canonical(certificate_to_obj(cert))   # a failure leaves path as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# bundled corpus

CORPUS = ("a1_family", "a1_family_1_3", "a1_family_1_2", "a2_identity",
          "a3_identity", "halfplane", "cax4", "wedge25")


def corpus_bytes(name):
    if name not in CORPUS:
        raise InstanceError("unknown corpus instance %r" % name)
    return resources.files("toricmld").joinpath("data/%s.json" % name).read_bytes()


def load_corpus(name):
    obj = json.loads(corpus_bytes(name).decode("utf-8"))
    tc, pair = instance_from_obj(obj)
    return tc, pair, obj
