"""Command-line front end.

Subcommands: check | mld | lc | lct | find | verify | oracle-mld | gamma,
plus gen for the seeded instance generator.  All values print as exact
rationals "p/q"; --json switches to machine output, errors included.

Exit codes:
  0  ok
  1  a negative result: the pair is not g-lc, the mld is not positive,
     the certificate is rejected, the oracle box holds no interior point,
     or gamma's recursion and closed form disagree
  2  invalid input: any InstanceError or PairError from a command exits 2
     with its message.  That covers a malformed instance or certificate
     (a JSON integer, or a rational's numerator or denominator, of more
     than instances.DIGIT_LIMIT (4300) digits included), a pair outside
     the hypotheses, a bad --phibar, --dim, --mld or --count, a gamma
     value whose numerator or denominator may exceed DIGIT_LIMIT digits,
     any other result (an mld, a certificate's gamma) of more digits than
     that, which instances.frac_str refuses before a file is opened,
     an output file that cannot be written, and a gen seed for which
     generator.MAX_ATTEMPTS (400) sampled attempts give no valid instance
     ("no valid instance found for seed N in 400 attempts").  argparse
     exits 2 as well on a missing or malformed option.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .generator import random_instance
from .instances import (
    DIGIT_LIMIT,
    InstanceError,
    _sized_fraction,
    frac_str,
    load_certificate,
    load_instance,
    save_certificate,
    save_instance,
)
from .pairs import PairError, analyze, is_glc, lct_pullback, mld_over_fiber, oracle_mld
from .search import find_hyperplane, gamma, gamma_closed, verify_certificate


def _emit(args, payload, text):
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        for line in text:
            print(line)


def _fail(args, code, message):
    if getattr(args, "json", False):
        print(json.dumps({"error": message}))
    else:
        print("error: %s" % message, file=sys.stderr)
    return code


def _box(args):
    """The BoxData of the instance file args.instance, loaded and analyzed."""
    tc, pair, _obj = load_instance(args.instance)
    return analyze(tc, pair)


def cmd_check(args):
    tc = _box(args).tc
    _emit(args, {"valid": True, "rank": tc.rank, "base_rank": tc.base_rank},
          ["valid: rank %d germ over a rank-%d base" % (tc.rank, tc.base_rank)])
    return 0


def cmd_mld(args):
    bd = _box(args)
    if not is_glc(bd):
        return _fail(args, 1, "pair is not g-lc")
    val = mld_over_fiber(bd)
    if val is None:
        _emit(args, {"mld": None}, ["not positive"])
        return 1
    _emit(args, {"mld": frac_str(val)}, [frac_str(val)])
    return 0


def cmd_lc(args):
    glc = is_glc(_box(args))
    _emit(args, {"glc": glc}, ["g-lc: %s" % ("yes" if glc else "no")])
    return 0 if glc else 1


def _parse_phibar(s):
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError:
        raise InstanceError("--phibar expects a comma-separated integer vector")


def cmd_lct(args):
    phibar = _parse_phibar(args.phibar)
    val = lct_pullback(_box(args), phibar)
    _emit(args, {"lct": frac_str(val)}, [frac_str(val)])
    return 0


def _cannot_write(path, exc):
    return InstanceError("cannot write %s: %s" % (path, exc.strerror or exc))


def cmd_find(args):
    tc, pair, _obj = load_instance(args.instance)
    cert = find_hyperplane(tc, pair)
    out = args.out or _default_cert_path(args.instance)
    try:
        save_certificate(out, cert)
    except OSError as exc:
        raise _cannot_write(out, exc) from exc
    _emit(args,
          {"phi_bar": list(cert.phi_bar), "gamma": frac_str(cert.gamma),
           "mld": frac_str(cert.mld), "certificate": out},
          ["phi_bar = (%s)" % ", ".join(str(x) for x in cert.phi_bar),
           "gamma = %s" % frac_str(cert.gamma),
           "mld = %s" % frac_str(cert.mld),
           "certificate written to %s" % out])
    return 0


def _default_cert_path(instance_path):
    base = instance_path[:-5] if instance_path.endswith(".json") else instance_path
    return base + ".cert.json"


def cmd_verify(args):
    tc, pair, _obj = load_instance(args.instance)
    cert = load_certificate(args.certificate)
    ok, reasons = verify_certificate(tc, pair, cert)
    if ok:
        _emit(args, {"verified": True}, ["certificate OK"])
        return 0
    _emit(args, {"verified": False, "reasons": reasons},
          ["certificate REJECTED"] + ["  - %s" % r for r in reasons])
    return 1


def cmd_oracle_mld(args):
    bd = _box(args)
    found = oracle_mld(bd, args.box)
    algo = mld_over_fiber(bd) if is_glc(bd) else None
    if found is None:
        _emit(args, {"oracle_mld": None, "box": args.box},
              ["no interior lattice point within box radius %d" % args.box])
        return 1
    val, witness = found
    agrees = algo is not None and algo == val
    _emit(args,
          {"oracle_mld": frac_str(val), "witness": list(witness),
           "box": args.box, "algorithm_mld": None if algo is None else frac_str(algo),
           "agrees": agrees},
          ["%s at (%s)" % (frac_str(val), ", ".join(str(x) for x in witness)),
           "upper bound for the mld; exact once the box holds a minimizer",
           "algorithm agrees" if agrees else
           "algorithm differs: %s" % ("not positive" if algo is None else frac_str(algo))])
    return 0


def _gamma_too_long(d, a):
    """True when gamma(d, a) may have a numerator or denominator of more
    than DIGIT_LIMIT digits.

    Bit lengths follow the recursion a -> a^2 / k^2 for k = d, ..., 2 (a
    product has at most the sum of its factors' bits), and stop once past
    the limit, so no big number is computed.  A b-bit number has at most
    30103 b // 10^5 + 1 digits, since log10 2 < 0.30103.
    """
    num, den = a.numerator.bit_length(), a.denominator.bit_length()
    k = d
    while k > 1 and 30103 * max(num, den) // 100000 < DIGIT_LIMIT:
        num, den = 2 * num, 2 * den + 2 * k.bit_length()
        k -= 1
    return 30103 * max(num, den) // 100000 >= DIGIT_LIMIT


def _gamma_args(dim, mld):
    """(d, a) from the strings of --dim and --mld; InstanceError naming the
    flag and the value unless d is an integer >= 1 and a a positive rational.

    a is None when --mld has more than DIGIT_LIMIT digits in its numerator
    or denominator, sized by `instances._sized_fraction` without expanding
    a long exponent; a negative one is refused all the same.
    """
    try:
        d = int(dim)
    except ValueError:
        d = 0
    if d < 1:
        raise InstanceError("--dim: expected an integer d >= 1, got %r" % dim)
    try:
        a = _sized_fraction(mld)
    except (ValueError, ZeroDivisionError):
        a = 0
    if (mld.lstrip().startswith("-") if a is None else a <= 0):
        raise InstanceError("--mld: expected a positive rational such as 2/3, got %r" % mld)
    return d, a


def cmd_gamma(args):
    d, a = _gamma_args(args.dim, args.mld)
    if a is None or _gamma_too_long(d, a):
        # a itself may be too long for frac_str, so the message quotes --mld
        raise InstanceError("gamma(%d, %s) may have more than %d digits"
                            % (d, args.mld, DIGIT_LIMIT))
    rec = gamma(d, a)
    closed = gamma_closed(d, a)
    if rec != closed:
        return _fail(args, 1, "recursion %s and closed form %s disagree"
                     % (frac_str(rec), frac_str(closed)))
    _emit(args, {"gamma": frac_str(rec), "closed_form": frac_str(closed)},
          ["recursion:   %s" % frac_str(rec),
           "closed form: %s" % frac_str(closed),
           "agree: yes"])
    return 0


def cmd_gen(args):
    if args.count < 0:
        raise InstanceError("--count: expected a nonnegative integer, got %d" % args.count)
    written = []
    for i in range(args.count):
        seed = args.seed + i
        tc, pair, meta = random_instance(seed)
        name = "gen_%06d.json" % seed
        path = os.path.join(args.out_dir, name)
        try:
            os.makedirs(args.out_dir, exist_ok=True)
            save_instance(path, tc, pair, "generated instance, seed %d" % seed)
        except OSError as exc:
            raise _cannot_write(path, exc) from exc
        written.append(path)
    _emit(args, {"written": written},
          ["wrote %d instance(s) to %s" % (len(written), args.out_dir)])
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="toricmld",
        description="Exact mld/lct computations and certified invariant "
                    "hyperplane sections for germs of toric Fano contractions.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, func, help, positionals=("instance",), options=None):
        sp = sub.add_parser(name, help=help)
        for pos in positionals:
            sp.add_argument(pos)
        for flag, kwargs in (options or {}).items():
            sp.add_argument(flag, **kwargs)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.set_defaults(func=func)

    add("check", cmd_check, "validate an instance file")
    add("mld", cmd_mld, "minimal log discrepancy over the fiber")
    add("lc", cmd_lc, "generalized log canonical test")
    add("lct", cmd_lct, "lct of a pulled-back invariant hyperplane", options={
        "--phibar": dict(required=True,
                         help="functional on the base, e.g. 1,0; write a leading "
                              "minus as --phibar=-1,0")})
    add("find", cmd_find, "search a certified hyperplane section", options={
        "--out": dict(help="certificate path (default: <instance>.cert.json)")})
    add("verify", cmd_verify, "re-check a certificate independently",
        positionals=("instance", "certificate"))
    add("oracle-mld", cmd_oracle_mld, "brute-force mld scan in a box", options={
        "--box": dict(type=int, required=True,
                      help="box radius r; (2r+1)^rank must not exceed 10^6 (exit 2)")})
    add("gamma", cmd_gamma, "the bound function gamma(d, a)", positionals=(), options={
        "--dim": dict(required=True, help="dimension d >= 1"),
        "--mld": dict(required=True, help="positive rational a, e.g. 2/3")})
    add("gen", cmd_gen, "write seeded random valid instances", positionals=(), options={
        "--seed": dict(type=int, default=0),
        "--count": dict(type=int, default=1),
        "--out-dir": dict(default=".")})
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, PairError) as exc:
        return _fail(args, 2, str(exc))


if __name__ == "__main__":
    sys.exit(main())
