"""Command-line front end.

Subcommands: check | mld | lc | lct | find | verify | oracle-mld | gamma,
plus gen for the seeded instance generator.  Exit codes: 0 ok,
1 verification failure or negative result (gamma: the recursion and the
closed form disagree), 2 invalid input, a gamma value whose numerator or
denominator may exceed GAMMA_DIGIT_LIMIT digits, or an output file that
cannot be written.  All values print as exact rationals "p/q"; --json
switches to machine output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .generator import random_instance
from .instances import (
    InstanceError,
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


def cmd_check(args):
    try:
        tc, pair, _obj = load_instance(args.instance)
        analyze(tc, pair)
    except (InstanceError, PairError) as exc:
        return _fail(args, 2, str(exc))
    _emit(args, {"valid": True, "rank": tc.rank, "base_rank": tc.base_rank},
          ["valid: rank %d germ over a rank-%d base" % (tc.rank, tc.base_rank)])
    return 0


def cmd_mld(args):
    try:
        tc, pair, _obj = load_instance(args.instance)
        _folded, _psi, bd = analyze(tc, pair)
        if not is_glc(bd):
            return _fail(args, 1, "pair is not g-lc")
        val = mld_over_fiber(tc, bd)
    except (InstanceError, PairError) as exc:
        return _fail(args, 2, str(exc))
    if val is None:
        _emit(args, {"mld": None}, ["not positive"])
        return 1
    _emit(args, {"mld": frac_str(val)}, [frac_str(val)])
    return 0


def cmd_lc(args):
    try:
        tc, pair, _obj = load_instance(args.instance)
        _folded, _psi, bd = analyze(tc, pair)
        glc = is_glc(bd)
    except (InstanceError, PairError) as exc:
        return _fail(args, 2, str(exc))
    _emit(args, {"glc": glc}, ["g-lc: %s" % ("yes" if glc else "no")])
    return 0 if glc else 1


def _parse_phibar(s):
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError:
        raise InstanceError("--phibar expects a comma-separated integer vector")


def cmd_lct(args):
    try:
        phibar = _parse_phibar(args.phibar)
        tc, pair, _obj = load_instance(args.instance)
        _folded, _psi, bd = analyze(tc, pair)
        val = lct_pullback(tc, bd, phibar)
    except (InstanceError, PairError) as exc:
        return _fail(args, 2, str(exc))
    _emit(args, {"lct": frac_str(val)}, [frac_str(val)])
    return 0


def cmd_find(args):
    try:
        tc, pair, _obj = load_instance(args.instance)
        cert = find_hyperplane(tc, pair)
    except (InstanceError, PairError) as exc:
        return _fail(args, 2, str(exc))
    out = args.out or _default_cert_path(args.instance)
    try:
        save_certificate(out, cert)
    except OSError as exc:
        return _fail(args, 2, "cannot write %s: %s" % (out, exc.strerror or exc))
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
    try:
        tc, pair, _obj = load_instance(args.instance)
        cert = load_certificate(args.certificate)
    except (InstanceError, PairError) as exc:
        return _fail(args, 2, str(exc))
    ok, reasons = verify_certificate(tc, pair, cert)
    if ok:
        _emit(args, {"verified": True}, ["certificate OK"])
        return 0
    _emit(args, {"verified": False, "reasons": reasons},
          ["certificate REJECTED"] + ["  - %s" % r for r in reasons])
    return 1


def cmd_oracle_mld(args):
    try:
        tc, pair, _obj = load_instance(args.instance)
        _folded, _psi, bd = analyze(tc, pair)
        found = oracle_mld(tc, bd, args.box)
        algo = mld_over_fiber(tc, bd) if is_glc(bd) else None
    except (InstanceError, PairError) as exc:
        return _fail(args, 2, str(exc))
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


# Python's default limit on the digits of an int converted to str
GAMMA_DIGIT_LIMIT = 4300


def _gamma_too_long(d, a):
    """True when gamma(d, a) may have a numerator or denominator of more
    than GAMMA_DIGIT_LIMIT digits.

    Bit lengths follow the recursion a -> a^2 / k^2 for k = d, ..., 2 (a
    product has at most the sum of its factors' bits), and stop once past
    the limit, so no big number is computed.  A b-bit number has at most
    30103 b // 10^5 + 1 digits, since log10 2 < 0.30103.
    """
    num, den = a.numerator.bit_length(), a.denominator.bit_length()
    k = d
    while k > 1 and 30103 * max(num, den) // 100000 < GAMMA_DIGIT_LIMIT:
        num, den = 2 * num, 2 * den + 2 * k.bit_length()
        k -= 1
    return 30103 * max(num, den) // 100000 >= GAMMA_DIGIT_LIMIT


# a decimal with an exponent, in the grammar of Fraction()
_SCIENTIFIC = re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
                         r"(?:\.(\d*|\d+(?:_\d+)*))?E([-+]?\d+(?:_\d+)*)\s*",
                         re.IGNORECASE)


def _gamma_args(dim, mld):
    """(d, a) from the strings of --dim and --mld; ValueError naming the flag
    and the value unless d is an integer >= 1 and a a positive rational.

    a is None when --mld is a decimal m * 10^e whose value has more than
    GAMMA_DIGIT_LIMIT digits in its numerator or denominator.  That is
    decided from the lengths of m and e, because Fraction() computes 10^|e|
    first: the value is at least 10^(e - f) for f fractional digits, and
    below 10^(e - f + l) for l digits in all.  Every decimal that reaches
    Fraction() has |e| <= GAMMA_DIGIT_LIMIT + len(mld).
    """
    try:
        d = int(dim)
    except ValueError:
        d = 0
    if d < 1:
        raise ValueError("--dim: expected an integer d >= 1, got %r" % dim)
    bad_mld = ValueError("--mld: expected a positive rational such as 2/3, got %r" % mld)
    match = _SCIENTIFIC.fullmatch(mld)
    if match is not None:
        sign, whole, frac, exp = (g.replace("_", "") for g in match.groups(""))
        try:
            # the conversions Fraction() makes, with its limit on digits
            e, zero = int(exp), int(whole or "0") == int(frac or "0") == 0
        except ValueError:
            raise bad_mld from None
        if sign == "-" or zero:
            raise bad_mld
        if e - len(frac) > GAMMA_DIGIT_LIMIT or -e - len(whole) > GAMMA_DIGIT_LIMIT:
            return d, None
    try:
        a = Fraction(mld)
    except (ValueError, ZeroDivisionError):
        a = 0
    if a <= 0:
        raise bad_mld
    return d, a


def cmd_gamma(args):
    try:
        d, a = _gamma_args(args.dim, args.mld)
    except ValueError as exc:
        return _fail(args, 2, str(exc))
    if a is None or _gamma_too_long(d, a):
        # a itself may be too long for frac_str, so the message quotes --mld
        return _fail(args, 2, "gamma(%d, %s) may have more than %d digits"
                     % (d, args.mld, GAMMA_DIGIT_LIMIT))
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
    import os

    if args.count < 0:
        return _fail(args, 2, "--count: expected a nonnegative integer, got %d" % args.count)
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
            return _fail(args, 2, "cannot write %s: %s" % (path, exc.strerror or exc))
        written.append(path)
    _emit(args, {"written": written},
          ["wrote %d instance(s) to %s" % (len(written), args.out_dir)])
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="toricmld",
        description="Exact mld/lct computations and certified invariant "
                    "hyperplane sections for germs of toric Fano contractions.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("check", help="validate an instance file")
    sp.add_argument("instance")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("mld", help="minimal log discrepancy over the fiber")
    sp.add_argument("instance")
    common(sp)
    sp.set_defaults(func=cmd_mld)

    sp = sub.add_parser("lc", help="generalized log canonical test")
    sp.add_argument("instance")
    common(sp)
    sp.set_defaults(func=cmd_lc)

    sp = sub.add_parser("lct", help="lct of a pulled-back invariant hyperplane")
    sp.add_argument("instance")
    sp.add_argument("--phibar", required=True,
                    help="functional on the base, e.g. 1,0; write a leading "
                         "minus as --phibar=-1,0")
    common(sp)
    sp.set_defaults(func=cmd_lct)

    sp = sub.add_parser("find", help="search a certified hyperplane section")
    sp.add_argument("instance")
    sp.add_argument("--out", help="certificate path (default: <instance>.cert.json)")
    common(sp)
    sp.set_defaults(func=cmd_find)

    sp = sub.add_parser("verify", help="re-check a certificate independently")
    sp.add_argument("instance")
    sp.add_argument("certificate")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle-mld", help="brute-force mld scan in a box")
    sp.add_argument("instance")
    sp.add_argument("--box", type=int, required=True,
                    help="box radius r; (2r+1)^rank must not exceed 10^6 (exit 2)")
    common(sp)
    sp.set_defaults(func=cmd_oracle_mld)

    sp = sub.add_parser("gamma", help="the bound function gamma(d, a)")
    sp.add_argument("--dim", required=True, help="dimension d >= 1")
    sp.add_argument("--mld", required=True, help="positive rational a, e.g. 2/3")
    common(sp)
    sp.set_defaults(func=cmd_gamma)

    sp = sub.add_parser("gen", help="write seeded random valid instances")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--out-dir", default=".")
    common(sp)
    sp.set_defaults(func=cmd_gen)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
