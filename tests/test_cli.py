import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import toricmld
from toricmld.cli import main
from toricmld.instances import (
    CORPUS,
    InstanceError,
    _sized_fraction,
    certificate_from_obj,
    certificate_to_obj,
    corpus_bytes,
    dumps_canonical,
    instance_from_obj,
    instance_to_obj,
    load_corpus,
)


@pytest.fixture()
def corpus_dir(tmp_path):
    for name in CORPUS:
        (tmp_path / ("%s.json" % name)).write_bytes(corpus_bytes(name))
    return tmp_path


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_corpus_roundtrips_byte_identically():
    for name in CORPUS:
        raw = corpus_bytes(name)
        tc, pair, obj = load_corpus(name)
        again = dumps_canonical(instance_to_obj(tc, pair, obj.get("comment")))
        assert again.encode() == raw, name


def test_check_valid(corpus_dir, capsys):
    for name in CORPUS:
        rc, out, _ = run(capsys, "check", str(corpus_dir / ("%s.json" % name)))
        assert rc == 0 and "valid" in out


def test_check_bad_coefficient(tmp_path, capsys):
    obj = json.loads(corpus_bytes("a1_family").decode())
    obj["B"] = {"0": "3/2"}
    p = tmp_path / "bad.json"
    p.write_text(dumps_canonical(obj))
    rc, _out, err = run(capsys, "check", str(p))
    assert rc == 2 and "outside [0,1]" in err


def test_check_support_mismatch(tmp_path, capsys):
    obj = {
        "rank_N": 2,
        "rays": [[1, 0], [0, 1]],
        "max_cones": [[0, 1]],
        "pi": [[1, 1]],
        "sigma_bar": [[1]],
        "B": {},
        "bdiv_A": [["0", "0"]],
        "general": [],
    }
    p = tmp_path / "mismatch.json"
    p.write_text(dumps_canonical(obj))
    rc, _out, err = run(capsys, "check", str(p))
    assert rc == 2 and "support" in err


def test_mld_outputs(corpus_dir, capsys):
    rc, out, _ = run(capsys, "mld", str(corpus_dir / "a1_family.json"))
    assert rc == 0 and out.strip() == "2/3"
    rc, out, _ = run(capsys, "mld", str(corpus_dir / "cax4.json"))
    assert rc == 0 and out.strip() == "2"
    rc, out, _ = run(capsys, "mld", "--json", str(corpus_dir / "wedge25.json"))
    assert rc == 0 and json.loads(out) == {"mld": "7/25"}


def test_mld_not_positive(tmp_path, capsys):
    obj = json.loads(corpus_bytes("halfplane").decode())
    obj["B"] = {"0": "1", "1": "1", "2": "1"}
    p = tmp_path / "sigma.json"
    p.write_text(dumps_canonical(obj))
    rc, out, _ = run(capsys, "mld", str(p))
    assert rc == 1 and "not positive" in out


def test_lc_command(corpus_dir, tmp_path, capsys):
    rc, out, _ = run(capsys, "lc", str(corpus_dir / "a2_identity.json"))
    assert rc == 0 and "yes" in out
    obj = json.loads(corpus_bytes("a2_identity").decode())
    obj["bdiv_A"] = [["3", "0"], ["0", "3"]]
    p = tmp_path / "nonlc.json"
    p.write_text(dumps_canonical(obj))
    rc, out, _ = run(capsys, "lc", str(p))
    assert rc == 1 and "no" in out


def test_lct_command(corpus_dir, capsys):
    rc, out, _ = run(capsys, "lct", str(corpus_dir / "a2_identity.json"),
                     "--phibar", "1,0")
    assert rc == 0 and out.strip() == "1"
    rc, out, _ = run(capsys, "lct", str(corpus_dir / "a1_family.json"),
                     "--phibar", "1")
    assert rc == 0 and out.strip() == "2/3"
    rc, _out, err = run(capsys, "lct", str(corpus_dir / "a1_family.json"),
                        "--phibar", "x")
    assert rc == 2


def test_lct_rejects_wrong_length_functional(corpus_dir, capsys):
    # halfplane has a rank-1 base; a leading minus needs the --phibar=v form
    rc, _out, err = run(capsys, "lct", str(corpus_dir / "halfplane.json"),
                        "--phibar=-1,0")
    assert rc == 2 and "base has rank 1" in err


@pytest.mark.parametrize("bdiv_a, phibar, reason", [
    ([["0", "0"]], "--phibar=1,-1", "functional is not in the dual of sigma_bar"),
    ([["3", "0"], ["0", "3"]], "--phibar=1,0", "lct_pullback needs a g-lc pair"),
])
def test_lct_refuses_a_functional_off_the_dual_and_a_pair_off_g_lc(tmp_path, capsys,
                                                                   bdiv_a, phibar, reason):
    obj = json.loads(corpus_bytes("a2_identity").decode())
    obj["bdiv_A"] = bdiv_a
    p = tmp_path / "a2.json"
    p.write_text(dumps_canonical(obj))
    rc, _out, err = run(capsys, "lct", str(p), phibar)
    assert rc == 2 and reason in err


def test_find_verify_cycle(corpus_dir, capsys):
    for name, phibar, gam in [("a2_identity", [1, 0], "1"),
                              ("halfplane", [1], "1"),
                              ("wedge25", [1], "1/25")]:
        inst = str(corpus_dir / ("%s.json" % name))
        rc, out, _ = run(capsys, "find", inst, "--json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["phi_bar"] == phibar and payload["gamma"] == gam
        rc, out, _ = run(capsys, "verify", inst, payload["certificate"])
        assert rc == 0 and "OK" in out


def test_verify_rejects_tampered(corpus_dir, capsys):
    inst = str(corpus_dir / "a2_identity.json")
    rc, out, _ = run(capsys, "find", inst, "--json")
    cert_path = json.loads(out)["certificate"]
    obj = json.loads(open(cert_path).read())
    obj["gamma"] = "2"
    open(cert_path, "w").write(dumps_canonical(obj))
    rc, out, _ = run(capsys, "verify", inst, cert_path)
    assert rc == 1 and "REJECTED" in out


def test_verify_rejects_a_certificate_where_the_mld_is_not_positive(corpus_dir, capsys):
    inst = str(corpus_dir / "a2_identity.json")
    rc, out, _ = run(capsys, "find", inst, "--json")
    cert_path = json.loads(out)["certificate"]
    obj = json.loads(corpus_bytes("a2_identity").decode())
    obj["B"] = {"0": "1", "1": "1"}
    p = corpus_dir / "sigma.json"
    p.write_text(dumps_canonical(obj))
    rc, out, _ = run(capsys, "verify", str(p), cert_path)
    assert rc == 1 and "REJECTED" in out and "mld over the fiber is not positive" in out


def test_find_rejects_bad_hypotheses(tmp_path, capsys):
    obj = json.loads(corpus_bytes("halfplane").decode())
    obj["B"] = {"0": "1", "1": "1", "2": "1"}
    p = tmp_path / "sigma.json"
    p.write_text(dumps_canonical(obj))
    rc, _out, err = run(capsys, "find", str(p))
    assert rc == 2 and "not positive" in err


def test_oracle_mld_command(corpus_dir, capsys):
    rc, out, _ = run(capsys, "oracle-mld", str(corpus_dir / "a2_identity.json"),
                     "--box", "3")
    assert rc == 0
    assert out.splitlines()[0] == "2 at (1, 1)"
    assert "agrees" in out
    rc, out, _ = run(capsys, "oracle-mld", str(corpus_dir / "cax4.json"),
                     "--box", "4", "--json")
    payload = json.loads(out)
    assert payload["oracle_mld"] == "2" and payload["agrees"]
    rc, out, _ = run(capsys, "oracle-mld", str(corpus_dir / "halfplane.json"),
                     "--box", "3")
    assert out.splitlines()[0] == "1 at (0, 1)"


def test_oracle_mld_rejects_oversized_box(corpus_dir, capsys):
    # (2 * 1000 + 1)^3 points: refused before the scan starts
    rc, out, err = run(capsys, "oracle-mld", str(corpus_dir / "a3_identity.json"),
                       "--box", "1000")
    assert rc == 2 and out == ""
    assert "oracle box of 8012006001 points exceeds the limit" in err


def test_gamma_command(capsys):
    rc, out, _ = run(capsys, "gamma", "--dim", "2", "--mld", "1")
    assert rc == 0 and "1/4" in out
    rc, out, _ = run(capsys, "gamma", "--dim", "1", "--mld", "7/5")
    assert rc == 0 and "7/5" in out
    rc, out, _ = run(capsys, "gamma", "--dim", "3", "--mld", "1", "--json")
    assert json.loads(out)["gamma"] == "1/324"


def test_gamma_command_fails_when_forms_disagree(monkeypatch, capsys):
    import toricmld.cli

    monkeypatch.setattr(toricmld.cli, "gamma_closed", lambda d, a: a + 1)
    rc, out, err = run(capsys, "gamma", "--dim", "2", "--mld", "1")
    assert rc == 1 and out == ""
    assert "recursion 1/4 and closed form 2 disagree" in err


def test_gamma_command_refuses_results_too_long_to_print(capsys):
    rc, out, _ = run(capsys, "gamma", "--dim", "11", "--mld", "2/3", "--json")
    assert rc == 0 and len(json.loads(out)["gamma"].split("/")[1]) == 2240
    for dim, mld in (("12", "2/3"), ("1000", "1")):
        rc, out, err = run(capsys, "gamma", "--dim", dim, "--mld", mld)
        assert rc == 2 and out == ""
        assert "may have more than 4300 digits" in err


@pytest.mark.parametrize("flag, value, expected", [
    ("--dim", "abc", "an integer d >= 1"),
    ("--dim", "2.5", "an integer d >= 1"),
    ("--dim", "0", "an integer d >= 1"),
    ("--mld", "1/0", "a positive rational such as 2/3"),
    ("--mld", "abc", "a positive rational such as 2/3"),
    ("--mld", "-1", "a positive rational such as 2/3"),
])
def test_gamma_names_the_bad_argument(capsys, flag, value, expected):
    argv = {"--dim": "3", "--mld": "2/3"}
    argv[flag] = value
    rc, out, err = run(capsys, "gamma", "--dim", argv["--dim"], "--mld", argv["--mld"])
    assert rc == 2 and out == ""
    assert err == "error: %s: expected %s, got '%s'\n" % (flag, expected, value)


@pytest.mark.parametrize("dim", ["1", "2"])
def test_gamma_refuses_an_mld_too_long_to_print(capsys, dim):
    # the refusal quotes --mld as given: a has 5001 digits, past what
    # frac_str can print
    rc, out, err = run(capsys, "gamma", "--dim", dim, "--mld", "1e5000")
    assert rc == 2 and out == ""
    assert err == "error: gamma(%s, 1e5000) may have more than 4300 digits\n" % dim


@pytest.mark.parametrize("mld, reason", [
    ("1e20000000", "gamma(2, 1e20000000) may have more than 4300 digits"),
    ("1E-20000000", "gamma(2, 1E-20000000) may have more than 4300 digits"),
    ("0e99999999", "--mld: expected a positive rational such as 2/3, got '0e99999999'"),
    ("-1e99999999", "--mld: expected a positive rational such as 2/3, got '-1e99999999'"),
])
def test_gamma_refuses_a_huge_exponent_without_expanding_it(mld, reason):
    # Fraction() would compute 10^|e| first, for seconds to minutes
    src = os.path.dirname(os.path.dirname(toricmld.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "toricmld", "gamma", "--dim", "2",
                           "--mld=" + mld], capture_output=True, text=True, env=env,
                          timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: %s\n" % reason


@pytest.mark.parametrize("mld, expected", [
    ("0.0001e4302", "1" + "0" * 4298),
    ("1" + "0" * 50 + "e-4340", "1/1" + "0" * 4290),
])
def test_gamma_expands_an_exponent_that_the_mantissa_brings_back(capsys, mld, expected):
    # the exponent alone is past 4300, the value is not: gamma(1, a) = a
    rc, out, _ = run(capsys, "gamma", "--dim", "1", "--mld", mld, "--json")
    assert rc == 0 and json.loads(out)["gamma"] == expected


def test_gen_rejects_a_negative_count(tmp_path, capsys):
    rc, out, err = run(capsys, "gen", "--count", "-1", "--out-dir", str(tmp_path))
    assert rc == 2 and out == ""
    assert err == "error: --count: expected a nonnegative integer, got -1\n"
    rc, out, _ = run(capsys, "gen", "--count", "0", "--out-dir", str(tmp_path), "--json")
    assert rc == 0 and json.loads(out) == {"written": []}
    assert list(tmp_path.iterdir()) == []


def test_python_dash_m_runs_the_command():
    # a checkout is never installed: python -m toricmld with src/ on the
    # path is how it runs the command
    src = os.path.dirname(os.path.dirname(toricmld.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "toricmld", "gamma", "--dim", "3",
                           "--mld", "2/3"], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "recursion:   4/6561\nclosed form: 4/6561\nagree: yes\n"


def test_gen_command(tmp_path, capsys):
    rc, out, _ = run(capsys, "gen", "--seed", "5", "--count", "2",
                     "--out-dir", str(tmp_path), "--json")
    assert rc == 0
    paths = json.loads(out)["written"]
    assert len(paths) == 2
    for p in paths:
        rc, out, _ = run(capsys, "check", p)
        assert rc == 0


def test_gen_reports_unwritable_directory(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = str(blocker / "sub")
    rc, out, err = run(capsys, "gen", "--seed", "5", "--out-dir", out_dir)
    assert rc == 2 and out == ""
    assert err.startswith("error: cannot write %s" % out_dir)


def test_find_reports_unwritable_certificate_path(corpus_dir, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for parent in (blocker, tmp_path / "missing"):
        cert = str(parent / "a2.cert.json")
        rc, out, err = run(capsys, "find", str(corpus_dir / "a2_identity.json"),
                           "--out", cert)
        assert rc == 2 and out == ""
        assert err.startswith("error: cannot write %s: " % cert)


def _long_result_instance(tmp_path):
    """a2_identity with B = (1/(10^2500 + 1), 1/(10^2500 + 3)): every input is
    within the digit limit, the mld's denominator has about 5000 digits."""
    obj = json.loads(corpus_bytes("a2_identity").decode())
    obj["B"] = {"0": "1/%d" % (10 ** 2500 + 1), "1": "1/%d" % (10 ** 2500 + 3)}
    p = tmp_path / "long.json"
    p.write_text(dumps_canonical(obj))
    return p


LONG_RESULT = "a result has more than 4300 digits in its numerator or denominator"


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("command", [("mld",), ("find",), ("oracle-mld", "--box", "1")],
                         ids=["mld", "find", "oracle-mld"])
def test_a_result_past_the_digit_limit_exits_2_with_a_reason(tmp_path, capsys, command,
                                                             json_flag):
    p = _long_result_instance(tmp_path)
    rc, out, err = run(capsys, *command, *json_flag, str(p))
    assert rc == 2
    if json_flag:
        assert json.loads(out) == {"error": LONG_RESULT} and err == ""
    else:
        assert out == "" and err == "error: %s\n" % LONG_RESULT
    assert not (tmp_path / "long.cert.json").exists()
    # the inputs themselves are fine
    assert run(capsys, "check", str(p))[0] == 0
    assert run(capsys, "lct", str(p), "--phibar", "1,0")[0] == 0


def test_a_failed_find_leaves_an_existing_certificate_as_it_was(corpus_dir, tmp_path, capsys):
    out = tmp_path / "kept.cert.json"
    rc, _out, _err = run(capsys, "find", str(corpus_dir / "a1_family.json"), "--out", str(out))
    assert rc == 0
    before = out.read_bytes()
    rc, _out, err = run(capsys, "find", str(_long_result_instance(tmp_path)), "--out", str(out))
    assert rc == 2 and LONG_RESULT in err
    assert out.read_bytes() == before
    rc, _out, _err = run(capsys, "verify", str(corpus_dir / "a1_family.json"), str(out))
    assert rc == 0


def test_certificate_file_roundtrip(corpus_dir, capsys):
    inst = str(corpus_dir / "wedge25.json")
    rc, out, _ = run(capsys, "find", inst, "--json")
    cert_path = json.loads(out)["certificate"]
    obj = json.loads(open(cert_path).read())
    cert = certificate_from_obj(obj)
    assert dumps_canonical(certificate_to_obj(cert)) != ""  # parses back
    assert obj["phi_bar"] == [1] and obj["gamma"] == "1/25"
    assert obj["transcript"][0]["case"] == "interior"


def test_instance_rejects_floats():
    obj = json.loads(corpus_bytes("a1_family").decode())
    obj["B"] = {"0": 0.5}
    with pytest.raises(InstanceError, match="strings"):
        instance_from_obj(obj)


def test_check_refuses_a_json_integer_past_the_digit_limit(tmp_path, capsys):
    # json.loads raises a plain ValueError on an int of more than 4300 digits
    text = dumps_canonical(json.loads(corpus_bytes("a1_family").decode()))
    p = tmp_path / "long.json"
    p.write_text(text.replace('"rays": [\n    [\n      1\n', '"rays": [\n    [\n      1%s\n'
                              % ("0" * 4999), 1))
    rc, out, err = run(capsys, "check", str(p))
    assert rc == 2 and out == ""
    assert err.startswith("error: %s: not valid JSON (" % p)


def test_verify_refuses_a_json_integer_past_the_digit_limit(corpus_dir, capsys):
    inst = str(corpus_dir / "wedge25.json")
    rc, out, _ = run(capsys, "find", inst, "--json")
    cert_path = json.loads(out)["certificate"]
    text = open(cert_path).read()
    open(cert_path, "w").write(text.replace('"phi_bar": [\n    1\n',
                                            '"phi_bar": [\n    %s\n' % ("1" * 5000), 1))
    rc, out, err = run(capsys, "verify", inst, cert_path)
    assert rc == 2 and out == ""
    assert err.startswith("error: %s: not valid JSON (" % cert_path)


@pytest.mark.parametrize("command, b", [("check", "1e-1000000"), ("mld", "1e-5000"),
                                        ("mld", "0." + "0" * 4299 + "1")],
                         ids=["check-1e-1000000", "mld-1e-5000", "mld-4300-decimals"])
def test_a_rational_past_the_digit_limit_is_refused_with_its_field(tmp_path, capsys,
                                                                   command, b):
    # Fraction("1e-1000000") would compute 10^1000000 first; 1e-5000 and the
    # decimal have denominators of 5001 and 4301 digits, past what frac_str prints
    obj = json.loads(corpus_bytes("a1_family").decode())
    obj["B"] = {"0": b}
    p = tmp_path / "long.json"
    p.write_text(dumps_canonical(obj))
    rc, out, err = run(capsys, command, str(p))
    assert rc == 2 and out == ""
    assert err == "error: B[0]: more than 4300 digits in numerator or denominator\n"


@pytest.mark.parametrize("s, expected", [
    ("1e-4299", F(1, 10 ** 4299)),
    ("0.0001e4302", F(10 ** 4298)),
    ("-0e99999999", F(0)),
    ("1e4300", None),
    ("1E-20000000", None),
])
def test_sized_fraction_bounds_the_digits_of_its_value(s, expected):
    assert _sized_fraction(s) == expected


def test_sized_fraction_counts_the_digits_of_the_mantissa():
    # 4000 nines times 10^300 has 4300 digits; times 10^301, 4301
    assert _sized_fraction("9" * 4000 + "e300") == 10 ** 4300 - 10 ** 300
    assert _sized_fraction("9" * 4000 + "e301") is None


@pytest.mark.parametrize("rank", [2.7, "2", True, -1, None])
def test_check_requires_a_nonnegative_integer_rank(tmp_path, capsys, rank):
    obj = json.loads(corpus_bytes("a2_identity").decode())
    obj["rank_N"] = rank
    p = tmp_path / "rank.json"
    p.write_text(dumps_canonical(obj))
    rc, out, err = run(capsys, "check", str(p))
    assert rc == 2 and out == ""
    assert err.startswith("error: rank_N: expected a nonnegative integer")


@pytest.mark.parametrize("key", [" 1", "+0", "1_0", "00", "-0", "2"])
def test_check_requires_canonical_ray_keys_in_b(tmp_path, capsys, key):
    # only str(i) for a ray index i names a ray: int() would read " 1" and
    # "+0", read "1_0" as 10, and let "00" overwrite "0"
    obj = json.loads(corpus_bytes("a2_identity").decode())
    obj["B"] = {"0": "1/2", key: "0"}
    p = tmp_path / "keys.json"
    p.write_text(dumps_canonical(obj))
    rc, out, err = run(capsys, "check", str(p))
    assert rc == 2 and out == ""
    assert err.startswith("error: B: key %r is not the index of one of the 2 rays" % key)


@pytest.mark.parametrize("d", [2.9, "2", True])
def test_verify_requires_an_integer_dimension(corpus_dir, capsys, d):
    inst = str(corpus_dir / "a2_identity.json")
    rc, out, _ = run(capsys, "find", inst, "--json")
    cert_path = json.loads(out)["certificate"]
    obj = json.loads(open(cert_path).read())
    obj["d"] = d
    open(cert_path, "w").write(dumps_canonical(obj))
    rc, out, err = run(capsys, "verify", inst, cert_path)
    assert rc == 2 and out == ""
    assert err.startswith("error: d: expected an integer")


def test_gen_writes_the_canonical_instance(tmp_path, capsys):
    from toricmld.generator import random_instance

    rc, out, _ = run(capsys, "gen", "--seed", "7", "--out-dir", str(tmp_path), "--json")
    assert rc == 0
    tc, pair, _meta = random_instance(7)
    expected = dumps_canonical(instance_to_obj(tc, pair, "generated instance, seed 7"))
    assert open(json.loads(out)["written"][0]).read() == expected


def test_main_builds_the_parser_once(monkeypatch, capsys):
    import argparse

    run(capsys, "gamma", "--dim", "2", "--mld", "1")
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for mld in ("1", "2/3", "5"):
        rc, _out, _err = run(capsys, "gamma", "--dim", "2", "--mld", mld)
        assert rc == 0
    assert built == []


def _raise_pair_error(*_args, **_kwargs):
    from toricmld.pairs import PairError

    raise PairError("no valid instance found")


def test_verify_reports_a_pair_error_as_invalid_input(corpus_dir, monkeypatch, capsys):
    import toricmld.cli

    inst = str(corpus_dir / "a2_identity.json")
    rc, out, _ = run(capsys, "find", inst, "--json")
    cert_path = json.loads(out)["certificate"]
    monkeypatch.setattr(toricmld.cli, "verify_certificate", _raise_pair_error)
    rc, out, err = run(capsys, "verify", inst, cert_path)
    assert rc == 2 and out == "" and err == "error: no valid instance found\n"
    rc, out, err = run(capsys, "verify", inst, cert_path, "--json")
    assert rc == 2 and err == "" and json.loads(out) == {"error": "no valid instance found"}


def test_gen_reports_a_pair_error_as_invalid_input(tmp_path, monkeypatch, capsys):
    import toricmld.cli

    monkeypatch.setattr(toricmld.cli, "random_instance", _raise_pair_error)
    rc, out, err = run(capsys, "gen", "--seed", "5", "--out-dir", str(tmp_path))
    assert rc == 2 and out == "" and err == "error: no valid instance found\n"
    rc, out, err = run(capsys, "gen", "--seed", "5", "--out-dir", str(tmp_path), "--json")
    assert rc == 2 and err == "" and json.loads(out) == {"error": "no valid instance found"}
    assert list(tmp_path.iterdir()) == []


def test_gen_names_the_seed_and_the_attempts_when_it_gives_up(tmp_path, monkeypatch, capsys):
    import toricmld.generator

    def refuse(_tc):
        from toricmld.pairs import PairError

        raise PairError("validation refused")

    monkeypatch.setattr(toricmld.generator, "MAX_ATTEMPTS", 2)
    monkeypatch.setattr(toricmld.generator, "validate_contraction", refuse)
    reason = "no valid instance found for seed 5 in 2 attempts"
    rc, out, err = run(capsys, "gen", "--seed", "5", "--out-dir", str(tmp_path))
    assert rc == 2 and out == "" and err == "error: %s\n" % reason
    rc, out, err = run(capsys, "gen", "--seed", "5", "--out-dir", str(tmp_path), "--json")
    assert rc == 2 and err == "" and json.loads(out) == {"error": reason}
    assert list(tmp_path.iterdir()) == []
