"""CLI: full command-graph round trips, exit codes, determinism,
secret-file handling, parameter-file bounds and the stdlib-only import."""

import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import twisted_dihedral
from twisted_dihedral import errors
from twisted_dihedral.algebra import rep_serialize
from twisted_dihedral.cli import main
from twisted_dihedral.cocycle import Cocycle
from twisted_dihedral.formats import (SECRET_MARKER, read_element_file,
                                      read_param_file, write_element_file)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def params_file(tmp_path):
    path = tmp_path / "params.txt"
    assert run("param-gen", "--p", 3, "--m", 1, "--n", 3,
               "--out", path, "--seed", 1) == 0
    return path


def test_param_gen_f3_lambda(params_file):
    pp = read_param_file(params_file)
    assert pp.algebra.lam.rep == 2
    text = params_file.read_text()
    assert "p=3" in text and "lambda=2" in text


def test_param_gen_invalid_divisibility(tmp_path, capsys):
    rc = run("param-gen", "--p", 5, "--m", 1, "--n", 3,
             "--out", tmp_path / "x.txt")
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_full_kem_round_trip(tmp_path, params_file, capsys):
    pk = tmp_path / "pk.txt"
    sk = tmp_path / "sk.txt"
    ct = tmp_path / "ct.txt"
    k1 = tmp_path / "k1.txt"
    k2 = tmp_path / "k2.txt"
    assert run("keygen", "--params", params_file, "--out-pk", pk,
               "--out-sk", sk, "--seed", 2) == 0
    assert run("encaps", "--params", params_file, "--pk", pk,
               "--out-ct", ct, "--out-key", k1, "--seed", 3) == 0
    assert run("decaps", "--params", params_file, "--sk", sk,
               "--ct", ct, "--out-key", k2) == 0
    key1, key2 = k1.read_text().strip(), k2.read_text().strip()
    assert key1 == key2
    assert len(key1) == 64  # 256-bit key as hex


def test_decaps_tampered_ciphertext(tmp_path):
    # larger parameters so the tampered ciphertext cannot collide with a
    # genuine encapsulation (see the KEM tests)
    params = tmp_path / "params9.txt"
    assert run("param-gen", "--p", 3, "--m", 2, "--n", 9,
               "--out", params, "--seed", 1) == 0
    pk, sk = tmp_path / "pk.txt", tmp_path / "sk.txt"
    ct, k1, k2 = tmp_path / "ct.txt", tmp_path / "k1.txt", tmp_path / "k2.txt"
    run("keygen", "--params", params, "--out-pk", pk, "--out-sk", sk,
        "--seed", 2)
    run("encaps", "--params", params, "--pk", pk, "--out-ct", ct,
        "--out-key", k1, "--seed", 3)
    lines = ct.read_text().splitlines()
    body = list(lines[-1])
    # bump the first coefficient of c2 to a different value mod 3
    body[1] = {"0": "1", "1": "2", "2": "0"}[body[1]]
    lines[-1] = "".join(body)
    ct.write_text("\n".join(lines) + "\n")
    # implicit rejection: exit 0, a key is produced, but it differs
    assert run("decaps", "--params", params, "--sk", sk, "--ct", ct,
               "--out-key", k2) == 0
    assert k1.read_text() != k2.read_text()


@pytest.mark.parametrize("p,m,n", [(3, 1, 3), (3, 2, 9), (101, 1, 101)])
def test_encaps_refuses_zero_pk(tmp_path, capsys, p, m, n):
    # to pk = 0, c2 = m goes in the clear and anyone has the key
    params, pk, ct = tmp_path / "params.txt", tmp_path / "pk.txt", tmp_path / "ct.txt"
    assert run("param-gen", "--p", p, "--m", m, "--n", n, "--out", params,
               "--seed", 1) == 0
    algebra = read_param_file(params).algebra
    write_element_file(pk, algebra, [algebra.zero()])
    capsys.readouterr()
    assert run("encaps", "--params", params, "--pk", pk, "--out-ct", ct,
               "--out-key", tmp_path / "k.txt", "--seed", 3) == 1
    captured = capsys.readouterr()
    assert "public key is zero" in captured.err and captured.out == ""
    assert not ct.exists()


def test_decaps_rejects_digit_at_least_p(tmp_path, capsys):
    # at (101,1,101) a ciphertext byte is a rep; a byte of 101 (hex 65)
    # is no digit mod 101, and decaps exits 1 on it
    params = tmp_path / "params101.txt"
    assert run("param-gen", "--p", 101, "--m", 1, "--n", 101,
               "--out", params, "--seed", 1) == 0
    pk, sk = tmp_path / "pk.txt", tmp_path / "sk.txt"
    ct, k1, k2 = tmp_path / "ct.txt", tmp_path / "k1.txt", tmp_path / "k2.txt"
    assert run("keygen", "--params", params, "--out-pk", pk, "--out-sk", sk,
               "--seed", 2) == 0
    assert run("encaps", "--params", params, "--pk", pk, "--out-ct", ct,
               "--out-key", k1, "--seed", 3) == 0
    lines = ct.read_text().splitlines()
    lines[-1] = "65" + lines[-1][2:]
    ct.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("decaps", "--params", params, "--sk", sk, "--ct", ct,
               "--out-key", k2) == 1
    assert "digit out of range" in capsys.readouterr().err
    assert not k2.exists()


def test_secret_file_marker_and_show(tmp_path, params_file, capsys):
    pk, sk = tmp_path / "pk.txt", tmp_path / "sk.txt"
    run("keygen", "--params", params_file, "--out-pk", pk, "--out-sk", sk,
        "--seed", 2)
    capsys.readouterr()
    assert sk.read_text().splitlines()[0] == SECRET_MARKER
    assert pk.read_text().splitlines()[0] != SECRET_MARKER


def test_keygen_refuses_to_print_secrets_by_default(tmp_path, params_file,
                                                    capsys):
    # keys leave the CLI only through --out-sk and --out-key
    pk, sk, ct = tmp_path / "pk.txt", tmp_path / "sk.txt", tmp_path / "ct.txt"
    k1, k2 = tmp_path / "k1.txt", tmp_path / "k2.txt"
    assert run("keygen", "--params", params_file, "--out-pk", pk, "--out-sk", sk,
               "--seed", 2) == 0
    assert run("encaps", "--params", params_file, "--pk", pk, "--out-ct", ct,
               "--out-key", k1, "--seed", 3) == 0
    assert run("decaps", "--params", params_file, "--sk", sk, "--ct", ct,
               "--out-key", k2) == 0
    out = capsys.readouterr().out
    pp = read_param_file(params_file)
    a, gamma, s, _ = read_element_file(sk, pp.algebra, expect=4)
    key = k1.read_text().strip()
    assert key == k2.read_text().strip()
    for secret in (rep_serialize(a).hex(), rep_serialize(gamma).hex(),
                   rep_serialize(s).hex(), key):
        assert secret not in out


def test_kex_demo_agrees(params_file, capsys):
    assert run("kex-demo", "--params", params_file, "--seed", 9) == 0
    out = capsys.readouterr().out
    assert "AGREE" in out
    assert "party=initiator" in out and "party=responder" in out
    assert "sid=" in out and "pk=" in out


def test_cocycle_check_valid(params_file, capsys):
    assert run("cocycle-check", "--params", params_file) == 0
    out = capsys.readouterr().out
    assert "valid" in out
    assert "rotation-pair symmetry" in out
    assert "reflection-pair identity" in out


def test_cocycle_check_beta_invalid(params_file, capsys):
    # ord(2) = 2 does not divide n = 3 over F_3: the check ran and its
    # answer is no, exit 3, not the 1 of a file it could not read
    assert run("cocycle-check", "--params", params_file,
               "--beta-lambda", "2") == 3
    out = capsys.readouterr().out
    assert "counterexample" in out


# A digit of lambda or of the modulus outside [0, p), read mod p, would run
# the commands under another lambda or modulus than the file names, and
# keygen would write keys under the reduced header.
@pytest.mark.parametrize("key", ["lambda", "modulus"])
@pytest.mark.parametrize("shift", [3, -3])
def test_param_file_digit_outside_field_refused(tmp_path, capsys, key, shift):
    params = tmp_path / "params.txt"
    assert run("param-gen", "--p", 3, "--m", 2, "--n", 9, "--seed", 1,
               "--out", params) == 0
    lines = params.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(key + "="))
    digits = lines[i].split("=")[1].split(",")
    digits[0] = str(int(digits[0]) + shift)
    lines[i] = f"{key}={','.join(digits)}"
    params.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    pk, sk = tmp_path / "pk.txt", tmp_path / "sk.txt"
    for argv in (("kex-demo", "--params", params, "--seed", 1),
                 ("keygen", "--params", params, "--out-pk", pk, "--out-sk", sk,
                  "--seed", 2)):
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert "outside [0, 3)" in captured.err and captured.out == ""
    assert not pk.exists() and not sk.exists()


def test_cocycle_check_beta_digit_outside_field_refused(tmp_path, capsys):
    params = tmp_path / "params.txt"
    assert run("param-gen", "--p", 3, "--m", 2, "--n", 9, "--seed", 1,
               "--out", params) == 0
    capsys.readouterr()
    for digits in ("2,3", "5,0"):
        assert run("cocycle-check", "--params", params,
                   "--beta-lambda", digits) == 1
        captured = capsys.readouterr()
        assert "outside [0, 3)" in captured.err and captured.out == ""


def test_cocycle_check_capacity(tmp_path, params_file, capsys, monkeypatch):
    # (2n)^3 = 216 triples at n = 3: refused by a bound of 215, before
    # either cocycle's table is built; at the real bound, n = 108 is refused
    monkeypatch.setattr(errors, "MAX_CANDIDATES", 215)
    built = []
    monkeypatch.setattr(Cocycle, "_on_reflections",
                        classmethod(lambda cls, *args: built.append(args)))
    for extra in ((), ("--beta-lambda", "2")):
        assert run("cocycle-check", "--params", params_file, *extra) == 2
        captured = capsys.readouterr()
        assert "capacity error" in captured.err and captured.out == ""
    assert built == []
    monkeypatch.undo()
    monkeypatch.setattr(errors, "MAX_CANDIDATES", 216)
    assert run("cocycle-check", "--params", params_file) == 0
    monkeypatch.undo()
    params108 = tmp_path / "params108.txt"
    assert run("param-gen", "--p", 3, "--n", 108, "--seed", 1,
               "--out", params108) == 0
    capsys.readouterr()
    assert run("cocycle-check", "--params", params108) == 2
    captured = capsys.readouterr()
    assert "capacity error" in captured.err and captured.out == ""


def test_attack_exhaustive(tmp_path, params_file, capsys):
    pk, sk = tmp_path / "pk.txt", tmp_path / "sk.txt"
    run("keygen", "--params", params_file, "--out-pk", pk, "--out-sk", sk,
        "--seed", 4)
    capsys.readouterr()
    assert run("attack", "--params", params_file, "--pk", pk,
               "exhaustive") == 0
    out = capsys.readouterr().out
    assert "verification: ok" in out
    assert "candidates tested:" in out
    assert float(_field(out, "candidates/s")) > 0
    assert "offline table" not in out


def test_attack_mitm(tmp_path, params_file, capsys):
    pk, sk = tmp_path / "pk.txt", tmp_path / "sk.txt"
    run("keygen", "--params", params_file, "--out-pk", pk, "--out-sk", sk,
        "--seed", 4)
    capsys.readouterr()
    assert run("attack", "--params", params_file, "--pk", pk, "mitm",
               "--t", "1") == 0
    out = capsys.readouterr().out
    assert "offline table entries: 27" in out
    assert "verification: ok" in out
    build = _field(out, "offline table build time")
    assert build.endswith("s") and float(build[:-1]) >= 0
    assert float(_field(out, "candidates/s")) > 0


def test_attack_no_pair_exits_3(tmp_path, capsys):
    # no rotation a and gamma give a*h*gamma = 1 under these parameters:
    # the scan tests all 3^3 x 3^2 candidates, and its answer is no
    params, pk = tmp_path / "params.txt", tmp_path / "pk.txt"
    assert run("param-gen", "--p", 3, "--n", 3, "--seed", 41, "--out", params) == 0
    pp = read_param_file(params)
    write_element_file(pk, pp.algebra, [pp.algebra.basis(0)])
    capsys.readouterr()
    assert run("attack", "--params", params, "--pk", pk, "exhaustive") == 3
    out = capsys.readouterr().out
    assert _field(out, "candidates tested") == "243"
    assert "no pair found" in out


def _field(out, name):
    """The value printed after `name: ` on the one line that has it."""
    (value,) = [line[len(name) + 2:] for line in out.splitlines()
                if line.startswith(name + ": ")]
    return value


@pytest.fixture
def big_instance(tmp_path):
    """(3,1,12) parameter and public-key files."""
    params = tmp_path / "big.txt"
    pk, sk = tmp_path / "pk.txt", tmp_path / "sk.txt"
    assert run("param-gen", "--p", 3, "--m", 1, "--n", 12,
               "--out", params, "--seed", 1) == 0
    assert run("keygen", "--params", params, "--out-pk", pk,
               "--out-sk", sk, "--seed", 2) == 0
    return params, pk


def test_attack_capacity_exit_code(big_instance, capsys):
    params, pk = big_instance
    # 3^12 * 3^7 candidates exceed the default bound, and so do the
    # 3^12 * 3^7 of the MITM online scan at t = 0
    assert run("attack", "--params", params, "--pk", pk, "exhaustive") == 2
    assert "capacity error" in capsys.readouterr().err
    assert run("attack", "--params", params, "--pk", pk, "mitm", "--t", 0) == 2
    out, err = capsys.readouterr()
    assert "capacity error" in err
    assert "offline table entries" not in out


def test_attack_mitm_refused_before_table(big_instance, capsys):
    # at t = 1 the 3 * 3^7 table entries fit their bound, but the
    # 3^11 * 3^7 online candidates do not: no table is built for a scan
    # that would be refused
    params, pk = big_instance
    capsys.readouterr()
    assert run("attack", "--params", params, "--pk", pk, "mitm", "--t", 1) == 2
    out, err = capsys.readouterr()
    assert "capacity error" in err
    assert "offline table entries" not in out


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    """The first sh block under README's "## CLI", run line by line as
    written: every command exits 0 but the --beta-lambda check, which
    exits 3, and decaps writes the key that encaps wrote."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    assert lines and all(line.startswith("twisted-dihedral ") for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        want = 3 if "--beta-lambda" in line else 0
        assert main(shlex.split(line)[1:]) == want, line
    assert (tmp_path / "k1.txt").read_bytes() == (tmp_path / "k2.txt").read_bytes()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run("param-gen", "--p", 3) == 1          # missing required flags
    assert run("frobnicate") == 1                   # unknown subcommand
    assert run("kex-demo", "--params", tmp_path / "missing.txt") == 1
    capsys.readouterr()


def test_malformed_param_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("p=3\nn=3\n")  # missing lambda and h
    assert run("kex-demo", "--params", bad) == 1
    assert "error" in capsys.readouterr().err


# Each file would build a huge group or field table if it were loaded; the
# bounds must refuse it from its text alone.
OVERSIZED = {
    "long n, short h": ("p=3\nn=999999\nlambda=2\nh=00\n", "hex digits"),
    "huge p": ("p=2147483647\nn=2147483647\nlambda=2\nh=00\n",
               "exceeds the bound"),
    # x^40 + x + 2 is irreducible over F_3
    "huge m": ("p=3\nm=40\nmodulus=2,1," + "0," * 38 + "1\nn=3\nlambda="
               + ",".join(["1"] * 40) + "\nh=" + "00" * 6 * 40 + "\n",
               "exceeds the bound"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_param_file_refused(tmp_path, capsys, case):
    text, reason = OVERSIZED[case]
    path = tmp_path / "params.txt"
    path.write_text(text)
    start = time.perf_counter()
    assert run("kex-demo", "--params", path) == 1
    assert time.perf_counter() - start < 1.0
    assert reason in capsys.readouterr().err


def test_param_gen_refuses_oversized_field(tmp_path, capsys):
    out = tmp_path / "params.txt"
    for p, m, n in [(3, 40, 3), (65537, 1, 65537), (3, 11, 3)]:
        assert run("param-gen", "--p", p, "--m", m, "--n", n, "--out", out) == 1
        assert "exceeds the bound" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_leaves_numpy_out():
    src = str(Path(twisted_dihedral.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, twisted_dihedral.cli; "
            "sys.exit('numpy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0


def test_header_mismatch_rejected(tmp_path, capsys):
    p1 = tmp_path / "p1.txt"
    p2 = tmp_path / "p2.txt"
    pk = tmp_path / "pk.txt"
    sk = tmp_path / "sk.txt"
    run("param-gen", "--p", 3, "--m", 1, "--n", 3, "--out", p1, "--seed", 1)
    run("param-gen", "--p", 3, "--m", 1, "--n", 6, "--out", p2, "--seed", 1)
    run("keygen", "--params", p1, "--out-pk", pk, "--out-sk", sk, "--seed", 2)
    capsys.readouterr()
    assert run("encaps", "--params", p2, "--pk", pk,
               "--out-ct", tmp_path / "ct.txt",
               "--out-key", tmp_path / "k.txt", "--seed", 3) == 1
    assert "header mismatch" in capsys.readouterr().err


def test_encaps_refuses_pk_of_another_modulus(tmp_path, capsys):
    # a (3,2,3) key written under t^2 + 1, read with a parameter file that
    # says t^2 + 2t + 2: the v2 header names the modulus
    params, other, pk = tmp_path / "params.txt", tmp_path / "other.txt", tmp_path / "pk.txt"
    rcs = [run("param-gen", "--p", 3, "--m", 2, "--n", 3, "--out", params, "--seed", 5),
           run("keygen", "--params", params, "--out-pk", pk,
               "--out-sk", tmp_path / "sk.txt", "--seed", 6)]
    text = params.read_text()
    if rcs != [0, 0] or "modulus=1,0,1\n" not in text:
        pytest.fail("set-up did not write a key under modulus=1,0,1")
    other.write_text(text.replace("modulus=1,0,1\n", "modulus=2,2,1\n"))
    capsys.readouterr()
    assert run("encaps", "--params", other, "--pk", pk,
               "--out-ct", tmp_path / "ct.txt",
               "--out-key", tmp_path / "k.txt", "--seed", 7) == 1
    assert "header mismatch" in capsys.readouterr().err


def test_key_headers_v1_where_m_is_1_else_v2(tmp_path, capsys):
    # a v1 header, which names no modulus, is refused where m > 1
    for m, want in ((1, "twisted-dihedral v1 p=3 m=1 n=3 lambda="),
                    (2, "twisted-dihedral v2 p=3 m=2 n=3 modulus=1,0,1 lambda=")):
        params, pk = tmp_path / f"params{m}.txt", tmp_path / f"pk{m}.txt"
        assert run("param-gen", "--p", 3, "--m", m, "--n", 3, "--out", params, "--seed", 5) == 0
        assert run("keygen", "--params", params, "--out-pk", pk,
                   "--out-sk", tmp_path / f"sk{m}.txt", "--seed", 6) == 0
        assert pk.read_text().startswith(want)
    pk.write_text(pk.read_text().replace("v2", "v1", 1).replace(" modulus=1,0,1", ""))
    capsys.readouterr()
    assert run("encaps", "--params", params, "--pk", pk, "--out-ct", tmp_path / "ct.txt",
               "--out-key", tmp_path / "k.txt", "--seed", 7) == 1
    assert "header mismatch" in capsys.readouterr().err


def test_seeded_determinism(tmp_path, capsys):
    outputs = []
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        params, pk, sk = d / "params.txt", d / "pk.txt", d / "sk.txt"
        ct, key = d / "ct.txt", d / "key.txt"
        assert run("param-gen", "--p", 3, "--m", 2, "--n", 9,
                   "--out", params, "--seed", 11) == 0
        assert run("keygen", "--params", params, "--out-pk", pk,
                   "--out-sk", sk, "--seed", 12) == 0
        assert run("encaps", "--params", params, "--pk", pk,
                   "--out-ct", ct, "--out-key", key, "--seed", 13) == 0
        outputs.append(tuple(f.read_bytes() for f in (params, pk, sk, ct, key)))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


def test_decaps_rejects_sk_with_foreign_pk(tmp_path, params_file, capsys):
    pk, sk = tmp_path / "pk.txt", tmp_path / "sk.txt"
    other_pk, other_sk = tmp_path / "pk2.txt", tmp_path / "sk2.txt"
    ct, key = tmp_path / "ct.txt", tmp_path / "k.txt"
    run("keygen", "--params", params_file, "--out-pk", pk, "--out-sk", sk,
        "--seed", 2)
    run("keygen", "--params", params_file, "--out-pk", other_pk,
        "--out-sk", other_sk, "--seed", 5)
    run("encaps", "--params", params_file, "--pk", pk, "--out-ct", ct,
        "--out-key", key, "--seed", 3)
    # the sk file ends with its pk line; swap in the other key's pk
    lines = sk.read_text().splitlines()
    foreign = other_pk.read_text().splitlines()[-1]
    assert lines[-1] != foreign
    sk.write_text("\n".join(lines[:-1] + [foreign]) + "\n")
    capsys.readouterr()
    assert run("decaps", "--params", params_file, "--sk", sk, "--ct", ct,
               "--out-key", key) == 1
    assert "public key" in capsys.readouterr().err
