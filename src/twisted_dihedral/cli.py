"""Command-line front door.

Subcommands: param-gen, keygen, encaps, decaps, kex-demo, cocycle-check,
attack. Exit codes: 0 success, 1 validation/usage error, 2 capacity error.
A --seed flag makes every command reproducible byte-for-byte.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import kem
from .algebra import SecretPair, rep_serialize
from .attacks import (DpdInstance, dpd_verify, exhaustive_dpd, mitm_offline,
                      mitm_online)
from .cocycle import Cocycle, verify_cocycle
from .errors import CapacityError, ParameterError
from .formats import (check_field_size, read_element_file, read_param_file,
                      write_element_file, write_param_file)
from .kex import Session, derive_public, setup_public_params
from .pke import PkeCiphertext


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def _rng(seed):
    if seed is None:
        return random.SystemRandom()
    return random.Random(seed)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twisted-dihedral")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("param-gen", help="generate public parameters")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("keygen", help="generate a KEM keypair")
    p.add_argument("--params", required=True)
    p.add_argument("--out-pk", required=True)
    p.add_argument("--out-sk", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--insecure-show", action="store_true",
                   help="also print the secret key to stdout")

    p = sub.add_parser("encaps", help="encapsulate a shared key")
    p.add_argument("--params", required=True)
    p.add_argument("--pk", required=True)
    p.add_argument("--out-ct", required=True)
    p.add_argument("--out-key", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("decaps", help="decapsulate a shared key")
    p.add_argument("--params", required=True)
    p.add_argument("--sk", required=True)
    p.add_argument("--ct", required=True)
    p.add_argument("--out-key", required=True)

    p = sub.add_parser("kex-demo", help="run both sides of the key exchange")
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("cocycle-check", help="verify a cocycle exhaustively")
    p.add_argument("--params", required=True)
    p.add_argument("--beta-lambda",
                   help="check the comparison cocycle for these lambda digits "
                        "(comma-separated) instead of the protocol cocycle")

    p = sub.add_parser("attack", help="solve a decomposition instance")
    p.add_argument("--params", required=True)
    p.add_argument("--pk", required=True)
    p.add_argument("kind", choices=["exhaustive", "mitm"])
    p.add_argument("--t", type=int, default=1,
                   help="meet-in-the-middle split point")

    return parser


def _cmd_param_gen(args) -> int:
    check_field_size(args.p, args.m)
    pp = setup_public_params(args.p, args.m, args.n, _rng(args.seed))
    write_param_file(args.out, pp)
    print(f"wrote parameters to {args.out}")
    return 0


def _cmd_keygen(args) -> int:
    pp = read_param_file(args.params)
    kp = kem.kem_keygen(pp, _rng(args.seed))
    write_element_file(args.out_pk, pp.algebra, [kp.pk])
    write_element_file(args.out_sk, pp.algebra,
                       [kp.sk.a, kp.sk.gamma, kp.s, kp.pk], secret=True)
    print(f"wrote public key to {args.out_pk}")
    print(f"wrote secret key to {args.out_sk}")
    if args.insecure_show:
        print("sk.a     =", rep_serialize(kp.sk.a).hex())
        print("sk.gamma =", rep_serialize(kp.sk.gamma).hex())
        print("sk.s     =", rep_serialize(kp.s).hex())
    return 0


def _read_kem_sk(path, pp) -> kem.KemKeyPair:
    a, gamma, s, pk = read_element_file(path, pp.algebra, expect=4)
    sk = SecretPair(a, gamma)
    if derive_public(sk, pp) != pk:
        raise ParameterError(f"{path}: stored public key does not match (a, gamma)")
    return kem.KemKeyPair(pk=pk, sk=sk, s=s)


def _cmd_encaps(args) -> int:
    pp = read_param_file(args.params)
    (pk,) = read_element_file(args.pk, pp.algebra, expect=1)
    ct, key = kem.kem_encaps(pk, pp, _rng(args.seed))
    write_element_file(args.out_ct, pp.algebra, [ct.c1, ct.c2])
    with open(args.out_key, "w") as fh:
        fh.write(key.hex() + "\n")
    print(f"wrote ciphertext to {args.out_ct}")
    print(f"shared key: {key.hex()}")
    return 0


def _cmd_decaps(args) -> int:
    pp = read_param_file(args.params)
    kp = _read_kem_sk(args.sk, pp)
    c1, c2 = read_element_file(args.ct, pp.algebra, expect=2)
    key = kem.kem_decaps(kp, PkeCiphertext(c1, c2), pp)
    with open(args.out_key, "w") as fh:
        fh.write(key.hex() + "\n")
    print(f"shared key: {key.hex()}")
    return 0


def _cmd_kex_demo(args) -> int:
    pp = read_param_file(args.params)
    rng = _rng(args.seed)
    sid = bytes(rng.randrange(256) for _ in range(8))
    alice = Session("initiator", sid, pp, rng)
    bob = Session("responder", sid, pp, rng)
    for label, session in (("initiator", alice), ("responder", bob)):
        print(f"party={label} sid={sid.hex()} "
              f"pk={rep_serialize(session.public_key).hex()}")
    k_a = alice.complete(bob.public_key)
    k_b = bob.complete(alice.public_key)
    print(f"initiator key: {rep_serialize(k_a).hex()}")
    print(f"responder key: {rep_serialize(k_b).hex()}")
    if k_a == k_b:
        print("AGREE")
        return 0
    print("DISAGREE")
    return 1


def _cmd_cocycle_check(args) -> int:
    pp = read_param_file(args.params)
    algebra = pp.algebra
    if args.beta_lambda is not None:
        digits = [int(d) for d in args.beta_lambda.split(",")]
        lam = algebra.field.elem(digits)
        cocycle = Cocycle.beta(lam, algebra.n)
        print(f"checking comparison cocycle, lambda={digits}")
    else:
        cocycle = Cocycle.alpha(algebra.lam, algebra.n)
        print(f"checking protocol cocycle, lambda={list(algebra.lam.digits)}")
    check = verify_cocycle(cocycle, algebra.group)
    if check.valid:
        print("valid: cocycle equation holds on all triples")
    else:
        print(f"invalid: counterexample (g, h, k) = {check.counterexample}")
    print("rotation-pair symmetry: "
          f"{'holds' if check.rotation_symmetry else 'fails'}")
    print("reflection-pair identity: "
          f"{'holds' if check.reflection_identity else 'fails'}")
    return 0 if check.valid else 1


def _cmd_attack(args) -> int:
    pp = read_param_file(args.params)
    (pk,) = read_element_file(args.pk, pp.algebra, expect=1)
    inst = DpdInstance(pp, pk)
    algebra = pp.algebra
    field = algebra.field
    print(f"parameters: p={field.p} m={field.m} n={algebra.n}")
    print(f"attack: {args.kind}")
    start = search_start = time.perf_counter()
    if args.kind == "exhaustive":
        result = exhaustive_dpd(inst)
    else:
        print(f"t: {args.t}")
        table = mitm_offline(pp, args.t)
        search_start = time.perf_counter()
        print(f"offline table entries: {table.entries}")
        print(f"offline table build time: {search_start - start:.3f}s")
        result = mitm_online(table, inst, args.t)
    end = time.perf_counter()
    tested, pair = result.candidates_tested, result.pair
    print(f"candidates tested: {tested}")
    print(f"wall time: {end - start:.3f}s")
    # the rate of the search itself: MITM's offline table build is not in it
    print(f"candidates/s: {tested / max(end - search_start, 1e-9):.0f}")
    if pair is None:
        print("no pair found")
        return 1
    print(f"found a     = {rep_serialize(pair.a).hex()}")
    print(f"found gamma = {rep_serialize(pair.gamma).hex()}")
    verified = dpd_verify(pair, inst)
    print(f"verification: {'ok' if verified else 'FAILED'}")
    return 0 if verified else 1


_COMMANDS = {
    "param-gen": _cmd_param_gen,
    "keygen": _cmd_keygen,
    "encaps": _cmd_encaps,
    "decaps": _cmd_decaps,
    "kex-demo": _cmd_kex_demo,
    "cocycle-check": _cmd_cocycle_check,
    "attack": _cmd_attack,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return exc.code if exc.code else 0
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
