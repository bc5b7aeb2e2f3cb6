"""Probabilistic public-key encryption over the twisted algebra.

Gen: pk = a1*h*gamma1. Enc: c1 = a2*h*gamma2, c2 = m + a2*pk*adjunct(gamma2).
Dec: m = c2 - a1*c1*adjunct(gamma1). Enc takes its randomness r2 explicitly
because the KEM derives it from the message. The KEM's re-encryption check
re-derives r2 and compares c1 = derive_public(r2) alone: for a pk made by
pke_gen, c2 follows from c1 and m (kem.kem_decaps gives the proof).

As in kex.py, a*x*gamma = a'*(x*y) and a*x*adjunct(gamma) =
a'*(lambda*(x*y)) with a' = a*phi(gamma), made when the SecretPair is
built. So Enc is c1 = `derive_public(r2)` and one `alg_product`, left
a2', right lambda*(pk*y), addend m; Dec is one `alg_product`, left a1',
right -lambda*(c1*y), addend c2. Neither makes an element addition or
subtraction.

In kernel calls and in big-integer multiplies that hold data (algebra.py
gives the kernel), KEM keygen takes 2 and 3: a1', then pk = a1'*(h*y).
Encapsulation takes 3 and 5: a2' in `hash_g1`, then c1 and c2.
Decapsulation takes 3 and 5: Dec, a2' in `hash_g1`, then c1 = a2'*(h*y)
for the check.

Decryption never fails structurally; wrong keys simply yield garbage, and
c2 is malleable (c2 + delta decrypts to m + delta) - which is why the KEM
wrapper exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import (AlgebraElement, SecretPair, alg_product,
                      sample_secret_pair, scaled_times_y)
from .kex import PublicParams, derive_public


@dataclass(frozen=True)
class PkeKeyPair:
    pk: AlgebraElement
    sk: SecretPair


@dataclass(frozen=True)
class PkeCiphertext:
    c1: AlgebraElement
    c2: AlgebraElement


def pke_gen(pp: PublicParams, rng: random.Random) -> PkeKeyPair:
    # zero divisors can make a*h*gamma vanish even for nonzero secrets;
    # a zero public key degenerates Enc to the identity, so resample
    while True:
        sk = sample_secret_pair(pp.algebra, rng)
        pk = derive_public(sk, pp)
        if not pk.is_zero():
            return PkeKeyPair(pk=pk, sk=sk)


def pke_enc(m: AlgebraElement, pk: AlgebraElement, r2: SecretPair,
            pp: PublicParams) -> PkeCiphertext:
    return PkeCiphertext(derive_public(r2, pp), alg_product(
        r2.a_phi, scaled_times_y(pk, pk.params.lam_mul), m))


def pke_dec(c: PkeCiphertext, sk: SecretPair, pp: PublicParams) -> AlgebraElement:
    c1 = c.c1
    return alg_product(sk.a_phi, scaled_times_y(c1, c1.params.neg_lam_mul), c.c2)
