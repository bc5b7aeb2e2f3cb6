"""Probabilistic public-key encryption over the twisted algebra.

Gen: pk = a1*h*gamma1. Enc: c1 = a2*h*gamma2, c2 = m + a2*pk*adjunct(gamma2).
Dec: m = c2 - a1*c1*adjunct(gamma1). Enc takes its randomness r2 explicitly
because the KEM re-derives it deterministically for the re-encryption check.
c1 and c2 share a2*phi(gamma2), computed once per r2 (see kex.py): Enc
takes three products, Dec one with a pke_gen key, which holds a1*phi(gamma1).

Decryption never fails structurally; wrong keys simply yield garbage, and
c2 is malleable (c2 + delta decrypts to m + delta) - which is why the KEM
wrapper exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import AlgebraElement, SecretPair, sample_secret_pair
from .kex import PublicParams, derive_public, derive_shared


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
    c1 = derive_public(r2, pp)
    c2 = m + derive_shared(r2, pk, pp)
    return PkeCiphertext(c1, c2)


def pke_dec(c: PkeCiphertext, sk: SecretPair, pp: PublicParams) -> AlgebraElement:
    return c.c2 - derive_shared(sk, c.c1, pp)
