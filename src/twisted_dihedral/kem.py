"""FO-transformed KEM with SHAKE256 hashing and implicit rejection.

Encapsulation samples a random message m, derives the encryption
randomness r deterministically from SHAKE256(rep(m) || rep(pk)), read into
uniform digits by rejection (`hash_g1`), and keys the shared secret on
SHAKE256(0x02 || rep(m) || rep(c)), the 0x02 being
G2_PREFIX. Decapsulation decrypts, re-derives r and from it c1 alone (c2
follows from c1), and on mismatch returns the implicit-rejection key
SHAKE256(0x02 || rep(s) || rep(c)) - never an error signal.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from .algebra import AlgebraElement, SecretPair, rep_serialize, sample_subspace, secret_pair
from .kex import PublicParams, derive_public
from .pke import PkeCiphertext, pke_dec, pke_enc, pke_gen

SHARED_KEY_BITS = 256
# Domain-separation prefix for the key-derivation hash, distinguishing it
# from the randomness-derivation hash.
G2_PREFIX = b"\x02"


@dataclass(frozen=True)
class KemKeyPair:
    pk: AlgebraElement
    sk: SecretPair
    s: AlgebraElement  # implicit-rejection secret, a random message


def shake256(data: bytes, out_bytes: int) -> bytes:
    return hashlib.shake_256(data).digest(out_bytes)


def hash_g1(x: bytes, pp: PublicParams) -> SecretPair:
    """Map a byte string to a secret pair via SHAKE256, with no bias.

    The SHAKE256 output of x is read by rejection into uniform digits
    (`FieldParams.uniform_digits`, the samplers' rule), and each m
    consecutive digits, lowest first, make a rep. The reps fall into
    groups of n + n//2 + 1: the first n are the rotation component, the
    rest the free coefficients of the mirrored gamma. The first group in
    which both parts are nonzero is the pair, so each part is uniform
    given that it is nonzero. The first squeeze holds 3m draws per rep of
    one group. Where it holds no such group it is doubled; SHAKE output
    prefixes are consistent, so a longer squeeze extends the same stream
    and the pair does not depend on its length.
    """
    algebra = pp.algebra
    field = algebra.field
    n, m = algebra.n, field.m
    size = n + n // 2 + 1
    xof = hashlib.shake_256(x)
    # over half the draws give a digit: a byte where p < 256, else a 4-byte word
    length = 3 * m * size * (1 if field.p < 256 else 4)
    while True:
        digits = field.uniform_digits(xof.digest(length))
        reps = digits if m == 1 else field.reps_of_digits(digits[:len(digits) // m * m], 1, m)
        for i in range(0, len(reps) - size + 1, size):
            a, g = reps[i:i + n], reps[i + n:i + size]
            if any(a) and any(g):
                return secret_pair(algebra, a, g)
        length *= 2


def hash_g2(x: bytes) -> bytes:
    """Shared key: SHARED_KEY_BITS bits of SHAKE256 over the domain-separated input."""
    return shake256(G2_PREFIX + x, SHARED_KEY_BITS // 8)


def kem_keygen(pp: PublicParams, rng: random.Random) -> KemKeyPair:
    kp = pke_gen(pp, rng)
    s = sample_subspace("full", pp.algebra, rng)
    return KemKeyPair(pk=kp.pk, sk=kp.sk, s=s)


def kem_encaps(pk: AlgebraElement, pp: PublicParams,
               rng: random.Random) -> tuple[PkeCiphertext, bytes]:
    """Raises ValueError on pk = 0, to which c2 would be m in the clear."""
    if pk.is_zero():
        raise ValueError("public key is zero")
    m = sample_subspace("full", pp.algebra, rng)
    m_bytes = rep_serialize(m)
    r = hash_g1(m_bytes + rep_serialize(pk), pp)
    c = pke_enc(m, pk, r, pp)
    return c, hash_g2(m_bytes + rep_serialize(c))


def kem_decaps(kp: KemKeyPair, c: PkeCiphertext, pp: PublicParams) -> bytes:
    """The FO re-encryption check on c1 alone: one kernel row r'*(h*y).

    With pk = a1'*(h*y) and m = c2 - a1'*lambda(c1*y), re-encryption gives
    c2' = m + r'*lambda(pk*y); if c1' = r'*(h*y) equals c1, then
    a1'*lambda(c1*y) = r'*lambda(pk*y) since rotations commute, so c2' = c2.
    Requires kp.pk == derive_public(kp.sk, pp), as `kem_keygen` and the
    CLI's secret-key check ensure.
    """
    m = pke_dec(c, kp.sk, pp)
    m_bytes = rep_serialize(m)
    r = hash_g1(m_bytes + rep_serialize(kp.pk), pp)
    c1_bytes = rep_serialize(c.c1)
    c_bytes = c1_bytes + rep_serialize(c.c2)
    if hmac.compare_digest(rep_serialize(derive_public(r, pp)), c1_bytes):
        return hash_g2(m_bytes + c_bytes)
    return hash_g2(rep_serialize(kp.s) + c_bytes)
