"""FO-transformed KEM with SHAKE256 hashing and implicit rejection.

Encapsulation samples a random message m, derives the encryption
randomness r deterministically from SHAKE256(rep(m) || rep(pk)), and keys
the shared secret on SHAKE256(rep(m) || rep(c)). Decapsulation decrypts,
re-derives r and from it c1 alone (c2 follows from c1), and on mismatch
returns the implicit-rejection key SHAKE256(rep(s) || rep(c)) - never an
error signal.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from .algebra import (AlgebraElement, SecretPair, gamma_from_free,
                      rep_serialize, sample_subspace)
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


def g1_output_bits(pp: PublicParams) -> int:
    """ceil(log2 p) * m * (n + ceil((n+1)/2)) bits per squeezed block."""
    field = pp.algebra.field
    n = pp.algebra.n
    w = (field.p - 1).bit_length()
    return w * field.m * (n + (n + 1 + 1) // 2)


def hash_g1(x: bytes, pp: PublicParams) -> SecretPair:
    """Map a byte string to a secret pair via SHAKE256.

    The SHAKE256 output of x is read as a big-endian bit stream in blocks
    of `g1_output_bits` bits. A block is split into ceil(log2 p)-bit
    big-endian chunks, each reduced mod p (a small documented bias when p
    is not a power of two). The first m*n digits build the rotation
    component, the remaining m*ceil((n+1)/2) digits the free coefficients
    of the mirrored gamma, each m consecutive digits lowest first. On a
    zero component the next block of the same stream is parsed instead,
    keeping the derivation deterministic.
    """
    algebra = pp.algebra
    field = algebra.field
    n, m, p = algebra.n, field.m, field.p
    w = (p - 1).bit_length()
    mask = (1 << w) - 1
    bits = g1_output_bits(pp)
    xof = hashlib.shake_256(x)
    start = 0
    while True:
        # SHAKE output prefixes are consistent, so a longer squeeze extends
        # the same stream.
        end = start + bits
        first, last = start // 8, (end + 7) // 8
        block = int.from_bytes(xof.digest(last)[first:], "big") >> (8 * last - end)
        digits = tuple([((block >> s) & mask) % p for s in range(bits - w, -1, -w)])
        reps = digits if m == 1 else tuple([field.rep_of(digits[k:k + m])
                                            for k in range(0, len(digits), m)])
        a, g = reps[:n], reps[n:]
        if any(a) and any(g):
            return SecretPair(AlgebraElement(algebra, a + (0,) * n),
                              gamma_from_free(algebra, g))
        start = end


def hash_g2(x: bytes) -> bytes:
    """Shared key: SHARED_KEY_BITS bits of SHAKE256 over the domain-separated input."""
    return shake256(G2_PREFIX + x, SHARED_KEY_BITS // 8)


def kem_keygen(pp: PublicParams, rng: random.Random) -> KemKeyPair:
    kp = pke_gen(pp, rng)
    s = sample_subspace("full", pp.algebra, rng)
    return KemKeyPair(pk=kp.pk, sk=kp.sk, s=s)


def kem_encaps(pk: AlgebraElement, pp: PublicParams,
               rng: random.Random) -> tuple[PkeCiphertext, bytes]:
    m = sample_subspace("full", pp.algebra, rng)
    m_bytes = rep_serialize(m)
    r = hash_g1(m_bytes + rep_serialize(pk), pp)
    c = pke_enc(m, pk, r, pp)
    return c, hash_g2(m_bytes + rep_serialize(c))


def kem_decaps(kp: KemKeyPair, c: PkeCiphertext, pp: PublicParams) -> bytes:
    """The FO re-encryption check on c1 alone: one 1-row multiply r'*(h*y).

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
