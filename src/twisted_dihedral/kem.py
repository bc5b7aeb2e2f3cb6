"""FO-transformed KEM with SHAKE256 hashing and implicit rejection.

Encapsulation samples a random message m, derives the encryption
randomness r deterministically from SHAKE256(rep(m) || rep(pk)), and keys
the shared secret on SHAKE256(rep(m) || rep(c)). Decapsulation decrypts,
re-derives r, re-encrypts, and on mismatch returns the implicit-rejection
key SHAKE256(rep(s) || rep(c)) - never an error signal.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from .algebra import (AlgebraElement, SecretPair, rep_serialize,
                      sample_subspace)
from .kex import PublicParams
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


class _BitReader:
    """Big-endian bit stream over the SHAKE256 output of a fixed input."""

    def __init__(self, data: bytes):
        self._xof = hashlib.shake_256(data)
        self._buf = b""
        self._bitpos = 0

    def take(self, nbits: int) -> int:
        end_byte = (self._bitpos + nbits + 7) // 8
        if end_byte > len(self._buf):
            # SHAKE output prefixes are consistent, so re-squeezing a longer
            # digest extends the same stream.
            self._buf = self._xof.digest(max(end_byte, 2 * len(self._buf) + 8))
        out = 0
        for _ in range(nbits):
            byte = self._buf[self._bitpos >> 3]
            out = (out << 1) | ((byte >> (7 - (self._bitpos & 7))) & 1)
            self._bitpos += 1
        return out


def g1_output_bits(pp: PublicParams) -> int:
    """ceil(log2 p) * m * (n + ceil((n+1)/2)) bits per squeezed block."""
    field = pp.algebra.field
    n = pp.algebra.n
    w = (field.p - 1).bit_length()
    return w * field.m * (n + (n + 1 + 1) // 2)


def hash_g1(x: bytes, pp: PublicParams) -> SecretPair:
    """Map a byte string to a secret pair via SHAKE256.

    The output block is split into ceil(log2 p)-bit big-endian chunks, each
    reduced mod p (a small documented bias when p is not a power of two).
    The first m*n digits build the rotation component, the remaining
    m*ceil((n+1)/2) digits the free coefficients of the mirrored gamma.
    On a zero component the next block of the same stream is parsed instead,
    keeping the derivation deterministic.
    """
    algebra = pp.algebra
    field = algebra.field
    n = algebra.n
    m = field.m
    w = (field.p - 1).bit_length()
    free = n // 2 + 1
    reader = _BitReader(x)
    while True:
        digits = [reader.take(w) % field.p for _ in range(m * (n + free))]
        reps = [field.rep_of(digits[k * m:(k + 1) * m]) for k in range(n + free)]
        a = algebra.from_reps(reps[:n] + [0] * n)
        g_reps = [0] * algebra.dim
        for slot in range(free):
            g_reps[n + slot] = reps[n + slot]
            if slot:
                g_reps[n + (n - slot) % n] = reps[n + slot]
        gamma = algebra.from_reps(g_reps)
        if not a.is_zero() and not gamma.is_zero():
            return SecretPair(a, gamma)


def hash_g2(x: bytes, l1: int = SHARED_KEY_BITS) -> bytes:
    """Shared-key hash: l1 bits of SHAKE256 over the domain-separated input."""
    if l1 % 8 != 0:
        raise ValueError("key length must be a whole number of bytes")
    return shake256(G2_PREFIX + x, l1 // 8)


def kem_keygen(pp: PublicParams, rng: random.Random) -> KemKeyPair:
    kp = pke_gen(pp, rng)
    s = sample_subspace("full", pp.algebra, rng)
    return KemKeyPair(pk=kp.pk, sk=kp.sk, s=s)


def kem_encaps(pk: AlgebraElement, pp: PublicParams,
               rng: random.Random) -> tuple[PkeCiphertext, bytes]:
    m = sample_subspace("full", pp.algebra, rng)
    r = hash_g1(rep_serialize(m) + rep_serialize(pk), pp)
    c = pke_enc(m, pk, r, pp)
    key = hash_g2(rep_serialize(m) + rep_serialize(c))
    return c, key


def kem_decaps(kp: KemKeyPair, c: PkeCiphertext, pp: PublicParams) -> bytes:
    m = pke_dec(c, kp.sk, pp)
    m_bytes = rep_serialize(m)
    r = hash_g1(m_bytes + rep_serialize(kp.pk), pp)
    c_bytes = rep_serialize(c)
    if hmac.compare_digest(rep_serialize(pke_enc(m, kp.pk, r, pp)), c_bytes):
        return hash_g2(m_bytes + c_bytes)
    return hash_g2(rep_serialize(kp.s) + c_bytes)
