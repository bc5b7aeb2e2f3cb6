"""FO-transformed KEM with SHAKE256 hashing and implicit rejection.

Encapsulation samples a random message m, derives the encryption
randomness r deterministically from SHAKE256(rep(m) || rep(pk)), and keys
the shared secret on SHAKE256(0x02 || rep(m) || rep(c)), the 0x02 being
G2_PREFIX. Decapsulation decrypts, re-derives r and from it c1 alone (c2
follows from c1), and on mismatch returns the implicit-rejection key
SHAKE256(0x02 || rep(s) || rep(c)) - never an error signal.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import random
from dataclasses import dataclass
from typing import Optional

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
    """ceil(log2 p) * m * (n + n//2 + 1) bits per squeezed block."""
    field = pp.algebra.field
    return _g1_plan(field.p, field.m, pp.algebra.n)[0]


@functools.lru_cache
def _g1_plan(p: int, m: int, n: int) -> tuple[int, int, int, Optional[tuple]]:
    """(bits, w, count, steps) of a `hash_g1` block at (p, m, n): its
    count = m * (n + n//2 + 1) chunks of w = ceil(log2 p) bits, and where
    p < 256 the `_spread_steps` that move them one to a byte (else None)."""
    w = (p - 1).bit_length()
    count = m * (n + n // 2 + 1)
    return w * count, w, count, _spread_steps(w, count) if p < 256 else None


def _spread_steps(w: int, count: int) -> tuple[tuple[int, int], ...]:
    """The (mask, shift) steps that move `count` w-bit chunks (w <= 8),
    packed from the low end, one to a byte: chunk j moves up j*(8 - w) bits,
    2^b * (8 - w) of them in the step for bit b of j, highest b first.
    Before that step the chunks lie in groups of 2^(b+1), each starting a
    whole 2^(b+1) bytes after the last, so the mask of every group's upper
    half is one byte pattern repeated; a moved chunk lands on zero bits,
    below the next group. No steps when w = 8."""
    if w == 8:
        return ()
    steps = []
    for b in reversed(range((count - 1).bit_length())):
        half = 1 << b
        pattern = (((1 << half * w) - 1) << half * w).to_bytes(2 * half, "little")
        steps.append((int.from_bytes(pattern * -(-count // (2 * half)), "little"),
                      half * (8 - w)))
    return tuple(steps)


def hash_g1(x: bytes, pp: PublicParams) -> SecretPair:
    """Map a byte string to a secret pair via SHAKE256.

    The SHAKE256 output of x is read as a big-endian bit stream in blocks
    of `g1_output_bits` bits. A block is split into ceil(log2 p)-bit
    big-endian chunks, each reduced mod p, which biases the digits, as p
    is an odd prime: at p = 3 a digit is 0 with probability 1/2 (ROADMAP
    item 3 plans a read by rejection). The first m*n digits build the
    rotation component, the remaining m*(n//2 + 1) digits the free
    coefficients of the mirrored gamma, each m consecutive digits lowest
    first. On a zero component the next block of the same stream is
    parsed instead, keeping the derivation deterministic.

    Where p < 256 the chunks are read in C: the steps of `_spread_steps`,
    built once per (p, m, n), move every chunk into a byte of its own,
    one `translate` reduces those bytes mod p, and for m > 1
    `FieldParams.reps_of_digits` joins each m digits. Where p >= 256 (so
    m = 1 under the field's bound) each chunk is one shift of the block.
    """
    algebra = pp.algebra
    field = algebra.field
    n, m, p = algebra.n, field.m, field.p
    bits, w, count, steps = _g1_plan(p, m, n)
    mask = (1 << w) - 1
    xof = hashlib.shake_256(x)
    start = 0
    while True:
        # SHAKE output prefixes are consistent, so a longer squeeze extends
        # the same stream.
        end = start + bits
        first, last = start // 8, (end + 7) // 8
        block = int.from_bytes(xof.digest(last)[first:], "big") >> (8 * last - end)
        if steps is not None:
            if start % 8:  # the first byte read holds bits of the block before
                block &= (1 << bits) - 1
            for spread, shift in steps:
                t = block & spread
                block += (t << shift) - t
            digits = block.to_bytes(count, "big").translate(field.mod_p_bytes)
            reps = tuple(digits) if m == 1 else field.reps_of_digits(digits, 1, m)
        else:
            reps = tuple([((block >> s) & mask) % p for s in range(bits - w, -1, -w)])
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
