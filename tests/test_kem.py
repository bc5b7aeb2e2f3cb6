"""KEM: hash derivations, FIPS 202 known-answer vectors, round trips, and
implicit rejection."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twisted_dihedral.algebra import (SecretPair, in_gamma, rep_serialize,
                                      sample_subspace)
from twisted_dihedral.kem import (G2_PREFIX, SHARED_KEY_BITS, g1_output_bits,
                                  hash_g1, hash_g2, kem_decaps, kem_encaps,
                                  kem_keygen, shake256)
from twisted_dihedral.kex import derive_public, setup_public_params
from twisted_dihedral.pke import PkeCiphertext

# NIST FIPS 202 example vectors for SHAKE256 (512-bit outputs):
# the empty message and the 1600-bit message of repeated 0xA3 bytes.
KAT_EMPTY = bytes.fromhex(
    "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
    "d75dc4ddd8c0f200cb05019d67b592f6fc821c49479ab48640292eacb3b7c4be")
KAT_1600 = bytes.fromhex(
    "cd8a920ed141aa0407a22d59288652e9d9f1a7ee0c1e7c1ca699424da84a904d"
    "2d700caae7396ece96604440577da4f3aa22aeb8857f961c4cd8e06f0ae6610b")


def test_shake256_kat_empty():
    assert shake256(b"", 64) == KAT_EMPTY


def test_shake256_kat_1600_bits():
    assert shake256(bytes([0xA3] * 200), 64) == KAT_1600


def test_shake256_prefix_consistency():
    # longer squeezes extend shorter ones (property the bit reader relies on)
    assert shake256(b"abc", 16) == shake256(b"abc", 64)[:16]


def test_g1_output_bits(pp333, pp515, pp329):
    assert g1_output_bits(pp333) == 10  # 2 * 1 * (3 + 2)
    assert g1_output_bits(pp515) == 3 * 1 * (5 + 3)
    assert g1_output_bits(pp329) == 2 * 2 * (9 + 5)


def test_hash_g1_contract(pp333, pp515, pp329):
    for pp in (pp333, pp515, pp329):
        for i in range(30):
            pair = hash_g1(bytes([i]) * 4, pp)
            assert pair.a.in_rotation_subalgebra() and not pair.a.is_zero()
            assert in_gamma(pair.gamma) and not pair.gamma.is_zero()


def test_hash_g1_deterministic(pp333):
    a = hash_g1(b"fixed input", pp333)
    b = hash_g1(b"fixed input", pp333)
    assert a == b
    c = hash_g1(b"other input", pp333)
    assert a != c


class BitReader:
    """Big-endian bit stream over the SHAKE256 output of a fixed input."""

    def __init__(self, data: bytes):
        self._xof = hashlib.shake_256(data)
        self._buf = b""
        self.bitpos = 0

    def take(self, nbits: int) -> int:
        end_byte = (self.bitpos + nbits + 7) // 8
        if end_byte > len(self._buf):
            self._buf = self._xof.digest(max(end_byte, 2 * len(self._buf) + 8))
        out = 0
        for _ in range(nbits):
            byte = self._buf[self.bitpos >> 3]
            out = (out << 1) | ((byte >> (7 - (self.bitpos & 7))) & 1)
            self.bitpos += 1
        return out


def hash_g1_bitwise(x, pp):
    """hash_g1 read bit by bit from the stream; also returns the blocks read."""
    algebra = pp.algebra
    field = algebra.field
    n, m = algebra.n, field.m
    w = (field.p - 1).bit_length()
    free = n // 2 + 1
    reader = BitReader(x)
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
            return SecretPair(a, gamma), reader.bitpos // g1_output_bits(pp)


# At (3,1,3) these inputs parse 3, 2 and 5 blocks before both components
# are nonzero.
RETRY_INPUTS_333 = [(b"\x00\x00", 3), (b"\x00\t", 2), (b"\x00\x1a", 5)]


def test_hash_g1_retry_inputs(pp333):
    for x, blocks in RETRY_INPUTS_333:
        pair, read = hash_g1_bitwise(x, pp333)
        assert read == blocks
        assert hash_g1(x, pp333) == pair


@pytest.mark.parametrize("name", ["pp333", "pp515", "pp329"])
def test_hash_g1_matches_bit_reader(name, request):
    pp = request.getfixturevalue(name)

    @settings(max_examples=300, deadline=None)
    @given(x=st.binary(max_size=40))
    @example(x=RETRY_INPUTS_333[0][0])
    @example(x=RETRY_INPUTS_333[2][0])
    def check(x):
        assert hash_g1(x, pp) == hash_g1_bitwise(x, pp)[0]

    check()


def chunk_digit_distribution(p):
    """P(d) for a uniform chunk of ceil(log2 p) bits reduced mod p."""
    w = (p - 1).bit_length()
    return [Fraction(len(range(d, 1 << w, p)), 1 << w) for d in range(p)]


def test_hash_g1_digit_bias(pp333):
    # a digit d below 2^w - p has two chunks, d and d + p, the rest one
    half, quarter, eighth = Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
    assert chunk_digit_distribution(3) == [half, quarter, quarter]
    assert chunk_digit_distribution(5) == [quarter, quarter, quarter, eighth, eighth]
    assert chunk_digit_distribution(7) == [quarter] + [eighth] * 6
    assert chunk_digit_distribution(101)[:27] == [Fraction(1, 64)] * 27
    # min-entropy per digit at p = 3: 1 bit against log2(3) for a uniform digit
    assert -math.log2(max(chunk_digit_distribution(3))) == 1.0

    # hash_g1 at (3,1,3) parses 3 rotation digits and 2 free gamma digits
    # per block and keeps the first block with both parts nonzero: the
    # exact law of a kept digit, from the 3^5 blocks
    prob = chunk_digit_distribution(3)
    kept = {"a": [Fraction(0)] * 3, "gamma": [Fraction(0)] * 3}
    for block in itertools.product(range(3), repeat=5):
        if any(block[:3]) and any(block[3:]):
            weight = math.prod(prob[d] for d in block)
            kept["a"][block[0]] += weight
            kept["gamma"][block[3]] += weight
    law = {part: [x / sum(ps) for x in ps] for part, ps in kept.items()}
    # rejecting a zero gamma happens to make its two free digits uniform;
    # the three digits of a keep the bias
    assert law == {"a": [Fraction(3, 7), Fraction(2, 7), Fraction(2, 7)],
                   "gamma": [Fraction(1, 3)] * 3}

    seen = {"a": [0] * 3, "gamma": [0] * 3}
    for i in range(3000):
        pair = hash_g1(i.to_bytes(2, "big"), pp333)
        for d in pair.a.reps()[:3]:
            seen["a"][d] += 1
        for d in pair.gamma.reps()[3:5]:
            seen["gamma"][d] += 1
    for part, counts in seen.items():
        total = sum(counts)
        for d in range(3):
            # 5 standard deviations; uniform digits of a would miss digit 0
            # of a by about 18
            sd = math.sqrt(law[part][d] * (1 - law[part][d]) / total)
            assert abs(counts[d] / total - law[part][d]) < 5 * sd


def test_hash_g2_contract():
    k = hash_g2(b"x")
    assert len(k) == SHARED_KEY_BITS // 8
    assert k == hash_g2(b"x")
    assert k != hash_g2(b"y")
    # domain separation from the raw XOF used by G1
    assert k != shake256(b"x", 32)
    assert k == shake256(G2_PREFIX + b"x", 32)
    assert len(hash_g2(b"x", 128)) == 16
    for bad in (100, 0, -8):
        with pytest.raises(ValueError):
            hash_g2(b"x", bad)


def test_keygen_consistency(pp333, rng):
    kp = kem_keygen(pp333, rng)
    assert kp.pk == derive_public(kp.sk, pp333)
    assert len(kp.s.coeffs) == pp333.algebra.dim


def test_keygen_distinct_rejection_secrets(pp515):
    rng = random.Random(77)
    seen = {rep_serialize(kem_keygen(pp515, rng).s) for _ in range(50)}
    assert len(seen) >= 48


@pytest.mark.parametrize("triple_index", range(3))
def test_round_trip(all_pps, triple_index):
    pp = all_pps[triple_index]
    rng = random.Random(900 + triple_index)
    kp = kem_keygen(pp, rng)
    for _ in range(200):
        c, key = kem_encaps(kp.pk, pp, rng)
        assert kem_decaps(kp, c, pp) == key


def test_encaps_deterministic_given_seed(pp333):
    kp = kem_keygen(pp333, random.Random(1))
    c_a, k_a = kem_encaps(kp.pk, pp333, random.Random(42))
    c_b, k_b = kem_encaps(kp.pk, pp333, random.Random(42))
    assert rep_serialize(c_a) == rep_serialize(c_b)
    assert k_a == k_b


def _tamper(c, pp, rng):
    """Change one coefficient of c1 or c2 to a different field value."""
    alg = pp.algebra
    which = rng.randrange(2)
    target = c.c1 if which == 0 else c.c2
    reps = list(target.reps())
    i = rng.randrange(len(reps))
    delta = rng.randrange(1, alg.field.q)
    reps[i] = alg.field.add_rep(reps[i], delta)
    mauled = alg.from_reps(reps)
    return PkeCiphertext(mauled, c.c2) if which == 0 else PkeCiphertext(c.c1, mauled)


def test_implicit_rejection(pp329):
    # run at (3,2,9): at toy sizes like (3,1,3) a tampered c2 can collide
    # with a genuine encapsulation of the shifted message, because the c2
    # mask is a function of c1 alone
    rng = random.Random(55)
    kp = kem_keygen(pp329, rng)
    for _ in range(100):
        c, key = kem_encaps(kp.pk, pp329, rng)
        bad = _tamper(c, pp329, rng)
        rejected = kem_decaps(kp, bad, pp329)
        # exactly the deterministic rejection key, never the honest one
        assert rejected == hash_g2(rep_serialize(kp.s) + rep_serialize(bad))
        assert rejected != key
        assert kem_decaps(kp, bad, pp329) == rejected  # repeatable


def test_decaps_rejects_ciphertext_from_another_algebra(pp333):
    # decapsulation re-derives c1 alone, so c2 reaches no re-encryption;
    # pke_dec's product is what refuses a half from another algebra
    kp = kem_keygen(pp333, random.Random(3))
    c, _key = kem_encaps(kp.pk, pp333, random.Random(4))
    other_pp = setup_public_params(3, 2, 3, random.Random(0))
    other = sample_subspace("full", other_pp.algebra, random.Random(5))
    for bad in (PkeCiphertext(other, c.c2), PkeCiphertext(c.c1, other)):
        with pytest.raises(ValueError, match="mismatched parameters"):
            kem_decaps(kp, bad, pp333)
