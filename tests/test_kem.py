"""KEM: hash derivations, FIPS 202 known-answer vectors, round trips, and
implicit rejection."""

import hashlib
import itertools
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twisted_dihedral import kem as kem_module
from twisted_dihedral.algebra import (SecretPair, in_gamma, rep_serialize,
                                      sample_subspace)
from twisted_dihedral.kem import (G2_PREFIX, SHARED_KEY_BITS, hash_g1, hash_g2,
                                  kem_decaps, kem_encaps, kem_keygen, shake256)
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
    # longer squeezes extend shorter ones (property hash_g1's retry relies on)
    assert shake256(b"abc", 16) == shake256(b"abc", 64)[:16]


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


def hash_g1_plain(x, pp):
    """hash_g1 read one byte (p < 256) or one little-endian 4-byte word
    (p >= 256) at a time from the stream, keeping the top p.bit_length()
    bits of each where they are below p; also returns the groups read."""
    algebra = pp.algebra
    field = algebra.field
    n, m, p = algebra.n, field.m, field.p
    width = 1 if p < 256 else 4
    size = n + n // 2 + 1
    stream = hashlib.shake_256(x).digest(1 << 16)
    digits, groups = [], 0
    for i in range(0, len(stream), width):
        value = int.from_bytes(stream[i:i + width], "little") >> (8 * width - p.bit_length())
        if value < p:
            digits.append(value)
        if len(digits) == m * size:
            groups += 1
            reps = [field.rep_of(digits[k * m:(k + 1) * m]) for k in range(size)]
            digits = []
            if any(reps[:n]) and any(reps[n:]):
                g_reps = [0] * algebra.dim
                for slot in range(size - n):  # gamma's coefficient n - j equals j
                    g_reps[n + slot] = g_reps[n + (n - slot) % n] = reps[n + slot]
                return SecretPair(algebra.from_reps(reps[:n] + [0] * n),
                                  algebra.from_reps(g_reps)), groups
    raise AssertionError("no pair in the first 64 KiB of the stream")


# At (3,1,3) these inputs read 2, 3 and 6 groups before both components
# are nonzero; the last two read past hash_g1's first squeeze.
RETRY_INPUTS_333 = [(b"\x00\x1a", 2), (b"\x00u", 3), (b'\x17"', 6)]


def test_hash_g1_retry_inputs(pp333):
    for x, groups in RETRY_INPUTS_333:
        pair, read = hash_g1_plain(x, pp333)
        assert read == groups
        assert hash_g1(x, pp333) == pair


# The fixtures' sets, and sets at the edges of the digit reads: (101,1,101)
# keeps 7-bit draws, (3,7,9) joins digits into native lanes (q >= 256),
# (131,1,131) keeps whole bytes, and (257,1,257) reads 4-byte words.
@pytest.mark.parametrize("name", ["pp333", "pp515", "pp329", (101, 1, 101),
                                  (3, 7, 9), (131, 1, 131), (257, 1, 257)],
                         ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v)))
def test_hash_g1_matches_bit_reader(name, request):
    if isinstance(name, str):
        pp = request.getfixturevalue(name)
    else:
        pp = setup_public_params(*name, random.Random(sum(name)))

    @settings(max_examples=300, deadline=None)
    @given(x=st.binary(max_size=40))
    @example(x=RETRY_INPUTS_333[1][0])
    @example(x=RETRY_INPUTS_333[2][0])
    def check(x):
        assert hash_g1(x, pp) == hash_g1_plain(x, pp)[0]

    check()


def test_hash_g1_squeezes_once_at_p_257(monkeypatch):
    # at (257,1,257) a draw is a 4-byte word that gives a digit about half
    # the time, so the first squeeze must hold four times the bytes of a
    # p < 256 one; a squeeze of 3 bytes per rep read again two or three
    # times, and each retry rescans the stream from its start
    pp = setup_public_params(257, 1, 257, random.Random(514))
    digests = []

    class CountingXof:
        def __init__(self, data):
            self.xof = hashlib.shake_256(data)

        def digest(self, length):
            digests.append(length)
            return self.xof.digest(length)

    monkeypatch.setattr(kem_module, "hashlib", types.SimpleNamespace(shake_256=CountingXof))
    for i in range(50):
        digests.clear()
        hash_g1(bytes([i]) * 4, pp)
        assert len(digests) == 1, (i, digests)


def test_hash_g1_digit_bias(pp333):
    # hash_g1 at (3,1,3) reads groups of 3 rotation digits and 2 free gamma
    # digits, each uniform, and keeps the first group with both parts
    # nonzero: the exact law of a kept digit, from the 3^5 groups
    kept = {"a": [0] * 3, "gamma": [0] * 3}
    for group in itertools.product(range(3), repeat=5):
        if any(group[:3]) and any(group[3:]):
            kept["a"][group[0]] += 1
            kept["gamma"][group[3]] += 1
    law = {part: [Fraction(x, sum(ps)) for x in ps] for part, ps in kept.items()}
    # each part is uniform given that it is nonzero
    assert law == {"a": [Fraction(4, 13), Fraction(9, 26), Fraction(9, 26)],
                   "gamma": [Fraction(1, 4), Fraction(3, 8), Fraction(3, 8)]}

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
            # 5 standard deviations; digits reduced mod p from 2-bit chunks
            # read digit 0 of a as 0 at 0.425, 24 of them too often
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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="hash_g1 keeps a pair whose c1 is zero, which sends c2 = m "
                          "in the clear (ROADMAP item 3, zero keys)")
@pytest.mark.parametrize("n,seed", [(3, 14), (6, 13), (3, 0), (6, 0)])
def test_encaps_never_sends_zero_c1(n, seed):
    # c1 = a'*(h*y) is zero where a' = 0, or, in the setups of seeds 14 and
    # 13, where gcd(h's parts, x^n - 1) != 1, where a' annihilates h*y;
    # 108, 22, 19 and 10 of these 300 encapsulations have c1 = 0
    pp = setup_public_params(3, 1, n, random.Random(seed))
    kp = kem_keygen(pp, random.Random(1))
    rng = random.Random(2)
    assert not any(kem_encaps(kp.pk, pp, rng)[0].c1.is_zero() for _ in range(300))


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
