"""The table-driven field core, product kernel with its batches and
addend rows, PKE, KEM decapsulation, sampler, cocycle verifier and MITM
table against oracles.

The product and cocycle oracles work on digit vectors with the polynomial
helpers (the product oracle on plain ints mod p when m = 1) and never call
the rep arithmetic of `FieldParams`, so they share no code with the
log/antilog tables, the packed big-integer product or the log-domain
cocycle check they test. The product oracle reads its twisting values,
lambda and 1, from `Cocycle.alpha`, the cocycle that `cocycle-check`
verifies. Fields run up to q=65537. The sampler oracle draws one
`randrange(p)` per digit.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_dihedral.algebra import (BATCH_CHUNK, AlgebraParams,
                                      RotationBatch, _pack, adjunct,
                                      alg_product, index_h_inv, iter_gamma,
                                      kernel_slot_width, rep_deserialize,
                                      rep_serialize,
                                      rotation_products, sample_secret_pair,
                                      sample_subspace, scaled_times_y,
                                      slot_bound, slot_reciprocal, times_y,
                                      y_times)
from twisted_dihedral.attacks import mitm_offline
from twisted_dihedral.cocycle import (BetaMap, Cocycle, CocycleCheck,
                                      coboundary_of, verify_cocycle)
from twisted_dihedral.errors import ParameterError
from twisted_dihedral.field import (FieldParams, _poly_mod, _poly_mul,
                                    _poly_powmod, get_lambda)
from twisted_dihedral.group import DihedralGroup
from twisted_dihedral.kem import hash_g1, hash_g2, kem_decaps, kem_encaps, kem_keygen
from twisted_dihedral.kex import (derive_public, derive_shared,
                                  setup_public_params)
from twisted_dihedral.pke import PkeCiphertext, pke_dec, pke_enc, pke_gen


def digits(rep, p, m):
    return [rep // p ** i % p for i in range(m)]


def rep_of(poly, p):
    return sum(d * p ** i for i, d in enumerate(poly))


def poly_mul_rep(field, *reps):
    """The rep of the product of the given reps, by polynomial arithmetic."""
    p, m = field.p, field.m
    acc = (1,)
    for r in reps:
        acc = _poly_mod(_poly_mul(acc, digits(r, p, m), p), field.modulus, p)
    return rep_of(acc, p)


def oracle_rep(p, m, rng):
    """One uniform rep from m randrange(p) calls, lowest digit first."""
    return rep_of([rng.randrange(p) for _ in range(m)], p)


@functools.cache
def twisting_cocycle(params):
    """The reps of alpha_lambda(i, j), as `Cocycle.alpha` gives them."""
    alpha = Cocycle.alpha(params.lam, params.n)
    return tuple(tuple(v.rep for v in row) for row in alpha.tabulate())


def join_pack(params, reps):
    """The kernel integer of reps by the join route, from the digits alone:
    each rep's base-p digits in little-endian slots of `slot_bits` bits,
    2m - 1 slots to a position, and n zero positions after each n reps."""
    p, m, n = params.field.p, params.field.m, params.n
    slot, pos = params.slot_bits // 8, (2 * m - 1) * params.slot_bits // 8
    positions = [b"".join(d.to_bytes(slot, "little") for d in digits(r, p, m)).ljust(pos, b"\0")
                 for r in reps]
    return int.from_bytes(bytes(n * pos).join(
        b"".join(positions[i:i + n]) for i in range(0, len(positions), n)), "little")


def rotation_part(x):
    n = x.params.n
    return x.params.from_reps(x.reps()[:n] + (0,) * n)


def reflection_part(x):
    n = x.params.n
    return x.params.from_reps((0,) * n + x.reps()[n:])


def schoolbook_product(a, b):
    """c[i*j] += a[i] * b[j] * alpha(i, j), every term in digit vectors,
    or in plain ints mod p when m = 1."""
    params = a.params
    field, group = params.field, params.group
    p, m = field.p, field.m
    alpha = twisting_cocycle(params)
    if m == 1:
        acc = [0] * params.dim
        for i, ai in enumerate(a.reps()):
            for j, bj in enumerate(b.reps()):
                acc[group.op(i, j)] += ai * bj * alpha[i][j]
        return tuple(c % p for c in acc)
    out = [[0] * m for _ in range(params.dim)]
    for i, ai in enumerate(a.reps()):
        for j, bj in enumerate(b.reps()):
            term = poly_mul_rep(field, ai, bj, alpha[i][j])
            k = group.op(i, j)
            out[k] = [(x + y) % p for x, y in zip(out[k], digits(term, p, m))]
    return tuple(rep_of(d, p) for d in out)


def oracle_sum(field, x, y):
    """The reps of x + y, digit-wise mod p."""
    p, m = field.p, field.m
    return tuple(rep_of([(u + v) % p for u, v in zip(digits(r, p, m), digits(s, p, m))], p)
                 for r, s in zip(x, y))


@functools.cache
def field_of(p, m):
    return FieldParams(p, m)


@functools.cache
def algebra_of(p, m, n):
    field = field_of(p, m)
    return AlgebraParams(field, DihedralGroup(n),
                         get_lambda(field, random.Random(p ** m + n)))


def elements(alg):
    return st.lists(st.integers(0, alg.field.q - 1), min_size=alg.dim,
                    max_size=alg.dim).map(alg.from_reps)


@pytest.mark.parametrize("p,m,n,examples", [
    (3, 1, 3, 200), (5, 1, 5, 100), (3, 2, 9, 50), (3, 6, 3, 100),
    (3, 7, 3, 100), (101, 1, 101, 3), (3, 7, 9, 5), (251, 1, 3, 50),
    (257, 1, 4, 50), (65537, 1, 3, 50)])
def test_product_matches_schoolbook(p, m, n, examples):
    alg = algebra_of(p, m, n)

    @settings(max_examples=examples, deadline=None)
    @given(a=elements(alg), b=elements(alg))
    def check(a, b):
        assert alg_product(a, b).reps() == schoolbook_product(a, b)

    check()


# (3,1,63) and (3,1,64) sit on either side of the 8/16-bit slot boundary
# at m = 1, and (3,2,10) and (3,2,11), (3,3,4) and (3,3,5) at m > 1, where
# 8-bit slots join their digits by the byte Horner; (3,2,9) is kem-small.
# 2^8 = 1 mod 3, so a carry out of an 8-bit slot and into the next can
# leave every residue mod 3 right; (7,1,6) and (7,1,7) are a boundary where
# it cannot. Wider slots are whole bytes: (101,1,6) and (101,1,7) sit on
# either side of the 16/24-bit boundary, where the bound outgrows 16 bits,
# and (89,1,6) and (89,1,7) where the reduction outgrows them, though the
# bound of (89,1,7) fits; (101,2,6) and (101,2,7) are a 24/32-bit boundary
# of the reduction, and (1009,1,16) and (1009,1,17) one of the bound, with
# two-byte digits. At (2027,1,3) the largest quotient of the reduction
# fills its 2W - k bits exactly, and p times its top bit reaches the two
# bytes a digit is read from. (101,1,101) is kem-wide.
@pytest.mark.parametrize("p,m,n,bits,examples", [
    (3, 1, 63, 8, 10), (3, 1, 64, 16, 10), (7, 1, 6, 8, 10), (7, 1, 7, 16, 10),
    (3, 2, 9, 8, 10), (3, 2, 10, 8, 10), (3, 2, 11, 16, 5),
    (3, 3, 4, 8, 10), (3, 3, 5, 16, 5),
    (101, 1, 6, 16, 10), (101, 1, 7, 24, 10), (89, 1, 6, 16, 10), (89, 1, 7, 24, 10),
    (101, 1, 101, 24, 1), (101, 2, 6, 24, 10), (101, 2, 7, 32, 5),
    (1009, 1, 16, 24, 5), (1009, 1, 17, 32, 5), (2027, 1, 3, 24, 10), (3, 7, 3, 16, 10)])
def test_kernel_at_slot_widths(p, m, n, bits, examples):
    alg = algebra_of(p, m, n)
    assert alg.slot_bits == bits
    q = alg.field.q
    top = alg.from_reps([q - 1] * alg.dim)  # every digit p - 1
    zero = alg.zero()
    for x, y in [(top, top), (zero, top), (top, zero), (rotation_part(top), top)]:
        assert alg_product(x, y).reps() == schoolbook_product(x, y)
    # a batch row holds the same worst case as one product: every slot of
    # the rotation-only left and of the right operand at p - 1, and with
    # the addend top, p - 1 more. More than BATCH_CHUNK lefts take a full
    # chunk and a second one of two rows; the ramp tells rows and digits
    # apart
    rot = rotation_part(top)
    ramp = alg.from_reps([i * 7 % q for i in range(n)] + [0] * n)
    lefts = [rot, zero, ramp] * (BATCH_CHUNK // 3 + 1)
    batch = RotationBatch(lefts)
    for y in (top, rot, ramp):
        want = {x: schoolbook_product(x, y) for x in (rot, zero, ramp)}
        assert list(batch.times(y)) == [want[x] for x in lefts]
        assert list(batch.times(y, top)) == [
            oracle_sum(alg.field, want[x], top.reps()) for x in lefts]
    # rotation_products rows hold the same worst case plus an addend, at
    # most p - 1 more in a slot: one row and two, full and rotation-only
    # rights and addends, and rows without one
    for rights, addends in [((top,), (top,)), ((rot,), (rot,)), ((rot,), (top,)),
                            ((top, rot), (top, top)), ((rot, top), (top,)),
                            ((rot, rot), (rot,)), ((top, top), ())]:
        rows = rotation_products(rot, rights, addends)
        assert len(rows) == len(rights)
        for row, b, c in zip(rows, rights, (*addends, None, None)):
            assert row.reps() == oracle_sum(alg.field, schoolbook_product(rot, b),
                                             (c or zero).reps())

    @settings(max_examples=examples, deadline=None)
    @given(a=elements(alg), b=elements(alg))
    def check(a, b):
        # the half-empty shapes: a1 = 0 skips the a1*(y*b) term (rotation
        # times full, as in the protocol's second products), and with
        # b1 = 0 as well b packs as b0 alone (rotation times rotation, as
        # in a*phi(gamma)); b1 = 0 (full times rotation), b0 = 0 (full
        # times gamma) and a0 = 0 run both terms
        for x, y in [(a, b), (b, a), (top, b), (a, top), (rotation_part(a), b),
                     (rotation_part(a), rotation_part(b)), (a, rotation_part(b)),
                     (a, reflection_part(b)), (reflection_part(a), b)]:
            assert alg_product(x, y).reps() == schoolbook_product(x, y)

    check()


@pytest.mark.parametrize("size", [1, 2, BATCH_CHUNK + 1])
@pytest.mark.parametrize("p,m,n,examples", [
    (3, 1, 3, 20), (5, 1, 5, 20), (3, 2, 9, 10), (3, 7, 9, 5), (101, 1, 101, 2)])
def test_batch_matches_single_products(p, m, n, examples, size):
    # row k of a batch is x_k * b, and x_k * b + c with the addend c;
    # BATCH_CHUNK + 1 left operands take two chunks, the second of a
    # single row
    alg = algebra_of(p, m, n)

    @settings(max_examples=examples, deadline=None)
    @given(seed=st.integers(0, 2 ** 64))
    def check(seed):
        rng = random.Random(seed)
        lefts = [sample_subspace("C_n", alg, rng) for _ in range(size)]
        batch = RotationBatch(lefts)
        full, c = sample_subspace("full", alg, rng), sample_subspace("full", alg, rng)
        for b in (full, rotation_part(full), reflection_part(full)):
            want = [alg_product(x, b).reps() for x in lefts]
            assert list(batch.times(b)) == want
            assert list(batch.times(b, c)) == [oracle_sum(alg.field, w, c.reps())
                                               for w in want]

    check()


def test_rotation_products_reject_bad_operands():
    alg, other = algebra_of(3, 1, 3), algebra_of(5, 1, 5)
    rot = alg.basis(1)
    with pytest.raises(ValueError):
        rotation_products(alg.basis(4), [rot])  # a reflection part
    with pytest.raises(ValueError):
        rotation_products(rot, [rot, other.basis(1)])
    with pytest.raises(ValueError):
        rotation_products(rot, [rot], [other.one()])
    with pytest.raises(ValueError):
        rotation_products(other.basis(1), [rot])
    with pytest.raises(ValueError):
        rotation_products(rot, [rot], [rot, rot])  # more addends than rows


def test_batch_rejects_no_operands():
    with pytest.raises(ValueError):
        RotationBatch([])


def test_batch_rejects_bad_operands():
    alg, other = algebra_of(3, 1, 3), algebra_of(5, 1, 5)
    rot = alg.basis(1)
    with pytest.raises(ValueError):
        RotationBatch([rot, alg.basis(4)])  # a reflection part
    with pytest.raises(ValueError):
        RotationBatch([rot, other.basis(1)])
    with pytest.raises(ValueError):
        list(RotationBatch([rot]).times(other.one()))
    with pytest.raises(ValueError):
        list(RotationBatch([rot]).times(rot, other.one()))


@pytest.mark.parametrize("p,m,n,examples", [
    (3, 1, 3, 100), (5, 1, 5, 100), (3, 2, 9, 100), (101, 1, 101, 20)])
def test_derivations_match_literal_formulas(p, m, n, examples):
    # the derivations go through x*gamma = phi(gamma)*(x*y); the literal
    # a*h*gamma and a*pk*adjunct(gamma) are the oracle
    pp = setup_public_params(p, m, n, random.Random(p * m * n))
    alg = pp.algebra

    @settings(max_examples=examples, deadline=None)
    @given(seed=st.integers(0, 2 ** 64))
    def check(seed):
        rng = random.Random(seed)
        s1, s2 = sample_secret_pair(alg, rng), sample_secret_pair(alg, rng)
        pk2 = derive_public(s2, pp)
        assert pk2 == (s2.a * pp.h) * s2.gamma
        for peer in (pk2, sample_subspace("full", alg, rng)):
            assert derive_shared(s1, peer, pp) == (s1.a * peer) * adjunct(s1.gamma)
        # s1 first computed its a*phi(gamma) in derive_shared; the public
        # key read back from it must still be the literal one
        assert derive_public(s1, pp) == (s1.a * pp.h) * s1.gamma

    check()


@pytest.mark.parametrize("p,m,n,examples", [
    (3, 1, 3, 100), (5, 1, 5, 100), (3, 2, 9, 50), (3, 7, 9, 10), (101, 1, 101, 5)])
def test_pke_matches_derivations(p, m, n, examples):
    # Enc and Dec are each one rotation_products call with the message
    # added inside the packed product; the derivations, and the element
    # sum and difference, are the oracle. The public keys and ciphertexts
    # are arbitrary full elements as well as real ones.
    pp = setup_public_params(p, m, n, random.Random(p * m + n))
    alg = pp.algebra
    kp = pke_gen(pp, random.Random(n))

    @settings(max_examples=examples, deadline=None)
    @given(seed=st.integers(0, 2 ** 64))
    def check(seed):
        rng = random.Random(seed)
        msg = sample_subspace("full", alg, rng)
        r2 = sample_secret_pair(alg, rng)
        for pk in (kp.pk, sample_subspace("full", alg, rng)):
            c = pke_enc(msg, pk, r2, pp)
            assert c.c1 == derive_public(r2, pp)
            assert c.c2 == msg + derive_shared(r2, pk, pp)
        for c in (pke_enc(msg, kp.pk, r2, pp),
                  PkeCiphertext(sample_subspace("full", alg, rng),
                                sample_subspace("full", alg, rng))):
            assert pke_dec(c, kp.sk, pp) == c.c2 - derive_shared(kp.sk, c.c1, pp)
        assert pke_dec(pke_enc(msg, kp.pk, r2, pp), kp.sk, pp) == msg

    check()


def full_reencryption_decaps(kp, c, pp):
    """Decapsulation with the full FO re-encryption check: `pke_enc` of the
    decrypted message, both halves compared."""
    m = pke_dec(c, kp.sk, pp)
    m_bytes = rep_serialize(m)
    r = hash_g1(m_bytes + rep_serialize(kp.pk), pp)
    c_bytes = rep_serialize(c)
    if rep_serialize(pke_enc(m, kp.pk, r, pp)) == c_bytes:
        return hash_g2(m_bytes + c_bytes)
    return hash_g2(rep_serialize(kp.s) + c_bytes)


def shift_one_rep(x, rng):
    """x with one coefficient changed to a different field value."""
    field = x.params.field
    reps = list(x.reps())
    i = rng.randrange(len(reps))
    reps[i] = field.add_rep(reps[i], rng.randrange(1, field.q))
    return x.params.from_reps(reps)


@pytest.mark.parametrize("p,m,n,examples", [
    (3, 1, 3, 100), (3, 1, 6, 100), (3, 2, 9, 50), (3, 7, 9, 10), (101, 1, 101, 5)])
def test_kem_decaps_matches_full_reencryption(p, m, n, examples):
    # decapsulation re-derives c1 alone; the full re-encryption, c1 and c2
    # compared, is the oracle, on honest, c1-tampered, c2-tampered and
    # random ciphertexts
    pp = setup_public_params(p, m, n, random.Random(p * m + n))
    alg = pp.algebra
    kp = kem_keygen(pp, random.Random(n))

    @settings(max_examples=examples, deadline=None)
    @given(seed=st.integers(0, 2 ** 64))
    def check(seed):
        rng = random.Random(seed)
        c, key = kem_encaps(kp.pk, pp, rng)
        assert kem_decaps(kp, c, pp) == full_reencryption_decaps(kp, c, pp) == key
        for bad in (PkeCiphertext(shift_one_rep(c.c1, rng), c.c2),
                    PkeCiphertext(c.c1, shift_one_rep(c.c2, rng)),
                    PkeCiphertext(sample_subspace("full", alg, rng),
                                  sample_subspace("full", alg, rng))):
            assert kem_decaps(kp, bad, pp) == full_reencryption_decaps(kp, bad, pp)

    check()


def test_kem_decaps_accepts_valid_tampers():
    # at (3,1,6) a few tampered c2 + e_k in a thousand are themselves valid
    # encapsulations of m + e_k: re-deriving c1 from m + e_k gives c1 back
    # (5 of these 1200; none for the parameters from random.Random(6)).
    # That is the branch where c1 alone decides c2; the oracle accepts
    # such a ciphertext, and decapsulation must accept it too
    pp = setup_public_params(3, 1, 6, random.Random(0))
    alg = pp.algebra
    rng = random.Random(61)
    kp = kem_keygen(pp, rng)
    accepted = 0
    for _ in range(100):
        c, _key = kem_encaps(kp.pk, pp, rng)
        for k in range(alg.dim):
            bad = PkeCiphertext(c.c1, c.c2 + alg.basis(k))
            want = full_reencryption_decaps(kp, bad, pp)
            assert kem_decaps(kp, bad, pp) == want
            accepted += want != hash_g2(rep_serialize(kp.s) + rep_serialize(bad))
    assert accepted >= 1


# (3,1,12) has |Gamma| = 3^7, more than BATCH_CHUNK
@pytest.mark.parametrize("p,m,n,ts", [
    (3, 1, 3, range(4)), (3, 1, 6, range(4)), (3, 2, 3, range(3)),
    (3, 1, 12, range(2))], ids=["3", "6", "3-2-3", "3-1-12"])
def test_mitm_table_matches_two_multiply_loop(p, m, n, ts):
    # the table keys a1 by the reps of a1*h*gamma, taken as
    # phi(gamma)*(a1*h*y) for every gamma at once by a RotationBatch, and by
    # gamma's index k; the literal (a1*h)*gamma loop, in the same order, is
    # the oracle
    pp = setup_public_params(p, m, n, random.Random(n))
    alg = pp.algebra
    for t in ts:
        buckets = {}
        for idx in range(alg.field.q ** t):
            a1 = index_h_inv(idx, alg)
            a1h = a1 * pp.h
            for k, gamma in enumerate(iter_gamma(alg)):
                buckets.setdefault(((a1h * gamma).reps(), k), []).append(a1)
        table = mitm_offline(pp, t)
        assert table.buckets == buckets
        assert list(table.buckets) == list(buckets)
        assert table.entries == sum(map(len, buckets.values()))


def test_kernel_slot_width_bounds():
    # the bound is n * m * (p-1)^2 * (1 + (m-1)(p-1)) + p - 1
    assert kernel_slot_width(3, 1, 63) == 8  # bound 254
    assert kernel_slot_width(3, 1, 64) == 16  # bound 258
    assert kernel_slot_width(3, 2, 9) == 8  # bound 218
    assert kernel_slot_width(101, 1, 6) == 16  # bound 60100
    assert kernel_slot_width(101, 1, 7) == 24  # bound 70100
    assert kernel_slot_width(89, 1, 6) == 16  # bound 46552
    assert kernel_slot_width(89, 1, 7) == 24  # bound 54296, but bound * M >= 2^32
    assert kernel_slot_width(101, 1, 101) == 24  # bound 1010100
    assert kernel_slot_width(101, 2, 6) == 24
    assert kernel_slot_width(101, 2, 7) == 32  # bound < 2^24, the reduction needs 32
    assert kernel_slot_width(1009, 1, 16) == 24  # bound 16258032
    assert kernel_slot_width(1009, 1, 17) == 32  # bound 17274096
    assert kernel_slot_width(65537, 1, 3) == 40
    assert kernel_slot_width(2 ** 31 + 1, 1, 2) == 64  # bound 2^63 + 2^31
    with pytest.raises(ParameterError):
        kernel_slot_width(2 ** 31 + 1, 1, 4)  # bound 2^64 + 2^31
    with pytest.raises(ParameterError):
        kernel_slot_width(10 ** 6 + 3, 3, 50)


def test_byte_slots_reduce_every_value():
    # at (3,1,63), with 8-bit slots, every slot of x*top + c holds
    # 2*sum(x) + c; sum(x) runs over 0 .. 126 and c over 0 .. 2, so the
    # slots take every value up to the bound, 254
    alg = algebra_of(3, 1, 63)
    top = alg.from_reps([2] * alg.dim)
    c = alg.from_reps([i % 3 for i in range(alg.dim)])
    for total in range(127):
        x = alg.from_reps([2] * (total // 2) + [total % 2] + [0] * (125 - total // 2))
        [row] = rotation_products(x, [top], [c])
        assert row.reps() == tuple((2 * total + v) % 3 for v in c.reps())


def test_byte_slots_hold_a_rep():
    # `_unpack` returns one byte per rep from 8-bit slots, so 8-bit slots
    # must imply q < 256; p = 2, where (2,8,1) has 8-bit slots and q = 256,
    # is refused by FieldParams
    primes = [p for p in range(3, 300, 2) if all(p % d for d in range(3, p, 2))]
    for p in primes:
        for m in range(1, 9):
            for n in range(1, 301):
                if kernel_slot_width(p, m, n) == 8:
                    assert p ** m < 256, (p, m, n)


def test_slot_reciprocal_divides():
    # for every set with wide slots on the grid: floor(v*M / 2^k) = v // p
    # up to the bound; k is the smallest that meets the criterion of
    # `slot_reciprocal`; v*M of a slot stays below the next slot of its
    # group, 2W bits up; and the quotient stays below 2^(2W - k), under
    # the low bits of that next product. Below 2^20 every v is checked,
    # once per (p, k, M) up to the largest bound that takes it: both sides
    # are 0 at v = 0 and rise by at most 1 from v to v + 1 (M <= 2^k), so
    # they agree on 0 .. bound iff each q first comes at the same v, q*p
    # on the right and ceil(q * 2^k / M) on the left.
    primes = [p for p in range(3, 300, 2) if all(p % d for d in range(3, p, 2))]
    every = {}
    for p in primes:
        for m in range(1, 5):
            for n in range(1, 301):
                bits = kernel_slot_width(p, m, n)
                if bits == 8:
                    continue
                bound = slot_bound(p, m, n)
                k, mult = slot_reciprocal(p, bound)
                for v in (0, p - 1, p, bound - 1, bound):
                    assert v * mult >> k == v // p, (p, m, n, v)
                less = -(-(1 << k - 1) // p)
                assert bound * (less * p - (1 << k - 1)) >= 1 << k - 1, (p, m, n)
                assert bound * mult < 1 << 2 * bits, (p, m, n)
                assert (bound // p).bit_length() <= 2 * bits - k, (p, m, n)
                if bound < 1 << 20:
                    every[p, k, mult] = max(every.get((p, k, mult), 0), bound)
    for (p, k, mult), bound in every.items():
        assert mult <= 1 << k
        for q in range(1, bound // p + 2):
            assert min(-(-(q << k) // mult), bound + 1) == min(q * p, bound + 1), (p, k, q)


@pytest.mark.parametrize("p,n,bits", [(101, 6, 16), (101, 7, 24), (101, 101, 24)])
def test_wide_slots_reduce_every_value(p, n, bits):
    # the wide twin of test_byte_slots_reduce_every_value: every slot of
    # x*top + c holds (p-1)*sum(x) + c; sum(x) runs over 0 .. n(p-1) and c
    # over 0 .. p-1, so the slots take every value up to the bound,
    # n(p-1)^2 + p - 1. Each call has enough rows for the addends to hold
    # every c.
    alg = algebra_of(p, 1, n)
    assert alg.slot_bits == bits
    dim = alg.dim
    top = alg.from_reps([p - 1] * dim)
    addends = [alg.from_reps([(j * dim + i) % p for i in range(dim)])
               for j in range(-(-p // dim))]
    for total in range(n * (p - 1) + 1):
        x = alg.from_reps(([p - 1] * (total // (p - 1)) + [total % (p - 1)]
                           + [0] * n)[:n] + [0] * n)
        rows = rotation_products(x, [top] * len(addends), addends)
        assert [row.reps() for row in rows] == [
            tuple(((p - 1) * total + v) % p for v in c.reps()) for c in addends]


# sums are read from the kernel's slots: (3,1,63) is the widest 8-bit
# case at m = 1, (101,1,101) takes 24-bit slots, and a rep needs more than
# one byte at (3,7,9) (q = 2187), (257,1,4) (p > 255) and (65537,1,3)
# (40-bit slots)
@pytest.mark.parametrize("p,m,n", [(3, 1, 3), (3, 2, 9), (3, 7, 3), (3, 1, 63),
                                   (101, 1, 101), (3, 7, 9), (257, 1, 4),
                                   (65537, 1, 3)])
def test_subtraction_is_adding_the_negation(p, m, n):
    alg = algebra_of(p, m, n)
    top = alg.from_reps([alg.field.q - 1] * alg.dim)  # every digit p - 1

    @settings(max_examples=100 if n < 10 else 15, deadline=None)
    @given(a=elements(alg), b=elements(alg))
    def check(a, b):
        for x, y in [(a, b), (top, b), (a, top)]:
            assert (x + y).reps() == oracle_sum(alg.field, x.reps(), y.reps())
            neg_y = [rep_of([-d % p for d in digits(r, p, m)], p) for r in y.reps()]
            assert (x - y).reps() == oracle_sum(alg.field, x.reps(), neg_y)
        assert a - b == a + (-b)

    check()


@pytest.mark.parametrize("p,m,n", [(3, 1, 3), (5, 1, 5), (3, 2, 9), (3, 7, 3),
                                   (101, 1, 101)])
def test_adjunct_matches_definition(p, m, n):
    alg = algebra_of(p, m, n)
    group = alg.group
    alpha = twisting_cocycle(alg)

    @settings(max_examples=50, deadline=None)
    @given(a=elements(alg))
    def check(a):
        out = [0] * alg.dim
        for i, ai in enumerate(a.reps()):
            j = group.inverse(i)
            out[j] = poly_mul_rep(alg.field, ai, alpha[i][j])
        assert adjunct(a).reps() == tuple(out)

    check()


# The two routes of a rep (see the algebra module docstring). The byte
# route, m = 1 and p < 256: (3,1,6) is attack-small; (3,1,63)/(3,1,64) and
# (7,1,7) take 8- and 16-bit slots, (101,1,6)/(101,1,7) 16 and 24 bits;
# (101,1,101) is kem-wide; p = 251 is the largest p on the route. The join
# route: (257,1,4), one past it, with two-byte digits, and (3,2,9), kem-small.
ROUTE_SETS = [(3, 1, 6), (3, 1, 63), (3, 1, 64), (7, 1, 7), (101, 1, 6), (101, 1, 7),
              (101, 1, 101), (251, 1, 3), (257, 1, 4), (3, 2, 9)]


@pytest.mark.parametrize("p,m,n", ROUTE_SETS)
def test_pack_matches_slot_join(p, m, n):
    # `_pack` on either route gives the integer of the slot join, for n,
    # 2n and 2n*k reps, of operands of all-(p-1) digits, of zeros and at
    # random, and for the rows of a full RotationBatch chunk. A pad of
    # n - 1 bytes, a spread at a stride off by one, or the byte route
    # taken at p = 257 fails here.
    alg = algebra_of(p, m, n)
    assert alg.byte_reps == (m == 1 and p < 256)
    q, dim = alg.field.q, alg.dim
    rng = random.Random(p * m * n)
    for size in (n, dim, 3 * dim):
        for reps in ([q - 1] * size, [0] * size, [rng.randrange(q) for _ in range(size)]):
            assert _pack(alg, reps) == join_pack(alg, reps), size
    top = alg.from_reps([q - 1] * n + [0] * n)
    lefts = [top, alg.zero()] + [sample_subspace("C_n", alg, rng)
                                 for _ in range(BATCH_CHUNK - 2)]
    [(packed, rows)] = RotationBatch(lefts)._chunks
    assert rows == BATCH_CHUNK
    assert packed == join_pack(alg, [r for x in lefts for r in x.reps()])


@pytest.mark.parametrize("p,m,n", ROUTE_SETS)
def test_serialization_matches_rep_bytes(p, m, n):
    # rep_serialize on either route is the join of `rep_bytes`, and
    # rep_deserialize inverts it and refuses one byte short or long
    alg = algebra_of(p, m, n)
    field = alg.field
    rng = random.Random(p + m + n)
    for reps in ([field.q - 1] * alg.dim, [0] * alg.dim,
                 [rng.randrange(field.q) for _ in range(alg.dim)]):
        x = alg.from_reps(reps)
        data = rep_serialize(x)
        assert data == b"".join(field.rep_bytes[r] for r in reps)
        assert rep_deserialize(data, alg) == x
        for bad in (data[:-1], data + b"\0"):
            with pytest.raises(ValueError, match="expected"):
                rep_deserialize(bad, alg)


@pytest.mark.parametrize("p,n,byte", [(101, 101, 101), (101, 101, 255)]
                         + [(251, 3, b) for b in range(251, 256)])
def test_deserialize_rejects_digits_from_p(p, n, byte):
    # on the byte route a byte is a rep only below p; p - 1 is one
    alg = algebra_of(p, 1, n)
    for i in (0, alg.dim - 1):
        data = bytearray(alg.dim)
        data[i] = p - 1
        assert rep_deserialize(bytes(data), alg).reps()[i] == p - 1
        data[i] = byte
        with pytest.raises(ValueError, match="digit out of range"):
            rep_deserialize(bytes(data), alg)


@pytest.mark.parametrize("p,m,n", [(3, 1, 6), (251, 1, 3), (101, 1, 101), (257, 1, 4),
                                   (3, 2, 9)])
def test_lambda_maps_match_field_arithmetic(p, m, n):
    # the O(n) maps by lambda, -lambda and -1 against products of
    # polynomials: `scaled_times_y` by `translate` on the byte route, and
    # every map by table lookups, which a 256-byte table also serves
    alg = algebra_of(p, m, n)
    field, lam = alg.field, alg.lam.rep
    minus = rep_of([p - 1], p)
    for table in (alg.lam_mul, alg.neg_lam_mul, alg.neg):
        assert isinstance(table, bytes) == alg.byte_reps
        assert len(table) == (256 if alg.byte_reps else field.q)

    def times(s, reps):
        return tuple(poly_mul_rep(field, s, r) for r in reps)

    def rev(reps):
        return reps[:1] + reps[:0:-1]

    rng = random.Random(n)
    for x in (alg.from_reps([field.q - 1] * alg.dim), sample_subspace("full", alg, rng)):
        c0, c1 = x.reps()[:n], x.reps()[n:]
        assert times_y(x).reps() == times(lam, c1) + c0
        assert y_times(x).reps() == times(lam, rev(c1)) + rev(c0)
        assert adjunct(x).reps() == rev(c0) + times(lam, c1)
        assert (-x).reps() == times(minus, x.reps())
        for s, table in ((lam, alg.lam_mul), (poly_mul_rep(field, minus, lam), alg.neg_lam_mul),
                         (minus, alg.neg)):
            assert scaled_times_y(x, table).reps() == times(s, times(lam, c1)) + times(s, c0)


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (101, 1), (3, 6), (3, 7)])
def test_field_ops_match_polynomials(p, m):
    field = field_of(p, m)
    q = field.q

    @settings(max_examples=300, deadline=None)
    @given(a=st.integers(0, q - 1), b=st.integers(0, q - 1),
           e=st.integers(-2 * q, 2 * q))
    def check(a, b, e):
        da, db = digits(a, p, m), digits(b, p, m)
        assert field.add_rep(a, b) == rep_of(
            [(x + y) % p for x, y in zip(da, db)], p)
        assert field.neg_rep(a) == rep_of([-x % p for x in da], p)
        assert field.mul_rep(a, b) == poly_mul_rep(field, a, b)
        power = rep_of(_poly_powmod(da, abs(e), field.modulus, p), p)
        if a == 0:
            with pytest.raises(ZeroDivisionError):
                field.inv_rep(a)
            if e < 0:
                with pytest.raises(ZeroDivisionError):
                    field.pow_rep(a, e)
            else:
                assert field.pow_rep(a, e) == power
            return
        assert poly_mul_rep(field, a, field.inv_rep(a)) == 1
        if e < 0:
            assert poly_mul_rep(field, field.pow_rep(a, e), power) == 1
        else:
            assert field.pow_rep(a, e) == power

    check()


class CountingRandom(random.Random):
    """random.Random that counts its getrandbits calls."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (101, 1), (3, 2), (3, 7)])
def test_random_reps_match_randrange(p, m):
    field = field_of(p, m)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 64), count=st.integers(0, 300))
    def check(seed, count):
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        assert field.random_reps(rng, count) == [
            oracle_rep(p, m, oracle_rng) for _ in range(count)]
        # the generator is left exactly where randrange leaves it
        assert rng.getrandbits(64) == oracle_rng.getrandbits(64)

    check()
    # at these sizes every seed rejects some digit, so the refill path runs
    for seed in range(10):
        rng = CountingRandom(seed)
        field.random_reps(rng, 100)
        assert rng.calls > 1


def test_random_reps_from_system_random():
    field = field_of(101, 1)
    reps = field.random_reps(random.SystemRandom(), 500)
    assert len(reps) == 500 and all(0 <= r < 101 for r in reps)
    assert len(set(reps)) > 50


def triple_loop_check(c, group):
    """The cocycle equation on every (g, h, k), and both pair predicates, as
    they are defined, with products by polynomial arithmetic."""
    n, n2, op = group.n, group.order, group.op
    mul = functools.cache(lambda a, b: poly_mul_rep(c.field, a, b))

    def v(g, h):
        return c(g, h).rep

    failures = [(g, h, k) for g in range(n2) for h in range(n2)
                for k in range(n2)
                if mul(v(g, op(h, k)), v(h, k)) != mul(v(op(g, h), k), v(g, h))]
    identity = v(0, 0) == 1

    def r(t):  # the reflection x^t y
        return op(t % n, n)

    return CocycleCheck(
        valid=not failures and identity,
        counterexample=failures[0] if failures else None,
        identity_normalized=identity,
        rotation_symmetry=all(v(a, b) == v(b, a)
                              for a in range(n) for b in range(n)),
        reflection_identity=all(
            mul(v(r(i - j), r(i - j)), v(r(i), r(i - j)))
            == mul(v(r(-i), r(-i)), v(r(j - i), r(-i)))
            for i in range(n) for j in range(n)))


@st.composite
def cocycles(draw):
    """alpha, beta and coboundary cocycles over F_3, F_7 and F_9 for n in
    3..7, half of them with one entry changed to another unit."""
    field = field_of(*draw(st.sampled_from([(3, 1), (7, 1), (3, 2)])))
    n = draw(st.integers(3, 7))
    group = DihedralGroup(n)
    unit = st.integers(1, field.q - 1).map(field.from_rep)
    kind = draw(st.sampled_from(["alpha", "beta", "coboundary"]))
    if kind == "alpha":
        c = Cocycle.alpha(draw(unit), n)
    elif kind == "beta":
        c = Cocycle.beta(draw(unit), n)
    else:
        values = draw(st.lists(unit, min_size=2 * n - 1, max_size=2 * n - 1))
        c = coboundary_of(BetaMap((field.one(), *values)), group)
    if draw(st.booleans()):
        table = [list(row) for row in c.tabulate()]
        g, h = draw(st.integers(0, 2 * n - 1)), draw(st.integers(0, 2 * n - 1))
        table[g][h] = draw(unit.filter(lambda u: u != table[g][h]))
        c = Cocycle.from_table(field, table)
    return c, group


@settings(max_examples=150, deadline=None)
@given(case=cocycles())
def test_verify_cocycle_matches_triple_loop(case):
    c, group = case
    assert verify_cocycle(c, group) == triple_loop_check(c, group)
