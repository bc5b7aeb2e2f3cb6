"""Public-key encryption: round trips, determinism, and the c2 malleability
that motivates the KEM wrapper."""

import random

import pytest

from twisted_dihedral.algebra import (AlgebraParams, rep_serialize,
                                      sample_secret_pair, sample_subspace)
from twisted_dihedral.field import FieldParams
from twisted_dihedral.group import DihedralGroup
from twisted_dihedral.kex import PublicParams, derive_public
from twisted_dihedral.pke import PkeCiphertext, pke_dec, pke_enc, pke_gen


def test_gen_consistency(pp333, rng):
    kp = pke_gen(pp333, rng)
    assert kp.pk == derive_public(kp.sk, pp333)
    assert kp.sk.a.in_rotation_subalgebra()


def test_gen_distinct_keys(pp515):
    rng = random.Random(21)
    pks = {rep_serialize(pke_gen(pp515, rng).pk) for _ in range(50)}
    assert len(pks) >= 48


def test_zero_message_ciphertext(pp333, rng):
    alg = pp333.algebra
    kp = pke_gen(pp333, rng)
    r2 = sample_secret_pair(alg, rng)
    c = pke_enc(alg.zero(), kp.pk, r2, pp333)
    from twisted_dihedral.algebra import adjunct
    assert c.c1 == derive_public(r2, pp333)
    assert c.c2 == (r2.a * kp.pk) * adjunct(r2.gamma, alg)


@pytest.mark.parametrize("triple_index", range(3))
def test_round_trip_random(all_pps, triple_index):
    pp = all_pps[triple_index]
    rng = random.Random(700 + triple_index)
    kp = pke_gen(pp, rng)
    for _ in range(200):
        m = sample_subspace("full", pp.algebra, rng)
        r2 = sample_secret_pair(pp.algebra, rng)
        c = pke_enc(m, kp.pk, r2, pp)
        assert pke_dec(c, kp.sk, pp) == m


def test_enc_deterministic_in_inputs(pp333, rng):
    kp = pke_gen(pp333, rng)
    m = sample_subspace("full", pp333.algebra, rng)
    r2 = sample_secret_pair(pp333.algebra, rng)
    c_a = pke_enc(m, kp.pk, r2, pp333)
    c_b = pke_enc(m, kp.pk, r2, pp333)
    assert rep_serialize(c_a) == rep_serialize(c_b)


def test_distinct_randomness_distinct_ciphertexts(pp515):
    rng = random.Random(31)
    kp = pke_gen(pp515, rng)
    m = sample_subspace("full", pp515.algebra, rng)
    cts = set()
    for _ in range(50):
        r2 = sample_secret_pair(pp515.algebra, rng)
        cts.add(rep_serialize(pke_enc(m, kp.pk, r2, pp515)))
    assert len(cts) >= 48


def test_c2_malleability(pp333, rng):
    # Dec(c1, c2 + delta) = m + delta: the one-time-pad structure leaks
    kp = pke_gen(pp333, rng)
    for _ in range(50):
        m = sample_subspace("full", pp333.algebra, rng)
        delta = sample_subspace("full", pp333.algebra, rng)
        r2 = sample_secret_pair(pp333.algebra, rng)
        c = pke_enc(m, kp.pk, r2, pp333)
        mauled = PkeCiphertext(c.c1, c.c2 + delta)
        assert pke_dec(mauled, kp.sk, pp333) == m + delta


def test_wrong_key_decrypts_to_garbage(pp515):
    rng = random.Random(41)
    kp = pke_gen(pp515, rng)
    other = pke_gen(pp515, rng)
    wrong = 0
    trials = 100
    for _ in range(trials):
        m = sample_subspace("full", pp515.algebra, rng)
        r2 = sample_secret_pair(pp515.algebra, rng)
        c = pke_enc(m, kp.pk, r2, pp515)
        if pke_dec(c, other.sk, pp515) != m:
            wrong += 1
    assert wrong >= trials * 95 // 100


def test_enc_dec_reject_operands_from_another_algebra(rng):
    # over F_5, lambda = 2 and lambda = 3 give two algebras of the same
    # shape; each operand from the other one must be refused, not read
    field = FieldParams(5)
    h = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    pp2, pp3 = (PublicParams(alg, alg.from_reps(h)) for alg in
                (AlgebraParams(field, DihedralGroup(5), field.elem(lam)) for lam in (2, 3)))
    kp2, kp3 = pke_gen(pp2, rng), pke_gen(pp3, rng)
    m2, m3 = (sample_subspace("full", pp.algebra, rng) for pp in (pp2, pp3))
    r2, r3 = (sample_secret_pair(pp.algebra, rng) for pp in (pp2, pp3))
    c2, c3 = pke_enc(m2, kp2.pk, r2, pp2), pke_enc(m3, kp3.pk, r3, pp3)
    for m, pk, r in [(m2, kp3.pk, r3), (m3, kp2.pk, r3), (m3, kp3.pk, r2)]:
        with pytest.raises(ValueError):
            pke_enc(m, pk, r, pp3)
    for c, sk in [(PkeCiphertext(c2.c1, c3.c2), kp3.sk),
                  (PkeCiphertext(c3.c1, c2.c2), kp3.sk), (c3, kp2.sk)]:
        with pytest.raises(ValueError):
            pke_dec(c, sk, pp3)
    assert pke_dec(c3, kp3.sk, pp3) == m3
