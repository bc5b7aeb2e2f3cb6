"""Key exchange: setup validation, pinned public-key value, agreement,
and session secret erasure."""

import random

import pytest

from twisted_dihedral.algebra import (AlgebraParams, SecretPair, adjunct,
                                      sample_secret_pair)
from twisted_dihedral.errors import ParameterError
from twisted_dihedral.field import FieldParams
from twisted_dihedral.group import DihedralGroup
from twisted_dihedral.kex import (PublicParams, Session, derive_public,
                                  derive_shared, setup_public_params,
                                  validate_h)


def test_setup_f3_lambda_forced(pp333):
    assert pp333.algebra.lam.rep == 2  # unique non-square of F_3


def test_setup_divisibility_enforced(rng):
    with pytest.raises(ParameterError):
        setup_public_params(5, 1, 3, rng)  # 5 does not divide 6
    with pytest.raises(ParameterError):
        setup_public_params(7, 1, 5, rng)


def test_setup_extension_field(pp329):
    assert pp329.algebra.field.q == 9
    assert pp329.algebra.n == 9


def test_setup_small_n_rejected(rng):
    with pytest.raises(ParameterError):
        setup_public_params(3, 1, 2, rng)


def test_setup_even_p_rejected(rng):
    with pytest.raises(ParameterError):
        setup_public_params(2, 1, 4, rng)


def test_h_validation_distinct_errors():
    field = FieldParams(3)
    alg = AlgebraParams(field, DihedralGroup(3), field.elem(2))
    with pytest.raises(ParameterError, match="zero rotation part"):
        validate_h(alg.basis(3))
    with pytest.raises(ParameterError, match="zero reflection part"):
        validate_h(alg.one())
    with pytest.raises(ParameterError):
        PublicParams(alg, alg.one())


def test_derive_public_identity_secret():
    field = FieldParams(3)
    alg = AlgebraParams(field, DihedralGroup(3), field.elem(2))
    h = alg.from_reps([1, 0, 0, 1, 0, 0])  # 1 + y
    pp = PublicParams(alg, h)
    secret = SecretPair(alg.one(), alg.basis(3))  # a = 1, gamma = y
    # pk = (1 + y) * y = lambda*1 + y
    assert derive_public(secret, pp).reps() == (2, 0, 0, 1, 0, 0)


@pytest.mark.parametrize("triple_index", range(3))
def test_agreement_random(all_pps, triple_index):
    pp = all_pps[triple_index]
    rng = random.Random(500 + triple_index)
    for _ in range(200):
        s1 = sample_secret_pair(pp.algebra, rng)
        s2 = sample_secret_pair(pp.algebra, rng)
        pk1 = derive_public(s1, pp)
        pk2 = derive_public(s2, pp)
        assert derive_shared(s1, pk2, pp) == derive_shared(s2, pk1, pp)


def test_mismatched_peer_key_disagrees(pp515):
    rng = random.Random(9)
    disagree = 0
    trials = 100
    for _ in range(trials):
        s1 = sample_secret_pair(pp515.algebra, rng)
        s2 = sample_secret_pair(pp515.algebra, rng)
        s3 = sample_secret_pair(pp515.algebra, rng)
        k1 = derive_shared(s1, derive_public(s2, pp515), pp515)
        k_wrong = derive_shared(s2, derive_public(s3, pp515), pp515)
        if k1 != k_wrong:
            disagree += 1
    assert disagree >= trials * 95 // 100


def test_derivations_reject_a_secret_from_another_algebra(rng):
    # over F_5, lambda = 2 and lambda = 3 give two algebras of the same shape
    field = FieldParams(5)
    alg2, alg3 = (AlgebraParams(field, DihedralGroup(5), field.elem(lam))
                  for lam in (2, 3))
    h = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    pp3 = PublicParams(alg3, alg3.from_reps(h))
    foreign = sample_secret_pair(alg2, rng)
    pk3 = derive_public(sample_secret_pair(alg3, rng), pp3)
    with pytest.raises(ValueError):
        derive_public(foreign, pp3)
    with pytest.raises(ValueError):
        derive_shared(foreign, pk3, pp3)


def test_derive_shared_rejects_a_peer_key_from_another_algebra(rng):
    # the secret and pp are of one algebra, the peer key of the other
    # same-shape one: the kernel call on a' checks the peer key's params
    field = FieldParams(5)
    alg2, alg3 = (AlgebraParams(field, DihedralGroup(5), field.elem(lam))
                  for lam in (2, 3))
    h = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    pp2, pp3 = PublicParams(alg2, alg2.from_reps(h)), PublicParams(alg3, alg3.from_reps(h))
    secret = sample_secret_pair(alg3, rng)
    foreign_pk = derive_public(sample_secret_pair(alg2, rng), pp2)
    with pytest.raises(ValueError, match="mismatched parameters"):
        derive_shared(secret, foreign_pk, pp3)
    # the same reps from the secret's own algebra are accepted
    own_pk = alg3.from_reps(foreign_pk.reps())
    assert derive_shared(secret, own_pk, pp3) == (secret.a * own_pk) * adjunct(secret.gamma)


def test_session_lifecycle(pp333):
    rng = random.Random(3)
    sid = b"\x01\x02"
    alice = Session("initiator", sid, pp333, rng)
    bob = Session("responder", sid, pp333, rng)
    assert alice.secret is not None  # accessible before completion
    k_a = alice.complete(bob.public_key)
    k_b = bob.complete(alice.public_key)
    assert k_a == k_b
    assert alice.key == k_a
    with pytest.raises(RuntimeError):
        _ = alice.secret  # erased
    with pytest.raises(RuntimeError):
        alice.complete(bob.public_key)  # one-shot


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Session does not resample a zero public key as pke_gen "
                          "does (ROADMAP item 3)")
@pytest.mark.parametrize("n", [3, 6])
def test_session_never_publishes_zero_pk(n):
    # about 8 % of secret pairs give pk = 0 at (3,1,3) and 3 % at (3,1,6)
    pp = setup_public_params(3, 1, n, random.Random(n))
    rng = random.Random(7)
    sessions = [Session("initiator", b"", pp, rng) for _ in range(200)]
    assert not any(s.public_key.is_zero() for s in sessions)


def test_session_role_validation(pp333, rng):
    with pytest.raises(ValueError):
        Session("eavesdropper", b"", pp333, rng)
