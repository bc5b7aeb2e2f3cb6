"""Cryptanalysis: exhaustive and meet-in-the-middle decomposition solvers,
work-factor accounting, and the attack-game harness."""

import dataclasses
import random

import pytest

from twisted_dihedral.algebra import (SecretPair, index_h_inv, iter_gamma,
                                      rep_index, sample_secret_pair)
from twisted_dihedral.attacks import (Challenge, DpdInstance, dpd_verify,
                                      exhaustive_dpd, ddp_challenge,
                                      key_recovery_check,
                                      mitm_offline, mitm_online,
                                      run_attack_game)
from twisted_dihedral.errors import CapacityError
from twisted_dihedral.kex import (derive_public, derive_shared,
                                  setup_public_params)


def _instance(pp, seed, width=None):
    """A random instance; with `width`, its secret a keeps only its
    coefficients of x^0 .. x^(width-1), the first made nonzero."""
    rng = random.Random(seed)
    secret = sample_secret_pair(pp.algebra, rng)
    if width is not None:
        reps = list(secret.a.reps()[:width])
        reps[0] = reps[0] or 1
        a = pp.algebra.from_reps(reps + [0] * (pp.algebra.dim - width))
        secret = SecretPair(a, secret.gamma)
    return secret, DpdInstance(pp, derive_public(secret, pp))


# --- verification predicates ---

def test_dpd_verify_true_pair(pp333):
    secret, inst = _instance(pp333, 1)
    assert dpd_verify(secret, inst)


def test_dpd_verify_counting(pp333):
    # the number of solving pairs over the full 243-pair space is small
    # but at least 1; a random pair succeeds with exactly that frequency
    _, inst = _instance(pp333, 2)
    alg = pp333.algebra
    from twisted_dihedral.algebra import index_h_inv
    solutions = 0
    total = 0
    for value in range(3 ** 3):
        a = index_h_inv(value, alg)
        for gamma in iter_gamma(alg):
            total += 1
            if (a * pp333.h) * gamma == inst.pk:
                solutions += 1
    assert total == 243
    assert 1 <= solutions <= 27


# --- exhaustive search ---

def test_exhaustive_finds_valid_pair(pp333):
    for seed in range(20):
        secret, inst = _instance(pp333, seed)
        result = exhaustive_dpd(inst)
        assert result.pair is not None
        assert dpd_verify(result.pair, inst)
        assert result.candidates_tested <= 243


def test_exhaustive_work_factor(pp333):
    # an instance with no solution in the scanned slice reports the exact
    # closed-form candidate count q^n * |Gamma|
    alg = pp333.algebra
    inst = DpdInstance(pp333, alg.basis(2))  # x^2: solvable or not, count caps at 243
    result = exhaustive_dpd(inst)
    if result.pair is None:
        assert result.candidates_tested == 243


def test_exhaustive_partitioning(pp333):
    secret, inst = _instance(pp333, 7)
    found = 0
    total_tested = 0
    for part in range(3):
        result = exhaustive_dpd(inst, part, 3)
        total_tested += result.candidates_tested
        if result.pair is not None:
            assert dpd_verify(result.pair, inst)
            found += 1
    assert found >= 1
    assert total_tested <= 243


def test_exhaustive_empty_slice(pp333):
    secret, inst = _instance(pp333, 8)
    # locate the partition holding every solution, then scan a different one
    hits = []
    for part in range(9):
        if exhaustive_dpd(inst, part, 9).pair is not None:
            hits.append(part)
    empty = next(p for p in range(9) if p not in hits)
    result = exhaustive_dpd(inst, empty, 9)
    assert result.pair is None
    assert result.candidates_tested == 27 * 9 // 9  # slice width * |Gamma|


def test_exhaustive_partition_validation(pp333):
    _, inst = _instance(pp333, 9)
    with pytest.raises(ValueError):
        exhaustive_dpd(inst, 3, 3)


def test_exhaustive_capacity_guard(pp333):
    _, inst = _instance(pp333, 10)
    with pytest.raises(CapacityError):
        exhaustive_dpd(inst, max_candidates=100)
    # the bound covers the whole 243-candidate space, so slicing it into
    # 27 parts of 9 candidates each does not get round it
    for part in range(27):
        with pytest.raises(CapacityError):
            exhaustive_dpd(inst, part, 27, max_candidates=100)


# --- meet in the middle ---

def test_mitm_offline_entry_counts(pp333):
    alg = pp333.algebra
    assert mitm_offline(pp333, 1).entries == 27  # q^t * |Gamma| = 3 * 9
    assert mitm_offline(pp333, 0).entries == 9
    assert mitm_offline(pp333, 3).entries == 243
    # table invariant: key = index_h(a1 * h * gamma)
    table = mitm_offline(pp333, 1)
    for key, pairs in table.buckets.items():
        for a1, gamma in pairs:
            assert rep_index(((a1 * pp333.h) * gamma).reps(), alg.field.q) == key


def test_mitm_capacity_guard(pp333):
    with pytest.raises(CapacityError):
        mitm_offline(pp333, 3, max_entries=100)


def test_mitm_t_validation(pp333):
    with pytest.raises(ValueError):
        mitm_offline(pp333, 4)
    with pytest.raises(ValueError):
        mitm_offline(pp333, -1)


def test_mitm_finds_valid_pair(pp333):
    table = mitm_offline(pp333, 1)
    for seed in range(20):
        secret, inst = _instance(pp333, 100 + seed)
        result = mitm_online(table, inst, 1)
        assert result.pair is not None
        assert dpd_verify(result.pair, inst)
        assert result.candidates_tested <= 81  # q^(n-t) * |Gamma|


def test_mitm_complete_for_all_t(pp333):
    secret, inst = _instance(pp333, 200)
    for t in range(0, 4):
        table = mitm_offline(pp333, t)
        result = mitm_online(table, inst, t)
        assert result.pair is not None
        assert dpd_verify(result.pair, inst)


def test_mitm_mismatched_t_rejected(pp333):
    _, inst = _instance(pp333, 201)
    table = mitm_offline(pp333, 1)
    with pytest.raises(ValueError):
        mitm_online(table, inst, 2)


def test_mitm_table_keeps_gamma_batch(pp333, pp515):
    """The online scan reuses the table's Gamma and batch, which equality
    and repr ignore; a table of other parameters is rejected."""
    table = mitm_offline(pp333, 1)
    assert table == mitm_offline(pp333, 1)
    assert "batch" not in repr(table)
    assert [g.coeffs for g in table.gammas] == [g.coeffs for g in iter_gamma(pp333.algebra)]
    _, other = _instance(pp515, 202)
    with pytest.raises(ValueError):
        mitm_online(table, other, 1)


# --- the solvers against their two-multiply loops ---

def _first_hit(inst, rotations, solutions):
    """The first valid pair over rotations x Gamma in solver order, and the
    candidates tested up to it. Each candidate is the literal (a*h)*gamma;
    solutions(a, (a*h)*gamma, gamma) lists the rotations it yields."""
    tested = 0
    gammas = list(iter_gamma(inst.pp.algebra))
    for a in rotations:
        ah = a * inst.pp.h
        for gamma in gammas:
            tested += 1
            for b in solutions(a, ah * gamma, gamma):
                if not (b.is_zero() or gamma.is_zero()):
                    return SecretPair(b, gamma), tested
    return None, tested


# (3,1,12) has |Gamma| = 3^7, more than BATCH_CHUNK. Its secrets are
# supported on x^0 and x^1, so both scans stop within a few a: the
# exhaustive bound is raised to the whole space, which the scan never
# reaches, and the MITM table with t = 1 is 3 * 3^7 entries.
@pytest.mark.parametrize("p,m,n,t,seeds,width", [
    (3, 1, 3, 1, range(10), None), (3, 1, 6, 3, range(3), None),
    (3, 2, 3, 1, range(3), None), (3, 1, 12, 1, range(2), 2)],
    ids=["3-seeds0", "6-seeds1", "3-2-3", "3-1-12"])
def test_solvers_match_two_multiply_loops(p, m, n, t, seeds, width):
    # the solvers test phi(gamma)*(a*h*y), every gamma at once through a
    # RotationBatch; same pairs, same counts
    pp = setup_public_params(p, m, n, random.Random(n))
    alg = pp.algebra
    q = alg.field.q
    table = mitm_offline(pp, t)
    for seed in seeds:
        _, inst = _instance(pp, 300 + seed, width)
        want = _first_hit(inst, (index_h_inv(i, alg) for i in range(q ** n)),
                          lambda a, c, gamma: [a] if c == inst.pk else [])
        result = exhaustive_dpd(inst, max_candidates=q ** (n + n // 2 + 1))
        assert (result.pair, result.candidates_tested) == want
        # the high slice x^t .. x^(n-1), in the solver's order
        high = (index_h_inv(i * q ** t, alg) for i in range(q ** (n - t)))
        want = _first_hit(inst, high, lambda a2, c, gamma: [
            a1 + a2
            for a1, gamma1 in table.buckets.get(rep_index((inst.pk - c).reps(), q), ())
            if gamma1 == gamma])
        result = mitm_online(table, inst, t)
        assert (result.pair, result.candidates_tested) == want
        assert want[0] is not None


# --- equivalent-key sufficiency ---

def test_recovered_pair_reproduces_shared_key(pp333):
    rng = random.Random(33)
    for _ in range(20):
        s1 = sample_secret_pair(pp333.algebra, rng)
        s2 = sample_secret_pair(pp333.algebra, rng)
        pk1 = derive_public(s1, pp333)
        pk2 = derive_public(s2, pp333)
        real_key = derive_shared(s2, pk1, pp333)
        assert real_key == derive_shared(s1, pk2, pp333)
        found = exhaustive_dpd(DpdInstance(pp333, pk1)).pair
        assert found is not None
        assert key_recovery_check(found, pk2, real_key, pp333)


# --- attack games ---

def _solve(pp, pk):
    """A secret pair for pk, found from public values only."""
    return exhaustive_dpd(DpdInstance(pp, pk)).pair


def test_challenge_carries_public_values_only():
    assert [f.name for f in dataclasses.fields(Challenge)] == ["pp", "pk1", "pk2", "k", "b"]


def test_dpd_game_exhaustive_adversary(pp333):
    rng = random.Random(44)
    outcome = run_attack_game("DPD", lambda ch: _solve(ch.pp, ch.pk1), pp333, rng, trials=30)
    assert outcome.advantage == 1.0


def test_cdp_game_exhaustive_adversary(pp333):
    # a DPD solution for pk1 derives the key shared with pk2
    rng = random.Random(45)

    def adversary(ch):
        return derive_shared(_solve(ch.pp, ch.pk1), ch.pk2, ch.pp)

    outcome = run_attack_game("CDP", adversary, pp333, rng, trials=30)
    assert outcome.advantage == 1.0


def test_ddp_game_random_guess(pp333):
    rng = random.Random(46)
    outcome = run_attack_game("DDP", lambda ch: rng.randrange(2), pp333,
                              rng, trials=400)
    assert outcome.advantage < 0.15  # ~3/sqrt(trials)


def test_ddp_game_exhaustive_adversary(pp333):
    # guess b = 0 when k is the key that a DPD solution for pk1 shares
    # with pk2; the guess is wrong only when a random public key equals it
    rng = random.Random(48)

    def adversary(ch):
        return int(ch.k != derive_shared(_solve(ch.pp, ch.pk1), ch.pk2, ch.pp))

    outcome = run_attack_game("DDP", adversary, pp333, rng, trials=200)
    assert outcome.advantage > 0.6  # 0.80 at this seed
    assert outcome.successes > 150


def test_ddp_challenger_structure(pp333):
    # b = 0: k is the key shared by pk1 and pk2; b = 1: k is a public key
    rng = random.Random(47)
    for b in (0, 1):
        ch = ddp_challenge(pp333, rng, b)
        assert ch.b == b
        assert _solve(pp333, ch.pk1) is not None and _solve(pp333, ch.pk2) is not None
        if b == 0:
            assert ch.k == derive_shared(_solve(pp333, ch.pk1), ch.pk2, pp333)
        else:
            assert _solve(pp333, ch.k) is not None


def test_unknown_game_rejected(pp333, rng):
    with pytest.raises(ValueError):
        run_attack_game("XYZ", lambda ch: None, pp333, rng)
