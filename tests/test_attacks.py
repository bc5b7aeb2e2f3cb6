"""Cryptanalysis: exhaustive and meet-in-the-middle decomposition solvers,
work-factor accounting, and the attack-game harness."""

import dataclasses
import random

import pytest

from test_oracle import firsts_by_reps, least_nonzero, literal_buckets
from twisted_dihedral.algebra import (SecretPair, index_h_inv, iter_gamma,
                                      sample_secret_pair)
from twisted_dihedral.attacks import (Challenge, DpdInstance, dpd_verify,
                                      exhaustive_dpd, ddp_challenge,
                                      key_recovery_check,
                                      mitm_offline, mitm_online,
                                      run_attack_game)
from twisted_dihedral import attacks, errors
from twisted_dihedral.errors import CapacityError
from twisted_dihedral.kex import (PublicParams, derive_public, derive_shared,
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
    # x^2 has no solution at pp333, so the scan reports the exact
    # closed-form candidate count q^n * |Gamma|
    inst = DpdInstance(pp333, pp333.algebra.basis(2))
    result = exhaustive_dpd(inst)
    assert result.pair is None
    assert result.candidates_tested == 243


def test_instance_refuses_a_key_of_another_algebra(pp333):
    # a (3,1,3) key under (3,1,6) parameters matches no candidate's layout:
    # the exhaustive scan would test all 59049 candidates for no pair and
    # the MITM scan fail in the kernel, so the instance refuses it
    pp = setup_public_params(3, 1, 6, random.Random(6))
    _, inst = _instance(pp333, 1)
    with pytest.raises(ValueError):
        DpdInstance(pp, inst.pk)


def test_exhaustive_capacity_guard(pp333, monkeypatch):
    # the bound covers the whole 243-candidate space
    _, inst = _instance(pp333, 10)
    monkeypatch.setattr(errors, "MAX_CANDIDATES", 242)
    with pytest.raises(CapacityError):
        exhaustive_dpd(inst)
    monkeypatch.setattr(errors, "MAX_CANDIDATES", 243)
    assert exhaustive_dpd(inst).pair is not None


# --- meet in the middle ---

def test_mitm_offline_entry_counts(pp333):
    assert mitm_offline(pp333, 1).entries == 27  # q^t * |Gamma| = 3 * 9
    assert mitm_offline(pp333, 0).entries == 9
    assert mitm_offline(pp333, 3).entries == 243
    # table invariant: per gamma != 0, slots of a1 * h * gamma -> the least nonzero a1
    for t in range(4):
        want = least_nonzero(literal_buckets(pp333, t), 9)
        assert firsts_by_reps(mitm_offline(pp333, t)) == want


def test_mitm_capacity_guard(pp333, monkeypatch):
    # the t = 3 table holds q^t * |Gamma| = 243 entries
    monkeypatch.setattr(errors, "MAX_TABLE_ENTRIES", 100)
    with pytest.raises(CapacityError):
        mitm_offline(pp333, 3)


def test_mitm_online_capacity_guard(pp333, monkeypatch):
    # the candidate bound covers the whole q^(n-t) * |Gamma| = 81-candidate
    # online scan, and mitm_offline refuses it before building the table
    _, inst = _instance(pp333, 11)
    monkeypatch.setattr(errors, "MAX_CANDIDATES", 80)
    with pytest.raises(CapacityError):
        mitm_offline(pp333, 1)
    monkeypatch.setattr(errors, "MAX_CANDIDATES", 81)
    assert mitm_online(mitm_offline(pp333, 1), inst, 1).pair is not None


@pytest.mark.parametrize("t", [0, 1])
def test_mitm_offline_refuses_scan_before_table(t, monkeypatch):
    # at (3,1,12) the online scan of 3^(12-t) * 3^7 candidates is over the
    # bound while the 3^t * 3^7-entry table is not: refused, nothing built
    pp = setup_public_params(3, 1, 12, random.Random(12))
    built = []
    monkeypatch.setattr(attacks, "_gamma_batch", built.append)
    with pytest.raises(CapacityError):
        mitm_offline(pp, t)
    assert built == []


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


def test_mitm_table_bound_to_its_parameters():
    # two h over one algebra: a table of h1 answers an instance of h2
    # wrongly (no pair where one exists, or one that fails dpd_verify), so
    # it is refused; equal parameters built apart are accepted
    pp1 = setup_public_params(3, 1, 6, random.Random(1))
    pp2 = PublicParams(pp1.algebra, setup_public_params(3, 1, 6, random.Random(2)).h)
    assert pp2 != pp1
    table = mitm_offline(pp1, 3)
    _, inst = _instance(pp2, 7)
    with pytest.raises(ValueError):
        mitm_online(table, inst, 3)
    _, inst = _instance(PublicParams(pp1.algebra, pp1.h), 7)
    assert dpd_verify(mitm_online(table, inst, 3).pair, inst)


# --- the solvers against their two-multiply loops ---

def _first_hit(inst, rotations, solutions):
    """The first valid pair over rotations x Gamma in solver order, and the
    candidates tested up to it. Each candidate is the literal (a*h)*gamma;
    solutions(a, (a*h)*gamma, k) lists the rotations it yields, with k the
    index of gamma in Gamma."""
    tested = 0
    gammas = list(iter_gamma(inst.pp.algebra))
    for a in rotations:
        ah = a * inst.pp.h
        for k, gamma in enumerate(gammas):
            tested += 1
            for b in solutions(a, ah * gamma, k):
                if not (b.is_zero() or gamma.is_zero()):
                    return SecretPair(b, gamma), tested
    return None, tested


# (3,1,12) has |Gamma| = 3^7, a batch of more than 256 rows. Its
# secrets, and those of (5,1,5), are supported on x^0 and x^1, so both
# scans stop within a few a: the candidate bound is raised to the whole
# exhaustive space, which the scans never reach, and the MITM tables are
# 3 * 3^7 and 5^2 * 5^3 entries. At t = 0 the table holds no row, and
# every hit is a zero residual.
@pytest.mark.parametrize("p,m,n,t,seeds,width", [
    (3, 1, 3, 1, range(10), None), (3, 1, 6, 3, range(3), None),
    (3, 2, 3, 1, range(3), None), (3, 1, 12, 1, range(2), 2),
    (5, 1, 5, 2, range(3), 2), (3, 1, 3, 0, range(3), None)],
    ids=["3-seeds0", "6-seeds1", "3-2-3", "3-1-12", "5-1-5", "3-t0"])
def test_solvers_match_two_multiply_loops(p, m, n, t, seeds, width, monkeypatch):
    # the solvers test phi(gamma)*(a*(h*y)), every gamma at once through a
    # RotationBatch; same pairs, same counts. The zero pk is the one input
    # on which leaving out a = 0 and gamma = 0 by index decides the result:
    # their rows are zero rows, which match only a zero pk. A pk of a high
    # slice a2 (a1 = 0) is the input on which the table's zero-row rule
    # decides: the oracle's buckets hold a1 = 0, the table does not.
    pp = setup_public_params(p, m, n, random.Random(n))
    alg = pp.algebra
    q = alg.field.q
    monkeypatch.setattr(errors, "MAX_CANDIDATES", q ** (n + n // 2 + 1))
    table = mitm_offline(pp, t)
    buckets = literal_buckets(pp, t)
    assert firsts_by_reps(table) == least_nonzero(buckets, len(table.gammas))
    instances = [_instance(pp, 300 + seed, width)[1] for seed in seeds]
    gammas = list(iter_gamma(alg))
    high_only = [DpdInstance(pp, derive_public(SecretPair(index_h_inv(j * q ** t, alg), g), pp))
                 for j in (1, q - 1) for g in (gammas[1], gammas[-1])]
    zero_row_hits = 0
    for inst in instances + high_only + [DpdInstance(pp, alg.zero())]:
        want = _first_hit(inst, (index_h_inv(i, alg) for i in range(q ** n)),
                          lambda a, c, k: [a] if c == inst.pk else [])
        result = exhaustive_dpd(inst)
        assert (result.pair, result.candidates_tested) == want
        # the high slice x^t .. x^(n-1), in the solver's order
        high = (index_h_inv(i * q ** t, alg) for i in range(q ** (n - t)))
        want = _first_hit(inst, high, lambda a2, c, k: [
            index_h_inv(i, alg) + a2 for i in buckets.get(((inst.pk - c).reps(), k), ())])
        result = mitm_online(table, inst, t)
        assert (result.pair, result.candidates_tested) == want
        assert want[0] is not None
        zero_row_hits += not any(result.pair.a.reps()[:t])
    # at (3,1,6), t = 3, a low-slice a1 reaches each such pk at idx = 0
    assert zero_row_hits or n == 6


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
    assert [f.name for f in dataclasses.fields(Challenge)] == ["pp", "pk1", "pk2", "k"]


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


@pytest.mark.parametrize("trials", [0, -2])
@pytest.mark.parametrize("game", ["DPD", "CDP", "DDP"])
def test_attack_game_needs_a_trial(pp333, game, trials):
    with pytest.raises(ValueError):
        run_attack_game(game, lambda ch: None, pp333, random.Random(0), trials=trials)


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
        assert _solve(pp333, ch.pk1) is not None and _solve(pp333, ch.pk2) is not None
        if b == 0:
            assert ch.k == derive_shared(_solve(pp333, ch.pk1), ch.pk2, pp333)
        else:
            assert _solve(pp333, ch.k) is not None


def test_unknown_game_rejected(pp333, rng):
    with pytest.raises(ValueError):
        run_attack_game("XYZ", lambda ch: None, pp333, rng)
