"""Linear key recovery (Myasnikov and Roman'kov, Groups Complexity
Cryptology 7, 2015; Tsaban, J. Cryptology 28, 2015), run as a test oracle:
the package has no solver, and these tests show that a public key gives
away a working secret in polynomial time.

A public key is pk = a'*(h*y) with a' = a*phi(gamma) a rotation. Writing
h*y = u0 + u1*y, pk0 = a'*u0 and pk1 = a'*u1 are two cyclic convolutions
in C_n = F_q[x]/(x^n - 1): 2n equations in the n coefficients of a'.
Gauss-Jordan over F_q solves them, and (a', y) is a secret pair for pk, as
phi(y) = 1. It reproduces pk, so it derives every key shared with pk and
decapsulates every honest ciphertext to pk. pk = 0 has no nonzero a' to
find; (1 - x, the all-ones gamma) has a' = (1 - x)*(1 + x + ... + x^(n-1))
= 0 and so reproduces it.
"""

import random

import pytest

from test_golden import GOLDEN, pipeline_digests
from twisted_dihedral.algebra import SecretPair, gamma_from_free, sample_secret_pair
from twisted_dihedral.attacks import run_attack_game
from twisted_dihedral.formats import read_element_file, read_param_file
from twisted_dihedral.kem import KemKeyPair, kem_decaps, kem_encaps, kem_keygen
from twisted_dihedral.kex import derive_public, derive_shared, setup_public_params
from twisted_dihedral.pke import PkeCiphertext


def _field_ops(field):
    """mul, inv and submul (x - f*y, entrywise) on reps: plain ints mod p
    where m = 1, as a rep is then its residue, else the field's tables."""
    if field.m == 1:
        p = field.p
        return (lambda a, b: a * b % p, lambda a: pow(a, -1, p),
                lambda x, f, y: [(u - f * v) % p for u, v in zip(x, y)])
    add, mul, neg = field.add_rep, field.mul_rep, field.neg
    return (mul, field.inv_rep,
            lambda x, f, y: [add(u, neg[mul(f, v)]) for u, v in zip(x, y)])


def solve(rows, unknowns, field):
    """A solution of the consistent system whose rows are [coefficients...,
    right-hand side], by Gauss-Jordan over F_q on the rows in place; free
    unknowns are 0."""
    mul, inv, submul = _field_ops(field)
    pivots = []
    for col in range(unknowns):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        s = inv(rows[r][col])
        rows[r] = [mul(s, v) for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                rows[i] = submul(row, row[col], rows[r])
        pivots.append(col)
    assert not any(row[-1] for row in rows[len(pivots):]), "inconsistent system"
    x = [0] * unknowns
    for r, col in enumerate(pivots):
        x[col] = rows[r][-1]
    return x


def recover(pp, pk):
    """A secret pair for pk from public values alone (module docstring)."""
    alg = pp.algebra
    n, zeros = alg.n, [0] * alg.n
    if pk.is_zero():
        return SecretPair(alg.from_reps([1, alg.field.neg[1]] + zeros[2:] + zeros),
                          gamma_from_free(alg, [1] * (n // 2 + 1)))
    hy, pk_reps = pp.hy.reps(), pk.reps()
    # row i of half h: sum over j of a'_j * u_h[(i - j) mod n] = pk_h[i]
    rows = [[hy[h * n + (i - j) % n] for j in range(n)] + [pk_reps[h * n + i]]
            for h in (0, 1) for i in range(n)]
    a = solve(rows, n, alg.field)
    return SecretPair(alg.from_reps(a + zeros), gamma_from_free(alg, [1] + zeros[:n // 2]))


# (p, m, n, setup seed); the seeds 14, 13 and 3 give gcd(u0, u1, x^n - 1)
# of degree 1, where a' is not unique and some nonzero a' give pk = 0
SETS = [(3, 1, 3, 0), (3, 1, 3, 14), (3, 1, 6, 0), (3, 1, 6, 13), (5, 1, 5, 0),
        (5, 1, 5, 3), (3, 2, 9, 0), (3, 7, 9, 0), (3, 1, 30, 0)]


@pytest.mark.parametrize("p,m,n,seed", SETS)
def test_recovered_pair_opens_kem_and_kex(p, m, n, seed):
    pp = setup_public_params(p, m, n, random.Random(seed))
    assert derive_public(recover(pp, pp.algebra.zero()), pp).is_zero()
    rng = random.Random(seed)
    for i in range(20):
        kp = kem_keygen(pp, rng)
        pair = recover(pp, kp.pk)
        assert derive_public(pair, pp) == kp.pk
        # an honest ciphertext never reads the implicit-rejection secret
        ct, key = kem_encaps(kp.pk, pp, rng)
        assert kem_decaps(KemKeyPair(kp.pk, pair, pp.algebra.zero()), ct, pp) == key, i
        # a session's pk may be zero, which pke_gen never returns
        victim, peer = sample_secret_pair(pp.algebra, rng), sample_secret_pair(pp.algebra, rng)
        pk, peer_pk = derive_public(victim, pp), derive_public(peer, pp)
        pair = recover(pp, pk)
        assert derive_public(pair, pp) == pk
        assert derive_shared(pair, peer_pk, pp) == derive_shared(peer, pk, pp)


@pytest.mark.parametrize("p,m,n", [(3, 1, 3), (3, 2, 9), (101, 1, 101)])
def test_golden_ciphertext_opened_from_public_files(tmp_path, p, m, n):
    # the seeded pipeline's key_enc, from params, pk and ct alone
    assert pipeline_digests(tmp_path, p, m, n)["key_enc"] == GOLDEN[(p, m, n)]["key_enc"]
    pp = read_param_file(tmp_path / "params.txt")
    (pk,) = read_element_file(tmp_path / "pk.txt", pp.algebra, expect=1)
    c1, c2 = read_element_file(tmp_path / "ct.txt", pp.algebra, expect=2)
    kp = KemKeyPair(pk, recover(pp, pk), pp.algebra.zero())
    key = kem_decaps(kp, PkeCiphertext(c1, c2), pp)
    assert key.hex() + "\n" == (tmp_path / "key_enc.txt").read_text()


@pytest.mark.parametrize("seed", [0, 1])
def test_linear_adversary_wins_every_game(seed):
    # at (3,1,30), where the exhaustive solver's 3^30 * 3^16 candidates are
    # far past its bound
    pp = setup_public_params(3, 1, 30, random.Random(seed))
    rng = random.Random(seed)

    def shared(ch):
        return derive_shared(recover(ch.pp, ch.pk1), ch.pk2, ch.pp)

    adversaries = {"DPD": lambda ch: recover(ch.pp, ch.pk1), "CDP": shared,
                   "DDP": lambda ch: int(ch.k != shared(ch))}
    for game, trials in (("DPD", 50), ("CDP", 50), ("DDP", 100)):
        outcome = run_attack_game(game, adversaries[game], pp, rng, trials=trials)
        assert outcome.advantage == 1.0, game
