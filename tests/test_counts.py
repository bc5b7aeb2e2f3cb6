"""Work counts: kernel calls, multiplies and rows per protocol operation and
per solver step, and the SHAKE256 bytes that `hash_g1` squeezes.

A kernel call is one `algebra._reduce`, whose `count` rows it reduces; a
`_fold` call makes two big-integer multiplies. Counts do not move with the
machine's speed, so a change that moves one re-pins it here in the open.
"""

import hashlib
import random
import types

import pytest

from twisted_dihedral import algebra
from twisted_dihedral import kem as kem_module
from twisted_dihedral.attacks import (DpdInstance, exhaustive_dpd,
                                      mitm_offline, mitm_online)
from twisted_dihedral.kem import hash_g1, kem_decaps, kem_encaps, kem_keygen
from twisted_dihedral.kex import Session, derive_public, setup_public_params

# Both `_pack` routes, m > 1 and q >= 256: the byte route at (3,1,6) and
# (101,1,101), the join route at (3,2,9), (3,6,9) and (257,1,257).
SETS = [(3, 1, 6), (3, 2, 9), (101, 1, 101), (3, 6, 9), (257, 1, 257)]

# (kernel calls, _fold calls, rows) of one operation at every set in SETS
PER_OPERATION = {
    "keygen": (2, 2, 2),  # a1', pk = a1'*(h*y)
    "encaps": (3, 3, 3),  # a2' in hash_g1, then Enc: c1, and c2 with addend m
    "decaps": (3, 3, 3),  # Dec, a2' in hash_g1, c1 = a2'*(h*y)
    "kex": (6, 6, 6),     # a', pk and k on each side
}


class Counts:
    """Counters of the kernel wrapped in `algebra`, and of the lengths of
    the digests that `kem`'s SHAKE256 objects give."""

    def __init__(self, monkeypatch):
        self.calls = self.folds = self.rows = 0
        digests = self.digests = []
        fold, reduce = algebra._fold, algebra._reduce

        def counted_fold(*args):
            self.folds += 1
            return fold(*args)

        def counted_reduce(params, s, count):
            self.calls += 1
            self.rows += count
            return reduce(params, s, count)

        class CountingXof:
            def __init__(self, data):
                self.xof = hashlib.shake_256(data)

            def digest(self, length):
                digests.append(length)
                return self.xof.digest(length)

        monkeypatch.setattr(algebra, "_fold", counted_fold)
        monkeypatch.setattr(algebra, "_reduce", counted_reduce)
        monkeypatch.setattr(kem_module, "hashlib",
                            types.SimpleNamespace(shake_256=CountingXof))

    def of(self, op):
        """op's result, and the (kernel calls, _fold calls, rows) it made."""
        self.calls = self.folds = self.rows = 0
        return op(), (self.calls, self.folds, self.rows)


@pytest.fixture
def counts(monkeypatch):
    return Counts(monkeypatch)


def _exchange(pp, rng):
    alice = Session("initiator", b"counts", pp, rng)
    bob = Session("responder", b"counts", pp, rng)
    alice.complete(bob.public_key)
    bob.complete(alice.public_key)


@pytest.mark.parametrize("triple", SETS, ids=lambda s: "-".join(map(str, s)))
def test_protocol_operation_counts(triple, counts):
    pp = setup_public_params(*triple, random.Random(0))
    rng = random.Random(1)
    for _ in range(3):
        kp, got = counts.of(lambda: kem_keygen(pp, rng))
        assert got == PER_OPERATION["keygen"]
        (ct, key), got = counts.of(lambda: kem_encaps(kp.pk, pp, rng))
        assert got == PER_OPERATION["encaps"]
        got_key, got = counts.of(lambda: kem_decaps(kp, ct, pp))
        assert got == PER_OPERATION["decaps"] and got_key == key
        _, got = counts.of(lambda: _exchange(pp, rng))
        assert got == PER_OPERATION["kex"]


# hash_g1's first squeeze, 3*m*(n + n//2 + 1) bytes where p < 256 and four
# times that at p = 257, where a draw is a 4-byte word
FIRST_SQUEEZE = {(3, 1, 6): 30, (3, 2, 9): 84, (101, 1, 101): 456,
                 (257, 1, 257): 4632}


@pytest.mark.parametrize("triple", sorted(FIRST_SQUEEZE),
                         ids=lambda s: "-".join(map(str, s)))
def test_hash_g1_squeezes_once(triple, counts):
    pp = setup_public_params(*triple, random.Random(0))
    for i in range(200):
        counts.digests.clear()
        hash_g1(i.to_bytes(2, "big"), pp)
        assert counts.digests == [FIRST_SQUEEZE[triple]], i


def test_hash_g1_squeezes_twice(counts):
    # about 1 in 650 first squeezes at (3,1,6) hold no group with both
    # parts nonzero; these two inputs are the first of i.to_bytes(2, "big")
    # that do, and hash_g1 squeezes again, twice as long
    pp = setup_public_params(3, 1, 6, random.Random(0))
    for i in (1706, 2558):
        counts.digests.clear()
        hash_g1(i.to_bytes(2, "big"), pp)
        assert counts.digests == [30, 60], i


# The solvers at (3,1,6), t = 3: |Gamma| = 3^4 = 81 and q^t = 27. Each step
# multiplies a rotation by h*y (one row) and then the batch of every
# phi(gamma), gamma = 0 included, by that product (|Gamma| rows).
GAMMA = 81


@pytest.fixture(scope="module")
def pp316():
    return setup_public_params(3, 1, 6, random.Random(0))


def _instances(pp):
    return [DpdInstance(pp, kem_keygen(pp, random.Random(seed)).pk)
            for seed in range(10, 16)]


def test_mitm_offline_counts(pp316, counts):
    _, (calls, _, rows) = counts.of(lambda: mitm_offline(pp316, 3))
    # a step per nonzero low-slice a1: 2 * (q^t - 1) calls and
    # (q^t - 1) * (|Gamma| + 1) rows; a1 = 0 is not multiplied
    assert (calls, rows) == (52, 2132)


def test_exhaustive_counts(pp316, counts):
    hits = []
    for inst in _instances(pp316):
        result, (calls, _, rows) = counts.of(lambda: exhaustive_dpd(inst))
        idx = (result.candidates_tested - 1) // GAMMA  # the hit's rotation
        hits.append(idx)
        # a step per rotation 1 .. idx, and the SecretPair of the hit
        assert (calls, rows) == (2 * idx + 1, (GAMMA + 1) * idx + 1)
    assert len(set(hits)) > 1


def test_mitm_online_counts(pp316, counts):
    table = mitm_offline(pp316, 3)
    hits = []
    for inst in _instances(pp316):
        result, (calls, _, rows) = counts.of(lambda: mitm_online(table, inst, 3))
        idx = (result.candidates_tested - 1) // GAMMA  # the hit's high slice
        hits.append(idx)
        # a step per high slice 1 .. idx (at 0, a2 = 0 and every residual
        # is pk), then a1 + a2 and the SecretPair
        assert (calls, rows) == (2 * idx + 2, (GAMMA + 1) * idx + 2)
        assert derive_public(result.pair, pp316) == inst.pk
    assert len(set(hits)) > 1
