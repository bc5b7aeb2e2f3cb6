"""Exponential teaching baselines for the product-decomposition problem.

Implements the attack-game harness (DPD, CDP and DDP product games) and
two solvers exponential in n, each refused before any work when its whole
candidate space exceeds `errors.MAX_CANDIDATES`: exhaustive search, one
index-order scan of the rotation space, and a meet-in-the-middle trade-off
that splits it into a low-degree and a high-degree slice (a table of at
most `errors.MAX_TABLE_ENTRIES`). The scheme falls instead to the
polynomial-time linear decomposition attack (Myasnikov and Roman'kov 2015;
Tsaban 2015), which has no solver here: the test suite runs it as an
oracle (tests/test_linear.py). Both solvers test a candidate (a, gamma) as
phi(gamma)*(a*(h*y)) = a*h*gamma: a times the kept h*y once per
a, then all gamma from one `times` of a RotationBatch of the phi(gamma),
two multiplies for all its rows, which are reduced kernel slots, canonical
bytes read into no reps. The exhaustive scan compares each row with
`slot_key(pk)`. The MITM table (`MitmTable`) finds a low-slice a1 by the
row of a1*h*gamma; the scan probes it once per candidate with the row of
pk - a2*h*gamma = phi(gamma)*(a2*(-h*y)) + pk, and a hit under the same
gamma makes (a1 + a2, gamma) a solution. a = 0 and gamma = 0, index 0 of
each, form no secret pair, so the scans leave them out by index. Each
count is derived from a position, not kept: a hit at rotation idx and
gamma k of a scan has tested idx*|Gamma| + k + 1 candidates, a full scan
rotations x |Gamma|, and a table holds the q^t x |Gamma| entries its bound
was checked for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from . import errors
from .algebra import (AlgebraElement, AlgebraParams, RotationBatch, SecretPair,
                      index_h_inv, iter_gamma, phi, sample_secret_pair, slot_key)
from .kex import PublicParams, derive_public, derive_shared


@dataclass(frozen=True)
class DpdInstance:
    """A decomposition challenge: public parameters and pk = a*h*gamma;
    a pk of another algebra is refused, as no candidate could match it."""

    pp: PublicParams
    pk: AlgebraElement

    def __post_init__(self):
        if self.pk.params != self.pp.algebra:
            raise ValueError("the public key lives in another algebra than pp")


@dataclass
class MitmTable:
    """Offline table: firsts[k - 1], for the index k >= 1 of gamma in
    `gammas`, maps the row slots of a1*h*gamma to the least nonzero
    low-slice index a1 with that row. gamma = 0 is never probed and has no
    dict; a1 = 0 is not multiplied, as its row is the zero row under every
    gamma, and the scan answers a zero residual with it where a2 != 0, as
    it comes first in index order. So each probe yields the first a1 in
    index order with a1 + a2 != 0.

    Also keeps the parameters it was built for, the q^t x |Gamma| entries
    its bound was checked for, and Gamma and the batch of its phi(gamma),
    which the online scan reuses.
    """

    pp: PublicParams = field(compare=False)
    t: int
    firsts: list[dict[bytes, int]]  # row slots -> least nonzero a1 index
    entries: int
    gammas: list[AlgebraElement] = field(compare=False, repr=False)
    batch: RotationBatch = field(compare=False, repr=False)


@dataclass(frozen=True)
class AttackResult:
    pair: Optional[SecretPair]
    candidates_tested: int


def dpd_verify(candidate: SecretPair, inst: DpdInstance) -> bool:
    """True iff the candidate reproduces the challenge public key."""
    return derive_public(candidate, inst.pp) == inst.pk


def key_recovery_check(candidate: SecretPair, peer_pk: AlgebraElement,
                       real_key: AlgebraElement, pp: PublicParams) -> bool:
    """A DPD solution suffices: candidate * peer_pk yields the shared key."""
    return derive_shared(candidate, peer_pk, pp) == real_key


def _check_candidates(rotations: int, algebra: AlgebraParams) -> None:
    """Refuse a scan of rotations x Gamma candidates beyond the bound."""
    total = rotations * algebra.field.q ** (algebra.n // 2 + 1)
    errors.check_capacity(total, errors.MAX_CANDIDATES, "candidates")


def exhaustive_dpd(inst: DpdInstance) -> AttackResult:
    """Scan the rotations a != 0 in index order against all gamma != 0
    (module docstring)."""
    algebra = inst.pp.algebra
    rotations = algebra.field.q ** algebra.n
    _check_candidates(rotations, algebra)
    gammas, batch = _gamma_batch(algebra)
    key = slot_key(inst.pk)
    for idx in range(1, rotations):  # index 0 is a = 0
        a = index_h_inv(idx, algebra)
        rows = batch.times(a * inst.pp.hy)
        if key in rows[1:]:  # row 0 is gamma = 0
            k = rows.index(key, 1)
            return AttackResult(SecretPair(a, gammas[k]), idx * len(gammas) + k + 1)
    return AttackResult(None, rotations * len(gammas))


def _gamma_batch(algebra: AlgebraParams) -> tuple[list[AlgebraElement], RotationBatch]:
    """Gamma in enumeration order, and the batch of every phi(gamma)."""
    gammas = list(iter_gamma(algebra))
    return gammas, RotationBatch([phi(g) for g in gammas])


def mitm_offline(pp: PublicParams, t: int) -> MitmTable:
    """Map the rows of every nonzero low-slice a1*h*gamma, gamma != 0, to
    the least a1 (`MitmTable`); an over-bound online scan or table is
    refused before either is built."""
    algebra = pp.algebra
    if not 0 <= t <= algebra.n:
        raise ValueError("t must be in [0, n]")
    q = algebra.field.q
    _check_candidates(q ** (algebra.n - t), algebra)
    total = q ** t * q ** (algebra.n // 2 + 1)  # one entry per (a1, gamma)
    errors.check_capacity(total, errors.MAX_TABLE_ENTRIES, "table entries")
    gammas, batch = _gamma_batch(algebra)
    low = range(q ** t - 1, 0, -1)  # the low slice x^0 .. x^(t-1), a1 != 0, greatest first
    rows = [batch.times(index_h_inv(idx, algebra) * pp.hy) for idx in low]
    # one column per gamma, row 0 (gamma = 0) dropped; a later, lesser
    # index overwrites its row's entry, so the least one stays
    columns = list(zip(*rows))[1:] if rows else [()] * (len(gammas) - 1)
    return MitmTable(pp, t, [dict(zip(col, low)) for col in columns], total, gammas, batch)


def mitm_online(table: MitmTable, inst: DpdInstance, t: int) -> AttackResult:
    """Scan the complementary high slice for a colliding (a2, gamma), one
    probe per candidate (module docstring). The table's parameters and t
    must be the instance's, as `mitm_offline` checked the scan's bound for
    them."""
    if t != table.t:
        raise ValueError("table was built for a different t")
    if inst.pp != table.pp:
        raise ValueError("table was built for other public parameters")
    algebra = inst.pp.algebra
    q, gammas, neg_hy = algebra.field.q, table.gammas, -inst.pp.hy
    zero, key = slot_key(algebra.zero()), slot_key(inst.pk)
    rotations = q ** (algebra.n - t)
    for idx in range(rotations):  # the high slice, x^t .. x^(n-1)
        a2 = index_h_inv(idx * q ** t, algebra)
        # a2 = 0 at idx = 0, where every residual is pk itself
        residuals = (table.batch.times(a2 * neg_hy, inst.pk)[1:] if idx
                     else (key,) * len(table.firsts))
        for k, (row, first) in enumerate(zip(residuals, table.firsts), 1):
            a1 = 0 if idx and row == zero else first.get(row)  # a1 = 0 only if a2 != 0
            if a1 is not None:
                a = index_h_inv(a1, algebra) + a2
                return AttackResult(SecretPair(a, gammas[k]), idx * len(gammas) + k + 1)
    return AttackResult(None, rotations * len(gammas))


# --- attack-game harness ---

@dataclass(frozen=True)
class Challenge:
    """What the challenger hands out: public values only (DPD: pk1; CDP:
    pk1, pk2 and the key k to compute; DDP: pk1, pk2 and a candidate k).
    The DDP bit stays with the harness that scores the guess."""

    pp: PublicParams
    pk1: AlgebraElement
    pk2: Optional[AlgebraElement] = None
    k: Optional[AlgebraElement] = None


@dataclass(frozen=True)
class GameOutcome:
    game: str
    trials: int
    successes: int
    advantage: float


def dpd_challenge(pp: PublicParams, rng: random.Random) -> Challenge:
    return Challenge(pp=pp, pk1=derive_public(sample_secret_pair(pp.algebra, rng), pp))


def cdp_challenge(pp: PublicParams, rng: random.Random) -> Challenge:
    ch = dpd_challenge(pp, rng)
    s2 = sample_secret_pair(pp.algebra, rng)
    return replace(ch, pk2=derive_public(s2, pp), k=derive_shared(s2, ch.pk1, pp))


def ddp_challenge(pp: PublicParams, rng: random.Random, b: int) -> Challenge:
    """b = 0: k is the key pk1 and pk2 share; b = 1: a fresh public key."""
    ch = cdp_challenge(pp, rng)
    k1 = derive_public(sample_secret_pair(pp.algebra, rng), pp)
    return ch if b == 0 else replace(ch, k=k1)


def run_attack_game(game: str, adversary: Callable, pp: PublicParams,
                    rng: random.Random, trials: int = 100) -> GameOutcome:
    """Run the named game repeatedly and report the empirical advantage.

    The adversary receives a Challenge. For the decomposition game it must
    return a SecretPair or None; for the computational game an algebra
    element; for the decisional game a bit.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if game == "DPD":
        wins = 0
        for _ in range(trials):
            ch = dpd_challenge(pp, rng)
            out = adversary(ch)
            if out is not None and derive_public(out, pp) == ch.pk1:
                wins += 1
        return GameOutcome("DPD", trials, wins, wins / trials)
    if game == "CDP":
        wins = 0
        for _ in range(trials):
            ch = cdp_challenge(pp, rng)
            if adversary(ch) == ch.k:
                wins += 1
        return GameOutcome("CDP", trials, wins, wins / trials)
    if game == "DDP":
        ones = [0, 0]
        counts = [0, 0]
        for _ in range(trials):
            b = rng.randrange(2)
            ch = ddp_challenge(pp, rng, b)
            counts[b] += 1
            if adversary(ch) == 1:
                ones[b] += 1
        freq0 = ones[0] / counts[0] if counts[0] else 0.0
        freq1 = ones[1] / counts[1] if counts[1] else 0.0
        correct = ones[1] + (counts[0] - ones[0])
        return GameOutcome("DDP", trials, correct, abs(freq0 - freq1))
    raise ValueError(f"unknown game {game!r}")
