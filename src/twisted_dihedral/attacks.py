"""Exponential teaching baselines for the product-decomposition problem.

Implements the attack-game harness (DPD, CDP and DDP product games) and
two solvers exponential in n, each refused before any work when its whole
candidate space exceeds `errors.MAX_CANDIDATES`: exhaustive search, one
index-order scan of the rotation space, and a meet-in-the-middle trade-off
that splits it into a low-degree and a high-degree slice (a table of at
most `errors.MAX_TABLE_ENTRIES`). The scheme falls instead to the
polynomial-time linear decomposition attack (Myasnikov and Roman'kov 2015;
Tsaban 2015), not implemented here. Both solvers test a candidate (a,
gamma) as phi(gamma)*(a*(h*y)) = a*h*gamma: a times the kept h*y once per
a, then all gamma from one `times` of a RotationBatch of the phi(gamma),
two multiplies for all its rows, which are reduced kernel slots, canonical
bytes read into no reps. The exhaustive scan compares each row with
`slot_key(pk)`. The MITM table keys each a1 by the row of a1*h*gamma and
gamma's index; the scan probes it once per candidate with the row of pk -
a2*h*gamma = phi(gamma)*(a2*(-h*y)) + pk, and a hit with the same gamma
makes (a1 + a2, gamma) a solution. a = 0 and gamma = 0, index 0 of
each, form no secret pair, so the scans leave them out by index. Each
count is derived from a position, not kept: a hit at rotation idx and
gamma k of a scan has tested idx*|Gamma| + k + 1 candidates, a full scan
rotations x |Gamma|, and a table holds the q^t x |Gamma| entries its bound
was checked for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
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
    """Offline table: (slot_key(a1*h*gamma), k) -> [a1, ...] in index order,
    with k the index of gamma in `gammas` (k = 0 is never probed).

    Also keeps the parameters it was built for, and Gamma and the batch of
    its phi(gamma), which the online scan reuses.
    """

    pp: PublicParams = field(compare=False)
    t: int
    buckets: dict[tuple[bytes, int], list[AlgebraElement]]  # (row slots, k) -> a1
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
    """Key every low-slice a1 by the slots of a1*h*gamma and gamma's index
    (module docstring); an over-bound online scan or table is refused
    before either is built."""
    algebra = pp.algebra
    if not 0 <= t <= algebra.n:
        raise ValueError("t must be in [0, n]")
    q = algebra.field.q
    _check_candidates(q ** (algebra.n - t), algebra)
    total = q ** t * q ** (algebra.n // 2 + 1)  # one entry per (a1, gamma)
    errors.check_capacity(total, errors.MAX_TABLE_ENTRIES, "table entries")
    buckets: dict[tuple[bytes, int], list[AlgebraElement]] = {}
    gammas, batch = _gamma_batch(algebra)
    for idx in range(q ** t):  # the low slice, x^0 .. x^(t-1)
        a1 = index_h_inv(idx, algebra)
        for k, c in enumerate(batch.times(a1 * pp.hy)):
            buckets.setdefault((c, k), []).append(a1)
    return MitmTable(pp, t, buckets, total, gammas, batch)


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
    rotations = q ** (algebra.n - t)
    for idx in range(rotations):  # the high slice, x^t .. x^(n-1)
        a2 = index_h_inv(idx * q ** t, algebra)
        residuals = table.batch.times(a2 * neg_hy, inst.pk)
        for k in range(1, len(residuals)):  # k = 0 is gamma = 0
            for a1 in table.buckets.get((residuals[k], k), ()):
                a = a1 + a2
                if not a.is_zero():  # a = 0 only where a1 = a2 = 0, at idx = 0
                    return AttackResult(SecretPair(a, gammas[k]), idx * len(gammas) + k + 1)
    return AttackResult(None, rotations * len(gammas))


# --- attack-game harness ---

@dataclass(frozen=True)
class Challenge:
    """What the challenger hands out: public values only (DPD: pk1; CDP:
    pk1, pk2 and the key k to compute; DDP: pk1, pk2 and a candidate k),
    and the DDP bit b, which only the harness reads to score a guess."""

    pp: PublicParams
    pk1: AlgebraElement
    pk2: Optional[AlgebraElement] = None
    k: Optional[AlgebraElement] = None
    b: Optional[int] = None


@dataclass(frozen=True)
class GameOutcome:
    game: str
    trials: int
    successes: int
    advantage: float


def dpd_challenge(pp: PublicParams, rng: random.Random) -> Challenge:
    s = sample_secret_pair(pp.algebra, rng)
    return Challenge(pp=pp, pk1=derive_public(s, pp))


def cdp_challenge(pp: PublicParams, rng: random.Random) -> Challenge:
    s1 = sample_secret_pair(pp.algebra, rng)
    s2 = sample_secret_pair(pp.algebra, rng)
    pk1 = derive_public(s1, pp)
    pk2 = derive_public(s2, pp)
    k = derive_shared(s2, pk1, pp)
    return Challenge(pp=pp, pk1=pk1, pk2=pk2, k=k)


def ddp_challenge(pp: PublicParams, rng: random.Random, b: int) -> Challenge:
    s1 = sample_secret_pair(pp.algebra, rng)
    s2 = sample_secret_pair(pp.algebra, rng)
    s3 = sample_secret_pair(pp.algebra, rng)
    pk1 = derive_public(s1, pp)
    pk2 = derive_public(s2, pp)
    k0 = derive_shared(s2, pk1, pp)
    k1 = derive_public(s3, pp)
    return Challenge(pp=pp, pk1=pk1, pk2=pk2, k=(k0 if b == 0 else k1), b=b)


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
