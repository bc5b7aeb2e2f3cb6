"""Exponential teaching baselines for the product-decomposition problem.

Implements the attack-game harness (DPD, CDP and DDP product games) and
two solvers exponential in n, each refused when its whole candidate space
exceeds max_candidates: exhaustive search, one index-order scan of the
rotation space, and a meet-in-the-middle trade-off that splits it into a
low-degree and a high-degree slice. The scheme falls instead to the
polynomial-time linear decomposition attack (Myasnikov and Roman'kov
2015; Tsaban 2015), not implemented here. Both solvers test a candidate
(a, gamma) as phi(gamma)*(a*h*y) = a*h*gamma: a*h*y once per a, then all
gamma from one RotationBatch of the phi(gamma). The MITM table keys each
a1 by the rep tuple of a1*h*gamma and gamma's index; the scan takes each
residual pk - a2*h*gamma from the batch as well, as
phi(gamma)*(-(a2*h*y)) + pk with pk the addend of every row, and probes
the table once per candidate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .algebra import (AlgebraElement, AlgebraParams, RotationBatch, SecretPair,
                      index_h_inv, iter_gamma, phi, sample_secret_pair,
                      scaled_times_y, times_y)
from .errors import CapacityError
from .kex import PublicParams, derive_public, derive_shared

DEFAULT_MAX_CANDIDATES = 10 ** 7
DEFAULT_MAX_TABLE_ENTRIES = 10 ** 6


@dataclass(frozen=True)
class DpdInstance:
    """A decomposition challenge: public parameters and pk = a*h*gamma."""

    pp: PublicParams
    pk: AlgebraElement


@dataclass
class MitmTable:
    """Offline table: (reps of a1*h*gamma, k) -> [a1, ...] in index order,
    with k the index of gamma in `gammas`.

    Also keeps Gamma and the batch of its phi(gamma), which the online
    scan reuses.
    """

    t: int
    buckets: dict[tuple[tuple[int, ...], int], list[AlgebraElement]]
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


def check_candidates(rotations: int, algebra: AlgebraParams,
                     bound: int = DEFAULT_MAX_CANDIDATES) -> None:
    """Refuse a scan of rotations x Gamma candidates beyond the bound."""
    total = rotations * algebra.field.q ** (algebra.n // 2 + 1)
    if total > bound:
        raise CapacityError(f"{total} candidates exceed the bound {bound}")


def exhaustive_dpd(inst: DpdInstance,
                   max_candidates: int = DEFAULT_MAX_CANDIDATES) -> AttackResult:
    """Scan the rotation space [0, q^n) in index order against all gamma;
    max_candidates bounds the whole q^n * |Gamma| space."""
    algebra = inst.pp.algebra
    rotations = algebra.field.q ** algebra.n
    check_candidates(rotations, algebra, max_candidates)
    gammas, batch = _gamma_batch(algebra)
    pk = inst.pk.coeffs
    tested = 0
    for idx in range(rotations):
        a = index_h_inv(idx, algebra)
        for gamma, c in zip(gammas, batch.times(times_y(a * inst.pp.h))):
            tested += 1
            if c == pk:
                if a.is_zero() or gamma.is_zero():
                    continue  # cannot form a valid secret pair
                return AttackResult(SecretPair(a, gamma), tested)
    return AttackResult(None, tested)


def _gamma_batch(algebra: AlgebraParams) -> tuple[list[AlgebraElement], RotationBatch]:
    """Gamma in enumeration order, and the batch of every phi(gamma)."""
    gammas = list(iter_gamma(algebra))
    return gammas, RotationBatch([phi(g) for g in gammas])


def mitm_offline(pp: PublicParams, t: int,
                 max_entries: int = DEFAULT_MAX_TABLE_ENTRIES) -> MitmTable:
    """Key every low-slice a1 by the reps of a1*h*gamma and gamma's index."""
    algebra = pp.algebra
    if not 0 <= t <= algebra.n:
        raise ValueError("t must be in [0, n]")
    q = algebra.field.q
    total = q ** t * q ** (algebra.n // 2 + 1)
    if total > max_entries:
        raise CapacityError(f"{total} table entries exceed the bound {max_entries}")
    buckets: dict[tuple[tuple[int, ...], int], list[AlgebraElement]] = {}
    entries = 0
    gammas, batch = _gamma_batch(algebra)
    for idx in range(q ** t):  # the low slice, x^0 .. x^(t-1)
        a1 = index_h_inv(idx, algebra)
        for k, c in enumerate(batch.times(times_y(a1 * pp.h))):
            buckets.setdefault((c, k), []).append(a1)
            entries += 1
    return MitmTable(t=t, buckets=buckets, entries=entries, gammas=gammas, batch=batch)


def mitm_online(table: MitmTable, inst: DpdInstance, t: int,
                max_candidates: int = DEFAULT_MAX_CANDIDATES) -> AttackResult:
    """Scan the complementary high slice for a colliding (a2, gamma).

    A collision with the same gamma gives a1*h*gamma = pk - a2*h*gamma, so
    (a1 + a2, gamma) solves the instance; one probe per candidate finds it.
    max_candidates bounds the whole q^(n-t) * |Gamma| scan.
    """
    if t != table.t:
        raise ValueError("table was built for a different t")
    algebra = inst.pp.algebra
    q, neg = algebra.field.q, algebra.neg
    check_candidates(q ** (algebra.n - t), algebra, max_candidates)
    tested = 0
    for idx in range(q ** (algebra.n - t)):  # the high slice, x^t .. x^(n-1)
        a2 = index_h_inv(idx * q ** t, algebra)
        # pk - a2*h*gamma = phi(gamma)*(-(a2*h*y)) + pk, every gamma at once
        residuals = table.batch.times(scaled_times_y(a2 * inst.pp.h, neg), inst.pk)
        for k, residual in enumerate(residuals):
            tested += 1
            for a1 in table.buckets.get((residual, k), ()):
                a = a1 + a2
                gamma = table.gammas[k]
                if a.is_zero() or gamma.is_zero():
                    continue
                return AttackResult(SecretPair(a, gamma), tested)
    return AttackResult(None, tested)


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
