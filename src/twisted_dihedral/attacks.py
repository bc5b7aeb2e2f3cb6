"""Exponential teaching baselines for the product-decomposition problem.

Implements the attack-game harness (DPD, CDP and DDP product games) and
two solvers exponential in n: partitioned exhaustive search over the index
bijection, and a meet-in-the-middle trade-off that splits the rotation
space into a low-degree and a high-degree slice. The scheme falls instead
to the polynomial-time linear decomposition attack (Myasnikov and
Roman'kov 2015; Tsaban 2015), not implemented here. Both solvers test a
candidate (a, gamma) as phi(gamma)*(a*h*y) = a*h*gamma: a*h*y once per a,
then all gamma from one RotationBatch of the phi(gamma). The MITM scan
takes its residuals pk - a2*h*gamma from the batch multiply as well, as
phi(gamma)*(-(a2*h*y)) + pk, with pk the addend of every row.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .algebra import (AlgebraElement, AlgebraParams, RotationBatch, SecretPair,
                      index_h_inv, iter_gamma, phi, rep_index, sample_secret_pair,
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
    """Offline table: index_h(a1*h*gamma) -> [(a1, gamma), ...].

    Also keeps Gamma and the batch of its phi(gamma), which the online
    scan reuses.
    """

    t: int
    buckets: dict[int, list[tuple[AlgebraElement, AlgebraElement]]]
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


def exhaustive_dpd(inst: DpdInstance, partition_index: int = 0,
                   partition_count: int = 1,
                   max_candidates: int = DEFAULT_MAX_CANDIDATES) -> AttackResult:
    """Scan one contiguous index slice of the rotation space against all gamma.

    The rotation space is addressed through the index bijection as the
    integer range [0, q^n); partition_count tasks may each take one slice.
    max_candidates bounds the whole q^n * |Gamma| space, not the slice, so
    partitioning cannot get round it.
    """
    algebra = inst.pp.algebra
    total = algebra.field.q ** algebra.n
    if not 0 <= partition_index < partition_count:
        raise ValueError("partition_index out of range")
    gamma_count = algebra.field.q ** (algebra.n // 2 + 1)
    if total * gamma_count > max_candidates:
        raise CapacityError(
            f"{total * gamma_count} candidates exceed the bound {max_candidates}")
    lo = total * partition_index // partition_count
    hi = total * (partition_index + 1) // partition_count

    gammas, batch = _gamma_batch(algebra)
    pk = inst.pk.coeffs
    tested = 0
    for idx in range(lo, hi):
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
    """Precompute index_h(a1*h*gamma) for every low-slice a1 and gamma."""
    algebra = pp.algebra
    if not 0 <= t <= algebra.n:
        raise ValueError("t must be in [0, n]")
    q = algebra.field.q
    total = q ** t * q ** (algebra.n // 2 + 1)
    if total > max_entries:
        raise CapacityError(f"{total} table entries exceed the bound {max_entries}")
    buckets: dict[int, list] = {}
    entries = 0
    gammas, batch = _gamma_batch(algebra)
    for idx in range(q ** t):  # the low slice, x^0 .. x^(t-1)
        a1 = index_h_inv(idx, algebra)
        for gamma, c in zip(gammas, batch.times(times_y(a1 * pp.h))):
            buckets.setdefault(rep_index(c, q), []).append((a1, gamma))
            entries += 1
    return MitmTable(t=t, buckets=buckets, entries=entries, gammas=gammas, batch=batch)


def mitm_online(table: MitmTable, inst: DpdInstance, t: int) -> AttackResult:
    """Scan the complementary high slice for a colliding (a2, gamma).

    A collision with matching gamma gives a1*h*gamma = pk - a2*h*gamma, so
    (a1 + a2, gamma) solves the instance.
    """
    if t != table.t:
        raise ValueError("table was built for a different t")
    algebra = inst.pp.algebra
    q, neg = algebra.field.q, algebra.neg
    tested = 0
    for idx in range(q ** (algebra.n - t)):  # the high slice, x^t .. x^(n-1)
        a2 = index_h_inv(idx * q ** t, algebra)
        # pk - a2*h*gamma = phi(gamma)*(-(a2*h*y)) + pk, every gamma at once
        residuals = table.batch.times(scaled_times_y(a2 * inst.pp.h, neg), inst.pk)
        for gamma, residual in zip(table.gammas, residuals):
            tested += 1
            for a1, gamma1 in table.buckets.get(rep_index(residual, q), ()):
                if gamma1.coeffs == gamma.coeffs:
                    a = a1 + a2
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
