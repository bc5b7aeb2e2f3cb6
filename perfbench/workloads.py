"""The benchmark's workloads: one parameter set each, and why each exists.

Every workload runs one (p, m, n) set, so its figures never mix two sets. All of
them run the same protocol mix in a closed loop (one client, one process,
one thread, each call waiting for the previous one): KEM keygen,
encaps->decaps round trips with every tenth input tampered with, both
sides of the key exchange, and CLI `encaps`+`decaps` subprocess pairs.
`attack-small` adds the decomposition solvers on top of that mix.

(3,6,9), q=729, where every set-up and CLI command pays the q x q field
table build, is not a gated workload. Its memory-bound operations run up
to 2x slower while a neighbour on the shared machine is busy, and even
their fastest times move with that: over ten seeds the fastest encaps,
decaps, keygen and kex of a run spread 0.13-0.17 of their median, above a
third of the 0.25 cap on a bound. `characterise.py` still measures its
table build, ungated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    m: int
    n: int
    why: str
    # least number of fresh set-ups per run; setup_s is their median
    setups: int
    # seeded inputs that keygen, the round trips and the key exchange each
    # cycle through; a multiple of TAMPER_EVERY
    pool: int
    # share of --seconds given to each timed phase
    shares: dict
    # meet-in-the-middle split point; None means the workload runs no attack
    mitm_t: Optional[int] = None


# Phases that cycle through a workload's pool of seeded inputs. Each input
# is timed many times over the run, and its fastest time is the one
# counted: a neighbour on the machine can only slow an operation down, so
# the best of many tries of the same work is its own cost.
POOLED = ("keygen", "kem", "kex")

# Minimum operations of the other phases, run even when the phase's time
# share is spent; a pooled phase runs its whole pool at least once. The
# output hash covers exactly these first operations, so it is the same for
# every run length, traced or not.
MIN_OPS = {"attack": 4, "cli": 1}

# Every pool input j with j % TAMPER_EVERY == TAMPER_EVERY - 1 is a round
# trip that decapsulates a tampered ciphertext, forcing implicit rejection.
TAMPER_EVERY = 10

# Set-ups get a tenth of the run, so that setup_s is a median over tens of
# samples even where one set-up takes 60-100 ms.
_KEM_SHARES = {"setup": 0.1, "keygen": 0.1, "kem": 0.4, "kex": 0.2, "cli": 0.2}

WORKLOADS = {w.name: w for w in [
    Workload(
        "kem-small", 3, 2, 9,
        why=("(3,2,9), q=9: the largest acceptance-gate set; serialization, "
             "FieldElement boxing and SHAKE parsing are about half of each op, "
             "so a vectorised product kernel should gain nothing here"),
        setups=41, pool=100, shares=_KEM_SHARES),
    Workload(
        "kem-wide", 101, 1, 101,
        why=("(101,1,101): the O(n^2) schoolbook product dominates every op "
             "and field tables are trivial (m=1), so product-kernel gains "
             "show here most"),
        setups=21, pool=20, shares=_KEM_SHARES),
    Workload(
        "attack-small", 3, 1, 6,
        why=("(3,1,6): the only workload that runs the exhaustive and MITM "
             "(t=3) solvers; thousands of n=6 products where per-call "
             "overhead dominates"),
        setups=31, pool=100,
        shares={"setup": 0.1, "keygen": 0.05, "kem": 0.2, "kex": 0.1,
                "attack": 0.35, "cli": 0.2},
        mitm_t=3),
]}
