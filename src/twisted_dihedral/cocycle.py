"""2-cocycles on D_2n with values in F_q*, held as discrete logs.

A `Cocycle` is the (2n) x (2n) table `logs[g][h]` of the discrete logs of
its values c(g, h), so a product of values is a sum of logs mod q - 1.
The reflection-pair cocycle alpha_lambda, the comparison cocycle
beta_lambda and the trivial one fill it in closed form, `from_table`
from values, and `coboundary_of` from a unit-valued map. The exhaustive
verifier and the brute-force coboundary-equivalence search (tiny
parameters) read the logs; values are boxed as `FieldElement`s only where
they leave the module.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .errors import CapacityError
from .field import FieldElement, FieldParams
from .group import DihedralGroup


class Cocycle:
    """A candidate 2-cocycle: `logs[g][h]` is the discrete log of c(g, h).
    The constructor trusts its logs; the classmethods build them."""

    def __init__(self, field: FieldParams, logs: tuple[tuple[int, ...], ...]):
        self.field, self.logs, self.n = field, logs, len(logs) // 2

    @classmethod
    def _on_reflections(cls, lam: FieldElement, n: int, powers) -> "Cocycle":
        """c(g, h) = 1 for a rotation g, lambda^powers[h] for a reflection g."""
        if lam.is_zero():
            raise ValueError("lambda must be a nonzero field element")
        field = lam.field
        row = tuple(field.log[lam.rep] * e % (field.q - 1) for e in powers)
        return cls(field, ((0,) * (2 * n),) * n + (row,) * n)

    @classmethod
    def alpha(cls, lam: FieldElement, n: int) -> "Cocycle":
        """lambda iff both arguments are reflections."""
        return cls._on_reflections(lam, n, [0] * n + [1] * n)

    @classmethod
    def beta(cls, lam: FieldElement, n: int) -> "Cocycle":
        """lambda^j for a reflection and a second argument x^j or x^j y."""
        return cls._on_reflections(lam, n, [h % n for h in range(2 * n)])

    @classmethod
    def trivial(cls, field: FieldParams, n: int) -> "Cocycle":
        return cls.alpha(field.one(), n)

    @classmethod
    def from_table(cls, field: FieldParams, table) -> "Cocycle":
        """The cocycle with values table[g][h]: (2n) x (2n) nonzero
        elements of `field`."""
        size = len(table)
        if (size == 0 or size % 2 or any(len(row) != size for row in table)
                or not all(isinstance(v, FieldElement) and v.field == field
                           and v.rep != 0 for row in table for v in row)):
            raise ValueError("a cocycle table is (2n) x (2n), of nonzero "
                             "elements of its field")
        return cls(field, tuple(tuple(field.log[v.rep] for v in row) for row in table))

    def __call__(self, g: int, h: int) -> FieldElement:
        if not (0 <= g < 2 * self.n and 0 <= h < 2 * self.n):
            raise ValueError("group index out of range")
        return self.field.from_rep(self.field.exp[self.logs[g][h]])

    def tabulate(self) -> tuple[tuple[FieldElement, ...], ...]:
        box, exp = self.field.from_rep, self.field.exp
        return tuple(tuple(box(exp[k]) for k in row) for row in self.logs)

    def __repr__(self):
        return f"Cocycle(n={self.n}, field={self.field!r})"


@dataclass(frozen=True)
class BetaMap:
    """A map D_2n -> F_q* with value 1 at the identity, by group index."""

    values: tuple[FieldElement, ...]

    def __post_init__(self):
        if any(v.is_zero() for v in self.values):
            raise ValueError("beta map values must be nonzero")
        if not self.values or self.values[0].rep != 1:
            raise ValueError("beta map must send the identity to 1")
        if any(v.field != self.values[0].field for v in self.values):
            raise ValueError("beta map values must lie in one field")

    def __call__(self, g: int) -> FieldElement:
        return self.values[g]

    @classmethod
    def random(cls, field: FieldParams, group: DihedralGroup,
               rng: random.Random) -> "BetaMap":
        vals = [field.one()]
        vals += [field.random_unit(rng) for _ in range(group.order - 1)]
        return cls(tuple(vals))


@dataclass(frozen=True)
class CocycleCheck:
    """Outcome of the exhaustive cocycle verification."""

    valid: bool
    counterexample: Optional[tuple[int, int, int]]
    identity_normalized: bool  # c(1,1) = 1
    # symmetry of c on rotation pairs; licenses commutativity of rotations
    rotation_symmetry: bool
    # value identity on reflection pairs; licenses Gamma adjunct commutation
    reflection_identity: bool


def _first_failure(logs, group, exp) -> Optional[tuple[int, int, int]]:
    """The least (g, h, k) with c(g, hk) c(h, k) != c(gh, k) c(g, h), or None.

    `logs[g][h]` is the discrete log of c(g, h); each (g, h) row compares
    the two sides over all k through the antilog table.
    """
    n2 = group.order
    law = [[group.op(h, k) for k in range(n2)] for h in range(n2)]
    # at_hk[h](row) lists row[hk] for k = 0 .. 2n-1
    at_hk = [itemgetter(*row) for row in law]
    for g, log_g in enumerate(logs):
        for h, log_h in enumerate(logs):
            lhs = [exp[a + b] for a, b in zip(at_hk[h](log_g), log_h)]
            c_gh = log_g[h]
            rhs = [exp[a + c_gh] for a in logs[law[g][h]]]
            if lhs != rhs:
                k = next(k for k, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                return g, h, k
    return None


def verify_cocycle(c: Cocycle, group: DihedralGroup) -> CocycleCheck:
    """Check the cocycle equation over all (2n)^3 triples.

    Works on the (2n)^2 logs, so its memory is O(n^2). Also evaluates the
    two pair predicates that license the protocol algebra: symmetry of c
    on rotation pairs (i, j-i) vs (j-i, i), and the literal reflection-pair
    identity over all i, j.
    """
    if c.n != group.n:
        raise ValueError(f"cocycle on D_{2 * c.n} checked against {group!r}")
    n = group.n
    logs, exp = c.logs, c.field.exp
    counterexample = _first_failure(logs, group, exp)
    identity_ok = logs[0][0] == 0

    def r(t):  # the reflection x^t y
        return n + t % n

    eq1 = all(logs[i][(j - i) % n] == logs[(j - i) % n][i]
              for i in range(n) for j in range(n))
    eq2 = all(exp[logs[r(i - j)][r(i - j)] + logs[r(i)][r(i - j)]]
              == exp[logs[r(-i)][r(-i)] + logs[r(j - i)][r(-i)]]
              for i in range(n) for j in range(n))

    return CocycleCheck(valid=(counterexample is None and identity_ok),
                        counterexample=counterexample,
                        identity_normalized=identity_ok,
                        rotation_symmetry=eq1, reflection_identity=eq2)


def coboundary_of(beta: BetaMap, group: DihedralGroup) -> Cocycle:
    """The coboundary (g, h) -> beta(g)^-1 beta(h)^-1 beta(gh), as the logs
    log beta(gh) - log beta(g) - log beta(h) mod q - 1."""
    if len(beta.values) != group.order:
        raise ValueError(f"beta map of {len(beta.values)} values on {group!r}")
    field = beta.values[0].field
    lb, order, n2 = [field.log[v.rep] for v in beta.values], field.q - 1, group.order
    return Cocycle(field, tuple(tuple((lb[group.op(g, h)] - lb[g] - lb[h]) % order
                                      for h in range(n2)) for g in range(n2)))


def equivalence_search(c1: Cocycle, c2: Cocycle, group: DihedralGroup,
                       params: FieldParams,
                       max_candidates: int = 10 ** 7) -> Optional[BetaMap]:
    """Brute-force search for a map theta: D_2n -> F_q* with theta(1) = 1 and

        c1(g, h) = c2(g, h) * theta(g) * theta(h) * theta(gh)^-1

    for all pairs, in logs: c1 - c2 = theta(g) + theta(h) - theta(gh) mod
    q - 1. Enumerates all (q-1)^(2n-1) candidates in mixed-radix order over
    the units by rep (index 1 least significant); first witness wins.
    """
    if not (c1.field == c2.field == params and c1.n == c2.n == group.n):
        raise ValueError("equivalence search needs two cocycles on the group, "
                         "over the given field")
    n2, order = group.order, params.q - 1
    total = order ** (n2 - 1)
    if total > max_candidates:
        raise CapacityError(
            f"{total} candidate maps exceed the bound {max_candidates}")

    unit_logs = [params.log[u] for u in range(1, params.q)]
    triples = [(g, h, group.op(g, h), (c1.logs[g][h] - c2.logs[g][h]) % order)
               for g in range(n2) for h in range(n2)]
    for rest in itertools.product(unit_logs, repeat=n2 - 1):
        theta = (0,) + rest[::-1]  # index 1 varies fastest
        if all((theta[g] + theta[h] - theta[gh]) % order == d
               for g, h, gh, d in triples):
            return BetaMap(tuple(params.from_rep(params.exp[t]) for t in theta))
    return None
