"""2-cocycles on D_2n with values in F_q*.

Provides the reflection-pair cocycle (lambda iff both arguments are
reflections), the comparison cocycle (lambda^j keyed on the second
argument's rotation exponent), coboundaries of arbitrary unit-valued maps,
an exhaustive verifier, and a brute-force coboundary-equivalence search
for tiny parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .errors import CapacityError
from .field import FieldElement, FieldParams
from .group import DihedralGroup

ALPHA_LAMBDA = "alpha_lambda"
BETA_LAMBDA = "beta_lambda"
TABULATED = "tabulated"


class Cocycle:
    """A candidate 2-cocycle, evaluated in closed form or from a table."""

    def __init__(self, kind: str, n: int, field: FieldParams,
                 lam: Optional[FieldElement] = None,
                 table: Optional[tuple[tuple[FieldElement, ...], ...]] = None):
        self.kind = kind
        self.n = n
        self.field = field
        self.lam = lam
        self.table = table
        if kind in (ALPHA_LAMBDA, BETA_LAMBDA):
            if lam is None or lam.is_zero():
                raise ValueError("lambda must be a nonzero field element")
        elif kind == TABULATED:
            # values lie in F_q*, which the log-domain verifier relies on
            if (table is None or len(table) != 2 * n
                    or any(len(row) != 2 * n for row in table)
                    or not all(isinstance(v, FieldElement) and v.field == field
                               and v.rep != 0 for row in table for v in row)):
                raise ValueError("tabulated cocycle needs a (2n) x (2n) table "
                                 "of nonzero elements of its field")
        else:
            raise ValueError(f"unknown cocycle kind {kind!r}")

    @classmethod
    def alpha(cls, lam: FieldElement, n: int) -> "Cocycle":
        return cls(ALPHA_LAMBDA, n, lam.field, lam=lam)

    @classmethod
    def beta(cls, lam: FieldElement, n: int) -> "Cocycle":
        return cls(BETA_LAMBDA, n, lam.field, lam=lam)

    @classmethod
    def trivial(cls, field: FieldParams, n: int) -> "Cocycle":
        return cls(ALPHA_LAMBDA, n, field, lam=field.one())

    def __call__(self, g: int, h: int) -> FieldElement:
        n = self.n
        if not (0 <= g < 2 * n and 0 <= h < 2 * n):
            raise ValueError("group index out of range")
        if self.kind == ALPHA_LAMBDA:
            if g >= n and h >= n:
                return self.lam
            return self.field.one()
        if self.kind == BETA_LAMBDA:
            if g >= n:
                return self.lam ** (h % n)
            return self.field.one()
        return self.table[g][h]

    def tabulate(self) -> tuple[tuple[FieldElement, ...], ...]:
        n2 = 2 * self.n
        return tuple(tuple(self(g, h) for h in range(n2)) for g in range(n2))

    def __repr__(self):
        if self.kind == TABULATED:
            return f"Cocycle(tabulated, n={self.n})"
        return f"Cocycle({self.kind}, n={self.n}, lambda={self.lam!r})"


@dataclass(frozen=True)
class BetaMap:
    """A map D_2n -> F_q* with value 1 at the identity, by group index."""

    values: tuple[FieldElement, ...]

    def __post_init__(self):
        if any(v.is_zero() for v in self.values):
            raise ValueError("beta map values must be nonzero")
        if self.values[0].rep != 1:
            raise ValueError("beta map must send the identity to 1")

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

    Works on the discrete logs of the (2n)^2 values, so its memory is
    O(n^2). Also evaluates the two pair predicates that license the
    protocol algebra: symmetry of c on rotation pairs (i, j-i) vs (j-i, i),
    and the literal reflection-pair identity over all i, j.
    """
    if c.n != group.n:
        raise ValueError(f"cocycle on D_{2 * c.n} checked against {group!r}")
    n = group.n
    n2 = group.order
    log, exp = c.field.log, c.field.exp
    logs = [[log[c(g, h).rep] for h in range(n2)] for g in range(n2)]
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
    """The coboundary (g, h) -> beta(g)^-1 beta(h)^-1 beta(gh), tabulated."""
    field = beta.values[0].field
    inv = [v.inverse() for v in beta.values]
    rows = []
    for g in range(group.order):
        row = []
        for h in range(group.order):
            row.append(inv[g] * inv[h] * beta.values[group.op(g, h)])
        rows.append(tuple(row))
    return Cocycle(TABULATED, group.n, field, table=tuple(rows))


def equivalence_search(c1: Cocycle, c2: Cocycle, group: DihedralGroup,
                       params: FieldParams,
                       max_candidates: int = 10 ** 7) -> Optional[BetaMap]:
    """Brute-force search for a map theta: D_2n -> F_q* with theta(1) = 1 and

        c1(g, h) = c2(g, h) * theta(g) * theta(h) * theta(gh)^-1

    for all pairs. Enumerates all (q-1)^(2n-1) candidates in mixed-radix
    order over the units (index 1 least significant); first witness wins.
    """
    n2 = group.order
    units = list(range(1, params.q))
    total = len(units) ** (n2 - 1)
    if total > max_candidates:
        raise CapacityError(
            f"{total} candidate maps exceed the bound {max_candidates}")

    v1 = [[e.rep for e in row] for row in c1.tabulate()]
    v2 = [[e.rep for e in row] for row in c2.tabulate()]
    inv = [0] + [params.inv_rep(u) for u in range(1, params.q)]
    mul = params.mul_rep

    triples = [(g, h, group.op(g, h)) for g in range(n2) for h in range(n2)]
    theta = [1] * n2
    for counter in range(total):
        v = counter
        for slot in range(1, n2):
            theta[slot] = units[v % len(units)]
            v //= len(units)
        ok = True
        for g, h, gh in triples:
            rhs = mul(mul(v2[g][h], mul(theta[g], theta[h])), inv[theta[gh]])
            if rhs != v1[g][h]:
                ok = False
                break
        if ok:
            return BetaMap(tuple(params.from_rep(t) for t in theta))
    return None
