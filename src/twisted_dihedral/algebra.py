"""Elements and arithmetic of the twisted dihedral group algebra.

An algebra element is a vector of 2n field coefficients, held as integer
reps: coeffs[i] for i < n multiplies the rotation basis vector for x^i,
coeffs[n+i] multiplies the reflection basis vector for x^i y. The product
is twisted by the cocycle that takes the value lambda exactly on
reflection pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .cocycle import Cocycle
from .errors import ParameterError
from .field import FieldElement, FieldParams, is_square
from .group import DihedralGroup


class AlgebraParams:
    """Field, group, and the twisting non-square lambda, bundled."""

    def __init__(self, field: FieldParams, group: DihedralGroup,
                 lam: FieldElement):
        if lam.field != field:
            raise ParameterError("lambda must live in the given field")
        if lam.is_zero() or is_square(lam, field):
            raise ParameterError("lambda must be a non-square in F_q*")
        self.field = field
        self.group = group
        self.lam = lam
        self.cocycle = Cocycle.alpha(lam, group.n)
        self.lam_log = field.log[lam.rep]

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def dim(self) -> int:
        return self.group.order

    def from_reps(self, reps: Sequence[int]) -> "AlgebraElement":
        reps = tuple(reps)
        if len(reps) != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {len(reps)}")
        if min(reps) < 0 or max(reps) >= self.field.q:
            raise ValueError(f"coefficient rep out of range for q={self.field.q}")
        return AlgebraElement(self, reps)

    def zero(self) -> "AlgebraElement":
        return self.from_reps([0] * self.dim)

    def one(self) -> "AlgebraElement":
        return self.from_reps([1] + [0] * (self.dim - 1))

    def basis(self, k: int) -> "AlgebraElement":
        reps = [0] * self.dim
        reps[k] = 1
        return self.from_reps(reps)

    def __eq__(self, other):
        return (isinstance(other, AlgebraParams)
                and self.field == other.field
                and self.group == other.group
                and self.lam == other.lam)

    def __hash__(self):
        return hash((self.field, self.group, self.lam.rep))

    def __repr__(self):
        return (f"AlgebraParams(p={self.field.p}, m={self.field.m}, "
                f"n={self.n}, lambda={self.lam!r})")


class AlgebraElement:
    """Immutable vector of 2n field coefficients, as integer reps.

    The constructor trusts its reps; `AlgebraParams.from_reps` checks them.
    """

    __slots__ = ("params", "coeffs")

    def __init__(self, params: AlgebraParams, coeffs: tuple[int, ...]):
        self.params = params
        self.coeffs = coeffs

    def reps(self) -> tuple[int, ...]:
        return self.coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def rotation_part(self) -> "AlgebraElement":
        n = self.params.n
        return AlgebraElement(self.params, self.coeffs[:n] + (0,) * n)

    def reflection_part(self) -> "AlgebraElement":
        n = self.params.n
        return AlgebraElement(self.params, (0,) * n + self.coeffs[n:])

    def in_rotation_subalgebra(self) -> bool:
        return not any(self.coeffs[self.params.n:])

    def in_reflection_subspace(self) -> bool:
        return not any(self.coeffs[:self.params.n])

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return alg_add(self, other)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return alg_add(self, -other)

    def __neg__(self) -> "AlgebraElement":
        neg = self.params.field.neg
        return AlgebraElement(self.params, tuple([neg[c] for c in self.coeffs]))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return alg_product(self, other, self.params)

    def scale(self, c: FieldElement) -> "AlgebraElement":
        """Coefficient-wise multiplication by a field scalar."""
        mul = self.params.field.mul_rep
        return AlgebraElement(self.params, tuple([mul(c.rep, x) for x in self.coeffs]))

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.params == other.params
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"AlgebraElement({list(self.coeffs)})"


@dataclass(frozen=True)
class SecretPair:
    """A secret (a, gamma): a rotation-supported, gamma in the reversible subspace.

    Both components must be nonzero; zero components produce a zero public
    key and a trivially known shared key, so the samplers resample on zero.
    """

    a: AlgebraElement
    gamma: AlgebraElement

    def __post_init__(self):
        if not self.a.in_rotation_subalgebra():
            raise ValueError("secret 'a' must be supported on the rotation part")
        if not in_gamma(self.gamma):
            raise ValueError("secret 'gamma' must lie in the reversible subspace")
        if self.a.is_zero() or self.gamma.is_zero():
            raise ValueError("secret components must be nonzero")


def _check_same_params(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.params != b.params or len(a.coeffs) != len(b.coeffs):
        raise ValueError("algebra elements have mismatched parameters")


def alg_add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    _check_same_params(a, b)
    field = a.params.field
    packed = field.packed
    return AlgebraElement(a.params, field.reduce_all(
        [packed[x] + packed[y] for x, y in zip(a.coeffs, b.coeffs)]))


def alg_product(a: AlgebraElement, b: AlgebraElement,
                params: Optional[AlgebraParams] = None) -> AlgebraElement:
    """Schoolbook twisted product: c[table[i][j]] += a[i] b[j] alpha(i, j).

    Each term is an antilog lookup, packed so that the terms of an output
    coefficient add without reduction; each coefficient is reduced once.
    lambda = alpha(i, j) on reflection pairs is folded into the logs of
    b's reflection coefficients.
    """
    params = params or a.params
    _check_same_params(a, b)
    field = params.field
    n = params.n
    q1 = field.q - 1
    log = field.log
    exp = field.packed_exp
    table = params.group.table
    plain, twisted = [], []
    for j, bj in enumerate(b.coeffs):
        if bj:
            lb = log[bj]
            plain.append((j, lb))
            twisted.append((j, (lb + params.lam_log) % q1 if j >= n else lb))
    out = [0] * params.dim
    for i, ai in enumerate(a.coeffs):
        if ai:
            la = log[ai]
            row = table[i]
            for j, lb in (twisted if i >= n else plain):
                out[row[j]] += exp[la + lb]
    return AlgebraElement(params, field.reduce_all(out))


def adjunct(a: AlgebraElement, params: Optional[AlgebraParams] = None) -> AlgebraElement:
    """c[inverse(i)] = a[i] * alpha(i, inverse(i)): 2n multiplications."""
    params = params or a.params
    field = params.field
    group = params.group
    n = params.n
    lam = params.lam.rep
    out = [0] * params.dim
    for i, ai in enumerate(a.coeffs):
        j = group.inverse(i)
        # alpha(i, i^-1) is lambda exactly when i is a reflection (then i^-1 = i)
        out[j] = field.mul_rep(ai, lam) if i >= n else ai
    return AlgebraElement(params, tuple(out))


def phi(a: AlgebraElement) -> AlgebraElement:
    """Transport reflection coefficients to the rotation slots."""
    if not a.in_reflection_subspace():
        raise ValueError("phi expects an element of the reflection subspace")
    n = a.params.n
    return AlgebraElement(a.params, a.coeffs[n:] + (0,) * n)


def in_gamma(a: AlgebraElement) -> bool:
    """Membership in the reversible subspace: reflection-supported, a_i = a_{n-i}."""
    n = a.params.n
    if not a.in_reflection_subspace():
        return False
    reps = a.coeffs
    return all(reps[n + i] == reps[n + (n - i) % n] for i in range(1, n))


def sample_gamma(params: AlgebraParams, rng: random.Random) -> AlgebraElement:
    """Uniform element of the reversible subspace (free coefficients mirrored)."""
    field = params.field
    n = params.n
    coeffs = [0] * params.dim
    coeffs[n] = field.random_rep(rng)
    for i in range(1, n // 2 + 1):
        v = field.random_rep(rng)
        coeffs[n + i] = v
        coeffs[n + (n - i) % n] = v
    return AlgebraElement(params, tuple(coeffs))


def sample_subspace(which: str, params: AlgebraParams,
                    rng: random.Random) -> AlgebraElement:
    """Uniform sample from C_n / C_n*y / the full algebra / the public-h shape."""
    field = params.field
    n = params.n
    if which == "C_n":
        return AlgebraElement(params, tuple(
            [field.random_rep(rng) for _ in range(n)]) + (0,) * n)
    if which == "C_n_y":
        return AlgebraElement(params, (0,) * n + tuple(
            [field.random_rep(rng) for _ in range(n)]))
    if which == "full":
        return AlgebraElement(params, tuple(
            [field.random_rep(rng) for _ in range(2 * n)]))
    if which == "h_element":
        while True:
            h1 = sample_subspace("C_n", params, rng)
            if not h1.is_zero():
                break
        while True:
            h2 = sample_subspace("C_n_y", params, rng)
            if not h2.is_zero():
                break
        return h1 + h2
    raise ValueError(f"unknown subspace {which!r}")


def sample_secret_pair(params: AlgebraParams, rng: random.Random) -> SecretPair:
    """Uniform nonzero (a, gamma) secret pair."""
    while True:
        a = sample_subspace("C_n", params, rng)
        if not a.is_zero():
            break
    while True:
        g = sample_gamma(params, rng)
        if not g.is_zero():
            break
    return SecretPair(a, g)


def iter_gamma(params: AlgebraParams) -> Iterator[AlgebraElement]:
    """Enumerate the whole reversible subspace, q^ceil((n+1)/2) elements."""
    field = params.field
    n = params.n
    q = field.q
    free = n // 2 + 1
    for counter in range(q ** free):
        reps = [0] * params.dim
        v = counter
        for slot in range(free):
            d = v % q
            v //= q
            reps[n + slot] = d
            if slot:
                reps[n + (n - slot) % n] = d
        yield AlgebraElement(params, tuple(reps))


def index_h(a: AlgebraElement, params: Optional[AlgebraParams] = None) -> int:
    """Base-q positional encoding of the coefficient vector; a bijection."""
    params = params or a.params
    q = params.field.q
    out = 0
    for rep in reversed(a.coeffs):
        out = out * q + rep
    return out


def index_h_inv(value: int, params: AlgebraParams) -> AlgebraElement:
    q = params.field.q
    if not 0 <= value < q ** params.dim:
        raise ValueError("index out of range")
    reps = []
    for _ in range(params.dim):
        reps.append(value % q)
        value //= q
    return AlgebraElement(params, tuple(reps))


def rep_serialize(x) -> bytes:
    """Canonical injective byte encoding of an algebra element (or a pair)."""
    if isinstance(x, AlgebraElement):
        return b"".join([x.params.field.rep_bytes[c] for c in x.coeffs])
    # duck-typed two-component ciphertext
    if hasattr(x, "c1") and hasattr(x, "c2"):
        return rep_serialize(x.c1) + rep_serialize(x.c2)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def rep_deserialize(data: bytes, params: AlgebraParams) -> AlgebraElement:
    field = params.field
    chunk = len(field.rep_bytes[0])
    expect = params.dim * chunk
    if len(data) != expect:
        raise ValueError(f"expected {expect} bytes, got {len(data)}")
    reps = [field.bytes_rep.get(data[pos:pos + chunk]) for pos in range(0, expect, chunk)]
    if None in reps:
        raise ValueError("digit out of range in serialized element")
    return AlgebraElement(params, tuple(reps))
