"""Arithmetic in F_q with q = p^m, p an odd prime, in polynomial basis.

Elements are vectors of m base-p digits (ascending degree) modulo a monic
irreducible polynomial, named by their integer representation
rep = sum digit_i * p^i. A field refuses q > MAX_Q = 2^16 before it
builds anything, so a rep fits two bytes, and m = 1 where p > 255. Each
field builds O(q) tables once: log/antilog tables from the powers of a
primitive element, found on plain ints where m = 1 and by the polynomial
helpers only where m > 1, and the negation and the bytes of each rep,
built a digit at a time by `rep_table`. Reps add digit-wise mod p; sums
of whole algebra elements go through the product kernel's packed slots
(algebra.py). All arithmetic is on reps, by `FieldParams.*_rep`; a
`FieldElement` is a typed handle with no arithmetic, for lambda and
cocycle values.

Uniform digits come by rejection, as `random.Random.randrange` draws
them: a draw keeps its top p.bit_length() bits, and gives a digit where
they are below p. Where p < 256 a draw is one byte b, which gives b >> s
where b < p << s, s = 8 - p.bit_length(), read in C for all bytes at
once by one `bytes.translate`; the sampler's draws are the top bytes of
its 32-bit words, and the KEM's hash draws bytes. Otherwise a draw is a
little-endian 4-byte word w, which gives w >> (32 - p.bit_length()) where
that is below p (`FieldParams.uniform_digits`). `reps_of_digits` joins
the m digits of every rep at once, for the samplers and the product
kernel's read alike.

NOT FOR PRODUCTION USE: word-size parameters, variable-time arithmetic.
"""

from __future__ import annotations

import math
import random
import struct
from typing import Optional, Sequence

from .errors import ParameterError

# The largest field order q = p^m: each field builds O(q) tables.
MAX_Q = 2 ** 16


def check_field_size(p: int, m: int) -> None:
    """Refuse q = p^m above MAX_Q, before any field table is built."""
    # p above MAX_Q is refused whatever m is, which also bounds factorize;
    # q >= 2^m for any p > 1, so a long m is refused without computing p^m
    if p > MAX_Q or p > 1 and m > 0 and (m >= MAX_Q.bit_length() or p ** m > MAX_Q):
        raise ParameterError(f"q={p}^{m} exceeds the bound {MAX_Q}")


def _checked_digits(digits: Sequence[int], p: int) -> tuple[int, ...]:
    """The digits as a tuple, refused unless each lies in [0, p)."""
    if bad := [d for d in digits if not 0 <= d < p]:
        raise ParameterError(f"digit {bad[0]} outside [0, {p})")
    return tuple(digits)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n by trial division."""
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def base_digits(value: int, base: int, count: int) -> tuple[int, ...]:
    """The `count` lowest base-`base` digits of value, lowest first."""
    out = []
    for _ in range(count):
        out.append(value % base)
        value //= base
    return tuple(out)


# --- polynomial helpers over F_p, coefficients ascending degree ---

def _trim(a: Sequence[int]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a, f, p):
    """a mod the monic f."""
    a, d = list(a), len(f) - 1
    for i in reversed(range(d, len(a))):
        if c := a[i]:
            for j in range(d + 1):
                a[i - d + j] = (a[i - d + j] - c * f[j]) % p
    return _trim(a[:d])


def _poly_powmod(a, e, f, p):
    result = (1,)
    base = _poly_mod(a, f, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), f, p)
        base = _poly_mod(_poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Check a monic polynomial over F_p for irreducibility, by trial division.

    A reducible f of degree m has a monic factor of degree k <= m/2, so f
    is irreducible iff no monic polynomial of degree 1..m//2 divides it.
    Where p^m <= MAX_Q there are at most 1.5 * sqrt(MAX_Q) = 384 of them.
    """
    f = _trim(modulus)
    m = len(f) - 1
    return m >= 1 and all(_poly_mod(f, base_digits(r, p, k) + (1,), p)
                          for k in range(1, m // 2 + 1) for r in range(p ** k))


def find_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lowest (by value of the low-coefficient vector) monic irreducible of degree m."""
    if m == 1:
        return (0, 1)
    for r in range(p ** m):
        f = base_digits(r, p, m) + (1,)
        if is_irreducible(f, p):
            return f
    raise ParameterError(f"no irreducible polynomial of degree {m} over F_{p}")


def rep_table(digit_values: Sequence[Sequence]) -> list:
    """Entry rep: digit_values[0][d_0] + ... + digit_values[m-1][d_(m-1)]
    for the base-p digits d_i of rep (ints add; bytes join, digit 0 first),
    grown a digit at a time with no call per rep."""
    table = list(digit_values[0])
    for values in digit_values[1:]:
        table = [low + v for v in values for low in table]
    return table


def digit_width_bytes(p: int) -> int:
    """Bytes per base-p digit in the canonical serialization."""
    bits = (p - 1).bit_length()
    return (bits + 7) // 8


class FieldParams:
    """The field F_{p^m} with a fixed monic irreducible modulus polynomial.

    Construction refuses q > MAX_Q first, then builds the O(q) tables
    that arithmetic on integer reps reads, indexed by rep or by the
    discrete logarithm k to a generator g of F_q*; a rep has no packed
    form, and `add_rep` adds digits mod p. `neg` and `rep_bytes` are
    built by `rep_table`:

    - `exp[k]`: the rep of g^k, over two periods so that a sum of two logs
      needs no reduction; `log[rep]`: its inverse (None at rep 0);
    - `neg[rep]`: the rep of the negation;
    - `rep_bytes[rep]`: the canonical serialization, digits ascending, each
      big-endian in `digit_width_bytes(p)` bytes;
    - where p < 256 (else None), `mod_p_bytes`, the `bytes.translate`
      table of b mod p for every byte b, and the table and deletions of
      the samplers' byte read (module docstring).
    """

    def __init__(self, p: int, m: int = 1, modulus: Optional[Sequence[int]] = None):
        check_field_size(p, m)
        if p < 3 or factorize(p) != [(p, 1)]:
            raise ParameterError(f"p={p} must be an odd prime")
        if m < 1:
            raise ParameterError(f"m={m} must be >= 1")
        if modulus is None:
            modulus = find_irreducible(p, m)
        else:  # only a caller's modulus needs checking
            modulus = _checked_digits(modulus, p)
            if len(modulus) != m + 1 or modulus[m] != 1:
                raise ParameterError("modulus must be monic of degree m")
            if not is_irreducible(modulus, p):
                raise ParameterError("modulus is not irreducible over F_p")
        self.p = p
        self.m = m
        self.modulus = modulus
        self.q = q = p ** m
        powers = self._primitive_powers()
        self.exp = powers + powers
        self.log: list[Optional[int]] = [None] * q
        for k, rep in enumerate(powers):
            self.log[rep] = k
        negated = [0, *range(p - 1, 0, -1)]  # -d mod p for each digit d
        self.neg = rep_table([[d * p ** i for d in negated] for i in range(m)])
        width = digit_width_bytes(p)
        self.rep_bytes = rep_table([[d.to_bytes(width, "big") for d in range(p)]] * m)
        self.mod_p_bytes = self._sample_bytes = None
        if p < 256:  # a sampled digit is the top byte of a word >> s, kept below p << s
            s = 8 - p.bit_length()
            self.mod_p_bytes = (bytes(range(p)) * (256 // p + 1))[:256]
            self._sample_bytes = (bytes([b >> s for b in range(256)]),
                                  bytes(range(p << s, 256)))

    def _primitive_powers(self) -> list[int]:
        """Reps of g^0 .. g^(q-2) for the least rep g of order q - 1.

        F_q* is cyclic, so such a g exists; g has order q - 1 iff
        g^((q-1)/r) != 1 for every prime r dividing q - 1. Where m = 1 (a
        rep is a residue mod p) this runs on plain ints, else on digit
        vectors by the polynomial helpers.
        """
        p, q, f = self.p, self.q, self.modulus
        primes = [r for r, _ in factorize(q - 1)]
        if self.m == 1:
            g = next(g for g in range(2, p)
                     if all(pow(g, (p - 1) // r, p) != 1 for r in primes))
            powers, cur = [1], 1
            for _ in range(p - 2):
                cur = cur * g % p
                powers.append(cur)
            return powers
        for g in range(2, q):
            g_digits = self.digits_of(g)
            if all(_poly_powmod(g_digits, (q - 1) // r, f, p) != (1,) for r in primes):
                break
        powers, cur = [1], (1,)
        for _ in range(q - 2):
            cur = _poly_mod(_poly_mul(cur, g_digits, p), f, p)
            powers.append(self.rep_of(cur))
        return powers

    def __eq__(self, other):
        return (isinstance(other, FieldParams)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"FieldParams(p={self.p})"
        return f"FieldParams(p={self.p}, m={self.m}, modulus={list(self.modulus)})"

    # --- digits <-> integer representation ---

    def digits_of(self, rep: int) -> tuple[int, ...]:
        return base_digits(rep, self.p, self.m)

    def rep_of(self, digits: Sequence[int]) -> int:
        rep = 0
        for d in reversed(digits):
            rep = rep * self.p + d
        return rep

    # --- element constructors ---

    def elem(self, digits) -> "FieldElement":
        """Element from an integer (for m=1, or a rep) or digits in [0, p)."""
        if isinstance(digits, int):
            return self.from_rep(digits % self.q)
        ds = _checked_digits(digits, self.p)
        if len(ds) != self.m:
            raise ValueError(f"expected {self.m} digits, got {len(ds)}")
        return self.from_rep(self.rep_of(ds))

    def from_rep(self, rep: int) -> "FieldElement":
        if not 0 <= rep < self.q:
            raise ValueError(f"rep {rep} out of range for q={self.q}")
        return FieldElement(self, rep)

    def zero(self) -> "FieldElement":
        return self.from_rep(0)

    def one(self) -> "FieldElement":
        return self.from_rep(1)

    # --- arithmetic on integer representations ---

    def add_rep(self, a: int, b: int) -> int:
        p = self.p
        return self.rep_of([(x + y) % p
                            for x, y in zip(self.digits_of(a), self.digits_of(b))])

    def mul_rep(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv_rep(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        return self.exp[self.q - 1 - self.log[a]]

    def pow_rep(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inversion of zero field element")
            return 0 if e else 1
        return self.exp[self.log[a] * e % (self.q - 1)]

    def random_reps(self, rng: random.Random, count: int) -> Sequence[int]:
        """`count` uniform reps, as count * m `rng.randrange(p)` calls draw
        them; `bytes` where q < 256, as the algebra's elements hold reps.

        randrange(p) draws one 32-bit word per attempt by the rejection rule
        of the module docstring; getrandbits(32 * k) returns k such words,
        first lowest. Each refill asks only for the digits still missing, so
        the reps (m digits each, lowest first) and the state of `rng`
        afterwards equal those of the randrange calls. Where p > 255, m = 1
        under MAX_Q, so each digit is a rep. SystemRandom words are uniform,
        so its reps are too.
        """
        p, m = self.p, self.m
        need = count * m
        if p < 256:
            table, delete = self._sample_bytes
            data = b""
            while len(data) < need:
                k = need - len(data)
                words = rng.getrandbits(32 * k).to_bytes(4 * k, "little")
                data += words[3::4].translate(table, delete)
            return data if m == 1 else self.reps_of_digits(data, 1, m)
        digits: list[int] = []
        while len(digits) < need:
            k = need - len(digits)
            digits += self.uniform_digits(rng.getrandbits(32 * k).to_bytes(4 * k, "little"))
        return digits

    def uniform_digits(self, data: bytes) -> bytes | list[int]:
        """The digits that uniform bytes give by the rejection rule of the
        module docstring, in order: as bytes where p < 256, else as a list.
        The digits of a prefix of data are a prefix of the digits of data."""
        p = self.p
        if p < 256:
            return data.translate(*self._sample_bytes)
        shift = 32 - p.bit_length()
        return [d for w in struct.unpack_from(f"<{len(data) // 4}I", data)
                if (d := w >> shift) < p]

    def reps_of_digits(self, data: bytes, slot: int, step: int) -> bytes | tuple[int, ...]:
        """The reps whose digits `data` holds, one rep every `step` bytes:
        digit d of a rep, lowest first, in the low digit_width_bytes(p)
        bytes, little-endian, of the `slot` bytes at d * slot; `bytes` where
        q < 256, else a tuple. The read is described in the algebra.py
        module docstring; where q >= 256 its 2-byte lanes hold a rep (q <=
        MAX_Q), so no rep carries into the next.
        """
        p, m = self.p, self.m
        if self.q < 256:
            reps = int.from_bytes(data[(m - 1) * slot::step], "little")
            for d in reversed(range(m - 1)):
                reps = reps * p + int.from_bytes(data[d * slot::step], "little")
            return reps.to_bytes(len(data) // step, "little")
        total, reps = len(data) // step, 0
        for d in reversed(range(m)):
            lanes = bytearray(2 * total)
            for j in range(digit_width_bytes(p)):
                lanes[j::2] = data[d * slot + j::step]
            reps = reps * p + int.from_bytes(lanes, "little")
        return struct.unpack(f"<{total}H", reps.to_bytes(2 * total, "little"))

    def nonzero_reps(self, rng: random.Random, count: int) -> Sequence[int]:
        """`random_reps(rng, count)`, drawn again while all zero."""
        while True:
            reps = self.random_reps(rng, count)
            if any(reps):
                return reps

    def random_unit(self, rng: random.Random) -> "FieldElement":
        return self.from_rep(self.nonzero_reps(rng, 1)[0])


class FieldElement:
    """A typed handle on an element of F_{p^m}, with no arithmetic but
    `inverse`: compute on its `rep` by the field's `*_rep` methods."""

    __slots__ = ("field", "rep")

    def __init__(self, field: FieldParams, rep: int):
        self.field = field
        self.rep = rep

    @property
    def digits(self) -> tuple[int, ...]:
        return self.field.digits_of(self.rep)

    def is_zero(self) -> bool:
        return self.rep == 0

    def inverse(self) -> "FieldElement":
        return self.field.from_rep(self.field.inv_rep(self.rep))

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.rep == other.rep and self.field == other.field)

    def __hash__(self):
        return hash((self.rep, self.field.p, self.field.m))

    def __repr__(self):
        if self.field.m == 1:
            return f"F{self.field.p}({self.rep})"
        return f"F{self.field.p}^{self.field.m}({list(self.digits)})"


def is_square(a: FieldElement) -> bool:
    """a = g^k is a square iff k is even (q odd, g a generator)."""
    if a.rep == 0:
        raise ValueError("is_square is defined on nonzero elements only")
    return a.field.log[a.rep] % 2 == 0


def get_lambda(params: FieldParams, rng: random.Random) -> FieldElement:
    """Uniform random non-square of F_q* (q is odd), by rejection sampling."""
    while True:
        a = params.random_unit(rng)
        if not is_square(a):
            return a


def mult_order(a: FieldElement) -> int:
    """Multiplicative order of a = g^k, a nonzero element: (q-1)/gcd(k, q-1)."""
    if a.rep == 0:
        raise ValueError("mult_order is defined on nonzero elements only")
    order = a.field.q - 1
    return order // math.gcd(a.field.log[a.rep], order)
