"""Arithmetic in F_q with q = p^m, p an odd prime, in polynomial basis.

Elements are vectors of m base-p digits (ascending degree) modulo a monic
irreducible polynomial, named by their integer representation
rep = sum digit_i * p^i. Each field builds O(q) tables once: log/antilog
tables from the powers of a primitive element, found on plain ints where
m = 1 and by the polynomial helpers only where m > 1, and the negation
and the bytes of each rep, built a digit at a time by `rep_table`. Reps
add digit-wise mod p; sums of whole algebra elements go through the
product kernel's packed slots (algebra.py). All arithmetic is on reps, by
`FieldParams.*_rep`; a `FieldElement` is a typed handle with no
arithmetic, for lambda and cocycle values.

Where p < 256 a digit is one byte, and digits are read in C: the sampler
takes the top byte of each random word and rejects and shifts all of them
by one `bytes.translate`, and `FieldParams.reps_of_digits` joins the m
digit bytes of every rep at once, for the sampler, the KEM's hash and the
product kernel's read alike.

NOT FOR PRODUCTION USE: word-size parameters, variable-time arithmetic.
"""

from __future__ import annotations

import math
import random
import sys
from typing import Optional, Sequence

from .errors import ParameterError

# Sampler words and the lanes of reps are unpacked in native byte order;
# on a big-endian host that lists them last first.
NATIVE_STEP = 1 if sys.byteorder == "little" else -1

# Native lanes a rep is read into when q >= 256, with their memoryview typecodes.
LANE_TYPES = ((2, "H"), (4, "I"), (8, "Q"))


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


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    binv = pow(b[-1], -1, p)
    db = len(b) - 1
    quo = [0] * max(0, len(a) - db)
    while len(a := list(_trim(a))) > db:
        da = len(a) - 1
        coef = (a[-1] * binv) % p
        quo[da - db] = coef
        for i in range(len(b)):
            a[da - db + i] = (a[da - db + i] - coef * b[i]) % p
    return _trim(quo), _trim(a)


def _poly_mod(a, f, p):
    return _poly_divmod(a, f, p)[1]


def _poly_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


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
    """Check a monic polynomial over F_p for irreducibility.

    A reducible degree-m polynomial has an irreducible factor of degree
    k <= m/2, which divides x^{p^k} - x; so it suffices that
    gcd(x^{p^k} - x, f) is constant for k = 1..m//2.
    """
    f = _trim(modulus)
    m = len(f) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    x = (0, 1)
    cur = x
    for _ in range(m // 2):
        cur = _poly_powmod(cur, p, f, p)  # now x^{p^k} mod f
        g = _poly_gcd(_poly_sub(cur, x, p), f, p)
        if len(g) > 1:
            return False
    return True


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

    Construction builds the O(q) tables that arithmetic on integer reps
    reads, indexed by rep or by the discrete logarithm k to a generator g
    of F_q*; a rep has no packed form, and `add_rep` adds digits mod p.
    `neg` and `rep_bytes` are built by `rep_table`:

    - `exp[k]`: the rep of g^k, over two periods so that a sum of two logs
      needs no reduction; `log[rep]`: its inverse (None at rep 0);
    - `neg[rep]`: the rep of the negation;
    - `rep_bytes[rep]`: the canonical serialization, digits ascending, each
      big-endian in `digit_width_bytes(p)` bytes; `bytes_rep` inverts it.
      Where m = 1 and p < 256, rep_bytes[rep] == bytes([rep]), and
      `rep_serialize` takes that byte route without it; `rep_deserialize`
      looks each rep up in `bytes_rep` on both routes;
    - where p < 256 (else None), `mod_p_bytes`, the `bytes.translate`
      table of b mod p for every byte b, and the sampler's table and
      deletions (see `random_reps`);
    - the bytes and memoryview typecode of the lane a rep is read into by
      `reps_of_digits`: 1 when q < 256, else the smallest of LANE_TYPES
      that holds q - 1.
    """

    def __init__(self, p: int, m: int = 1, modulus: Optional[Sequence[int]] = None):
        # the sampler's precondition; checked first, it also bounds factorize
        if p.bit_length() > 32:
            raise ParameterError(f"p={p} must be below 2**32")
        if p < 3 or factorize(p) != [(p, 1)]:
            raise ParameterError(f"p={p} must be an odd prime")
        if m < 1:
            raise ParameterError(f"m={m} must be >= 1")
        if modulus is None:
            modulus = find_irreducible(p, m)
        else:  # only a caller's modulus needs checking
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != m + 1 or modulus[m] != 1:
                raise ParameterError("modulus must be monic of degree m")
            if not is_irreducible(modulus, p):
                raise ParameterError("modulus is not irreducible over F_p")
        self.p = p
        self.m = m
        self.modulus = modulus
        self.q = q = p ** m
        self._sample_shift = 32 - p.bit_length()
        powers = self._primitive_powers()
        self.exp = powers + powers
        self.log: list[Optional[int]] = [None] * q
        for k, rep in enumerate(powers):
            self.log[rep] = k
        negated = [0, *range(p - 1, 0, -1)]  # -d mod p for each digit d
        self.neg = rep_table([[d * p ** i for d in negated] for i in range(m)])
        width = digit_width_bytes(p)
        self.rep_bytes = rep_table([[d.to_bytes(width, "big") for d in range(p)]] * m)
        self.bytes_rep = dict(zip(self.rep_bytes, range(q)))
        self.mod_p_bytes = self._sample_bytes = None
        if p < 256:  # a sampled digit is the top byte of a word >> s, kept below p << s
            s = 8 - p.bit_length()
            self.mod_p_bytes = (bytes(range(p)) * (256 // p + 1))[:256]
            self._sample_bytes = (bytes([b >> s for b in range(256)]),
                                  bytes(range(p << s, 256)))
        self._lane = (1, "B") if q < 256 else next(
            (size, code) for size, code in LANE_TYPES if q <= 1 << 8 * size)

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
        """Element from an integer (for m=1, or a rep) or a digit sequence."""
        if isinstance(digits, int):
            return self.from_rep(digits % self.q)
        ds = tuple(int(d) % self.p for d in digits)
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

    def random_reps(self, rng: random.Random, count: int) -> list[int]:
        """`count` uniform reps, as count * m `rng.randrange(p)` calls draw them.

        randrange(p) keeps the top p.bit_length() bits of one 32-bit word per
        attempt and rejects values >= p; getrandbits(32 * k) returns k such
        words, first lowest. Each refill asks only for the digits still
        missing, so the reps (m digits each, lowest first) and the state of
        `rng` afterwards equal those of the randrange calls. Where p < 256 a
        digit is the top byte b of its word shifted by s = 8 - p.bit_length(),
        so a refill is the bytes of the words taken at stride 4 from the top
        byte of the first, then one `translate` that deletes every b >=
        p << s and maps the rest to b >> s; `reps_of_digits` joins them for
        m > 1. Needs p < 2**32, checked on construction. SystemRandom words
        are uniform, so its reps are too.
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
            return list(data if m == 1 else self.reps_of_digits(data, 1, m))
        shift = self._sample_shift
        digits: list[int] = []
        while len(digits) < need:
            k = need - len(digits)
            words = rng.getrandbits(32 * k).to_bytes(4 * k, sys.byteorder)
            digits += [d for w in memoryview(words).cast("I")[::NATIVE_STEP]
                       if (d := w >> shift) < p]
        if m == 1:
            return digits
        reps = [0] * count
        for d in reversed(range(m)):
            reps = [r * p + v for r, v in zip(reps, digits[d::m])]
        return reps

    def reps_of_digits(self, data: bytes, slot: int, step: int) -> tuple[int, ...]:
        """The reps whose digits `data` holds, one rep every `step` bytes:
        digit d of a rep, lowest first, in the low digit_width_bytes(p)
        bytes, little-endian, of the `slot` bytes at d * slot.

        Where q < 256 the digit bytes of each d are taken at stride `step`
        and joined by a big-integer Horner, one byte per rep; where q >= 256
        each digit's bytes are first gathered into native lanes that hold a
        rep, so no rep carries into the next, and read by one memoryview
        cast.
        """
        p, m = self.p, self.m
        lane, code = self._lane
        if lane == 1:
            reps = int.from_bytes(data[(m - 1) * slot::step], "little")
            for d in reversed(range(m - 1)):
                reps = reps * p + int.from_bytes(data[d * slot::step], "little")
            return tuple(reps.to_bytes(len(data) // step, "little"))
        total, reps = len(data) // step, 0
        for d in reversed(range(m)):
            lanes = bytearray(lane * total)
            for j in range(digit_width_bytes(p)):
                lanes[j::lane] = data[d * slot + j::step]
            reps = reps * p + int.from_bytes(lanes, "little")
        # native lanes, which a big-endian host lists last first
        native = memoryview(reps.to_bytes(lane * total, sys.byteorder)).cast(code)
        return tuple(native[::NATIVE_STEP])

    def random_unit(self, rng: random.Random) -> "FieldElement":
        while True:
            (rep,) = self.random_reps(rng, 1)
            if rep != 0:
                return self.from_rep(rep)


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
