"""Elements and arithmetic of the twisted dihedral group algebra.

An algebra element is a vector of 2n field coefficients, held as integer
reps: coeffs[i] for i < n multiplies the rotation basis vector for x^i,
coeffs[n+i] multiplies the reflection basis vector for x^i y. The product
is twisted by the cocycle that takes the value lambda exactly on
reflection pairs.

Write a = a0 + a1*y with a0, a1 in F_q[x]/(x^n - 1). Left multiplication
by y only relabels: y*b = lambda*rev(b1) + rev(b0)*y, with rev(b)_j =
b_{-j mod n}, an O(n) map (`y_times`). So every product is rotation parts
times full elements,

    a*b = a0*b + a1*(y*b),

and a rotation x times b = b0 + b1*y is x*b0 + (x*b1)*y: two cyclic
convolutions, computed by Kronecker substitution. This docstring is the
kernel's one account; the functions below give their contracts. Each
coefficient is a position of 2m - 1 slots of W bits that holds its base-p
digits in the low m slots; `_pack` packs reps one position each, back to
back, so n reps give pack(b0) and 2n reps give pack(b) = pack(b0) +
pack(b1)*2^(n positions), with no pad. Rep 0 has all-zero digits, so a
zero rep is a zero position. `_fold` splits pack(b) at n positions and
makes the two n x n multiplies pack(x)*pack(b0) and pack(x)*pack(b1); it
folds each mod x^n - 1, adding its high n positions to its low n, and
puts them side by side: a row of 2n positions that holds the slots of x*b
before reduction, laid out as pack(x*b). x may be the pack of several
rotations, rows 2n positions apart; a row's folded high half runs into
the next row, and a mask of each row's low n positions drops it. An
element keeps pack(x) of all its 2n reps from its first product
(`_packed`).

An element holds its 2n reps as one `bytes` wherever q < 256 and as a
tuple where q >= 256 (`AlgebraParams.rep_type`); `reps()` is a tuple on
both. Where q < 256, `lam_mul` and `neg_lam_mul` are 256-byte tables, so
`scaled_times_y`, which every encaps, decaps and kex runs, maps an
element by two `bytes.translate` calls. Where m = 1 and p < 256 (the byte
route, `byte_reps`) a rep is its own single digit byte: `_pack`'s
`bytes(reps)` is reps itself, already the integer's little-endian bytes
for 8-bit slots, and for wider slots one strided write, `buf[::W/8] =
...` into a zeroed bytearray, puts each rep in the low byte of its slot;
an element serializes as its `bytes`, as `FieldParams.rep_bytes`[r] ==
bytes([r]) there. Elsewhere (the join route) `_pack` looks each rep up in
`slot_bytes`, its digits in little-endian slots, and joins the positions
once; reps serialize by a join of `FieldParams.rep_bytes`. The other maps
by lambda look reps up one at a time, as a 256-byte table indexes like a
list, and negation in `FieldParams.neg`. `rep_deserialize` checks every
serialized digit below p at once, and reads the reps as the digits where
m = 1, else by `FieldParams.reps_of_digits`.

The kernel has two entries, and both return x*b + c. `alg_product` makes
one row for a = a0 + a1*y: `_fold` of pack(a0) and pack(b), plus pack(c),
which adds each digit of c to its slot, with c zero where it is not given.
pack(a0) and pack(a1) are the low and the high n positions of a's kept
pack. For a rotation-only a, such as a secret's a', that row is all; with
a1 != 0 its reduced slots are the addend of a second row, `_fold` of
pack(a1) and pack(y*b). A `RotationBatch` is the dual: rotation-only left
operands joined once as the rows of one integer, so that one `_fold` by
pack(b), whose two multiplies make every row at once, plus pack(c) in
every row, holds x_k*b + c in row k. It returns each row's reduced slots,
not reps: every slot is below p and a position's m - 1 high slots are
zero, so the bytes encode x_k*b + c canonically, as the bytes of pack(x),
reduced already, encode x (`slot_key`); the solvers match them. A secret
pair makes its a' = a*phi(gamma) as `_fold` of pack(a0) and the n
reflection reps of gamma, whose b1 is zero: c1 is n zero positions, so
the reduced slots of that row are pack(a'), which a' keeps. A sum x + y
is pack(x) + pack(y) reduced as one row. These slots are the only packed
form of a rep.

A folded slot is a sum of at most n terms, at most n*m*(p-1)^2; an
addend adds a digit below p to each of the low m slots (a sum's slot
holds at most 2(p - 1)), and reduction mod f(t) adds m - 1 high slots
times digits below p: at most n*m*(p-1)^2*(1 + (m-1)(p-1)) + p - 1
(`slot_bound`). W is 8 bits when the bound is below 256, and otherwise
the fewest whole bytes, 16 to 64 bits, that hold it and leave room for
the reduction below (`kernel_slot_width`), so no slot carries into the
next. `_reduce` first, for m > 1, replaces the slots of t^m .. t^(2m-2)
by their multiples of t^k mod f(t) (`_fold_t`). 8-bit slots are then
reduced mod p by one `bytes.translate`. Wider slots are reduced inside
the big integer, by division by the invariant p as a multiply (Granlund
and Montgomery, PLDI 1994): with k and M = ceil(2^k / p) from
`slot_reciprocal`, floor(v*M / 2^k) = floor(v / p) for every v up to the
bound. The even slots, masked, lie 2W bits apart, and W makes bound*M <
2^(2W), so v*M stays below the next slot of its group and the quotient,
below 2^(2W - k), has its own field after the shift by k: one multiply by
M and one shift by k leave every quotient; the odd slots, shifted down by
W, the same; and one subtraction of p times the quotients leaves every
slot below p. A row's reduced slots are the little-endian bytes of its
pack. Then one read, all in C, takes the low byte of each slot by stride
where m = 1 and p < 256, and otherwise `FieldParams.reps_of_digits` joins
the m digit slots of all reps, row after row, by a big-integer Horner:
where q < 256 of the digit bytes taken at stride, one byte per rep, and
where q >= 256 of 2-byte lanes, which hold a rep (q <= MAX_Q) so that no
rep carries into the next, read by one little-endian `struct.unpack`.
"""

from __future__ import annotations

import itertools
import random
import struct
from dataclasses import dataclass, field as dataclass_field
from typing import Iterator, Optional, Sequence

from .errors import ParameterError
from .field import FieldElement, FieldParams, base_digits, is_square, rep_table
from .group import DihedralGroup


def slot_bound(p: int, m: int, n: int) -> int:
    """The largest value a slot of the product kernel reaches at (p, m, n)
    (module docstring)."""
    return n * m * (p - 1) ** 2 * (1 + (m - 1) * (p - 1)) + p - 1


def slot_reciprocal(p: int, bound: int) -> tuple[int, int]:
    """(k, M): the smallest k for which M = ceil(2^k / p) meets
    bound * (M*p - 2^k) < 2^k, which makes floor(v*M / 2^k) = floor(v / p)
    for every 0 <= v <= bound (Granlund and Montgomery, PLDI 1994)."""
    k = 0
    while True:
        mult = -(-(1 << k) // p)
        if bound * (mult * p - (1 << k)) < 1 << k:
            return k, mult
        k += 1


def kernel_slot_width(p: int, m: int, n: int) -> int:
    """Slot width W in bits of the product kernel at (p, m, n) (module
    docstring); raises ParameterError when not even 64 bits suffice."""
    bound = slot_bound(p, m, n)
    if bound < 256:
        return 8
    mult = slot_reciprocal(p, bound)[1]
    for bits in range(16, 65, 8):
        if bound < 1 << bits and bound * mult < 1 << 2 * bits:
            return bits
    raise ParameterError(
        f"product slots need more than 64 bits at p={p}, m={m}, n={n}")


class AlgebraParams:
    """Field, group, and the twisting non-square lambda, bundled, with the
    route and the O(q + n) tables of the product kernel (module docstring):
    `byte_reps`, true on the byte route; `rep_type` of an element's reps,
    `bytes` where q < 256 and else `tuple`, and `zero_half`, n zero reps of
    it; `lam_mul[rep]` and `neg_lam_mul[rep]`, the reps of lambda*rep and
    -lambda*rep, 256-byte `bytes` where q < 256; `slot_bytes[rep]`, one
    position of rep on the join route (else None); the masks of one row of
    2n positions; `_low`, of its low n; and for slots wider than 8 bits,
    (k, M) of `slot_reciprocal`.
    """

    def __init__(self, field: FieldParams, group: DihedralGroup,
                 lam: FieldElement):
        if lam.field != field:
            raise ParameterError("lambda must live in the given field")
        if lam.is_zero() or is_square(lam):
            raise ParameterError("lambda must be a non-square in F_q*")
        p, m, n = field.p, field.m, group.n
        self.slot_bits = kernel_slot_width(p, m, n)
        self.field = field
        self.group = group
        self.n, self.dim = n, group.order
        self.lam = lam
        self.byte_reps = m == 1 and p < 256
        self.rep_type = bytes if field.q < 256 else tuple
        self.zero_half = self.rep_type(bytes(n))
        exp, shift = field.exp, field.log[lam.rep]  # lambda * g^k = g^(k + shift)
        lam_mul = [0] + [exp[k + shift] for k in field.log[1:]]
        tables = lam_mul, [field.neg[r] for r in lam_mul]
        if self.rep_type is bytes:  # `translate` takes 256 entries; those past q - 1 are never read
            tables = [bytes(t).ljust(256, b"\0") for t in tables]
        self.lam_mul, self.neg_lam_mul = tables
        bits = self.slot_bits
        width = 2 * m - 1
        pos = width * bits
        self.slot_bytes = None
        if not self.byte_reps:
            slots = [d.to_bytes(bits // 8, "little") for d in range(p)]
            top = bytes((m - 1) * bits // 8)  # the m - 1 zero slots
            self.slot_bytes = rep_table([slots] * (m - 1) + [[d + top for d in slots]])
        # wider slots: `evens` has a 1 at the start of each of a row's pairs
        # of slots, and a quotient fills 2W - k bits there after the shift
        # by k. 8-bit slots take no masks.
        reduce = (0, 0)
        self._reciprocal = None
        if bits > 8:
            k, mult = self._reciprocal = slot_reciprocal(p, slot_bound(p, m, n))
            evens = int.from_bytes((b"\1" + bytes(bits // 4 - 1)) * (n * width), "little")
            reduce = (evens * ((1 << bits) - 1), evens * ((1 << (2 * bits - k)) - 1))
        # The masks of one row of 2n positions: for m > 1 slot 0 and the
        # low m slots of each position; `_reduce` repeats them for more
        # rows, keyed by the row count.
        ones = int.from_bytes((b"\1" + bytes(pos // 8 - 1)) * (2 * n), "little")
        self._masks = {1: (ones * ((1 << bits) - 1), ones * ((1 << (m * bits)) - 1), *reduce)}
        # m > 1: t^k mod f(t) in slots for k = m .. 2m-2
        self._fold_t = [
            (k * bits, sum(d << (i * bits) for i, d in
                           enumerate(field.digits_of(field.pow_rep(p, k)))))
            for k in range(m, 2 * m - 1)]
        # the bits of n positions and their mask, which `_fold` takes for
        # one row; the bytes of a slot and of a position
        self._npos = n * pos
        self._low = (1 << self._npos) - 1
        self._read = (bits // 8, pos // 8)

    def from_reps(self, reps: Sequence[int]) -> "AlgebraElement":
        reps = tuple(reps)
        if len(reps) != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {len(reps)}")
        if min(reps) < 0 or max(reps) >= self.field.q:
            raise ValueError(f"coefficient rep out of range for q={self.field.q}")
        return AlgebraElement(self, self.rep_type(reps))

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
    """Immutable vector of 2n field coefficients: `coeffs` holds the reps
    as `AlgebraParams.rep_type`, `bytes` where q < 256 and else a tuple,
    so equal elements compare and hash equal, and `reps()` as a tuple. The
    constructor trusts its reps; `AlgebraParams.from_reps` checks them.
    """

    __slots__ = ("params", "coeffs", "_int")

    def __init__(self, params: AlgebraParams, coeffs: bytes | tuple[int, ...],
                 packed: Optional[int] = None):
        self.params = params
        self.coeffs = coeffs
        self._int = packed  # pack(self), which `_packed` fills on first use

    def reps(self) -> tuple[int, ...]:
        return tuple(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def in_rotation_subalgebra(self) -> bool:
        return not any(self.coeffs[self.params.n:])

    def in_reflection_subspace(self) -> bool:
        return not any(self.coeffs[:self.params.n])

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        """pack(self) + pack(other), read as one product (see the module docstring)."""
        params = self.params
        s = _packed(params, self) + _packed(params, other)
        return AlgebraElement(params, _unpack(params, _reduce(params, s, 1)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + -other

    def __neg__(self) -> "AlgebraElement":
        params, neg = self.params, self.params.field.neg
        return AlgebraElement(params, params.rep_type([neg[c] for c in self.coeffs]))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return alg_product(self, other)

    def scale(self, c: FieldElement) -> "AlgebraElement":
        """Coefficient-wise multiplication by a field scalar."""
        params, mul = self.params, self.params.field.mul_rep
        return AlgebraElement(params, params.rep_type([mul(c.rep, x) for x in self.coeffs]))

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
    Construction checks this and that a and gamma share their params, then
    makes a_phi, a' = a*phi(gamma), by one kernel row, and a_phi keeps its
    pack (module docstring).
    """

    a: AlgebraElement
    gamma: AlgebraElement
    a_phi: AlgebraElement = dataclass_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.a.in_rotation_subalgebra():
            raise ValueError("secret 'a' must be supported on the rotation part")
        if not in_gamma(self.gamma):
            raise ValueError("secret 'gamma' must lie in the reversible subspace")
        if self.a.is_zero() or self.gamma.is_zero():
            raise ValueError("secret components must be nonzero")
        params, n = self.a.params, self.a.params.n
        _check_params(self.gamma, params)  # the kernel reads bare reps
        s = _fold(params, _pack(params, self.a.coeffs[:n]),
                  _pack(params, self.gamma.coeffs[n:]), params._low)
        slots = _reduce(params, s, 1)  # c1 is n zero positions
        a_phi = AlgebraElement(params, _unpack(params, slots), int.from_bytes(slots, "little"))
        object.__setattr__(self, "a_phi", a_phi)


def _check_params(x: AlgebraElement, params: AlgebraParams) -> None:
    if x.params is not params and (x.params != params or len(x.coeffs) != params.dim):
        raise ValueError("algebra elements have mismatched parameters")


def alg_product(a: AlgebraElement, b: AlgebraElement,
                c: Optional[AlgebraElement] = None) -> AlgebraElement:
    """Twisted product plus addend, a*b + c = a0*b + c + a1*(y*b), with c
    zero when None (module docstring)."""
    params = a.params
    x, low = _packed(params, a), params._low
    s = _fold(params, x & low, _packed(params, b), low)
    if c is not None:
        s += _packed(params, c)
    a1 = x >> params._npos
    if a1:  # a0*b + c, reduced, is the addend of a1*(y*b)
        s = (_fold(params, a1, _pack(params, y_times(b).coeffs), low)
             + int.from_bytes(_reduce(params, s, 1), "little"))
    return AlgebraElement(params, _unpack(params, _reduce(params, s, 1)))


def _packed(params: AlgebraParams, x: AlgebraElement) -> int:
    """pack(x) of all 2n reps, kept on x from its first use, after checking
    x's params."""
    if x.params is not params:
        _check_params(x, params)
    if x._int is None:
        x._int = _pack(params, x.coeffs)
    return x._int


def _pack(params: AlgebraParams, reps: Sequence[int]) -> int:
    """The kernel integer of reps, one position each (module docstring)."""
    if params.byte_reps:
        data = bytes(reps)
        slot = params._read[0]
        if slot > 1:  # each rep in the low byte of its slot
            buf = bytearray(len(data) * slot)
            buf[::slot] = data
            data = buf
        return int.from_bytes(data, "little")
    return int.from_bytes(b"".join(map(params.slot_bytes.__getitem__, reps)), "little")


def _fold(params: AlgebraParams, x: int, b: int, low: int) -> int:
    """The rows of x_k*b before reduction, for x the pack of one rotation
    or of several in rows 2n positions apart, and `low` the mask of the low
    n positions of each row (module docstring). No slot carries into the
    next: each stays within `slot_bound`."""
    npos = params._npos
    p0, p1 = x * (b & params._low), x * (b >> npos)
    return ((p0 + (p0 >> npos)) & low) + (((p1 + (p1 >> npos)) & low) << npos)


def _repeat(params: AlgebraParams, value: int, count: int) -> int:
    """value, at most one row of 2n positions, in each of count rows."""
    return int.from_bytes(value.to_bytes(2 * params._npos // 8, "little") * count, "little")


def _reduce(params: AlgebraParams, s: int, count: int) -> bytes:
    """The slots of each of `count` rows of s, folded (`_fold`) or a sum
    of packs, reduced mod f(t) and p (module docstring), as the
    little-endian bytes of each row's pack in turn."""
    masks = params._masks.get(count)
    if masks is None:  # those of one row, repeated for each row
        masks = params._masks[count] = tuple(
            _repeat(params, mask, count) for mask in params._masks[1])
    slot0, digits, evens, quotients = masks
    if params._fold_t:
        reduced = s & digits
        for shift, t_k in params._fold_t:
            reduced += ((s >> shift) & slot0) * t_k
        s = reduced
    p, bits = params.field.p, params.slot_bits
    if bits > 8:  # v - p*floor(v*M / 2^k) in every slot, the even and the odd slots at once
        k, mult = params._reciprocal
        s -= p * ((((s & evens) * mult >> k) & quotients)
                  + (((((s >> bits) & evens) * mult >> k) & quotients) << bits))
    slots = s.to_bytes(2 * count * params._npos // 8, "little")
    if bits == 8:  # a byte string is its own sequence of 8-bit slots
        slots = slots.translate(params.field.mod_p_bytes)
    return slots


def _unpack(params: AlgebraParams, slots: bytes) -> Sequence[int]:
    """The reps in slots from `_reduce`, row after row (module docstring)."""
    slot, step = params._read
    if params.byte_reps:  # a rep is the low byte of its one slot
        return slots if slot == 1 else slots[::slot]
    return params.field.reps_of_digits(slots, slot, step)


class RotationBatch:
    """Rotation-only left operands x_0, x_1, ..., as the rows of one
    integer, and their count (module docstring): one `_pack` of every
    left's 2n reps in turn lays each out in its own row, as a left's n
    reflection reps are zero. The solvers' capacity bounds alone size it:
    their batch of every phi(gamma) has q^(n//2+1) rows, at most 2401
    (66 KiB) at (7,1,7), t = 3."""

    def __init__(self, lefts: Sequence[AlgebraElement]):
        if not lefts or not all(x.in_rotation_subalgebra() for x in lefts):
            raise ValueError("expected rotation-only batch left operands, at least one")
        params = lefts[0].params
        for x in lefts:
            _check_params(x, params)
        self.params, self.count = params, len(lefts)
        self._int = _pack(params, list(itertools.chain.from_iterable(x.coeffs for x in lefts)))
        self._low = _repeat(params, params._low, self.count)
        # splits `_reduce`'s bytes into the rows' slot bytes, all in C
        self._rows = struct.Struct(f"{2 * params._npos // 8}s" * self.count).unpack

    def times(self, b: AlgebraElement,
              addend: Optional[AlgebraElement] = None) -> tuple[bytes, ...]:
        """slot_key(x_k*b + c) for every k in order, with c the addend or
        zero, in one kernel call; `_unpack` reads a row's reps."""
        params = self.params
        s = _fold(params, self._int, _packed(params, b), self._low)
        if addend is not None:
            s += _repeat(params, _packed(params, addend), self.count)
        return self._rows(_reduce(params, s, self.count))


def slot_key(x: AlgebraElement) -> bytes:
    """The bytes of pack(x) as one row, as a batch row of x holds them: the
    slots of a pack are reduced already (module docstring)."""
    params = x.params
    return _packed(params, x).to_bytes(2 * params._npos // 8, "little")


def adjunct(a: AlgebraElement, params: Optional[AlgebraParams] = None) -> AlgebraElement:
    """c[inverse(i)] = a[i] * alpha(i, inverse(i)).

    The inverse of rotation x^i is x^(n-i), with alpha 1; a reflection is
    its own inverse, with alpha lambda.
    """
    params = params or a.params
    n, lam_mul, c, reps = params.n, params.lam_mul, a.coeffs, params.rep_type
    return AlgebraElement(params, c[:1] + c[n - 1:0:-1] + reps([lam_mul[v] for v in c[n:]]))


def phi(a: AlgebraElement) -> AlgebraElement:
    """Transport reflection coefficients to the rotation slots."""
    if not a.in_reflection_subspace():
        raise ValueError("phi expects an element of the reflection subspace")
    params = a.params
    return AlgebraElement(params, a.coeffs[params.n:] + params.zero_half)


def times_y(x: AlgebraElement) -> AlgebraElement:
    """x*y = lambda*x1 + x0*y: the halves swap and lambda scales x1, O(n)."""
    n, lam_mul, c, reps = x.params.n, x.params.lam_mul, x.coeffs, x.params.rep_type
    return AlgebraElement(x.params, reps([lam_mul[v] for v in c[n:]]) + c[:n])


def scaled_times_y(x: AlgebraElement, s_mul: Sequence[int]) -> AlgebraElement:
    """s*(x*y) = s*lambda*x1 + (s*x0)*y, for the scalar s with s_mul[rep]
    the rep of s*rep, O(n); s_mul is `lam_mul` or `neg_lam_mul` of
    `AlgebraParams`."""
    params, c = x.params, x.coeffs
    n, lam = params.n, params.lam_mul
    if params.rep_type is bytes:
        return AlgebraElement(params, (c[n:].translate(lam) + c[:n]).translate(s_mul))
    lam, s = lam.__getitem__, s_mul.__getitem__
    return AlgebraElement(params, (*map(s, map(lam, c[n:])), *map(s, c[:n])))


def y_times(x: AlgebraElement) -> AlgebraElement:
    """y*x = lambda*rev(x1) + rev(x0)*y, the left-hand twin of `times_y`, O(n)."""
    n, lam_mul, c, reps = x.params.n, x.params.lam_mul, x.coeffs, x.params.rep_type
    return AlgebraElement(x.params, reps([lam_mul[v] for v in c[n:n + 1] + c[:n:-1]])
                          + c[:1] + c[n - 1:0:-1])


def in_gamma(a: AlgebraElement) -> bool:
    """Membership in the reversible subspace: reflection-supported, a_i = a_{n-i}."""
    n = a.params.n
    reps = a.coeffs
    return a.in_reflection_subspace() and reps[n + 1:] == reps[:n:-1]


def gamma_from_free(params: AlgebraParams, free: Sequence[int]) -> AlgebraElement:
    """The element of the reversible subspace with reflection coefficients
    `free` at x^0 .. x^(n//2) y, mirrored so that coefficient n - j equals
    coefficient j; free must hold exactly n//2 + 1 reps."""
    n = params.n
    g = params.rep_type(free)
    if len(g) != n // 2 + 1:
        raise ValueError(f"expected {n // 2 + 1} free coefficients, got {len(g)}")
    return AlgebraElement(params, params.zero_half + g + g[n - len(g):0:-1])


def sample_gamma(params: AlgebraParams, rng: random.Random) -> AlgebraElement:
    """Uniform element of the reversible subspace (free coefficients mirrored)."""
    return gamma_from_free(params, params.field.random_reps(rng, params.n // 2 + 1))


def sample_subspace(which: str, params: AlgebraParams,
                    rng: random.Random) -> AlgebraElement:
    """Uniform sample from C_n / C_n*y / the full algebra / the public-h shape."""
    field, n, reps, zero = params.field, params.n, params.rep_type, params.zero_half
    if which == "C_n":
        return AlgebraElement(params, reps(field.random_reps(rng, n)) + zero)
    if which == "C_n_y":
        return AlgebraElement(params, zero + reps(field.random_reps(rng, n)))
    if which == "full":
        return AlgebraElement(params, reps(field.random_reps(rng, 2 * n)))
    if which == "h_element":  # a nonzero rotation half and a nonzero reflection half
        return AlgebraElement(params, reps(field.nonzero_reps(rng, n))
                              + reps(field.nonzero_reps(rng, n)))
    raise ValueError(f"unknown subspace {which!r}")


def secret_pair(params: AlgebraParams, a: Sequence[int], free: Sequence[int]) -> SecretPair:
    """The pair of the n rotation reps a and gamma's free reps (`gamma_from_free`)."""
    return SecretPair(AlgebraElement(params, params.rep_type(a) + params.zero_half),
                      gamma_from_free(params, free))


def sample_secret_pair(params: AlgebraParams, rng: random.Random) -> SecretPair:
    """Uniform nonzero (a, gamma) secret pair: the n reps of a, then the
    n//2 + 1 free reps of gamma, each drawn again while all zero."""
    field, n = params.field, params.n
    return secret_pair(params, field.nonzero_reps(rng, n), field.nonzero_reps(rng, n // 2 + 1))


def iter_gamma(params: AlgebraParams) -> Iterator[AlgebraElement]:
    """Enumerate the whole reversible subspace, q^ceil((n+1)/2) elements,
    the first free coefficient fastest."""
    for free in itertools.product(range(params.field.q), repeat=params.n // 2 + 1):
        yield gamma_from_free(params, free[::-1])


def index_h_inv(value: int, params: AlgebraParams) -> AlgebraElement:
    """The element whose 2n reps are the base-q digits of value, lowest first."""
    q = params.field.q
    if not 0 <= value < q ** params.dim:
        raise ValueError("index out of range")
    return AlgebraElement(params, params.rep_type(base_digits(value, q, params.dim)))


def rep_serialize(x) -> bytes:
    """Canonical injective byte encoding of an algebra element (or a pair):
    the `FieldParams.rep_bytes` of each rep in turn."""
    if isinstance(x, AlgebraElement):
        if x.params.byte_reps:
            return x.coeffs
        return b"".join(map(x.params.field.rep_bytes.__getitem__, x.coeffs))
    # duck-typed two-component ciphertext
    if hasattr(x, "c1") and hasattr(x, "c2"):
        return rep_serialize(x.c1) + rep_serialize(x.c2)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def rep_deserialize(data: bytes, params: AlgebraParams) -> AlgebraElement:
    """The element that `rep_serialize` encodes as data: its digits, a byte
    each where p < 256, else (m = 1 under MAX_Q) one big-endian 2-byte
    digit per rep. Raises ValueError on a wrong length or a digit >= p."""
    field, dim = params.field, params.dim
    expect = dim * len(field.rep_bytes[0])
    if len(data) != expect:
        raise ValueError(f"expected {expect} bytes, got {len(data)}")
    digits = data if field.p < 256 else struct.unpack(f">{dim}H", data)
    if max(digits) >= field.p:
        raise ValueError("digit out of range in serialized element")
    reps = digits if field.m == 1 else field.reps_of_digits(data, 1, field.m)
    return AlgebraElement(params, params.rep_type(reps))
