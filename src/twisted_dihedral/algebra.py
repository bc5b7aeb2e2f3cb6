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
convolutions, computed by Kronecker substitution. Each coefficient is a
position of 2m - 1 slots of W bits that holds its base-p digits in the
low m slots; `_pack` packs one element: n reps as n positions, 2n reps
as b0 + b1*Y with Y = 2^(2n positions), one more than an n x n
convolution needs. So pack(x)*pack(b) holds, before reduction mod
x^n - 1, x*b0 in block 0 and x*b1 in block 1, with no cross terms: one
row of 4n positions. An element keeps pack(x) of all its 2n reps from its
first product (`_packed`).

`_pack` takes one of two routes, which `AlgebraParams` chooses once from
(p, m). Where m = 1 and p < 256 a rep is its own single digit byte (the
byte route): `bytes(reps)` with n zero bytes put after the first n is
already the integer's little-endian bytes for 8-bit slots, and for wider
slots one strided write, `buf[::W/8] = ...` into a zeroed bytearray, puts
each rep in the low byte of its slot, the mirror of `_unpack`'s strided
read. Rep 0 has all-zero digits, so a zero rep is a zero position. The
byte route also serializes an element as `bytes(reps)`, and
`scaled_times_y`, which every encaps, decaps and kex runs, maps its reps
by two `bytes.translate` through 256-byte tables. Where m > 1 or p >= 256
(the join route) each rep is looked up in `slot_bytes`, its digits in
little-endian slots, and the positions of each half are joined, with a
zero block between them; reps serialize by a join of
`FieldParams.rep_bytes`. The other maps by lambda look reps up one at a
time on both routes, as a 256-byte table indexes like a list, and
negation looks them up in `FieldParams.neg`.

`rotation_products` returns every x*b_k + c_k for a rotation-only x,
right operands b_k and addends c_k (those of the first rows), from one
multiply and one `_unpack`. Rows lie Z = 2^(4n positions) apart, shifted
together from the kept integers (`_stack`), so

    S = pack(x) * sum_k pack(b_k)*Z^k + sum_k pack(c_k)*Z^k.

The n positions of x times the 3n of pack(b_k) fill 4n - 1, so rows never
overlap; pack(c_k) lands in the low n positions of blocks 0 and 1 of row
k, which the fold keeps, so the addend counts once. `alg_product` with a
rotation-only a, such as a secret's a', is the one-row case, and with
a1 != 0 it is a1*(y*b) with the addend a0*b. A `RotationBatch` is the
dual: rotation-only left operands joined once as the rows of one
integer, so that one multiply by pack(b), plus pack(c) in every row,
holds x_k*b + c in row k. It returns each row's reduced slots, not
reps: every slot is below p and a position's m - 1 high slots are zero,
so the bytes encode x_k*b + c canonically, as `slot_key` does x; the
solvers match them. A sum x + y is pack(x) + pack(y) read as one row:
the fold adds only zero pad positions, and a slot holds at most
2(p - 1), within the bound below. These slots are the only packed form
of a rep.

A folded slot holds at most n*m*(p-1)^2, an addend adds a digit below p
to each of the low m slots, and reduction mod f(t) adds m - 1 high slots
times digits below p: at most n*m*(p-1)^2*(1 + (m-1)(p-1)) + p - 1
(`slot_bound`). W is 8 bits when the bound is below 256, and otherwise
the fewest whole bytes that hold it and leave room for the reduction
below (`kernel_slot_width`), so no slot carries into the next. 8-bit
slots are reduced mod p by one `bytes.translate`. Wider slots are reduced
inside the big integer, by division by the invariant p as a multiply
(Granlund and Montgomery, PLDI 1994): with k and M = ceil(2^k / p) from
`slot_reciprocal`, floor(v*M / 2^k) = floor(v / p) for every v up to the
bound. The even slots, masked, lie 2W bits apart and bound*M < 2^(2W), so
one multiply by M and one shift by k leave each quotient in its own
field; the odd slots, shifted down by W, the same; and one subtraction of
p times the quotients leaves every slot below p. Then one read, all in
C, takes the low byte of each slot by stride where m = 1 and p < 256, and
otherwise `FieldParams.reps_of_digits` joins the m digit slots of all
reps: by a big-integer Horner, or when q >= 256 through native lanes
that hold a rep, read by one memoryview cast. A secret pair makes its
a' = a*phi(gamma) as pack(a0) times the n reflection reps of gamma: c1
is n zero reps, so the reduced slots of that row (`_reduce`) are pack(a').
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dataclass_field
from typing import Iterator, Optional, Sequence

from .errors import ParameterError
from .field import FieldElement, FieldParams, base_digits, is_square, rep_table
from .group import DihedralGroup


def slot_bound(p: int, m: int, n: int) -> int:
    """What a slot of the product kernel can reach at (p, m, n): a row's n
    terms of m digit products each, the reduction of m - 1 high digits by
    multiples of digits below p, and an addend's digit below p,
    n * m * (p-1)^2 * (1 + (m-1)(p-1)) + p - 1 (see the module docstring)."""
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
    """Slot width in bits of the product kernel at (p, m, n).

    8 bits when `slot_bound` is below 256. Otherwise the smallest multiple
    of 8 bits from 16 to 64 that holds the bound and leaves room for the
    reduction of `_unpack`: with (k, M) from `slot_reciprocal`, bound * M
    < 2^(2W), so v*M of a slot stays below the next slot of its group,
    2W bits up, and the quotient floor(v*M / 2^k) < 2^(2W - k) fits below
    the low bits of that next product. Raises ParameterError when not even
    64 bits suffice.
    """
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
    """Field, group, and the twisting non-square lambda, bundled.

    Construction decides the route of a rep (see the module docstring):
    `byte_reps` is true where m = 1 and p < 256, so that a rep is one byte
    digit; `_pack`, `rep_serialize` and `scaled_times_y` then run on byte
    strings. It also builds the O(q + n) tables of the product kernel:

    - `lam_mul[rep]` and `neg_lam_mul[rep]`: the reps of lambda * rep and
      -lambda * rep; on the byte route each is a 256-byte `bytes`, the
      `translate` table of `scaled_times_y`, which indexes like a list for
      the other maps;
    - on the join route, `slot_bytes[rep]`: one position of the kernel,
      the base-p digits of rep in little-endian slots of `slot_bits` bits,
      then m - 1 zero slots, joined a digit at a time by
      `field.rep_table` (None on the byte route);
    - the fold masks and constants; for slots wider than 8 bits (k, M)
      of `slot_reciprocal` and the masks of the even slots and of their
      quotient fields (8-bit slots, which hold only p < 256, are reduced
      by `FieldParams.mod_p_bytes`).
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
        exp, shift = field.exp, field.log[lam.rep]  # lambda * g^k = g^(k + shift)
        lam_mul = [0] + [exp[k + shift] for k in field.log[1:]]
        tables = lam_mul, [field.neg[r] for r in lam_mul]
        if self.byte_reps:  # `translate` takes 256 entries; those past q - 1 are never read
            tables = [bytes(t).ljust(256, b"\0") for t in tables]
        self.lam_mul, self.neg_lam_mul = tables
        bits = self.slot_bits
        width = 2 * m - 1
        pos = width * bits
        if self.byte_reps:  # n zero bytes after each n reps, before the spread
            self.slot_bytes, self._pad = None, bytes(n)
        else:
            slots = [d.to_bytes(bits // 8, "little") for d in range(p)]
            top = bytes((m - 1) * bits // 8)  # the m - 1 zero slots
            self.slot_bytes = rep_table([slots] * (m - 1) + [[d + top for d in slots]])
            self._pad = bytes(n * pos // 8)  # fills a block after n positions
        # wider slots: slot i of a group (the even slots, or the odd moved
        # down) starts 2W bits after slot i - 1, and its quotient fills
        # 2W - k bits there after the shift by k; `evens` has a 1 at the
        # start of each of a row's pairs of slots. 8-bit slots take no masks.
        reduce = (0, 0)
        self._reciprocal = None
        if bits > 8:
            k, mult = self._reciprocal = slot_reciprocal(p, slot_bound(p, m, n))
            evens = int.from_bytes((b"\1" + bytes(bits // 4 - 1)) * (2 * n * width), "little")
            reduce = (evens * ((1 << bits) - 1), evens * ((1 << (2 * bits - k)) - 1))
        # The fold masks of one row (blocks 0 and 1): the low n positions
        # of both blocks, those of block 0, and for m > 1 slot 0 and the
        # low m slots of each position that the folded c0 and c1 fill.
        # `_unpack` adds those of more rows, keyed by the row count.
        low = (1 << n * pos) - 1
        ones = int.from_bytes((b"\1" + bytes(pos // 8 - 1)) * (2 * n), "little")
        self._masks = {1: (low | (low << 2 * n * pos), low, ones * ((1 << bits) - 1),
                           ones * ((1 << (m * bits)) - 1), *reduce)}
        # m > 1: t^k mod f(t) in slots for k = m .. 2m-2
        self._fold_t = [
            (k * bits, sum(d << (i * bits) for i, d in
                           enumerate(field.digits_of(field.pow_rep(p, k)))))
            for k in range(m, 2 * m - 1)]
        # the bits of n positions; the bytes of a slot and of a position
        self._npos = n * pos
        self._read = (bits // 8, pos // 8)

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

    __slots__ = ("params", "coeffs", "_int")

    def __init__(self, params: AlgebraParams, coeffs: tuple[int, ...],
                 packed: Optional[int] = None):
        self.params = params
        self.coeffs = coeffs
        self._int = packed  # pack(self), which `_packed` fills on first use

    def reps(self) -> tuple[int, ...]:
        return self.coeffs

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
        neg = self.params.field.neg
        return AlgebraElement(self.params, tuple([neg[c] for c in self.coeffs]))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return alg_product(self, other)

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
    Construction checks this and that a and gamma share their params, then
    makes a_phi, a' = a*phi(gamma), by one kernel call (the rotation reps of
    phi(gamma) are the reflection reps of gamma), whose slots are pack(a'):
    a_phi keeps them as its kernel integer, so no product packs it again.
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
        s = _pack(params, self.a.coeffs[:n]) * _pack(params, self.gamma.coeffs[n:])
        slots = _reduce(params, s, 1)  # c1 is n zero positions
        a_phi = AlgebraElement(params, _unpack(params, slots), int.from_bytes(slots, "little"))
        object.__setattr__(self, "a_phi", a_phi)


def _check_params(x: AlgebraElement, params: AlgebraParams) -> None:
    if x.params is not params and (x.params != params or len(x.coeffs) != params.dim):
        raise ValueError("algebra elements have mismatched parameters")


def alg_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Twisted product a*b = a0*b + a1*(y*b) (see the module docstring).

    A rotation-only a is the one-row case of the kernel behind
    `rotation_products`. Otherwise a1*(y*b) takes a0*b as its addend, one
    more multiply.
    """
    params, ac = a.params, a.coeffs
    n = params.n
    if not any(ac[n:]):  # pack(a) is pack(a0)
        return AlgebraElement(params, _unpack(params, _reduce(
            params, _packed(params, a) * _packed(params, b), 1)))
    c = _unpack(params, _reduce(params, _pack(params, ac[:n]) * _packed(params, b), 1))
    s = _pack(params, ac[n:]) * _pack(params, y_times(b).coeffs) + _pack(params, c)
    return AlgebraElement(params, _unpack(params, _reduce(params, s, 1)))


def rotation_products(x: AlgebraElement, rights: Sequence[AlgebraElement],
                      addends: Sequence[AlgebraElement] = ()) -> list[AlgebraElement]:
    """x*b_k + c_k for every right operand b_k and addend c_k, in order,
    from one multiply; x must be rotation-only, and the addends go to the
    first len(addends) rows."""
    params = x.params
    n = params.n
    if any(x.coeffs[n:]):
        raise ValueError("the left operand must be rotation-only")
    if not rights or len(addends) > len(rights):
        raise ValueError("expected right operands, and at most one addend each")
    s = _packed(params, x) * _stack(params, rights) + _stack(params, addends)
    reps = _unpack(params, _reduce(params, s, len(rights)))
    dim = params.dim
    return [AlgebraElement(params, reps[i:i + dim]) for i in range(0, len(reps), dim)]


def _stack(params: AlgebraParams, elements: Sequence[AlgebraElement]) -> int:
    """pack(e_k) in row k, Z apart, for a few rows; `_packed` checks params."""
    rows, shift = 0, 4 * params._npos
    for e in reversed(elements):
        rows = rows << shift | _packed(params, e)
    return rows


def _packed(params: AlgebraParams, x: AlgebraElement) -> int:
    """pack(x) of all 2n reps, kept on x from its first use, after checking
    x's params; a zero rep packs as a zero position, so x = x0 gives pack(x0)."""
    if x.params is not params:
        _check_params(x, params)
    if x._int is None:
        x._int = _pack(params, x.coeffs)
    return x._int


def _pack(params: AlgebraParams, reps: Sequence[int]) -> int:
    """The kernel integer of one element's reps: n reps as n positions,
    and 2n reps as b0 + b1*Y, n zero positions after b0.

    On the byte route, `bytes(reps)` with n zero bytes after the first n,
    spread by one strided write for slots wider than a byte; on the join
    route, two joins of `slot_bytes` around the pad. Both give one integer.
    """
    n = params.n
    if params.byte_reps:
        data = bytes(reps)
        if len(data) > n:
            data = data[:n] + params._pad + data[n:]
        slot = params._read[0]
        if slot > 1:  # each rep in the low byte of its slot
            buf = bytearray(len(data) * slot)
            buf[::slot] = data
            data = buf
        return int.from_bytes(data, "little")
    sb = params.slot_bytes.__getitem__
    data = b"".join(map(sb, reps[:n]))
    if len(reps) > n:
        data += params._pad + b"".join(map(sb, reps[n:]))
    return int.from_bytes(data, "little")


def _reduce(params: AlgebraParams, s: int, count: int) -> bytes:
    """The slots of each of `count` products in turn, every one below p;
    row k of s is the k-th, and lies 4n positions apart in the bytes (`_rows`).

    Adding each block's high n positions to its low n folds c0 and c1 mod
    x^n - 1, and moving c1 down next to c0 leaves product k in the low 2n
    positions of row k. For m > 1 the slots of t^m .. t^(2m-2) are then
    replaced by their multiples of t^k mod f(t). Every slot is then
    reduced mod p, by `translate` for 8-bit slots and in the integer for
    wider ones (see the module docstring). The slots of one product are
    the little-endian bytes of its pack.
    """
    npos = params._npos
    masks = params._masks.get(count)
    if masks is None:  # those of one row, repeated for each row
        row = 4 * npos // 8
        masks = params._masks[count] = tuple(
            int.from_bytes(mask.to_bytes(row, "little") * count, "little")
            for mask in params._masks[1])
    even, low, slot0, digits, evens, quotients = masks
    t = (s & even) + ((s >> npos) & even)
    folded = (t & low) + (t >> npos)
    if params._fold_t:
        reduced = folded & digits
        for shift, t_k in params._fold_t:
            reduced += ((folded >> shift) & slot0) * t_k
        folded = reduced
    p, bits = params.field.p, params.slot_bits
    if bits > 8:  # v - p*floor(v*M / 2^k) in every slot, the even and the odd slots at once
        k, mult = params._reciprocal
        folded -= p * ((((folded & evens) * mult >> k) & quotients)
                       + (((((folded >> bits) & evens) * mult >> k) & quotients) << bits))
    slots = folded.to_bytes((4 * count - 2) * npos // 8, "little")
    if bits == 8:  # a byte string is its own sequence of 8-bit slots
        slots = slots.translate(params.field.mod_p_bytes)
    return slots


def _rows(params: AlgebraParams, slots: bytes) -> list[bytes]:
    """The read region, the low 2n positions, of each row in slots from `_reduce`."""
    size, stride = 2 * params._npos // 8, 4 * params._npos // 8
    return [slots[i:i + size] for i in range(0, len(slots), stride)]


def _unpack(params: AlgebraParams, slots: bytes) -> tuple[int, ...]:
    """The reps in slots from `_reduce`, row by row: digit d is slot d of a position."""
    if len(slots) > 2 * params._npos // 8:  # more than one row
        slots = b"".join(_rows(params, slots))
    slot, step = params._read
    if params.byte_reps:  # a rep is the low byte of its one slot
        return tuple(slots if slot == 1 else slots[::slot])
    return params.field.reps_of_digits(slots, slot, step)


class RotationBatch:
    """Rotation-only left operands x_0, x_1, ..., their kept integers joined
    as the rows of one integer, and their count (module docstring). The
    solvers' capacity bounds alone size it: their batch of every phi(gamma)
    has q^(n//2+1) rows, at most 2401 (131 KiB) at (7,1,7), t = 3."""

    def __init__(self, lefts: Sequence[AlgebraElement]):
        if not lefts or not all(x.in_rotation_subalgebra() for x in lefts):
            raise ValueError("expected rotation-only batch left operands, at least one")
        params = lefts[0].params
        self.params, self.count = params, len(lefts)
        # each x_k's integer in a row of 4n positions; joining rows is linear
        row = 4 * params._npos // 8
        self._int = int.from_bytes(b"".join(
            [_packed(params, x).to_bytes(row, "little") for x in lefts]), "little")

    def times(self, b: AlgebraElement,
              addend: Optional[AlgebraElement] = None) -> list[bytes]:
        """slot_key(x_k*b + c) for every k in order, with c the addend or
        zero, from one multiply; pack(c) is added to every row, as
        `rotation_products` adds its addends. `_unpack` reads a row's reps."""
        params = self.params
        s = self._int * _packed(params, b)
        if addend is not None:
            row = _packed(params, addend).to_bytes(4 * params._npos // 8, "little")
            s += int.from_bytes(row * self.count, "little")
        return _rows(params, _reduce(params, s, self.count))


def slot_key(x: AlgebraElement) -> bytes:
    """The reduced slots of pack(x) read as one row, as a batch row of x holds them."""
    params = x.params
    return _reduce(params, _packed(params, x), 1)


def adjunct(a: AlgebraElement, params: Optional[AlgebraParams] = None) -> AlgebraElement:
    """c[inverse(i)] = a[i] * alpha(i, inverse(i)).

    The inverse of rotation x^i is x^(n-i), with alpha 1; a reflection is
    its own inverse, with alpha lambda.
    """
    params = params or a.params
    n, lam_mul, c = params.n, params.lam_mul, a.coeffs
    return AlgebraElement(params, c[:1] + c[n - 1:0:-1] + tuple([lam_mul[v] for v in c[n:]]))


def phi(a: AlgebraElement) -> AlgebraElement:
    """Transport reflection coefficients to the rotation slots."""
    if not a.in_reflection_subspace():
        raise ValueError("phi expects an element of the reflection subspace")
    n = a.params.n
    return AlgebraElement(a.params, a.coeffs[n:] + (0,) * n)


def times_y(x: AlgebraElement) -> AlgebraElement:
    """x*y = lambda*x1 + x0*y: the halves swap and lambda scales x1, O(n)."""
    n, lam_mul, c = x.params.n, x.params.lam_mul, x.coeffs
    return AlgebraElement(x.params, tuple([lam_mul[v] for v in c[n:]]) + c[:n])


def scaled_times_y(x: AlgebraElement, s_mul: Sequence[int]) -> AlgebraElement:
    """s*(x*y) = s*lambda*x1 + (s*x0)*y, for the scalar s with s_mul[rep]
    the rep of s*rep, O(n). s_mul is `lam_mul` or `neg_lam_mul` of
    `AlgebraParams`, which on the byte route `translate` takes."""
    params, c = x.params, x.coeffs
    n, lam = params.n, params.lam_mul
    if params.byte_reps:
        b = bytes(c)
        return AlgebraElement(params, tuple((b[n:].translate(lam) + b[:n]).translate(s_mul)))
    lam, s = lam.__getitem__, s_mul.__getitem__
    return AlgebraElement(params, (*map(s, map(lam, c[n:])), *map(s, c[:n])))


def y_times(x: AlgebraElement) -> AlgebraElement:
    """y*x = lambda*rev(x1) + rev(x0)*y, the left-hand twin of `times_y`, O(n)."""
    n, lam_mul, c = x.params.n, x.params.lam_mul, x.coeffs
    return AlgebraElement(x.params, tuple([lam_mul[v] for v in c[n:n + 1] + c[:n:-1]])
                          + c[:1] + c[n - 1:0:-1])


def in_gamma(a: AlgebraElement) -> bool:
    """Membership in the reversible subspace: reflection-supported, a_i = a_{n-i}."""
    n = a.params.n
    reps = a.coeffs
    return a.in_reflection_subspace() and reps[n + 1:] == reps[:n:-1]


def gamma_from_free(params: AlgebraParams, free: Sequence[int]) -> AlgebraElement:
    """The element of the reversible subspace with reflection coefficients
    `free` at x^0 .. x^(n//2) y, mirrored so that coefficient n - j equals
    coefficient j."""
    n = params.n
    g = tuple(free)
    return AlgebraElement(params, (0,) * n + g + g[n - len(g):0:-1])


def sample_gamma(params: AlgebraParams, rng: random.Random) -> AlgebraElement:
    """Uniform element of the reversible subspace (free coefficients mirrored)."""
    return gamma_from_free(params, params.field.random_reps(rng, params.n // 2 + 1))


def sample_subspace(which: str, params: AlgebraParams,
                    rng: random.Random) -> AlgebraElement:
    """Uniform sample from C_n / C_n*y / the full algebra / the public-h shape."""
    field = params.field
    n = params.n
    if which == "C_n":
        return AlgebraElement(params, tuple(field.random_reps(rng, n)) + (0,) * n)
    if which == "C_n_y":
        return AlgebraElement(params, (0,) * n + tuple(field.random_reps(rng, n)))
    if which == "full":
        return AlgebraElement(params, tuple(field.random_reps(rng, 2 * n)))
    if which == "h_element":  # a nonzero rotation half and a nonzero reflection half
        return AlgebraElement(params, (*_nonzero_reps(field, rng, n),
                                       *_nonzero_reps(field, rng, n)))
    raise ValueError(f"unknown subspace {which!r}")


def _nonzero_reps(field: FieldParams, rng: random.Random, count: int) -> list[int]:
    """The first `count` reps of `field.random_reps` that are not all zero."""
    while True:
        reps = field.random_reps(rng, count)
        if any(reps):
            return reps


def sample_secret_pair(params: AlgebraParams, rng: random.Random) -> SecretPair:
    """Uniform nonzero (a, gamma) secret pair: the n reps of a, then the
    n//2 + 1 free reps of gamma, each drawn again while all zero."""
    field, n = params.field, params.n
    a = AlgebraElement(params, (*_nonzero_reps(field, rng, n), *(0,) * n))
    return SecretPair(a, gamma_from_free(params, _nonzero_reps(field, rng, n // 2 + 1)))


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
    return AlgebraElement(params, base_digits(value, q, params.dim))


def rep_serialize(x) -> bytes:
    """Canonical injective byte encoding of an algebra element (or a pair):
    the `FieldParams.rep_bytes` of each rep in turn, which on the byte route
    is `bytes(reps)`, as rep_bytes[r] == bytes([r]) there."""
    if isinstance(x, AlgebraElement):
        if x.params.byte_reps:
            return bytes(x.coeffs)
        return b"".join(map(x.params.field.rep_bytes.__getitem__, x.coeffs))
    # duck-typed two-component ciphertext
    if hasattr(x, "c1") and hasattr(x, "c2"):
        return rep_serialize(x.c1) + rep_serialize(x.c2)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def rep_deserialize(data: bytes, params: AlgebraParams) -> AlgebraElement:
    """The element that `rep_serialize` encodes as data, one
    `FieldParams.bytes_rep` lookup per rep on both routes (a byte >= p has
    no entry where m = 1 and p < 256). Raises ValueError on a wrong length
    or a digit >= p."""
    field = params.field
    chunk = len(field.rep_bytes[0])
    expect = params.dim * chunk
    if len(data) != expect:
        raise ValueError(f"expected {expect} bytes, got {len(data)}")
    reps = [field.bytes_rep.get(data[pos:pos + chunk]) for pos in range(0, expect, chunk)]
    if None in reps:
        raise ValueError("digit out of range in serialized element")
    return AlgebraElement(params, tuple(reps))
