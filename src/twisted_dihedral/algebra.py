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
low m slots; `_pack` writes reps n at a time, each n followed by n zero
positions: n reps as n positions, 2n reps as b0 + b1*Y with
Y = 2^(2n positions), one more than an n x n convolution needs. So
pack(x)*pack(b) holds, before reduction mod x^n - 1, x*b0 in block 0 and
x*b1 in block 1, with no cross terms: one row of 4n positions.

`_pack` takes one of two routes, which `AlgebraParams` chooses once from
(p, m). Where m = 1 and p < 256 a rep is its own single digit byte (the
byte route): `bytes(reps)` with n zero bytes put after each n reps is
already the integer's little-endian bytes for 8-bit slots, and for wider
slots one strided write, `buf[::W/8] = ...` into a zeroed bytearray, puts
each rep in the low byte of its slot, the mirror of `_unpack`'s strided
read. Rep 0 has all-zero digits, so a zero rep is a zero position. The
byte route also serializes an element as `bytes(reps)`, and
`scaled_times_y`, which every encaps, decaps and kex runs, maps its reps
by two `bytes.translate` through 256-byte tables. Where m > 1 or p >= 256
(the join route) each rep is looked up in `slot_bytes`, its digits in
little-endian slots, and the positions are joined, with zero blocks
between each n; reps serialize by a join of `FieldParams.rep_bytes`. The
other maps by lambda or by negation look reps up one at a time on both
routes, as a 256-byte table indexes like a list.

`rotation_products` returns every x*b_k + c_k for a rotation-only x,
right operands b_k and addends c_k (those of the first rows), from one
multiply and one `_unpack`. 2n*k reps pack as k rows at Z = 2^(4n
positions) apart, so with the b_k and the c_k each one after another,

    S = pack(x) * sum_k pack(b_k)*Z^k + sum_k pack(c_k)*Z^k.

The n positions of x times the 3n of pack(b_k) fill 4n - 1, so rows never
overlap; pack(c_k) lands in the low n positions of blocks 0 and 1 of row
k, which the fold keeps, so the addend counts once. `alg_product` with a
rotation-only a is the one-row case, and with a1 != 0 it is a1*(y*b) with
the addend a0*b. A `RotationBatch` is the dual: rotation-only left
operands packed once as rows, so that one multiply by pack(b), plus
pack(c) in every row, holds x_k*b + c in row k. A sum x + y is
pack(x) + pack(y) read as one row: the fold adds only zero pad
positions, and a slot holds at most 2(p - 1), within the bound below.
These slots are the only packed form of a rep.

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
that hold a rep, read by one memoryview cast. When a and b are both
rotation-only, b packs as b0 alone and only the n slots of c0 are read.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .errors import ParameterError
from .field import FieldElement, FieldParams, base_digits, is_square
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

    - `lam_mul[rep]`, `neg_lam_mul[rep]` and `neg[rep]`: the reps of
      lambda * rep, -lambda * rep and -rep; on the byte route each is a
      256-byte `bytes`, the `translate` table of `scaled_times_y`, which
      indexes like a list for the other maps;
    - on the join route, `slot_bytes[rep]`: one position of the kernel,
      the base-p digits of rep in little-endian slots of `slot_bits` bits,
      then m - 1 zero slots (None on the byte route);
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
        lam_mul = [field.mul_rep(lam.rep, r) for r in range(field.q)]
        tables = lam_mul, [field.neg[r] for r in lam_mul], field.neg
        if self.byte_reps:  # `translate` takes 256 entries; those past q - 1 are never read
            tables = [bytes(t).ljust(256, b"\0") for t in tables]
        self.lam_mul, self.neg_lam_mul, self.neg = tables
        bits = self.slot_bits
        width = 2 * m - 1
        pos = width * bits
        if self.byte_reps:  # n zero bytes after each n reps, before the spread
            self.slot_bytes, self._pad = None, bytes(n)
        else:
            self.slot_bytes = [
                b"".join([d.to_bytes(bits // 8, "little") for d in field.digits_of(r)])
                .ljust(pos // 8, b"\0") for r in range(field.q)]
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
        ones = sum(1 << (i * pos) for i in range(2 * n))
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

    __slots__ = ("params", "coeffs")

    def __init__(self, params: AlgebraParams, coeffs: tuple[int, ...]):
        self.params = params
        self.coeffs = coeffs

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
        _check_params(other, params)
        return AlgebraElement(params, _unpack(
            params, _pack(params, self.coeffs) + _pack(params, other.coeffs), 1))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + -other

    def __neg__(self) -> "AlgebraElement":
        neg = self.params.neg
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

    @cached_property
    def a_phi(self) -> AlgebraElement:
        """a' = a*phi(gamma), the rotation part every derivation multiplies by."""
        return self.a * phi(self.gamma)


def _check_params(x: AlgebraElement, params: AlgebraParams) -> None:
    if x.params is not params and (x.params != params or len(x.coeffs) != params.dim):
        raise ValueError("algebra elements have mismatched parameters")


def alg_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Twisted product a*b = a0*b + a1*(y*b) (see the module docstring).

    A rotation-only a is the one-row case of the kernel behind
    `rotation_products`, and with b1 = 0 as well b packs as b0 alone and
    only the n slots of c0 are read. Otherwise a1*(y*b) takes a0*b as its
    addend, one more multiply.
    """
    params = a.params
    if b.params is not params:
        _check_params(b, params)
    n = params.n
    ac, bc = a.coeffs, b.coeffs
    if any(ac[n:]):  # a1*(y*b), with the addend a0*b
        a0b = _products(params, ac[:n], bc, (), 2)
        return AlgebraElement(params, _products(params, ac[n:], y_times(b).coeffs, a0b, 2))
    if any(bc[n:]):
        return AlgebraElement(params, _products(params, ac[:n], bc, (), 2))
    return AlgebraElement(params, _products(params, ac[:n], bc[:n], (), 1) + (0,) * n)


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
    reps = _products(params, x.coeffs[:n], _rows(params, rights), _rows(params, addends), 2)
    dim = params.dim
    return [AlgebraElement(params, reps[i:i + dim]) for i in range(0, len(reps), dim)]


def _rows(params: AlgebraParams, elements: Sequence[AlgebraElement]) -> list[int]:
    """The 2n reps of each element in turn, the rows that `_pack` packs Z
    apart; every element must have these params."""
    reps = []
    for e in elements:
        if e.params is not params:
            _check_params(e, params)
        reps += e.coeffs
    return reps


def _products(params: AlgebraParams, x0: Sequence[int], rights: Sequence[int],
              addends: Sequence[int], halves: int) -> tuple[int, ...]:
    """The halves * n reps of each x0*b_k + c_k, with the b_k and c_k the
    rows of `rights` and `addends`, halves * n reps each:
    S = pack(x0)*pack(rights) + pack(addends), one `_unpack`."""
    s = _pack(params, x0) * _pack(params, rights)
    if addends:
        s += _pack(params, addends)
    return _unpack(params, s, len(rights) // (halves * params.n), halves)


def _pack(params: AlgebraParams, reps: Sequence[int]) -> int:
    """The kernel integer of reps taken n at a time, each n followed by n
    zero positions: n reps as n positions, 2n reps as b0 + b1*Y, and
    2n*k reps as k rows at Z apart.

    On the byte route this is `bytes(reps)` with n zero bytes after each
    n, spread by one strided write when slots are wider than a byte; on
    the join route, a join of `slot_bytes` (see the module docstring).
    Both give the same integer.
    """
    n = params.n
    if params.byte_reps:
        data = bytes(reps)
        if len(data) > n:
            data = params._pad.join([data[i:i + n] for i in range(0, len(data), n)])
        slot = params._read[0]
        if slot > 1:  # each rep in the low byte of its slot
            buf = bytearray(len(data) * slot)
            buf[::slot] = data
            data = buf
        return int.from_bytes(data, "little")
    sb = params.slot_bytes.__getitem__
    if len(reps) == n:
        return int.from_bytes(b"".join(map(sb, reps)), "little")
    return int.from_bytes(params._pad.join(map(b"".join, zip(*[map(sb, reps)] * n))), "little")


def _unpack(params: AlgebraParams, s: int, count: int, halves: int = 2) -> tuple[int, ...]:
    """The halves * n reps of each of `count` products in turn; row k of s
    is the k-th.

    Adding each block's high n positions to its low n folds c0 and c1 mod
    x^n - 1, and moving c1 down next to c0 leaves product k in the low 2n
    positions of row k. For m > 1 the slots of t^m .. t^(2m-2) are then
    replaced by their multiples of t^k mod f(t). Every slot is then
    reduced mod p, by `translate` for 8-bit slots and in the integer for
    wider ones, and the reps are read from the low bytes of their digit
    slots (see the module docstring). With halves = 1 only the n reps of
    each c0 are read.
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
    # count - 1 rows of 4n positions, then the halves * n read from the last
    nbytes = (4 * count - 4 + halves) * npos // 8
    slots = folded.to_bytes(nbytes, "little")
    if count > 1:  # the slots read from each row, a slice at a time
        size, stride = halves * npos // 8, 4 * npos // 8
        slots = b"".join([slots[i:i + size] for i in range(0, nbytes, stride)])
    if bits == 8:  # a byte string is its own sequence of 8-bit slots
        slots = slots.translate(params.field.mod_p_bytes)
    # every slot is below p now; digit d of each rep is slot d of its position
    slot, step = params._read
    if params.byte_reps:  # a rep is the low byte of its one slot
        return tuple(slots if slot == 1 else slots[::slot])
    return params.field.reps_of_digits(slots, slot, step)


# Left operands a RotationBatch packs into one integer, which bounds the
# memory of a product and its reps however many operands the batch has.
BATCH_CHUNK = 256


class RotationBatch:
    """Rotation-only left operands x_0, x_1, ..., packed once, BATCH_CHUNK
    rows to an integer (see the module docstring); `times` multiplies each
    such integer by b."""

    def __init__(self, lefts: Sequence[AlgebraElement]):
        if not lefts or not all(x.in_rotation_subalgebra() for x in lefts):
            raise ValueError("expected rotation-only batch left operands, at least one")
        params = lefts[0].params
        self.params = params
        # each x_k packs with its zero x_k1, so as a row of 4n positions;
        # `_rows` checks the params
        self._chunks = [(_pack(params, _rows(params, lefts[i:i + BATCH_CHUNK])),
                         len(lefts[i:i + BATCH_CHUNK]))
                        for i in range(0, len(lefts), BATCH_CHUNK)]

    def times(self, b: AlgebraElement,
              addend: Optional[AlgebraElement] = None) -> Iterator[tuple[int, ...]]:
        """The reps of x_k*b + c for every k in order, with c the addend or
        zero, one multiply per chunk; pack(c) is added to every row, as
        `rotation_products` adds its addends."""
        params = self.params
        _check_params(b, params)
        dim, right = params.dim, _pack(params, b.coeffs)
        if addend is not None:
            _check_params(addend, params)
            row = _pack(params, addend.coeffs).to_bytes(4 * params._npos // 8, "little")
        for packed, count in self._chunks:
            s = packed * right
            if addend is not None:
                s += int.from_bytes(row * count, "little")
            reps = _unpack(params, s, count)
            for i in range(0, count * dim, dim):
                yield reps[i:i + dim]


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
    the rep of s*rep, O(n). s_mul is one of the tables of `AlgebraParams`
    (`lam_mul`, `neg_lam_mul`, `neg`), which on the byte route `translate`
    takes."""
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
        rotation = _nonzero(lambda: sample_subspace("C_n", params, rng))
        reflection = _nonzero(lambda: sample_subspace("C_n_y", params, rng))
        return AlgebraElement(params, rotation.coeffs[:n] + reflection.coeffs[n:])
    raise ValueError(f"unknown subspace {which!r}")


def _nonzero(draw) -> AlgebraElement:
    """The first nonzero element that `draw()` returns."""
    while True:
        x = draw()
        if not x.is_zero():
            return x


def sample_secret_pair(params: AlgebraParams, rng: random.Random) -> SecretPair:
    """Uniform nonzero (a, gamma) secret pair."""
    return SecretPair(_nonzero(lambda: sample_subspace("C_n", params, rng)),
                      _nonzero(lambda: sample_gamma(params, rng)))


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
