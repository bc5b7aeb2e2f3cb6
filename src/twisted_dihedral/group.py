"""The dihedral group D_2n = <x, y | x^n = y^2 = 1, yxy^-1 = x^-1>.

Elements x^i y^j are encoded as the integer k = j*n + i, so rotations
occupy indices [0, n) and reflections [n, 2n). Since yx = x^-1 y, the law
is x^i1 y^j1 * x^i2 y^j2 = x^(i1 + (-1)^j1 i2) y^(j1 + j2), computed in
closed form; a group costs O(1) to build whatever n is.
"""

from __future__ import annotations

from .errors import ParameterError


class DihedralGroup:
    """Group parameters: n, the order 2n, and the law on indices."""

    def __init__(self, n: int):
        if n < 3:
            raise ParameterError(f"n={n} must be >= 3")
        self.n = n
        self.order = 2 * n

    def op(self, g: int, h: int) -> int:
        self._check(g)
        self._check(h)
        (j1, i1), (j2, i2) = divmod(g, self.n), divmod(h, self.n)
        i = i1 - i2 if j1 else i1 + i2
        return (j1 ^ j2) * self.n + i % self.n

    def inverse(self, g: int) -> int:
        self._check(g)
        if g == 0:
            return 0
        if g < self.n:
            return self.n - g
        return g

    def _check(self, k: int) -> None:
        if not 0 <= k < self.order:
            raise ValueError(f"group index {k} out of range [0, {self.order})")

    def __eq__(self, other):
        return isinstance(other, DihedralGroup) and self.n == other.n

    def __hash__(self):
        return hash(("D2n", self.n))

    def __repr__(self):
        return f"DihedralGroup(n={self.n})"
