"""Dihedral group: pinned products, exhaustive group axioms, and the closed
form against words in the generators reduced by the defining relations."""

import functools
import random

import pytest

from twisted_dihedral.errors import ParameterError
from twisted_dihedral.group import DihedralGroup


def test_n3_table_entries():
    g = DihedralGroup(3)
    assert g.op(3, 1) == 5   # y * x = x^2 y
    assert g.op(1, 3) == 4   # x * y = xy
    assert g.op(3, 3) == 0   # y^2 = 1


def test_op_examples():
    g5 = DihedralGroup(5)
    assert g5.op(0, 7) == 7     # identity
    g3 = DihedralGroup(3)
    assert g3.op(4, 4) == 0     # (xy)^2 = 1
    assert g3.op(1, 1) == 2     # x * x = x^2


def test_inverse_examples():
    g = DihedralGroup(5)
    assert g.inverse(2) == 3
    assert g.inverse(0) == 0
    assert g.inverse(7) == 7


@pytest.mark.parametrize("n", range(3, 13))
def test_group_axioms_exhaustive(n):
    g = DihedralGroup(n)
    order = g.order
    elems = range(order)
    for a in elems:
        assert g.op(0, a) == a and g.op(a, 0) == a
        inv = g.inverse(a)
        assert g.op(a, inv) == 0 and g.op(inv, a) == 0
        assert g.inverse(inv) == a
        # rows and columns are permutations
        assert sorted(g.op(a, b) for b in elems) == list(elems)
        assert sorted(g.op(b, a) for b in elems) == list(elems)
    for a in elems:
        for b in elems:
            ab = g.op(a, b)
            for c in elems:
                assert g.op(ab, c) == g.op(a, g.op(b, c))


def word(k, n):
    """x^i y^j for the index k = j*n + i, as a string of generators."""
    return "x" * (k % n) + "y" * (k // n)


def reduce_word(w, n):
    """Rewrite with yx -> x^(n-1) y, yy -> 1 and x^n -> 1 to normal form."""
    while True:
        r = w.replace("yx", "x" * (n - 1) + "y").replace("yy", "").replace("x" * n, "")
        if r == w:
            return w
        w = r


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_op_matches_generator_words(n):
    g = DihedralGroup(n)
    normal = {word(k, n): k for k in range(g.order)}
    for a in range(g.order):
        for b in range(g.order):
            assert normal[reduce_word(word(a, n) + word(b, n), n)] == g.op(a, b)
    # longer words, multiplied letter by letter: x is index 1, y is index n
    rng = random.Random(n)
    for _ in range(50):
        w = "".join(rng.choice("xy") for _ in range(rng.randrange(13)))
        folded = functools.reduce(g.op, [1 if c == "x" else n for c in w], 0)
        assert normal[reduce_word(w, n)] == folded


def test_small_n_rejected():
    for n in (0, 1, 2):
        with pytest.raises(ParameterError):
            DihedralGroup(n)


def test_index_out_of_range():
    g = DihedralGroup(3)
    with pytest.raises(ValueError):
        g.op(0, 6)
    with pytest.raises(ValueError):
        g.op(-1, 0)
    with pytest.raises(ValueError):
        g.inverse(-1)
