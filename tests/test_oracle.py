"""The table-driven field core and product kernel against a polynomial oracle.

The oracle works on digit vectors with the polynomial helpers and never
calls the rep arithmetic of `FieldParams`, so it shares no code with the
log/antilog tables or the packed sums it checks. Fields run up to q=2187.
"""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_dihedral.algebra import AlgebraParams, alg_product
from twisted_dihedral.field import (FieldParams, _poly_mod, _poly_mul,
                                    _poly_powmod, get_lambda)
from twisted_dihedral.group import DihedralGroup


def digits(rep, p, m):
    return [rep // p ** i % p for i in range(m)]


def rep_of(poly, p):
    return sum(d * p ** i for i, d in enumerate(poly))


def poly_mul_rep(field, *reps):
    """The rep of the product of the given reps, by polynomial arithmetic."""
    p, m = field.p, field.m
    acc = (1,)
    for r in reps:
        acc = _poly_mod(_poly_mul(acc, digits(r, p, m), p), field.modulus, p)
    return rep_of(acc, p)


def schoolbook_product(a, b):
    """c[i*j] += a[i] * b[j] * alpha(i, j), every term in digit vectors."""
    params = a.params
    field, group = params.field, params.group
    p, m = field.p, field.m
    out = [[0] * m for _ in range(params.dim)]
    for i, ai in enumerate(a.reps()):
        for j, bj in enumerate(b.reps()):
            term = poly_mul_rep(field, ai, bj, params.cocycle(i, j).rep)
            k = group.op(i, j)
            out[k] = [(x + y) % p for x, y in zip(out[k], digits(term, p, m))]
    return tuple(rep_of(d, p) for d in out)


@functools.cache
def field_of(p, m):
    return FieldParams(p, m)


@functools.cache
def algebra_of(p, m, n):
    field = field_of(p, m)
    return AlgebraParams(field, DihedralGroup(n),
                         get_lambda(field, random.Random(p ** m + n)))


def elements(alg):
    return st.lists(st.integers(0, alg.field.q - 1), min_size=alg.dim,
                    max_size=alg.dim).map(alg.from_reps)


@pytest.mark.parametrize("p,m,n,examples", [
    (3, 1, 3, 200), (5, 1, 5, 100), (3, 2, 9, 50), (3, 6, 3, 100),
    (3, 7, 3, 100), (101, 1, 101, 3)])
def test_product_matches_schoolbook(p, m, n, examples):
    alg = algebra_of(p, m, n)

    @settings(max_examples=examples, deadline=None)
    @given(a=elements(alg), b=elements(alg))
    def check(a, b):
        assert alg_product(a, b).reps() == schoolbook_product(a, b)

    check()


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (101, 1), (3, 6), (3, 7)])
def test_field_ops_match_polynomials(p, m):
    field = field_of(p, m)
    q = field.q

    @settings(max_examples=300, deadline=None)
    @given(a=st.integers(0, q - 1), b=st.integers(0, q - 1),
           e=st.integers(-2 * q, 2 * q))
    def check(a, b, e):
        da, db = digits(a, p, m), digits(b, p, m)
        assert field.add_rep(a, b) == rep_of(
            [(x + y) % p for x, y in zip(da, db)], p)
        assert field.neg_rep(a) == rep_of([-x % p for x in da], p)
        assert field.mul_rep(a, b) == poly_mul_rep(field, a, b)
        power = rep_of(_poly_powmod(da, abs(e), field.modulus, p), p)
        if a == 0:
            with pytest.raises(ZeroDivisionError):
                field.inv_rep(a)
            if e < 0:
                with pytest.raises(ZeroDivisionError):
                    field.pow_rep(a, e)
            else:
                assert field.pow_rep(a, e) == power
            return
        assert poly_mul_rep(field, a, field.inv_rep(a)) == 1
        if e < 0:
            assert poly_mul_rep(field, field.pow_rep(a, e), power) == 1
        else:
            assert field.pow_rep(a, e) == power

    check()
