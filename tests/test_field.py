"""Field arithmetic: exact small-field values, ring axioms, square/order laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_dihedral.errors import ParameterError
from twisted_dihedral.field import (FieldParams, factorize, find_irreducible,
                                    get_lambda, is_prime, is_square,
                                    mult_order)


# --- exact values in F_7 ---

def test_f7_add(f7):
    assert (f7.elem(3) + f7.elem(5)).rep == 1


def test_f7_mul(f7):
    assert (f7.elem(3) * f7.elem(5)).rep == 1


def test_f7_inv(f7):
    assert f7.elem(3).inverse().rep == 5


def test_f7_squares(f7):
    squares = {r for r in range(1, 7) if is_square(f7.elem(r))}
    assert squares == {1, 2, 4}
    assert is_square(f7.elem(2))
    assert not is_square(f7.elem(3))


def test_one_is_square(f3, f7, f9):
    for field in (f3, f7, f9):
        assert is_square(field.one())


def test_is_square_zero_rejected(f7):
    with pytest.raises(ValueError):
        is_square(f7.zero())


def test_f7_orders(f7):
    assert mult_order(f7.elem(2)) == 3
    assert mult_order(f7.elem(1)) == 1
    assert mult_order(f7.elem(3)) == 6


def test_mult_order_zero_rejected(f7):
    with pytest.raises(ValueError):
        mult_order(f7.zero())


def test_inversion_of_zero(f7, f9):
    for field in (f7, f9):
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()


# --- ring axioms ---

@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 6), b=st.integers(0, 6), c=st.integers(0, 6))
def test_f7_ring_axioms(a, b, c):
    f7 = FieldParams(7)
    x, y, z = f7.elem(a), f7.elem(b), f7.elem(c)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if x.rep != 0:
        assert (x * x.inverse()).rep == 1


@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_ring_axioms_random(p, m):
    field = FieldParams(p, m)
    rng = random.Random(99)
    for _ in range(1000):
        a = field.random_element(rng)
        b = field.random_element(rng)
        c = field.random_element(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == field.zero()
        if not a.is_zero():
            assert a * a.inverse() == field.one()
        assert a / field.one() == a


# --- squares and orders, exhaustive at tiny q ---

@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 2), (5, 2), (7, 2)])
def test_is_square_matches_brute_force(p, m):
    field = FieldParams(p, m)
    units = list(map(field.from_rep, range(1, field.q)))
    true_squares = {(b * b).rep for b in units}
    for a in units:
        assert is_square(a) == (a.rep in true_squares)
    # exactly half the units are squares in odd characteristic
    assert len(true_squares) == (field.q - 1) // 2


@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_mult_order_divides_q_minus_1(p, m):
    field = FieldParams(p, m)
    for a in map(field.from_rep, range(1, field.q)):
        k = mult_order(a)
        assert (field.q - 1) % k == 0
        assert field.pow_rep(a.rep, k) == 1
        # minimality
        for d in range(1, k):
            if k % d == 0:
                assert field.pow_rep(a.rep, d) != 1 or d == k


# --- non-square sampling ---

def test_get_lambda_f3(f3, rng):
    for _ in range(20):
        assert get_lambda(f3, rng).rep == 2


def test_get_lambda_f7_distribution(f7):
    rng = random.Random(7)
    counts = {3: 0, 5: 0, 6: 0}
    trials = 10 ** 4
    for _ in range(trials):
        lam = get_lambda(f7, rng)
        assert lam.rep in counts
        counts[lam.rep] += 1
    for v in counts.values():
        assert abs(v / trials - 1 / 3) < 0.05


def test_get_lambda_postcondition(f9, rng):
    for _ in range(50):
        lam = get_lambda(f9, rng)
        # lam^((q-1)/2) = -1
        assert f9.pow_rep(lam.rep, (f9.q - 1) // 2) == f9.neg_rep(1)


# --- parameter validation ---

def test_p_must_be_odd_prime():
    for p in (2, 4, 9, 1, 0):
        with pytest.raises(ParameterError):
            FieldParams(p)


def test_p_must_fit_a_sampler_word():
    # 2**61 - 1 is prime; the width check runs before trial division
    with pytest.raises(ParameterError):
        FieldParams(2 ** 61 - 1)


def test_modulus_must_be_irreducible():
    # x^2 - 1 = (x-1)(x+1) over F_7
    with pytest.raises(ParameterError):
        FieldParams(7, 2, [6, 0, 1])
    with pytest.raises(ParameterError):
        FieldParams(7, 2, [0, 0, 1])  # x^2


def test_modulus_must_be_monic_of_degree_m():
    with pytest.raises(ParameterError):
        FieldParams(3, 2, [1, 1])
    with pytest.raises(ParameterError):
        FieldParams(3, 2, [1, 0, 2])


def test_default_modulus_f9():
    # x^2 + 1 is irreducible over F_3 since -1 is a non-square mod 3
    assert find_irreducible(3, 2) == (1, 0, 1)
    assert FieldParams(3, 2).modulus == (1, 0, 1)


def test_extension_digit_roundtrip(f9):
    for r in range(9):
        assert f9.rep_of(f9.digits_of(r)) == r
    e = f9.elem([2, 1])
    assert e.digits == (2, 1)
    assert e.rep == 2 + 1 * 3


# --- misc helpers ---

def test_is_prime_and_factorize():
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]

