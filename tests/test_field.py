"""Field arithmetic: exact small-field values, ring axioms, square/order
laws, the size bound and irreducibility."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twisted_dihedral.errors import ParameterError
from twisted_dihedral.field import (FieldParams, factorize, find_irreducible,
                                    get_lambda, is_irreducible, is_square,
                                    mult_order)
from twisted_dihedral.kex import setup_public_params


# --- exact values in F_7 ---

def test_f7_add(f7):
    assert f7.add_rep(3, 5) == 1


def test_f7_mul(f7):
    assert f7.mul_rep(3, 5) == 1


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


# --- ring axioms, on reps ---

def check_ring_axioms(field, a, b, c):
    add, mul = field.add_rep, field.mul_rep
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, field.neg[a]) == 0
    if a != 0:
        assert mul(a, field.inv_rep(a)) == 1


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 6), b=st.integers(0, 6), c=st.integers(0, 6))
def test_f7_ring_axioms(a, b, c):
    check_ring_axioms(FieldParams(7), a, b, c)


@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_ring_axioms_random(p, m):
    field = FieldParams(p, m)
    rng = random.Random(99)
    for _ in range(1000):
        check_ring_axioms(field, *field.random_reps(rng, 3))


# --- squares and orders, exhaustive at tiny q ---

@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 2), (5, 2), (7, 2)])
def test_is_square_matches_brute_force(p, m):
    field = FieldParams(p, m)
    units = list(map(field.from_rep, range(1, field.q)))
    true_squares = {field.mul_rep(b.rep, b.rep) for b in units}
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


@pytest.mark.parametrize("p,m", [(7, 1), (3, 2), (3, 7)])
def test_mult_order_is_least_power_to_one(p, m):
    # the least k >= 1 with a^k = 1, by walking the powers of every unit
    field = FieldParams(p, m)
    for rep in range(1, field.q):
        k, power = 1, rep
        while power != 1:
            k, power = k + 1, field.mul_rep(power, rep)
        assert mult_order(field.from_rep(rep)) == k


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
        assert f9.pow_rep(lam.rep, (f9.q - 1) // 2) == f9.neg[1]


# --- parameter validation ---

# p = 3 and 101 shift the kept byte, p = 131 keeps whole bytes, and
# p = 257 reads 4-byte words
@pytest.mark.parametrize("p", [3, 101, 131, 257])
def test_uniform_digits_read_prefixes(p):
    field = FieldParams(p)
    rng = random.Random(p)
    data = bytes(range(256)) + rng.randbytes(2000)
    digits = list(field.uniform_digits(data))
    assert all(0 <= d < p for d in digits)
    for cut in [0, 1, 3, 4, 5, 255, 256, 257] + rng.sample(range(len(data)), 40):
        part = list(field.uniform_digits(data[:cut]))
        assert part == digits[:len(part)], cut


def test_p_must_be_odd_prime():
    for p in (2, 4, 9, 1, 0):
        with pytest.raises(ParameterError):
            FieldParams(p)


def test_field_accepts_exactly_the_odd_primes():
    # oracle: a sieve of Eratosthenes, independent of `factorize`
    limit = 600
    sieve = [False, False] + [True] * (limit - 2)
    for i in range(2, limit):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    accepted = []
    for p in range(-2, limit):
        try:
            FieldParams(p)
        except ParameterError as exc:
            assert f"p={p} must be an odd prime" in str(exc)
        else:
            accepted.append(p)
    assert accepted == [p for p in range(3, limit) if sieve[p]]


def test_m_must_be_positive():
    with pytest.raises(ParameterError, match="m=0"):
        FieldParams(3, 0)


def test_p_must_fit_a_sampler_word():
    # 2**61 - 1 is prime; the size bound runs before trial division
    with pytest.raises(ParameterError):
        FieldParams(2 ** 61 - 1)


# each would build O(q) tables (177147 entries at 3^11) if it were admitted;
# the field refuses it first, however it is reached
@pytest.mark.parametrize("build", [
    lambda: FieldParams(3, 11), lambda: FieldParams(257, 2),
    lambda: FieldParams(65537), lambda: FieldParams(2 ** 61 - 1, 0),
    lambda: setup_public_params(3, 11, 3, random.Random(0))],
    ids=["3^11", "257^2", "65537", "(2^61-1)^0", "setup_public_params"])
def test_field_refuses_q_over_the_bound(build):
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="exceeds the bound"):
        build()
    assert time.perf_counter() - start < 0.1


def test_modulus_digits_must_lie_in_the_field():
    # read mod 3, the modulus digit 4 would name x^2 + 1 and the digit -2 be 1
    with pytest.raises(ParameterError, match=r"outside \[0, 3\)"):
        FieldParams(3, 2, [4, 0, 1])
    f9 = FieldParams(3, 2)
    with pytest.raises(ParameterError, match=r"outside \[0, 3\)"):
        f9.elem([-2, 1])


def _monic(p, k):
    return [tuple(r // p ** i % p for i in range(k)) + (1,) for r in range(p ** k)]


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2),
                                 (5, 3), (5, 4), (7, 2), (7, 3)])
def test_is_irreducible_matches_definition(p, m):
    # f is reducible iff f = g*h for monic g, h of degree >= 1: every such
    # product (deg g <= deg h), by schoolbook, against every monic f
    reducible = set()
    for k in range(1, m // 2 + 1):
        for g in _monic(p, k):
            for h in _monic(p, m - k):
                prod = [0] * (m + 1)
                for i, a in enumerate(g):
                    for j, b in enumerate(h):
                        prod[i + j] = (prod[i + j] + a * b) % p
                reducible.add(tuple(prod))
    for f in _monic(p, m):
        assert is_irreducible(f, p) == (f not in reducible), f


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


@pytest.mark.parametrize("p,m", [(3, 6), (257, 1)])
def test_digits_of_roundtrip_every_rep(p, m):
    field = FieldParams(p, m)
    seen = set()
    for r in range(field.q):
        ds = field.digits_of(r)
        assert len(ds) == m and all(0 <= d < p for d in ds)
        assert sum(d * p ** i for i, d in enumerate(ds)) == r
        assert field.rep_of(ds) == r
        seen.add(ds)
    assert len(seen) == field.q


# --- misc helpers ---

def test_factorize():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]

