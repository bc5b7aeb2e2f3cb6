"""Cocycles: closed-form values, exhaustive verification, coboundaries,
the order-divisibility dichotomy, and brute-force equivalence search."""

import random

import pytest

from twisted_dihedral import errors
from twisted_dihedral.cocycle import (BetaMap, Cocycle, coboundary_of,
                                      equivalence_search, verify_cocycle)
from twisted_dihedral.errors import CapacityError
from twisted_dihedral.field import FieldParams, is_square, mult_order
from twisted_dihedral.group import DihedralGroup


def power(x, k):
    """x^k, through the field's rep arithmetic."""
    return x.field.from_rep(x.field.pow_rep(x.rep, k))


def related_by(theta, c1, c2, group):
    """c1(g, h) = c2(g, h) * theta(g) * theta(h) / theta(gh) on every pair,
    through the field's rep arithmetic."""
    field = theta(0).field
    mul = field.mul_rep
    return all(c1(g, h).rep == mul(mul(c2(g, h).rep, theta(g).rep),
                                   mul(theta(h).rep, field.inv_rep(theta(group.op(g, h)).rep)))
               for g in range(group.order) for h in range(group.order))


# --- closed-form evaluation ---

def test_alpha_values(f7):
    lam = f7.elem(3)
    c = Cocycle.alpha(lam, 3)
    assert c(3, 3) == lam          # both reflections
    assert c(1, 3) == f7.one()     # rotation first argument
    assert c(3, 1) == f7.one()     # rotation second argument
    assert c(0, 0) == f7.one()     # identity pair


def test_beta_values(f7):
    lam = f7.elem(2)
    n = 6
    c = Cocycle.beta(lam, n)
    # first argument y (index n), second argument x (index 1): lambda^1
    assert c(n, 1) == lam
    # rotation first argument: always 1
    for h in range(2 * n):
        assert c(2, h) == f7.one()
    # second argument the identity: lambda^0
    assert c(n, 0) == f7.one()
    # exponent is the rotation exponent of the second argument
    assert c(n + 2, 3) == power(lam, 3)
    assert c(n, n + 4) == power(lam, 4)


def test_cocycle_index_range(f7):
    c = Cocycle.alpha(f7.elem(3), 3)
    with pytest.raises(ValueError):
        c(6, 0)


def test_zero_lambda_rejected(f7):
    with pytest.raises(ValueError):
        Cocycle.alpha(f7.zero(), 3)


def test_tabulated_values_checked(f7, f9):
    good = Cocycle.alpha(f7.elem(3), 3).tabulate()
    c = Cocycle.from_table(f7, good)
    assert c.n == 3 and c.tabulate() == good
    ragged = good[:-1] + (good[-1][:-1],)
    odd = tuple(row[:-1] for row in good[:-1])  # 5 x 5
    zero = ((f7.zero(),) + good[0][1:],) + good[1:]
    reps = tuple(tuple(v.rep for v in row) for row in good)
    for bad in (ragged, good[:-1], odd, (), zero, reps):
        with pytest.raises(ValueError):
            Cocycle.from_table(f7, bad)
    with pytest.raises(ValueError):  # values from another field
        Cocycle.from_table(f9, good)


def test_logs_give_the_closed_forms(f9):
    # at m = 2: each log lies in [0, q - 1), and its antilog is the value
    # the definition gives
    lam, n, one = f9.elem(5), 4, f9.one()
    for c, value in ((Cocycle.alpha(lam, n), lambda g, h: lam if g >= n and h >= n else one),
                     (Cocycle.beta(lam, n), lambda g, h: power(lam, h % n) if g >= n else one),
                     (Cocycle.trivial(f9, n), lambda g, h: one)):
        assert all(0 <= k < f9.q - 1 for row in c.logs for k in row)
        assert c.tabulate() == tuple(tuple(value(g, h) for h in range(2 * n))
                                     for g in range(2 * n))


def test_verify_rejects_other_group(f7):
    with pytest.raises(ValueError):
        verify_cocycle(Cocycle.alpha(f7.elem(3), 3), DihedralGroup(4))


# --- exhaustive verification ---

@pytest.mark.parametrize("n", [3, 4, 7])
@pytest.mark.parametrize("lam_rep", [2, 3, 6])
def test_alpha_is_valid_cocycle(f7, n, lam_rep):
    group = DihedralGroup(n)
    check = verify_cocycle(Cocycle.alpha(f7.elem(lam_rep), n), group)
    assert check.valid
    assert check.counterexample is None
    assert check.identity_normalized
    assert check.rotation_symmetry
    assert check.reflection_identity


def test_beta_dichotomy_f7(f7):
    # valid exactly when the multiplicative order of lambda divides n
    for n in (3, 4, 6, 12):
        group = DihedralGroup(n)
        for rep in range(1, 7):
            lam = f7.elem(rep)
            check = verify_cocycle(Cocycle.beta(lam, n), group)
            assert check.valid == (n % mult_order(lam) == 0), (n, rep)


def test_beta_counterexample_n4(f7):
    # beta_2 fails for n=4; the first violating triple is (y, x, x^3)
    group = DihedralGroup(4)
    check = verify_cocycle(Cocycle.beta(f7.elem(2), 4), group)
    assert not check.valid
    assert check.counterexample == (4, 1, 3)


def test_beta_2_valid_n6(f7):
    group = DihedralGroup(6)
    assert verify_cocycle(Cocycle.beta(f7.elem(2), 6), group).valid


# --- coboundaries ---

def test_trivial_beta_gives_trivial_cocycle(f7):
    group = DihedralGroup(3)
    beta = BetaMap(tuple(f7.one() for _ in range(6)))
    c = coboundary_of(beta, group)
    assert all(v == f7.one() for row in c.tabulate() for v in row)


def test_coboundary_reproduces_alpha_for_square_lambda(f7):
    # lambda = 4 = 2^2; beta(x^i) = 1, beta(x^i y) = inv(2) = 4
    group = DihedralGroup(3)
    t_inv = f7.elem(2).inverse()
    assert t_inv.rep == 4
    beta = BetaMap(tuple([f7.one()] * 3 + [t_inv] * 3))
    c = coboundary_of(beta, group)
    assert c.tabulate() == Cocycle.alpha(f7.elem(4), 3).tabulate()


def test_coboundaries_are_cocycles(f7, f9):
    rng = random.Random(11)
    for field, n in ((f7, 3), (f9, 4)):
        group = DihedralGroup(n)
        for _ in range(50):
            beta = BetaMap.random(field, group, rng)
            assert verify_cocycle(coboundary_of(beta, group), group).valid


def test_beta_map_validation(f7):
    with pytest.raises(ValueError):
        BetaMap((f7.one(), f7.zero(), f7.one(), f7.one(), f7.one(), f7.one()))
    with pytest.raises(ValueError):
        BetaMap(tuple(f7.elem(2) for _ in range(6)))  # identity not sent to 1


def test_coboundary_rejects_maps_that_do_not_fit(f7, f9):
    group = DihedralGroup(3)
    for size in (4, 8):  # shorter and longer than the group
        with pytest.raises(ValueError):
            coboundary_of(BetaMap((f7.one(),) + (f7.elem(3),) * (size - 1)), group)
    with pytest.raises(ValueError):  # values from two fields
        BetaMap((f7.one(),) * 3 + (f9.elem(3),) * 3)


# --- equivalence search ---

def test_search_identity_witness(f7):
    group = DihedralGroup(3)
    c = Cocycle.alpha(f7.elem(3), 3)
    theta = equivalence_search(c, c, group, f7)
    assert theta is not None
    assert all(v == f7.one() for v in theta.values)


def test_search_nonsquare_not_equivalent_to_trivial(f3):
    group = DihedralGroup(3)
    found = equivalence_search(Cocycle.alpha(f3.elem(2), 3),
                               Cocycle.trivial(f3, 3), group, f3)
    assert found is None


def test_search_square_equivalent_to_trivial(f7):
    group = DihedralGroup(3)
    c1 = Cocycle.alpha(f7.elem(4), 3)
    c2 = Cocycle.trivial(f7, 3)
    theta = equivalence_search(c1, c2, group, f7)
    assert theta is not None
    # witness satisfies the relation on every pair
    assert related_by(theta, c1, c2, group)


@pytest.mark.parametrize("p,m,lam_rep,expect_found", [
    pytest.param(7, 1, 3, False, id="F7-3-False"),
    pytest.param(7, 1, 4, True, id="F7-4-True"),
    pytest.param(3, 2, 4, False, id="F9-4-False"),
    pytest.param(3, 2, 3, True, id="F9-3-True")])
def test_search_square_dichotomy(p, m, lam_rep, expect_found):
    # equivalent to the trivial cocycle exactly when lambda is a square;
    # over F_9 the logs are taken mod 8, with m = 2 digits per rep
    field = FieldParams(p, m)
    lam = field.from_rep(lam_rep)
    assert is_square(lam) == expect_found
    group = DihedralGroup(3)
    c1, c2 = Cocycle.alpha(lam, 3), Cocycle.trivial(field, 3)
    theta = equivalence_search(c1, c2, group, field)
    assert (theta is not None) == expect_found
    if theta is not None:
        assert related_by(theta, c1, c2, group)


def test_search_returns_the_first_witness():
    # the witnesses are beta^-1 * chi for the four characters chi of D_8
    # into F_5*; in mixed-radix order over units by rep, index 1 least
    # significant, beta^-1 itself comes first (index 1 most significant
    # would give chi(x) = chi(y) = -1 first)
    f5, group = FieldParams(5), DihedralGroup(4)
    beta = BetaMap(tuple(map(f5.from_rep, (1, 2, 1, 1, 1, 1, 1, 1))))
    theta = equivalence_search(coboundary_of(beta, group), Cocycle.trivial(f5, 4),
                               group, f5)
    assert [v.rep for v in theta.values] == [1, 3, 1, 1, 1, 1, 1, 1]


def test_search_rejects_inputs_that_do_not_fit(f7, f9):
    f5 = FieldParams(5)
    group = DihedralGroup(3)
    c7 = Cocycle.alpha(f7.elem(3), 3)
    with pytest.raises(ValueError):  # params of another field
        equivalence_search(c7, c7, group, f5)
    with pytest.raises(ValueError):  # cocycles over two fields
        equivalence_search(c7, Cocycle.trivial(f9, 3), group, f7)
    with pytest.raises(ValueError):  # cocycles on D_6, group D_8
        equivalence_search(c7, c7, DihedralGroup(4), f7)
    with pytest.raises(ValueError):  # cocycles on D_6 and D_8
        equivalence_search(c7, Cocycle.trivial(f7, 4), group, f7)


def test_search_capacity_guard(f7, monkeypatch):
    # D_6 over F_7: 6^5 candidate maps
    group = DihedralGroup(3)
    c = Cocycle.alpha(f7.elem(3), 3)
    monkeypatch.setattr(errors, "MAX_CANDIDATES", 10)
    with pytest.raises(CapacityError):
        equivalence_search(c, c, group, f7)
