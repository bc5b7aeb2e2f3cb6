"""Twisted algebra: pinned products, adjunct/Phi identities, the reversible
subspace, index bijection, and canonical serialization."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_oracle import batch_reps, oracle_sum, schoolbook_product
from twisted_dihedral.algebra import (AlgebraParams, RotationBatch, SecretPair,
                                      _pack, adjunct, alg_product,
                                      gamma_from_free, in_gamma,
                                      index_h_inv, iter_gamma, phi,
                                      rep_deserialize, rep_serialize,
                                      sample_gamma, sample_secret_pair,
                                      sample_subspace, scaled_times_y,
                                      times_y, y_times)
from twisted_dihedral.errors import ParameterError
from twisted_dihedral.field import FieldParams, is_square
from twisted_dihedral.formats import (read_element_file, read_param_file,
                                      write_element_file, write_param_file)
from twisted_dihedral.group import DihedralGroup
from twisted_dihedral.kem import hash_g1
from twisted_dihedral.kex import setup_public_params
from twisted_dihedral.pke import PkeCiphertext


@functools.cache
def pp_at(p, m, n):
    return setup_public_params(p, m, n, random.Random(p * m * n))


def algebra_at(p, m, n):
    return pp_at(p, m, n).algebra


@pytest.fixture(scope="module")
def alg33():
    field = FieldParams(3)
    return AlgebraParams(field, DihedralGroup(3), field.elem(2))


@pytest.fixture(scope="module")
def alg34():
    field = FieldParams(3)
    return AlgebraParams(field, DihedralGroup(4), field.elem(2))


# --- parameter validation ---

def test_square_lambda_rejected():
    field = FieldParams(7)
    with pytest.raises(ParameterError):
        AlgebraParams(field, DihedralGroup(7), field.elem(4))
    with pytest.raises(ParameterError):
        AlgebraParams(field, DihedralGroup(7), field.zero())


def test_lambda_from_another_field_rejected():
    # 3 is a non-square in both F_5 and F_7, so only the field check refuses it
    f5, f7 = FieldParams(5), FieldParams(7)
    with pytest.raises(ParameterError, match="given field"):
        AlgebraParams(f5, DihedralGroup(5), f7.elem(3))


def test_p_must_divide_group_order():
    # enforced at the protocol layer, not on the bare algebra
    from twisted_dihedral.kex import PublicParams
    field = FieldParams(5)
    alg = AlgebraParams(field, DihedralGroup(3), field.elem(2))
    with pytest.raises(ParameterError):
        PublicParams(alg, alg.from_reps([1, 0, 0, 1, 0, 0]))


# --- addition ---

def test_add_examples(alg33):
    a = alg33.from_reps([1, 2, 0, 0, 0, 0])
    b = alg33.from_reps([2, 2, 0, 0, 0, 0])
    assert (a + b).reps() == (0, 1, 0, 0, 0, 0)
    assert (a + alg33.zero()).reps() == a.reps()
    assert (a + (-a)).is_zero()


def test_add_mismatched_params_rejected(alg33, alg34):
    with pytest.raises(ValueError):
        alg33.one() + alg34.one()


def test_from_reps_validates(alg33):
    for bad in ([3, 0, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0]):
        with pytest.raises(ValueError):
            alg33.from_reps(bad)


# --- product ---

def test_product_y_squared(alg33):
    y = alg33.basis(3)
    assert (y * y).reps() == (2, 0, 0, 0, 0, 0)  # lambda * identity


def test_product_one_plus_y_squared(alg33):
    e = alg33.from_reps([1, 0, 0, 1, 0, 0])  # 1 + y
    assert (e * e).reps() == (0, 0, 0, 2, 0, 0)  # (1+lambda) + 2y, 1+2=0 mod 3


def test_identity_is_two_sided(alg33, rng):
    one = alg33.one()
    for _ in range(50):
        a = sample_subspace("full", alg33, rng)
        assert one * a == a
        assert a * one == a


@pytest.mark.parametrize("triple_index", range(3))
def test_ring_axioms_random(all_pps, triple_index):
    alg = all_pps[triple_index].algebra
    rng = random.Random(17 + triple_index)
    for _ in range(200):
        a = sample_subspace("full", alg, rng)
        b = sample_subspace("full", alg, rng)
        c = sample_subspace("full", alg, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_rotation_subalgebra_commutes(alg33, rng):
    for _ in range(200):
        a = sample_subspace("C_n", alg33, rng)
        b = sample_subspace("C_n", alg33, rng)
        assert a * b == b * a


def test_subspace_closure(alg33, rng):
    for _ in range(100):
        r1 = sample_subspace("C_n_y", alg33, rng)
        r2 = sample_subspace("C_n_y", alg33, rng)
        rot = sample_subspace("C_n", alg33, rng)
        assert (r1 * r2).in_rotation_subalgebra()
        assert (rot * r1).in_reflection_subspace()
        assert (r1 * rot).in_reflection_subspace()
        assert (rot * rot).in_rotation_subalgebra()


# --- adjunct ---

def test_adjunct_examples(alg33):
    x = alg33.basis(1)
    assert adjunct(x).reps() == (0, 0, 1, 0, 0, 0)  # x^(n-1)
    y = alg33.basis(3)
    assert adjunct(y).reps() == (0, 0, 0, 2, 0, 0)  # lambda * y
    gamma = alg33.from_reps([0, 0, 0, 1, 1, 1])
    assert adjunct(gamma).reps() == (0, 0, 0, 2, 2, 2)  # lambda * gamma


def test_adjunct_gamma_is_lambda_gamma(alg33, rng):
    for _ in range(200):
        gamma = sample_gamma(alg33, rng)
        assert adjunct(gamma) == gamma.scale(alg33.lam)
        assert in_gamma(adjunct(gamma))  # self-adjoint subspace


def test_adjunct_involution_structure(alg33):
    # exhaustive at q=3, n=3: double adjunct fixes the rotation part and
    # scales the reflection part by lambda^2
    field, lam = alg33.field, alg33.lam.rep
    lam2 = field.from_rep(field.mul_rep(lam, lam))
    for value in range(3 ** 6):
        a = index_h_inv(value, alg33)
        twice = adjunct(adjunct(a))
        assert twice.reps()[:3] == a.reps()[:3]
        assert twice.reps()[3:] == a.scale(lam2).reps()[3:]


def test_adjunct_anti_homomorphism(alg33, rng):
    # adjunct maps the lambda-twisted algebra anti-multiplicatively onto
    # the inverse-lambda-twisted algebra
    inv_alg = AlgebraParams(alg33.field, alg33.group, alg33.lam.inverse())
    for _ in range(200):
        a = sample_subspace("full", alg33, rng)
        b = sample_subspace("full", alg33, rng)
        lhs = adjunct(a * b, alg33).reps()
        bh = inv_alg.from_reps(adjunct(b, alg33).reps())
        ah = inv_alg.from_reps(adjunct(a, alg33).reps())
        assert lhs == (bh * ah).reps()


# --- Phi and the reversible subspace ---

def test_phi_examples(alg33):
    y = alg33.basis(3)
    assert phi(y) == alg33.one()
    assert phi(alg33.zero()).is_zero()
    a = alg33.from_reps([0, 0, 0, 1, 2, 2])
    assert phi(a).reps() == (1, 2, 2, 0, 0, 0)


def test_phi_domain_checks(alg33):
    with pytest.raises(ValueError):
        phi(alg33.one())


def test_in_gamma_examples(alg33, alg34):
    assert in_gamma(alg33.from_reps([0, 0, 0, 2, 1, 1]))
    assert not in_gamma(alg33.from_reps([0, 0, 0, 2, 1, 2]))
    assert in_gamma(alg33.zero())
    assert not in_gamma(alg33.one())
    # every element at n = 3 and n = 4, against the definition
    for alg in (alg33, alg34):
        n = alg.n
        for value in range(alg.field.q ** alg.dim):
            r = index_h_inv(value, alg).reps()
            assert in_gamma(alg.from_reps(r)) == (not any(r[:n]) and all(
                r[n + i] == r[n + (n - i) % n] for i in range(n)))


def test_reflection_images_commute_under_phi(alg33, rng):
    y = alg33.basis(3)
    for _ in range(200):
        gamma = sample_gamma(alg33, rng)
        p = phi(gamma)
        # gamma = Phi(gamma) * y = y * Phi(gamma)
        assert p * y == gamma
        assert y * p == gamma
        # membership is equivalent to Phi-image self-adjointness
        assert adjunct(p) == p
        # adjunct(Phi(a) y) = adjunct(y) Phi(a) = lambda a
        assert adjunct(p * y) == adjunct(y) * p
        assert adjunct(p * y) == gamma.scale(alg33.lam)
    for _ in range(200):
        a = sample_subspace("C_n_y", alg33, rng)
        b = sample_subspace("C_n_y", alg33, rng)
        assert phi(a) * phi(b) == phi(b) * phi(a)
        if not in_gamma(a):
            assert adjunct(phi(a)) != phi(a)


@pytest.mark.parametrize("p,m,n", [
    (3, 1, 3), (5, 1, 5), (3, 2, 9), (3, 1, 6), (101, 1, 101)])
def test_times_y_and_gamma_through_y(p, m, n):
    alg = algebra_at(p, m, n)
    y = alg.basis(n)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        x = sample_subspace("full", alg, rng)
        gamma = sample_gamma(alg, rng)
        assert times_y(x) == x * y
        assert y_times(x) == y * x
        # gamma = Phi(gamma) * y with Phi(gamma) palindromic, hence central,
        # so x * gamma = Phi(gamma) * (x * y) for every x; the attack
        # solvers test their candidates through this
        assert phi(gamma) * x == x * phi(gamma)
        assert x * gamma == phi(gamma) * times_y(x)

    check()


# (3,7,9), q = 2187: 16-bit slots and the lane read of reps, which no
# benchmark workload runs
@pytest.mark.parametrize("p,m,n", [(3, 1, 3), (5, 1, 5), (3, 2, 9), (3, 7, 9), (101, 1, 101)])
def test_secret_pair_a_phi(p, m, n):
    alg = algebra_at(p, m, n)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32))
    def check(seed):
        pair = sample_secret_pair(alg, random.Random(seed))
        twin = SecretPair(pair.a, pair.gamma)
        a_phi = pair.a_phi
        # made when the pair was built, by one kernel call on the reps of
        # a and gamma; the element product with phi(gamma) is the oracle
        assert a_phi == pair.a * phi(pair.gamma) == twin.a_phi
        assert a_phi.in_rotation_subalgebra()
        assert pair.a_phi is a_phi and a_phi is not twin.a_phi
        # a_phi is no part of equality, hash or repr
        assert pair == twin and twin == pair
        assert (repr(pair), hash(pair)) == (repr(twin), hash(twin))
        assert "a_phi" not in repr(pair)
        assert len({pair, twin}) == 1

    check()


# An element's reps are one `bytes` wherever q < 256 and a tuple where
# q >= 256; a constructor that leaked the other type would make ==
# silently False against an equal element
@pytest.mark.parametrize("p,m,n,rep_type", [
    (3, 1, 6, bytes), (101, 1, 101, bytes), (3, 2, 9, bytes), (5, 3, 5, bytes),
    (3, 7, 9, tuple), (257, 1, 257, tuple)])
def test_element_representation(p, m, n, rep_type, tmp_path):
    pp = pp_at(p, m, n)
    alg, field = pp.algebra, pp.algebra.field
    q, dim = field.q, alg.dim
    assert alg.rep_type is rep_type and alg.zero_half == rep_type(bytes(n))
    path = tmp_path / "elements.txt"

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32))
    def check(seed):
        rng = random.Random(seed)
        x, h = sample_subspace("full", alg, rng), sample_subspace("h_element", alg, rng)
        rot, refl = sample_subspace("C_n", alg, rng), sample_subspace("C_n_y", alg, rng)
        pair, hashed = sample_secret_pair(alg, rng), hash_g1(rng.randbytes(16), pp)
        free = [rng.randrange(q) for _ in range(n // 2 + 1)]
        made = [
            alg.zero(), alg.one(), alg.basis(rng.randrange(dim)), alg.from_reps(x.reps()),
            x, h, rot, refl, sample_gamma(alg, rng), -x, x.scale(field.from_rep(rng.randrange(q))),
            adjunct(x), phi(refl), times_y(x), y_times(x),
            scaled_times_y(x, alg.lam_mul), scaled_times_y(x, alg.neg_lam_mul),
            gamma_from_free(alg, free), index_h_inv(rng.randrange(q ** dim), alg),
            pair.a, pair.gamma, pair.a_phi, hashed.a, hashed.gamma, hashed.a_phi,
            *itertools.islice(iter_gamma(alg), 3), rep_deserialize(rep_serialize(x), alg),
            x * h, rot * x, alg_product(rot, x, h), x + h, x - h]
        write_element_file(path, alg, made)
        made += read_element_file(path, alg, len(made))
        for e in made:
            assert type(e.coeffs) is rep_type and len(e.coeffs) == dim
            reps = e.reps()
            assert type(reps) is tuple and reps == tuple(e.coeffs)
            back = alg.from_reps(reps)
            assert back == e and hash(back) == hash(e)
            assert rep_deserialize(rep_serialize(e), alg) == e

    check()


# The kernel integer an element keeps, at each slot width: 8 and 24 bits
# on the byte route, 8, 16 and 32 bits on the join route
KEPT_SETS = [(3, 1, 3, 8), (3, 1, 6, 8), (5, 1, 5, 8), (3, 2, 9, 8), (3, 6, 9, 16),
             (3, 7, 9, 16), (101, 1, 101, 24), (257, 1, 257, 32)]


def other_algebra(alg):
    """An algebra of the same n, so of the same dim, unequal to alg: another
    non-square lambda where the field has one, else F_5 with lambda 2."""
    field = alg.field
    for rep in range(2, field.q):
        lam = field.from_rep(rep)
        if rep != alg.lam.rep and not is_square(lam):
            return AlgebraParams(field, alg.group, lam)
    f5 = FieldParams(5)
    return AlgebraParams(f5, alg.group, f5.elem(2))


@pytest.mark.parametrize("p,m,n,bits", KEPT_SETS)
def test_kept_kernel_integer(p, m, n, bits, tmp_path):
    pp = setup_public_params(p, m, n, random.Random(p * m * n))
    alg = pp.algebra
    assert alg.slot_bits == bits
    rng = random.Random(n)
    # a pair's a' keeps the reduced slots of its kernel call, which are
    # its pack, and a fresh rotation-only left operand packs its n
    # rotation reps alone, the integer of all 2n
    pair = sample_secret_pair(alg, rng)
    assert pair.a_phi._int == _pack(alg, pair.a_phi.coeffs)
    x, b = sample_subspace("C_n", alg, rng), sample_subspace("full", alg, rng)
    assert (x * b).reps() == schoolbook_product(x, b)
    assert x._int == _pack(alg, x.coeffs) and b._int == _pack(alg, b.coeffs)
    # integers filled under alg serve the equal params read back from the
    # parameter file, a distinct object
    write_param_file(tmp_path / "params.txt", pp)
    twin = read_param_file(tmp_path / "params.txt").algebra
    assert twin == alg and twin is not alg
    tx = twin.from_reps(sample_subspace("C_n", alg, rng).reps())
    tc = twin.from_reps(sample_subspace("full", alg, rng).reps())
    for left, right in [(tx, b), (tx, pair.a_phi), (tx, x), (pair.a_phi, tc)]:
        assert alg_product(left, right).reps() == schoolbook_product(left, right)
    # tc's integer, filled under alg just above, serves twin
    assert alg_product(tx, b, tc).reps() == oracle_sum(
        alg.field, schoolbook_product(tx, b), tc.reps())
    assert batch_reps(RotationBatch([tx, x]), tc) == [
        schoolbook_product(tx, tc), schoolbook_product(x, tc)]
    # and an operand of other params is refused after its integer is filled
    other = other_algebra(alg)
    assert other != alg and other.dim == alg.dim
    ox = other.from_reps(x.reps())
    ob = other.from_reps(b.reps())
    alg_product(ox, ob)
    assert ox._int is not None and ob._int is not None
    for call in (lambda: alg_product(x, ob), lambda: alg_product(x, b, ob),
                 lambda: alg_product(ox, b),
                 lambda: RotationBatch([x, ox]), lambda: list(RotationBatch([x]).times(ob)),
                 lambda: list(RotationBatch([x]).times(b, ob))):
        with pytest.raises(ValueError, match="mismatched parameters"):
            call()


@pytest.mark.parametrize("triple", [(3, 1, 6), (3, 2, 9)], ids=["3-1-6", "3-2-9"])
def test_gamma_from_free_refuses_wrong_length(triple):
    # n//2 + 1 free reps make an element of 2n reps; a short or long free
    # would make an element of another size, which SecretPair accepted
    alg = algebra_at(*triple)
    free = alg.n // 2 + 1
    gamma = gamma_from_free(alg, [1] * free)
    assert len(gamma.reps()) == alg.dim and in_gamma(gamma)
    for length in (1, free - 1, free + 1):
        with pytest.raises(ValueError, match="free coefficients"):
            gamma_from_free(alg, [1] * length)


def test_gamma_commutation(alg33, rng):
    for _ in range(200):
        g1 = sample_gamma(alg33, rng)
        g2 = sample_gamma(alg33, rng)
        assert g1 * adjunct(g2) == g2 * adjunct(g1)


def test_gamma_cardinalities(alg33, alg34):
    gs33 = list(iter_gamma(alg33))
    assert len(gs33) == 9 and len(set(g.reps() for g in gs33)) == 9
    gs34 = list(iter_gamma(alg34))
    assert len(gs34) == 27 and len(set(g.reps() for g in gs34)) == 27
    assert all(in_gamma(g) for g in gs33 + gs34)
    # the k-th element has the base-3 digits of k, lowest first, as its free
    # coefficients; the solvers' found pairs and counts rest on this order
    for k, g in enumerate(gs34):
        digits = [k // 3 ** i % 3 for i in range(3)]
        assert g == gamma_from_free(alg34, digits)
        assert list(g.reps()) == [0] * 4 + digits + digits[1:2]


def test_sample_gamma_support(alg33, rng):
    seen = set()
    for _ in range(2000):
        g = sample_gamma(alg33, rng)
        assert in_gamma(g)
        seen.add(g.reps())
    assert len(seen) == 9  # full support reached


def test_sample_subspace_contracts(alg33, rng):
    for _ in range(50):
        assert sample_subspace("C_n", alg33, rng).in_rotation_subalgebra()
        assert sample_subspace("C_n_y", alg33, rng).in_reflection_subspace()
        h = sample_subspace("h_element", alg33, rng)
        assert any(h.reps()[:3]) and any(h.reps()[3:])
    with pytest.raises(ValueError):
        sample_subspace("nope", alg33, rng)


def test_secret_pair_validation(alg33, rng):
    with pytest.raises(ValueError):
        SecretPair(alg33.basis(3), sample_gamma(alg33, rng))  # a not rotation
    with pytest.raises(ValueError):
        SecretPair(alg33.one(), alg33.from_reps([0, 0, 0, 1, 2, 1]))  # not in Gamma
    with pytest.raises(ValueError):
        SecretPair(alg33.zero(), alg33.basis(3))  # zero component
    with pytest.raises(ValueError):
        SecretPair(alg33.one(), alg33.zero())
    pair = sample_secret_pair(alg33, rng)
    assert pair.a.in_rotation_subalgebra() and not pair.a.is_zero()
    assert in_gamma(pair.gamma) and not pair.gamma.is_zero()
    with pytest.raises(TypeError):
        SecretPair(pair.a, pair.gamma, pair.a_phi)  # a' is made, not given


def test_secret_pair_rejects_components_of_two_algebras(rng):
    # over F_5, lambda = 2 and lambda = 3 give two algebras of the same
    # shape, so the reps of a and gamma would pass every other check and
    # the kernel would make an a' from them; construction must refuse
    field = FieldParams(5)
    alg2, alg3 = (AlgebraParams(field, DihedralGroup(5), field.elem(lam))
                  for lam in (2, 3))
    a2, gamma3 = alg2.one(), gamma_from_free(alg3, [1, 2, 3])
    with pytest.raises(ValueError, match="mismatched parameters"):
        SecretPair(a2, gamma3)
    with pytest.raises(ValueError, match="mismatched parameters"):
        SecretPair(alg3.one(), gamma_from_free(alg2, [1, 2, 3]))
    assert SecretPair(alg3.one(), gamma3).a_phi == phi(gamma3)


def test_sample_secret_pair_draws():
    # a's n reps, then gamma's n//2 + 1 free reps, each drawn again while
    # all zero: the draws of the element samplers, in the same order, and
    # the generator left in the same state
    alg = algebra_at(3, 1, 3)
    redrawn = 0
    for seed in range(200):
        rng, oracle = random.Random(seed), random.Random(seed)
        pair = sample_secret_pair(alg, rng)
        a = sample_subspace("C_n", alg, oracle)
        while a.is_zero():
            a, redrawn = sample_subspace("C_n", alg, oracle), redrawn + 1
        gamma = sample_gamma(alg, oracle)
        while gamma.is_zero():
            gamma, redrawn = sample_gamma(alg, oracle), redrawn + 1
        assert (pair.a, pair.gamma) == (a, gamma)
        assert rng.getstate() == oracle.getstate()
    assert redrawn > 0


# --- index bijection ---

def test_index_h_roundtrip_exhaustive(alg33):
    # index_h is the base-q number with the reps as digits, lowest first
    for value in range(3 ** 6):
        reps = index_h_inv(value, alg33).reps()
        assert sum(r * 3 ** i for i, r in enumerate(reps)) == value


def test_index_h_roundtrip_base_q():
    # q = 9 != p = 3: the reps are base-q digits, each a whole rep in [0, 9)
    alg = algebra_at(3, 2, 3)
    top = 9 ** 6
    for value in [*range(0, top, 101), top - 1]:
        reps = index_h_inv(value, alg).reps()
        assert len(reps) == 6 and all(0 <= r < 9 for r in reps)
        assert sum(r * 9 ** i for i, r in enumerate(reps)) == value
    with pytest.raises(ValueError):
        index_h_inv(top, alg)


def test_index_h_inv_range(alg33):
    with pytest.raises(ValueError):
        index_h_inv(3 ** 6, alg33)
    with pytest.raises(ValueError):
        index_h_inv(-1, alg33)


# --- serialization ---

def test_rep_serialize_example(alg33):
    e = alg33.from_reps([1, 0, 0, 0, 0, 0])
    assert rep_serialize(e) == bytes([1, 0, 0, 0, 0, 0])


def test_rep_serialize_injective_and_fixed_length(alg33):
    seen = set()
    for value in range(3 ** 6):
        data = rep_serialize(index_h_inv(value, alg33))
        assert len(data) == 6  # 2n * m * 1 byte
        seen.add(data)
    assert len(seen) == 3 ** 6


def test_rep_serialize_roundtrip(all_pps, rng):
    for pp in all_pps:
        alg = pp.algebra
        for _ in range(50):
            e = sample_subspace("full", alg, rng)
            assert rep_deserialize(rep_serialize(e), alg) == e


def test_rep_serialize_ciphertext_concatenates(alg33):
    c1, c2 = alg33.one(), alg33.basis(3)
    ct = PkeCiphertext(c1, c2)
    assert rep_serialize(ct) == rep_serialize(c1) + rep_serialize(c2)


def test_rep_serialize_rejects_unknown():
    with pytest.raises(TypeError):
        rep_serialize("nope")


def test_rep_deserialize_rejects_bad_input(alg33):
    with pytest.raises(ValueError):
        rep_deserialize(b"\x00" * 5, alg33)
    with pytest.raises(ValueError):
        rep_deserialize(b"\x03" + b"\x00" * 5, alg33)  # digit >= p
