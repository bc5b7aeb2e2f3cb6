"""The two-message key exchange over the twisted dihedral group algebra.

Public parameters fix (p, m, n), a non-square lambda, and a public element
h whose rotation and reflection parts are both nonzero. A party's public
key is a*h*gamma; the shared key is a*peer_pk*adjunct(gamma).

Each gamma in the reversible subspace is phi(gamma)*y with phi(gamma)
palindromic, so x*gamma = phi(gamma)*(x*y) for every x; and adjunct(gamma)
= lambda*gamma. So pk = a'*(h*y) and k = a'*(lambda*(peer_pk*y)), with
a' = a*phi(gamma) made when the pair is built (`SecretPair.a_phi`). A
party takes 3 kernel calls (a', pk, k) and 5 big-integer multiplies that
hold data (algebra.py gives the kernel), so the key exchange, both sides,
takes 6 and 10. a' is the
equivalent key of the linear decomposition attack (Myasnikov and
Roman'kov, Groups Complexity Cryptology 7, 2015): (a', y) is a valid
secret for pk, and a' solves an F_q-linear system in n unknowns.
"""

from __future__ import annotations

import random
from typing import Optional

from .algebra import (AlgebraElement, AlgebraParams, SecretPair,
                      sample_secret_pair, sample_subspace, scaled_times_y,
                      times_y)
from .errors import ParameterError
from .field import FieldParams, get_lambda
from .group import DihedralGroup


class PublicParams:
    """Validated shared parameters: the algebra, the public element h, and h*y."""

    def __init__(self, algebra: AlgebraParams, h: AlgebraElement):
        # the protocol needs a non-semisimple algebra, hence p | 2n; the
        # bare algebra is meaningful (and enumerable) without it
        if (2 * algebra.n) % algebra.field.p != 0:
            raise ParameterError(
                f"p={algebra.field.p} must divide the group order "
                f"2n={2 * algebra.n}")
        validate_h(h)
        self.algebra = algebra
        self.h = h
        self.hy = times_y(h)

    def __eq__(self, other):
        return (isinstance(other, PublicParams)
                and self.algebra == other.algebra and self.h == other.h)

    def __repr__(self):
        return f"PublicParams({self.algebra!r})"


def validate_h(h: AlgebraElement) -> None:
    if h.in_reflection_subspace():
        raise ParameterError("public element h has a zero rotation part")
    if h.in_rotation_subalgebra():
        raise ParameterError("public element h has a zero reflection part")


def setup_public_params(p: int, m: int, n: int, rng: random.Random) -> PublicParams:
    """Generate fresh public parameters for (p, m, n).

    Requires p odd prime with p | 2n (so the algebra is not semisimple and
    the known Maschke-style decomposition attack does not apply).
    """
    group = DihedralGroup(n)
    field = FieldParams(p, m)
    lam = get_lambda(field, rng)
    algebra = AlgebraParams(field, group, lam)
    h = sample_subspace("h_element", algebra, rng)
    return PublicParams(algebra, h)


def derive_public(secret: SecretPair, pp: PublicParams) -> AlgebraElement:
    """pk = a * h * gamma, computed as a' * (h * y) with a' = a * phi(gamma)."""
    return secret.a_phi * pp.hy


def derive_shared(secret: SecretPair, peer_pk: AlgebraElement,
                  pp: PublicParams) -> AlgebraElement:
    """k = a * peer_pk * adjunct(gamma), computed as a' * (lambda * (peer_pk * y)):
    adjunct(gamma) = lambda * gamma. Erase the secret afterwards."""
    return secret.a_phi * scaled_times_y(peer_pk, peer_pk.params.lam_mul)


class Session:
    """Single-owner protocol session; the secret is erased on completion."""

    def __init__(self, role: str, session_id: bytes, pp: PublicParams,
                 rng: random.Random):
        if role not in ("initiator", "responder"):
            raise ValueError("role must be 'initiator' or 'responder'")
        self.role = role
        self.session_id = session_id
        self.pp = pp
        self._secret: Optional[SecretPair] = sample_secret_pair(pp.algebra, rng)
        self.public_key = derive_public(self._secret, pp)

    def complete(self, peer_pk: AlgebraElement) -> AlgebraElement:
        """Derive the session key, erase the secret pair and return the key."""
        if self._secret is None:
            raise RuntimeError("session already completed")
        key = derive_shared(self._secret, peer_pk, self.pp)
        self._secret = None
        return key
