"""Public-key constructions over a twisted dihedral group algebra.

The package provides field and group primitives, the twisted algebra with
its reversible subspace, a two-message key exchange, a probabilistic
public-key encryption scheme, an FO-transformed KEM with implicit
rejection, and exhaustive and meet-in-the-middle solvers for the
decomposition problem. The solvers are exponential teaching baselines;
the scheme itself falls to a polynomial-time linear decomposition attack.
"""
