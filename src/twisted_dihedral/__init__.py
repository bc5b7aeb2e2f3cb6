"""Public-key constructions over a twisted dihedral group algebra.

The package provides field and group primitives, the twisted algebra with
its reversible subspace, a two-message key exchange, a probabilistic
public-key encryption scheme, an FO-transformed KEM with implicit
rejection, and exhaustive and meet-in-the-middle solvers for the
decomposition problem. The solvers are exponential teaching baselines;
the scheme itself falls to a polynomial-time linear decomposition attack.
"""

from .errors import CapacityError, ParameterError
from .field import (FieldElement, FieldParams, get_lambda, is_square,
                    mult_order)
from .group import DihedralGroup
from .cocycle import (BetaMap, Cocycle, CocycleCheck, coboundary_of,
                      equivalence_search, verify_cocycle)
from .algebra import (AlgebraElement, AlgebraParams, SecretPair, adjunct,
                      alg_product, in_gamma, index_h_inv, iter_gamma,
                      phi, rep_deserialize, rep_serialize,
                      rotation_products, sample_gamma,
                      sample_secret_pair, sample_subspace, times_y)
from .kex import (PublicParams, Session, derive_public, derive_shared,
                  setup_public_params)
from .pke import PkeCiphertext, PkeKeyPair, pke_dec, pke_enc, pke_gen
from .kem import (KemKeyPair, hash_g1, hash_g2, kem_decaps, kem_encaps,
                  kem_keygen)
from .attacks import (AttackResult, DpdInstance, MitmTable, dpd_verify,
                      exhaustive_dpd, key_recovery_check, mitm_offline,
                      mitm_online, run_attack_game)

__version__ = "0.1.0"
