"""Exact arithmetic of finite subgroups of Bianchi groups.

Decides which of the three non-cyclic finite group types (3-dihedral,
tetrahedral, maximal 2-dihedral) embed in PSL2(o) for o the ring of
integers of an imaginary quadratic field, and in the unit groups of
maximal orders of quaternion algebras over that field, and computes their
conjugacy class counts. Two independent brute-force oracles validate the
closed-form criteria.
"""

from .arith import (
    INFINITY,
    Factorization,
    Place,
    factorize,
    hilbert_symbol,
    kronecker,
    squarefree_part,
)
from .classify import (
    GammaMismatchError,
    NoHostOrderError,
    checked_gamma,
    classify_report,
    contains_in_order,
    contains_in_psl2o,
    dump_row,
    gamma,
    gamma_composed,
    host_algebra_split,
)
from .orders import (
    IncompatibleIndexError,
    LocalCountQuery,
    automorphism_index,
    compatible_order_exists,
    global_embedding_count,
    hilbert_character,
    intersection_character,
    joint_intersection_factor,
    local_embedding_count,
    maximal_orders_isomorphic,
)
from .quadfield import (
    ImagQuadField,
    NonSquarefreeError,
    SplitType,
    is_ideal_norm,
    make_field,
    splitting,
)
from .quaternion import (
    MATRIX_ALGEBRA,
    GroupAlgebraData,
    QuaternionAlgebraQ,
    SubgroupKind,
    embeds_in_common_extension,
    from_hilbert_pair,
    group_algebra,
    normalize_tau,
    sigma,
    sigma_k,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "Factorization",
    "Place",
    "factorize",
    "hilbert_symbol",
    "kronecker",
    "squarefree_part",
    "GammaMismatchError",
    "NoHostOrderError",
    "checked_gamma",
    "classify_report",
    "contains_in_order",
    "contains_in_psl2o",
    "dump_row",
    "gamma",
    "gamma_composed",
    "host_algebra_split",
    "IncompatibleIndexError",
    "LocalCountQuery",
    "automorphism_index",
    "compatible_order_exists",
    "global_embedding_count",
    "hilbert_character",
    "intersection_character",
    "joint_intersection_factor",
    "local_embedding_count",
    "maximal_orders_isomorphic",
    "ImagQuadField",
    "NonSquarefreeError",
    "SplitType",
    "is_ideal_norm",
    "make_field",
    "splitting",
    "MATRIX_ALGEBRA",
    "GroupAlgebraData",
    "QuaternionAlgebraQ",
    "SubgroupKind",
    "embeds_in_common_extension",
    "from_hilbert_pair",
    "group_algebra",
    "normalize_tau",
    "sigma",
    "sigma_k",
    "__version__",
]
