"""Quaternion algebras over Q as ramification data.

An algebra is identified with its (even-cardinality) set of ramified places;
that identification is faithful up to isomorphism, and every operation in
this package consumes only ramification data. No structure constants are
stored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import gcd, prod

from .arith import (
    INFINITY,
    Place,
    hilbert_symbol,
    relevant_places,
    squarefree_part,
)
from .quadfield import _SPLIT, ImagQuadField, splitting


class SubgroupKind(enum.Enum):
    """The three non-cyclic maximal finite subgroup types of a Bianchi group."""

    D3 = "d3"  # projective 3-dihedral, isomorphic to S3
    T = "t"  # projective tetrahedral, isomorphic to A4
    D2MAX = "d2"  # maximal-finite 2-dihedral, isomorphic to V4

    # members are singletons, so hash them by identity, in C, where Enum
    # hashes each by its name in Python on every dict lookup
    __hash__ = object.__hash__


# the members as module constants, for the reason given at quadfield._SPLIT
_D3, _T = SubgroupKind.D3, SubgroupKind.T

#: the kinds in the order of every report, scan row and listing
KINDS = tuple(SubgroupKind)


@dataclass(frozen=True)
class QuaternionAlgebraQ:
    """A quaternion algebra over Q, given by its set of ramified places.

    ``finite_ramified`` holds the finite ramified primes, ascending, computed
    once when the algebra is built.
    """

    ramified: frozenset[Place]
    finite_ramified: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.ramified) % 2 != 0:
            raise ValueError("the number of ramified places must be even")
        primes = sorted(v.p for v in self.ramified if not v.is_infinite)
        object.__setattr__(self, "finite_ramified", tuple(primes))

    @property
    def ramified_at_infinity(self) -> bool:
        return INFINITY in self.ramified

    def __repr__(self) -> str:
        names = sorted(self.ramified, key=Place.sort_key)
        return f"QuaternionAlgebraQ({{{', '.join(map(repr, names))}}})"


MATRIX_ALGEBRA = QuaternionAlgebraQ(frozenset())


def from_hilbert_pair(a: int, b: int) -> QuaternionAlgebraQ:
    """The algebra with presentation (a, b): ramified where (a,b)_v = -1."""
    if a == 0 or b == 0:
        raise ValueError("a and b must be nonzero")
    ram = frozenset(
        v for v in relevant_places(a, b) if hilbert_symbol(a, b, v) == -1
    )
    return QuaternionAlgebraQ(ram)


def sigma(F: QuaternionAlgebraQ) -> int:
    """Product of the finite ramified primes, negated if oo is ramified."""
    s = 1
    for p in F.finite_ramified:
        s *= p
    return -s if F.ramified_at_infinity else s


def sigma_k(F: QuaternionAlgebraQ, k: ImagQuadField) -> int:
    """Product of the finite ramified primes of F that split in k.

    This invariant decides which k-quaternion algebra F extends to; it is 1
    exactly when F embeds in M2(k).
    """
    return prod(_sigma_k_primes(F, k))


def _sigma_k_primes(F: QuaternionAlgebraQ, k: ImagQuadField) -> list[int]:
    """The primes of sigma_k(F, k), ascending, read off the splitting in k
    of F's finite ramified primes, without factoring sigma_k."""
    # a plain loop: a report runs this 8 times, and a list comprehension
    # costs a frame of its own before Python 3.12
    primes = []
    for p in F.finite_ramified:
        if splitting(k, p) is _SPLIT:
            primes.append(p)
    return primes


def normalize_tau(tau: int, k: ImagQuadField) -> int:
    """Reduce tau to a squarefree representative coprime to the discriminant.

    The result tau' is squarefree, coprime to D, satisfies tau' = 1 mod 4
    whenever 2 | d, and has the same Hilbert class as tau with respect to -d
    at every place: each step multiplies tau by a value of the norm form
    x^2 + d*y^2 (namely d + g^2 or d + 1), which has (., -d)_v = +1
    everywhere, and then discards a square factor.
    """
    if tau == 0:
        raise ValueError("tau must be nonzero")
    d = k.d
    tau = squarefree_part(tau)
    # Clear the common factor g = gcd(tau, d) in one step: tau/g shares no
    # prime with d, as tau is squarefree, and neither does d/g + g, as d is
    # squarefree, so a prime of g does not divide d/g and one of d/g not g.
    g = gcd(abs(tau), d)
    if g > 1:
        tau = squarefree_part(tau // g * (d // g + g))
        if gcd(abs(tau), d) != 1:
            raise RuntimeError("gcd clearing must strictly decrease")
    # a leftover factor 2 of D is possible only for odd d = 1 mod 4
    if d % 4 == 1 and tau % 2 == 0:
        tau = squarefree_part(tau * (d + 1) // 4)
    if d % 2 == 0 and tau % 4 != 1:
        tau = squarefree_part(tau * (d + 1))
    return tau


@dataclass(frozen=True)
class GroupAlgebraData:
    """The rational quaternion algebra spanned by a finite group's preimage,
    with the index of its group order and its outer automorphism index."""

    algebra: QuaternionAlgebraQ
    lambda_of_group_order: int
    aut_index: int


_D3_ALGEBRA = QuaternionAlgebraQ(frozenset({Place(3), INFINITY}))
_T_ALGEBRA = QuaternionAlgebraQ(frozenset({Place(2), INFINITY}))

_GROUP_ALGEBRAS = {
    SubgroupKind.D3: GroupAlgebraData(_D3_ALGEBRA, 1, 2),
    SubgroupKind.T: GroupAlgebraData(_T_ALGEBRA, 1, 2),
    SubgroupKind.D2MAX: GroupAlgebraData(_T_ALGEBRA, 2, 6),
}


def group_algebra(kind: SubgroupKind) -> GroupAlgebraData:
    """Fixed data of the group's algebra: D3 -> ramified {3, oo}; the
    tetrahedral and 2-dihedral groups share the algebra ramified at {2, oo},
    the 2-dihedral order sitting with index 2 in the tetrahedral one."""
    return _GROUP_ALGEBRAS[kind]
