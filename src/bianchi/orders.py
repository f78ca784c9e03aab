"""Maximal orders and optimal embeddings through the index invariant Lambda.

All order-theoretic questions handled here reduce to square classes of
indices and finitely many Hilbert symbols: compatibility of an index with
the quadratic ring, isomorphism of maximal orders, the forced Hilbert
character of an intersection index, local and global embedding counts, and
the automorphism index of a maximal order.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Iterable, Iterator, NamedTuple, Optional

from .arith import (
    INFINITY,
    Place,
    _hilbert_symbol_at,
    _proven_place,
    factorize,
    squarefree_part,
    valuation,
)
from .quadfield import ImagQuadField, SplitType, is_ideal_norm, splitting
from .quadfield import _INERT, _SPLIT
from .quaternion import MATRIX_ALGEBRA, QuaternionAlgebraQ, sigma, sigma_k
from .quaternion import _sigma_k_primes


class IncompatibleIndexError(ValueError):
    """The requested index cannot be realized by a compatible order."""


def _index_class(n: int) -> int:
    """An order index n >= 1 modulo rational squares: its squarefree part."""
    if n < 1:
        raise ValueError(f"index must be positive, got {n}")
    return squarefree_part(n)


def hilbert_character(m: int, k: ImagQuadField) -> frozenset[Place]:
    """The character v -> (m, -d)_v, given by the set of places where it is
    -1. Reciprocity makes that set even.

    The symbol can be -1 only at oo, 2 and the primes of m and d, so only
    those places are evaluated, by ``_minus_one_primes``, the one home of
    that place set; d's primes are read from the field, and m's from its
    factorization, which rejects m = 0. A positive square m gives the empty
    set, the trivial character.
    """
    return frozenset(
        INFINITY if p is None else _proven_place(p)
        for p in _minus_one_primes(m, k, factorize(m).primes())
    )


def _minus_one_primes(
    m: int, k: ImagQuadField, primes: Iterable[int]
) -> Iterator[int | None]:
    """The primes p, None for oo, with (m, -d)_p = -1, one at a time, out of
    oo, 2, the primes of d and the given primes, already proven prime: these
    must hold every other place where the symbol may be -1."""
    minus_d = -k.d
    for p in {None, 2, *primes, *k.primes}:
        if _hilbert_symbol_at(m, minus_d, p) == -1:
            yield p


def _order_type(lam_M: int, F: QuaternionAlgebraQ, k: ImagQuadField) -> int:
    """The index class of lam_M, the type of a maximal order of the k-algebra
    extending F; ValueError unless some compatible order has that index,
    which for F = M2(Q) means that it is an ideal norm of k."""
    lam = _index_class(lam_M)
    if not compatible_order_exists(lam, F, k):
        host = "M2(k)" if F == MATRIX_ALGEBRA else repr(F)
        raise ValueError(
            f"lam={lam} is not an admissible {host}-order type for d={k.d}"
        )
    return lam


def _divisors_of_primes(primes: list[int]) -> list[int]:
    """All products of distinct primes from the list, ascending."""
    divs = [1]
    for p in primes:
        divs += [d * p for d in divs]
    return sorted(divs)


def compatible_order_exists(lam: int, F: QuaternionAlgebraQ, k: ImagQuadField) -> bool:
    """Whether some order of index lam in a maximal order of F contains a
    copy of the quadratic ring at all primes dividing lam.

    Holds iff lam is an ideal norm of k and coprime to sigma_k(F).
    """
    return is_ideal_norm(lam, k) and gcd(lam, prod(_sigma_k_primes(F, k))) == 1


def maximal_orders_isomorphic(
    lam1: int,
    lam2: int,
    F: QuaternionAlgebraQ,
    k: ImagQuadField,
) -> bool:
    """Isomorphism test for two maximal orders of the k-algebra extending F,
    given their intersection indices lam1, lam2 against a common reference.

    The mutual intersection index is lam1*lam2 modulo squares, and the
    orders are isomorphic iff some squarefree f | sigma_k(F) makes
    (f * lam1 * lam2, -d)_v = +1 at every place. ValueError unless some
    compatible order has the index class of lam1, and of lam2.
    """
    m = squarefree_part(_order_type(lam1, F, k) * _order_type(lam2, F, k))
    return any(
        not hilbert_character(f * m, k)
        for f in _divisors_of_primes(_sigma_k_primes(F, k))
    )


def intersection_character(
    F: QuaternionAlgebraQ, lam_M: int, k: ImagQuadField
) -> frozenset[Place]:
    """The Hilbert character forced on the index of F meet M, for M a maximal
    order of M2(k) of type lam_M (measured against M2(o)), as its -1 set.

    Requires sigma_k(F) = 1, i.e. that F embeds in M2(k). The character is
    v -> (F at v) * (sigma(F) * lam_M, -d)_v.
    """
    if sigma_k(F, k) != 1:
        raise ValueError("F does not embed in M2(k): sigma_k(F) != 1")
    lam = _order_type(lam_M, MATRIX_ALGEBRA, k)
    return F.ramified ^ hilbert_character(sigma(F) * lam, k)


def joint_intersection_factor(
    F: QuaternionAlgebraQ,
    lam_F: int,
    F2: QuaternionAlgebraQ,
    lam_F2: int,
    lam_MM2: int,
    k: ImagQuadField,
) -> Optional[int]:
    """The squarefree f | sigma_k(F) linking the intersection data of two
    rational algebras inside a common k-algebra.

    Searches for f with, at every place v,
    (sigma(F)*lam_F*f*lam_MM2*sigma(F2)*lam_F2, -d)_v = (F at v)*(F2 at v).
    Returns None when no divisor satisfies the identity, which signals
    inconsistent input data.
    """
    if sigma_k(F, k) != sigma_k(F2, k):
        raise ValueError("no common extension: sigma_k values differ")
    base = sigma(F) * sigma(F2)
    for lam in (lam_F, lam_MM2, lam_F2):
        base *= _index_class(lam)
    target = F.ramified ^ F2.ramified
    for f in _divisors_of_primes(_sigma_k_primes(F, k)):
        if hilbert_character(base * f, k) == target:
            return f
    return None


class LocalCountQuery(NamedTuple):
    """Data of a local embedding-count question at a finite prime p, an
    immutable tuple, which a report builds for each local factor.

    ``split_type`` is the behavior of p in k, ``algebra_split`` says whether
    the algebra splits at p, ``index_exponent`` is e with index p^e, and
    ``d_mod4`` (only consulted for ramified p = 2) is d mod 4 in {1, 2}.
    A prime ramified in k with d = 3 mod 4 does not occur: 2 is then not
    ramified in k and the query routes through the split/inert rows.
    """

    p: int
    split_type: SplitType
    algebra_split: bool
    index_exponent: int
    d_mod4: int | None = None


# ramified p = 2 table: rows by e = 1..6 and >= 7, keyed (d mod 4, split?)
_TWO_ADIC_TABLE = {
    (1, True): (1, 1, 2, 4, 8, 8, 8),
    (1, False): (3, 2, 4, 8, 8, 8, 8),
    (2, True): (1, 1, 2, 4, 4, 8, 16),
    (2, False): (3, 2, 4, 4, 8, 16, 16),
}


def local_embedding_count(q: LocalCountQuery) -> int:
    """Number of local maximal orders of the extended algebra meeting the
    rational algebra in a fixed order of index p^e."""
    e = q.index_exponent
    if e < 0:
        raise ValueError("index exponent must be nonnegative")
    if q.split_type is _SPLIT:
        return 1 if e == 0 else 2
    if q.split_type is _INERT:
        if e % 2:
            raise ValueError("inert primes only admit even index exponents")
        return 1 if (e == 0 and q.algebra_split) else 2
    # ramified in k
    if e == 0:
        return 1
    if q.p != 2:
        p = q.p
        if e == 1:
            return 1 if q.algebra_split else p + 1
        if e == 2:
            return p - 1 if q.algebra_split else 2 * p
        return 2 * p
    if q.d_mod4 not in (1, 2):
        raise ValueError("ramified p = 2 requires d mod 4 in {1, 2}")
    row = _TWO_ADIC_TABLE[(q.d_mod4, q.algebra_split)]
    return row[min(e, 7) - 1]


def global_embedding_count(lam: int, F: QuaternionAlgebraQ, k: ImagQuadField) -> int:
    """Number of maximal orders of the extended k-algebra meeting F exactly
    in a fixed compatible order of index lam.

    Product of the local counts over the primes of lam together with the
    finite ramified primes of F that are inert in k (which contribute 2
    even at exponent 0); all other primes contribute 1. lam is divided by
    F's ramified primes first, and only a cofactor above 1 is factored.
    """
    if not compatible_order_exists(lam, F, k):
        raise IncompatibleIndexError(
            f"index {lam} is not compatible for this algebra over d={k.d}"
        )
    ram = F.finite_ramified
    rest = lam
    for p in ram:
        while rest % p == 0:
            rest //= p
    count = 1
    for p in ram if rest == 1 else {*ram, *factorize(rest).primes()}:
        split = splitting(k, p)
        if lam % p == 0 or (p in ram and split is _INERT):
            d_mod4 = k.d % 4 if p == 2 else None
            q = LocalCountQuery(p, split, p not in ram, valuation(lam, p), d_mod4)
            count *= local_embedding_count(q)
    return count


def unit_character_divisors(F: QuaternionAlgebraQ, k: ImagQuadField) -> list[int]:
    """Divisors f of sigma_k(F) with (f, -d)_v = +1 at every place, ascending.
    The test of each f stops at the first place where the symbol is -1."""
    qs = _sigma_k_primes(F, k)
    if not qs:
        return [1]  # 1 is a square: its character is trivial
    # each prime of sigma_k splits in k, so -d is a square there and no symbol
    # (f, -d) can be -1 at it: only oo, 2 and the primes of d are evaluated
    trivial = [1]
    for f in _divisors_of_primes(qs)[1:]:
        for _ in _minus_one_primes(f, k, ()):
            break  # a -1: the character of f is not trivial
        else:
            trivial.append(f)
    return trivial


def ramified_pairing_rank(F: QuaternionAlgebraQ, k: ImagQuadField) -> int:
    """GF(2)-rank of the pairing matrix h[p][q] = (1 - (q, -d)_p) / 2, with p
    over the primes of the discriminant and q over the primes of sigma_k(F).

    The divisor-enumeration exponent s satisfies s = r - rank: a divisor f
    has everywhere-trivial character iff its exponent vector lies in the
    kernel of the pairing (the symbol (f, -d)_v can be -1 only at v | D).
    """
    qs = _sigma_k_primes(F, k)
    if not qs:
        return 0  # no primes q, so the pairing matrix has no columns
    rows = []
    for p in k.discriminant_primes():
        mask = 0
        for j, q in enumerate(qs):
            if _hilbert_symbol_at(q, -k.d, p) == -1:
                mask |= 1 << j
        rows.append(mask)
    # Gaussian elimination over GF(2) on bitmask rows
    pivots: list[int] = []
    for row in rows:
        cur = row
        for piv in pivots:
            if cur & (1 << (piv.bit_length() - 1)):
                cur ^= piv
        if cur:
            pivots.append(cur)
    return len(pivots)


def automorphism_index(F: QuaternionAlgebraQ, k: ImagQuadField) -> int:
    """Index of inner automorphisms in all automorphisms of a maximal order
    of the k-algebra extending F: 2^(t+r+s-1), with t the number of primes
    of the discriminant, r the number of primes of sigma_k(F), and 2^s the
    number of divisors of sigma_k(F) with everywhere-trivial character."""
    t = len(k.discriminant_primes())
    r = len(_sigma_k_primes(F, k))
    n_trivial = len(unit_character_divisors(F, k))
    s = n_trivial.bit_length() - 1
    if 1 << s != n_trivial:
        raise RuntimeError("trivial-character divisors must number a power of 2")
    return 1 << (t + r + s - 1)
