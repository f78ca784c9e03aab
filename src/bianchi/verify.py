"""The verification suites: each checks a result of the paper against an
independent path and returns its failures as lines of text, empty on a pass.

``SUITES`` is the one table of them: each suite's name, the options it
reads, their defaults, and the largest ``--dmax`` it accepts.
"""

from __future__ import annotations

import random
from functools import cache, partial
from typing import Callable, NamedTuple, Optional

from .arith import hilbert_symbol, relevant_places
from .classify import GammaMismatchError, NoHostOrderError, checked_gamma
from .classify import contains_in_order, contains_in_psl2o
from .oracle.localtree import PrecisionError, count_maximal_orders_local
from .oracle.localtree import _smallest_nonresidue
from .oracle.subgroups import DEFAULT_HEIGHT, find_subgroup
from .orders import LocalCountQuery, automorphism_index, local_embedding_count
from .orders import ramified_pairing_rank
from .quadfield import ImagQuadField, SplitType, squarefree_fields
from .quaternion import KINDS, QuaternionAlgebraQ, SubgroupKind, group_algebra
from .quaternion import _sigma_k_primes, from_hilbert_pair


def _suite_reciprocity() -> list[str]:
    rng = random.Random(20240917)
    failures = []
    for _ in range(1000):
        a = rng.randint(1, 10**6) * rng.choice((1, -1))
        b = rng.randint(1, 10**6) * rng.choice((1, -1))
        prod = 1
        for v in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, v)
        if prod != 1:
            failures.append(f"reciprocity fails for ({a}, {b})")
    return failures


def _range_failures(check: Callable[..., list[str]], dmax: int, **options) -> list[str]:
    """The failures of a per-field check, given the suite's other options,
    over the field of every squarefree d <= dmax, in order of d."""
    return [f for k in squarefree_fields(1, dmax) for f in check(k, **options)]


def _existence_failures_at(k: ImagQuadField) -> list[str]:
    return [
        f"symbol/congruence mismatch: {kind.value}, d={k.d}"
        for kind in KINDS
        if contains_in_order(kind, 1, k) != contains_in_psl2o(kind, k)
    ]


def _gamma_failures_at(k: ImagQuadField) -> list[str]:
    failures = []
    for kind in KINDS:
        try:
            checked_gamma(kind, k)
        except NoHostOrderError:
            continue
        except GammaMismatchError as exc:
            failures.append(str(exc))
    return failures


@cache
def _autindex_algebras() -> tuple[QuaternionAlgebraQ, ...]:
    """The algebras of the autindex suite, built once per process."""
    return (
        group_algebra(SubgroupKind.D3).algebra,
        group_algebra(SubgroupKind.T).algebra,
        from_hilbert_pair(-1, 3),
        from_hilbert_pair(2, 5),
        from_hilbert_pair(-1, 7),
    )


def _autindex_failures_at(k: ImagQuadField) -> list[str]:
    """automorphism_index, whose s counts the trivial-character divisors of
    sigma_k, against 2^(t+r+s-1) with s = r - rank, where rank is the GF(2)
    rank of the ramified pairing: 2^(t + 2r - rank - 1)."""
    t = len(k.discriminant_primes())
    failures = []
    for F in _autindex_algebras():
        r = len(_sigma_k_primes(F, k))
        s = r - ramified_pairing_rank(F, k)
        if automorphism_index(F, k) != 1 << (t + r + s - 1):
            failures.append(f"automorphism index/rank mismatch: d={k.d}, {F}")
    return failures


def _subgroup_failures_at(k: ImagQuadField, height: int) -> list[str]:
    failures = []
    for kind in KINDS:
        predicted = contains_in_psl2o(kind, k)
        witness = find_subgroup(kind, k, height)
        if predicted and witness is None:
            failures.append(
                f"no witness within height {height} although existence "
                f"is predicted: {kind.value}, d={k.d}"
            )
        if not predicted and witness is not None:
            failures.append(
                f"witness found but nonexistence predicted: {kind.value}, d={k.d}"
            )
    return failures


def _suite_local() -> list[str]:
    failures = []
    for p, d in ((3, 3), (5, 5)):
        k = ImagQuadField(d)
        for split_alg, tau in ((True, 1), (False, _smallest_nonresidue(p))):
            for r in range(4):
                expected = local_embedding_count(
                    LocalCountQuery(p, SplitType.RAMIFIED, split_alg, r)
                )
                try:
                    got = count_maximal_orders_local(p, k, tau, r)
                except PrecisionError as exc:
                    failures.append(f"precision failure p={p}, tau={tau}, r={r}: {exc}")
                    continue
                if got != expected:
                    failures.append(
                        f"tree count p={p}, tau={tau}, r={r}: got {got}, "
                        f"table says {expected}"
                    )
    return failures


class Suite(NamedTuple):
    """A verify suite, the defaults of the options it reads, and the largest
    dmax it accepts; None marks an option the suite does not read, which is
    then rejected."""

    run: Callable[..., list[str]]
    dmax: Optional[int] = None
    max_dmax: Optional[int] = None
    height: Optional[int] = None


#: every suite by its name: Suite(run, default dmax, largest dmax, default height)
SUITES = {
    "reciprocity": Suite(_suite_reciprocity),
    "existence": Suite(partial(_range_failures, _existence_failures_at), 1000, 10**6),
    "gamma": Suite(partial(_range_failures, _gamma_failures_at), 500, 10**6),
    "autindex": Suite(partial(_range_failures, _autindex_failures_at), 200, 10**6),
    # at height 16, --dmax 2000 took 21-24 s on a 2-core VM: about 11 ms per d
    "subgroups": Suite(
        partial(_range_failures, _subgroup_failures_at), 30, 2000, DEFAULT_HEIGHT
    ),
    "local": Suite(_suite_local),
}
