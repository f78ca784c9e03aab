"""Imaginary quadratic fields Q(i*sqrt(d)): discriminant, splitting, ideal norms."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from math import isqrt
from typing import Iterator, Union

from .arith import _primes_upto, factorize, kronecker


class NonSquarefreeError(ValueError):
    """Raised when a d that must be squarefree is not."""


class SplitType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


# The members as module constants, which the report path compares against:
# on Python 3.10 and 3.11 a load of SplitType.X goes through EnumType's
# __getattr__ and costs about ten times a global load.
_SPLIT, _INERT = SplitType.SPLIT, SplitType.INERT

#: the splitting of p in k by the Kronecker symbol (D/p)
_BY_SYMBOL = {1: SplitType.SPLIT, -1: SplitType.INERT, 0: SplitType.RAMIFIED}


@dataclass(frozen=True)
class ImagQuadField:
    """The field k = Q(i*sqrt(d)) for squarefree d >= 1.

    The ring of integers is Z[omega] with omega = (1 + i*sqrt(d))/2 when
    d = 3 mod 4 and omega = i*sqrt(d) otherwise; the discriminant is D = -d
    in the first case and D = -4d in the second.

    The field carries the primes of d, ascending, in ``primes``: d is
    factored once, when the field is built, or its primes come from the
    sieve of ``squarefree_fields``. It also keeps the splitting of each
    prime that ``splitting`` was asked about, in ``_splits``. Equality and
    hash are by d.
    """

    d: int
    primes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _splits: dict[int, SplitType] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_splits", {})
        if "primes" in vars(self):  # set already by squarefree_fields
            return
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
        fac = factorize(self.d)
        if any(e > 1 for _, e in fac.factors):
            raise NonSquarefreeError(f"d must be squarefree, got {self.d}")
        object.__setattr__(self, "primes", fac.primes())

    @property
    def discriminant(self) -> int:
        return -self.d if self.d % 4 == 3 else -4 * self.d

    def discriminant_primes(self) -> tuple[int, ...]:
        return self.primes if self.d % 4 in (2, 3) else (2,) + self.primes


FieldLike = Union[int, ImagQuadField]

#: d per segment of the squarefree sieve, which bounds its memory at any hi
_SIEVE_SPAN = 1 << 12


def make_field(d: int) -> ImagQuadField:
    """Build Q(i*sqrt(d)); d must be a squarefree positive integer."""
    return ImagQuadField(d)


def _field(d: FieldLike) -> ImagQuadField:
    # NonSquarefreeError propagates: every criterion assumes squarefree d
    return d if isinstance(d, ImagQuadField) else ImagQuadField(d)


def squarefree_fields(lo: int, hi: int) -> Iterator[ImagQuadField]:
    """The fields of the squarefree d in lo..hi, lo >= 1, in order, built one
    at a time from a segmented sieve; no d is factored.

    Each segment of _SIEVE_SPAN d divides out every prime p <= sqrt(hi) and
    drops the d that some p^2 divides. What is left of a squarefree d is 1
    or one prime above sqrt(hi). Each field still goes through
    ``__post_init__``, like any other, so that a wrapper of it (such as a
    tracer's) sees every build.
    """
    base = _primes_upto(isqrt(hi))
    for a in range(lo, hi + 1, _SIEVE_SPAN):
        n = min(_SIEVE_SPAN, hi + 1 - a)
        rest = list(range(a, a + n))  # 0 once d is known not squarefree
        primes = [()] * n
        for p in base:
            for i in range(-a % (p * p), n, p * p):
                rest[i] = 0
            for i in range(-a % p, n, p):
                if rest[i]:
                    rest[i] //= p
                    primes[i] += (p,)
        for i, r in enumerate(rest):
            if r:
                k = object.__new__(ImagQuadField)
                ps = primes[i] + (r,) if r > 1 else primes[i]
                vars(k).update(d=a + i, primes=ps)
                k.__post_init__()
                yield k


def splitting(k: ImagQuadField, p: int) -> SplitType:
    """Behavior of the rational prime p in k, read off the Kronecker symbol
    (D/p) once per field and prime, and kept on the field."""
    split = k._splits.get(p)
    if split is None:
        split = k._splits[p] = _BY_SYMBOL[kronecker(k.discriminant, p)]
    return split


def is_ideal_norm(lam: int, k: ImagQuadField) -> bool:
    """Whether lam is the absolute norm of an integral ideal of k.

    Split and ramified primes realize every exponent; an inert prime only
    contributes squares, so the condition is that v_p(lam) is even at every
    inert p. The primes of the discriminant, all ramified, are divided out
    of lam first, and only what is left is factored.
    """
    if lam < 1:
        raise ValueError(f"lam must be positive, got {lam}")
    rest = lam
    for p in k.discriminant_primes():
        while rest % p == 0:
            rest //= p
    return rest == 1 or all(
        e % 2 == 0 or splitting(k, p) is not _INERT
        for p, e in factorize(rest).factors
    )
