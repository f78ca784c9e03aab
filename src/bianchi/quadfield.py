"""Imaginary quadratic fields Q(i*sqrt(d)): discriminant, splitting, ideal norms."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .arith import factorize, kronecker


class NonSquarefreeError(ValueError):
    """Raised when a d that must be squarefree is not."""


class SplitType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


#: the splitting of p in k by the Kronecker symbol (D/p)
_BY_SYMBOL = {1: SplitType.SPLIT, -1: SplitType.INERT, 0: SplitType.RAMIFIED}


@dataclass(frozen=True)
class ImagQuadField:
    """The field k = Q(i*sqrt(d)) for squarefree d >= 1.

    The ring of integers is Z[omega] with omega = (1 + i*sqrt(d))/2 when
    d = 3 mod 4 and omega = i*sqrt(d) otherwise; the discriminant is D = -d
    in the first case and D = -4d in the second.

    The field carries the primes of d, ascending, in ``primes``: d is
    factored once, when the field is built, or its primes come from a sieve
    (``_from_primes``). It also keeps the splitting of each prime that
    ``splitting`` was asked about, in ``_splits``. Equality and hash are by d.
    """

    d: int
    primes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _splits: dict[int, SplitType] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_splits", {})
        if "primes" in vars(self):  # set already by _from_primes
            return
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")
        fac = factorize(self.d)
        if any(e > 1 for _, e in fac.factors):
            raise NonSquarefreeError(f"d must be squarefree, got {self.d}")
        object.__setattr__(self, "primes", fac.primes())

    @classmethod
    def _from_primes(cls, d: int, primes: tuple[int, ...]) -> "ImagQuadField":
        """The field of a squarefree d >= 1 whose primes, ascending, a sieve
        has found: d is neither factored nor validated again. The build
        still goes through ``__post_init__``, like any other, so that a
        wrapper of it (such as a tracer's) sees every build."""
        k = object.__new__(cls)
        object.__setattr__(k, "d", d)
        object.__setattr__(k, "primes", primes)
        k.__post_init__()
        return k

    @property
    def discriminant(self) -> int:
        return -self.d if self.d % 4 == 3 else -4 * self.d

    def discriminant_primes(self) -> tuple[int, ...]:
        return self.primes if self.d % 4 in (2, 3) else (2,) + self.primes


def make_field(d: int) -> ImagQuadField:
    """Build Q(i*sqrt(d)); d must be a squarefree positive integer."""
    return ImagQuadField(d)


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
        e % 2 == 0 or splitting(k, p) is not SplitType.INERT
        for p, e in factorize(rest).factors
    )
