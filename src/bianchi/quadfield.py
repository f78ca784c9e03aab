"""Imaginary quadratic fields Q(i*sqrt(d)): discriminant, splitting, ideal norms."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .arith import factorize, kronecker, valuation


class NonSquarefreeError(ValueError):
    """Raised when a d that must be squarefree is not."""


class SplitType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


#: The splitting in k of primes a caller has worked out once and passes down
Splits = dict[int, SplitType]


@dataclass(frozen=True)
class ImagQuadField:
    """The field k = Q(i*sqrt(d)) for squarefree d >= 1.

    The ring of integers is Z[omega] with omega = (1 + i*sqrt(d))/2 when
    d = 3 mod 4 and omega = i*sqrt(d) otherwise; the discriminant is D = -d
    in the first case and D = -4d in the second.

    The field carries the primes of d, ascending, in ``primes``: d is
    factored once, when the field is built, or its primes come from a sieve
    (``_from_primes``). Equality and hash are by d.
    """

    d: int
    primes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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
    """Behavior of the rational prime p in k, read off the Kronecker symbol (D/p)."""
    s = kronecker(k.discriminant, p)
    if s == 0:
        return SplitType.RAMIFIED
    return SplitType.SPLIT if s == 1 else SplitType.INERT


def is_ideal_norm(lam: int, k: ImagQuadField, *, splits: Splits | None = None) -> bool:
    """Whether lam is the absolute norm of an integral ideal of k.

    Split and ramified primes realize every exponent; an inert prime only
    contributes squares, so the condition is that v_p(lam) is even at every
    inert p. A caller that holds the splitting of every prime of lam may
    pass it as ``splits``, and lam is then not factored; ValueError if
    ``splits`` misses a prime of lam.
    """
    if lam < 1:
        raise ValueError(f"lam must be positive, got {lam}")
    if splits is None:
        splits = {p: splitting(k, p) for p in factorize(lam).primes()}
    rest, norm = lam, True
    for p, split in splits.items():
        if rest == 1:
            break  # lam is used up: every other prime has exponent 0
        e = valuation(rest, p)
        rest //= p**e
        norm = norm and not (e % 2 and split is SplitType.INERT)
    if rest != 1:
        raise ValueError(f"splits misses a prime of lam={lam}, which leaves {rest}")
    return norm
