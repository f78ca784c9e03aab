"""Exact integer arithmetic: factorization, square classes, Hilbert symbols.

Everything here is pure and exact. Inputs are ordinary Python integers; a
Hilbert symbol takes two nonzero integers, which stand for their square
classes.

``is_prime`` is the Miller-Rabin test with the first k primes as witnesses,
k chosen by the size of n: the first k primes admit no strong pseudoprime
below psi_k (Jaeschke 1993, Sorenson and Webster 2017), so four witnesses
decide every n < 3.2e9 and twelve every n < 3.18e23, all of int64 included.
``factorize`` finds the primes below ``_TRIAL_BOUND`` that divide n from one
gcd with their product and divides out only those; the cofactor below
``_TRIAL_BOUND**2`` (2^20) is then 1 or a prime, and a larger one is split
with Pollard's rho in Brent's variant, every prime it reports proven with
``is_prime``. Nothing is random: rho walks a fixed sequence of maps
x -> x^2 + c.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count
from math import gcd, isqrt, prod

#: Largest |n| that ``factorize`` and ``is_prime`` accept: the 64-bit signed
#: range of the CLI's ``d``. Rho factors any such n in well under a second.
INT64_MAX = 2**63 - 1

#: ``factorize`` divides out the primes below this bound, which decides every
#: cofactor below its square.
_TRIAL_BOUND = 2**10

#: The first twelve primes, which are the Miller-Rabin witnesses.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: (psi_k, the first k primes): psi_k is the least odd composite that is a
#: strong pseudoprime to each of the first k primes (Jaeschke 1993 for
#: k <= 8, Sorenson and Webster 2017 for k = 9..12), so those k witnesses
#: decide every n < psi_k. psi_8 = psi_7 and psi_10 = psi_11 = psi_9; the
#: last bound exceeds INT64_MAX.
_WITNESS_TIERS = tuple(
    (psi, _WITNESSES[:k])
    for psi, k in (
        (2047, 1),
        (1373653, 2),
        (25326001, 3),
        (3215031751, 4),
        (2152302898747, 5),
        (3474749660383, 6),
        (341550071728321, 7),
        (3825123056546413051, 9),
        (318665857834031151167461, 12),
    )
)

#: Rho steps whose differences share one gcd.
_RHO_BATCH = 128


def _primes_upto(n: int) -> list[int]:
    """The primes <= n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(2, n + 1) if sieve[p]]


#: The 172 primes below _TRIAL_BOUND, and their product, whose gcd with n
#: holds the primes of n that ``factorize`` divides out.
_SMALL_PRIMES = tuple(_primes_upto(_TRIAL_BOUND - 1))
_SMALL_PRIMORIAL = prod(_SMALL_PRIMES)


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime, or the infinite (real) place.

    ``p`` is the prime for a finite place and ``None`` at infinity.
    """

    p: int | None

    def __post_init__(self) -> None:
        if self.p is not None:
            if self.p < 2 or not is_prime(self.p):
                raise ValueError(f"finite place requires a prime, got {self.p}")

    @property
    def is_infinite(self) -> bool:
        return self.p is None

    def sort_key(self) -> tuple[int, int]:
        # finite places first by prime, infinity last
        return (1, 0) if self.p is None else (0, self.p)

    def __repr__(self) -> str:
        return "oo" if self.p is None else str(self.p)


INFINITY = Place(None)


def _proven_place(p: int) -> Place:
    """The place of a prime that ``factorize`` has already proven, built
    without testing its primality again."""
    place = object.__new__(Place)
    object.__setattr__(place, "p", p)
    return place


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p**e) with primes strictly increasing and e >= 1."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def is_prime(n: int) -> bool:
    """Deterministic primality for n <= INT64_MAX: after dividing by the
    twelve witnesses, Miller-Rabin with the first k of them, the fewest
    that ``_WITNESS_TIERS`` proves exact for n."""
    if n > INT64_MAX:
        raise ValueError(f"n exceeds 2**63-1: {n}")
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    # n >= 41 now, so every witness is a unit mod n
    for psi, bases in _WITNESS_TIERS:
        if n < psi:
            break
    s = ((n - 1) & (1 - n)).bit_length() - 1
    odd = (n - 1) >> s
    for a in bases:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard's rho with Brent's
    cycle finding, from x = 2 under x -> x^2 + c for c = 1, 2, ..."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch's product hit 0 mod n: redo it one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _large_factors(m: int) -> list[tuple[int, int]]:
    """(p, e) for the primes of m, which has no prime factor below
    _TRIAL_BOUND; every p is proven by ``is_prime``."""
    primes = []
    todo = [m]
    while todo:
        x = todo.pop()
        if is_prime(x):
            primes.append(x)
        else:
            g = _rho_divisor(x)
            todo += (g, x // g)
    return list(Counter(primes).items())


def factorize(n: int) -> Factorization:
    """Factor a nonzero 64-bit integer: divide out the primes below
    _TRIAL_BOUND that its gcd with their product holds, then split a
    cofactor of 2^20 or more with Brent's rho."""
    if n == 0:
        raise ValueError("cannot factor 0")
    if abs(n) > INT64_MAX:
        raise ValueError(f"|n| exceeds 2**63-1: {n}")
    sign = 1 if n > 0 else -1
    m = abs(n)
    factors: list[tuple[int, int]] = []
    g = gcd(m, _SMALL_PRIMORIAL)
    for p in _SMALL_PRIMES:
        if g == 1:
            break
        if p * p > g:
            # g holds no prime below p, so it is one prime
            p = g
        elif g % p:
            continue
        g //= p
        m //= p
        e = 1
        while m % p == 0:
            m //= p
            e += 1
        factors.append((p, e))
    # m has no prime below _TRIAL_BOUND, so below its square m is 1 or a prime
    if m >= _TRIAL_BOUND * _TRIAL_BOUND:
        factors += _large_factors(m)
    elif m > 1:
        factors.append((m, 1))
    factors.sort()
    return Factorization(sign, tuple(factors))


def valuation(n: int, p: int) -> int:
    """v_p(n) for nonzero n and |p| >= 2."""
    if n == 0:
        raise ValueError("v_p(0) is undefined here")
    if p in (-1, 0, 1):
        raise ValueError(f"v_p needs |p| >= 2, got p={p}")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def squarefree_part(n: int) -> int:
    """The squarefree integer s with n/s a positive perfect square.

    Keeps the sign of n.
    """
    if n == 0:
        raise ValueError("squarefree_part(0) is undefined")
    fac = factorize(n)
    s = fac.sign
    for p, e in fac.factors:
        if e % 2:
            s *= p
    return s


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    return all(e == 1 for _, e in factorize(n).factors)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n); equals the Legendre symbol for odd prime n."""
    if n == 0:
        raise ValueError("Kronecker symbol needs n != 0")
    if n < 0:
        result = -1 if a < 0 else 1
        n = -n
    else:
        result = 1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        e = 0
        while n % 2 == 0:
            n //= 2
            e += 1
        if e % 2 and a % 8 in (3, 5):
            result = -result
    # now n odd positive; standard quadratic-reciprocity loop
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def hilbert_symbol(a: int, b: int, v: Place) -> int:
    """Hilbert symbol (a, b)_v over Q_v of nonzero integers a, b, computed by
    the tame/dyadic formulas.

    Bimultiplicative, symmetric, depends only on the square classes of a, b.
    """
    return _hilbert_symbol_at(a, b, v.p)


def _hilbert_symbol_at(a: int, b: int, p: int | None) -> int:
    """(a, b)_v at the place v of the prime p, or at oo for p None: the one
    home of the formulas, which callers that hold the prime of v evaluate
    without building a ``Place``."""
    if not a or not b:
        raise ValueError("the Hilbert symbol needs nonzero arguments")
    if p is None:
        return -1 if (a < 0 and b < 0) else 1
    alpha = valuation(a, p)
    beta = valuation(b, p)
    u = a // p**alpha
    w = b // p**beta
    if p == 2:
        # eps(x) = (x - 1)/2 and omega(x) = (x^2 - 1)/8 of odd x, read mod 2
        eps_u, eps_w = (u - 1) // 2, (w - 1) // 2
        exp = eps_u * eps_w + alpha * ((w * w - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if exp % 2 else 1
    sign = 1
    if alpha * beta * ((p - 1) // 2) % 2:
        sign = -1
    if beta % 2:
        sign *= kronecker(u, p)
    if alpha % 2:
        sign *= kronecker(w, p)
    return sign


def relevant_places(*values: int) -> list[Place]:
    """Places where a Hilbert symbol built from the given values can be -1.

    Returns {oo, 2} plus the odd primes dividing any value; at every other
    place both arguments are units and the symbol is +1.
    """
    primes: set[int] = {2}
    for n in values:
        primes.update(factorize(n).primes())
    places = [_proven_place(p) for p in sorted(primes)]
    places.append(INFINITY)
    return places
