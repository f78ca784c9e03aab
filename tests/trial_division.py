"""Reference primality and factorization by plain trial division to sqrt(n),
and a strong probable prime test to one base.

The trial-division algorithms are the ones ``bianchi.arith`` used before it
switched to Miller-Rabin and Pollard's rho above 2^20. They are slow but
obviously right, and the property tests compare the fast code against them
wherever they finish in time (n up to about 10^12, or n whose second-largest
prime is small). ``is_strong_probable_prime`` is the textbook one-base
condition, written apart from ``arith.is_prime``: the tests use it to check
the bounds of its witness tiers and to build a twelve-witness reference.
"""

from __future__ import annotations

from bianchi.arith import Factorization


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def trial_factorize(n: int) -> Factorization:
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    m = abs(n)
    factors: list[tuple[int, int]] = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    # remaining factors are >= 5; wheel over 6k+-1
    f = 5
    while f * f <= m:
        for q in (f, f + 2):
            if m % q == 0:
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                factors.append((q, e))
        f += 6
    if m > 1:
        factors.append((m, 1))
    factors.sort()
    return Factorization(sign, tuple(factors))


def is_strong_probable_prime(n: int, a: int) -> bool:
    """Whether the odd n > 2 passes the strong test to base a: with
    n - 1 = 2^s * t and t odd, a^t = 1 or a^(2^r * t) = -1 mod n for some
    r < s."""
    t, s = n - 1, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    x = pow(a, t, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False
