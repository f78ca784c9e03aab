"""Independent Hilbert-symbol oracle: primitive-solution search mod p^K.

(a, b)_p = +1 iff z^2 = a*x^2 + b*y^2 has a primitive solution mod p^K for
K = 3 + v_p(4ab). A primitive triple always has x or y a unit: if both were
divisible by p the unit z would give 1 = 0 mod p^2. Scaling by the inverse
unit reduces the search to the two single-loop branches x = 1 and y = 1.

Square factors p^2 are stripped from a and b first (substituting x <- p*x
is an exact equivalence of solvability, no symbol theory involved), which
keeps the modulus enumerable.
"""

from __future__ import annotations

from bianchi.arith import Place, valuation


def _strip_square_p(n: int, p: int) -> int:
    while n % (p * p) == 0:
        n //= p * p
    return n


def _solvable_mod(a: int, b: int, p: int, K: int) -> bool:
    # numpy only here, for the table of squares, so that importing this
    # module needs no numpy
    import numpy as np

    mod = p**K
    r = np.arange(mod, dtype=np.int64)
    r2 = r * r
    r2 %= mod
    is_square = np.zeros(mod, dtype=bool)
    is_square[r2] = True
    lhs = b * r2
    lhs += a
    lhs %= mod
    if is_square[lhs].any():  # x = 1
        return True
    lhs = a * r2
    lhs += b
    lhs %= mod
    if is_square[lhs].any():  # y = 1
        return True
    return False


def hilbert_symbol_by_search(a: int, b: int, v: Place) -> int:
    """The Hilbert symbol by exhaustive search; independent of the formula
    implementation in bianchi.arith."""
    if a == 0 or b == 0:
        raise ValueError("nonzero arguments required")
    if v.is_infinite:
        return -1 if (a < 0 and b < 0) else 1
    p = v.p
    assert p is not None
    a = _strip_square_p(a, p)
    b = _strip_square_p(b, p)
    K = 3 + valuation(4 * a * b, p)
    return 1 if _solvable_mod(a % p**K, b % p**K, p, K) else -1


def search_cost(a: int, b: int, p: int) -> int:
    """Modulus p^K the search would enumerate, after square stripping."""
    a = _strip_square_p(a, p)
    b = _strip_square_p(b, p)
    return p ** (3 + valuation(4 * a * b, p))
