"""Exact arithmetic in a quadratic ring Z[w], w^2 = s*w + t, and in 2x2
matrices over it; the one arithmetic of both oracles.

An element x + y*w is the integer pair (x, y), and a matrix (a, b; c, d)
is the flat 8-tuple of its entries' pairs, row-major. Every function takes
the ring's constants (s, t): the subgroup oracle works in o = Z[omega] with
_ring_constants(d), and the local tree oracle in Z[pi], pi = i*sqrt(d), with
(s, t) = (0, -d). Conjugation fixes x and maps w to s - w, so the norm of
x + y*w is x^2 + s*x*y - t*y^2.
"""

from __future__ import annotations

Pair = tuple[int, int]
Flat = tuple[int, int, int, int, int, int, int, int]


def _ring_constants(d: int) -> tuple[int, int]:
    """(s, t) with omega^2 = s*omega + t for the ring of integers of
    Q(i*sqrt(d))."""
    if d % 4 == 3:
        return 1, -(1 + d) // 4
    return 0, -d


def _omul(z1: Pair, z2: Pair, s: int, t: int) -> Pair:
    x1, y1 = z1
    x2, y2 = z2
    yy = y1 * y2
    return (x1 * x2 + t * yy, x1 * y2 + y1 * x2 + s * yy)


def _mmul(A: Flat, B: Flat, s: int, t: int) -> Flat:
    a0, a1, b0, b1, c0, c1, d0, d1 = A
    e0, e1, f0, f1, g0, g1, h0, h1 = B
    # the w^2 = s*w + t parts of the four entries
    ae, af = a1 * e1 + b1 * g1, a1 * f1 + b1 * h1
    ce, cf = c1 * e1 + d1 * g1, c1 * f1 + d1 * h1
    return (
        a0 * e0 + b0 * g0 + t * ae, a0 * e1 + a1 * e0 + b0 * g1 + b1 * g0 + s * ae,
        a0 * f0 + b0 * h0 + t * af, a0 * f1 + a1 * f0 + b0 * h1 + b1 * h0 + s * af,
        c0 * e0 + d0 * g0 + t * ce, c0 * e1 + c1 * e0 + d0 * g1 + d1 * g0 + s * ce,
        c0 * f0 + d0 * h0 + t * cf, c0 * f1 + c1 * f0 + d0 * h1 + d1 * h0 + s * cf,
    )


def _mdet(A: Flat, s: int, t: int) -> Pair:
    ad = _omul(A[0:2], A[6:8], s, t)
    bc = _omul(A[2:4], A[4:6], s, t)
    return (ad[0] - bc[0], ad[1] - bc[1])


def _minv(A: Flat, s: int, t: int) -> tuple[Flat, int]:
    """(adj(A) * conj(det A), N(det A)), so that A^-1 is the first over the
    second, an integer."""
    x, y = _mdet(A, s, t)
    cx, cy = x + s * y, -y  # conj(det A)
    norm = x * cx - t * y * y
    if norm == 0:
        raise ZeroDivisionError("singular matrix")
    adj = (A[6], A[7], -A[2], -A[3], -A[4], -A[5], A[0], A[1])
    return _mmul(adj, (cx, cy, 0, 0, 0, 0, cx, cy), s, t), norm


def _mtrace(A: Flat) -> Pair:
    return (A[0] + A[6], A[1] + A[7])


def _scalar(n: int) -> Flat:
    return (n, 0, 0, 0, 0, 0, n, 0)
