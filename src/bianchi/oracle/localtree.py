"""Lattice enumeration on the tree of maximal orders of M2 over a ramified
local field, recounting local embedding numbers without the count tables.

Setup, for an odd prime p ramified in k = Q(i*sqrt(d)) and a unit class tau:
the rational algebra is realized as F(tau) = {(a, b; tau*conj(b), conj(a))}
inside M2(k_p), together with an explicit F-maximal order, the diagonal
copy of the local quadratic ring with prime element Pi = diag(pi, -pi),
and an anti-diagonal Omega generating an unramified quadratic ring. The
target order of index p^r is O + O * Pi^r * Omega.

Vertices of the tree at distance m from a base lattice class are the
classes h*J*o^2 for J = (pi^a, b; 0, pi^c), a + c = m, b a residue mod
pi^a, with J not divisible by pi. A vertex can meet F(tau) in the target
only if its maximal order contains the target: J^-1 Y J must be integral
for the target's generators Y. These vertices are convex (Serre, Trees,
II.1; Vigneras, LNM 800, ch. II): with two of them, every vertex on the
path between them contains their Eichler intersection, and so the target.
They form a subtree through the base, so a breadth-first walk from the
base that steps only past vertices that pass finds every one within
distance r + 1, and tests about p others for each one it finds. Only the
vertices that pass are solved: the intersection of F(tau) with the
attached maximal order is computed exactly, by solving the integrality
conditions as linear congruences mod p^K. It holds the target, as the
vertex does, so a match is a passing vertex of the target's volume. Every
computation is in integers, in the arithmetic of ``ring`` over Z[pi] with
(s, t) = (0, -d): an element u + w*pi is the pair (u, w), a matrix the
flat 8-tuple of its entries, and a rational matrix an integer numerator
over one integer denominator, so J^-1 = adj(J) * (-pi)^m / d^m since
pi^m * (-pi)^m = d^m. The precision K is validated by repeating the count
at K + 1.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from math import gcd
from operator import mul
from typing import NamedTuple

from ..arith import _hilbert_symbol_at, is_prime, kronecker, valuation
from ..quadfield import ImagQuadField, SplitType, splitting
from .ring import Flat, Pair, _minv, _mmul, _mtrace, _scalar


class PrecisionError(RuntimeError):
    """The vertex count changed when the working precision was raised."""


#: The most tree vertices a count may reach. There are 1 + (p + 1)(p^m -
#: 1)/(p - 1) within distance m, and a count at index p^r looks within
#: distance r + 1; it admits every r in 0..3 for p <= 11. The walk visits
#: far fewer, but its size is not known before it ends, so the bound is on
#: the ball, checked before any vertex is visited.
MAX_VERTICES = 2 * 10**4


# a rational matrix: integer numerator, positive integer denominator
RMat = tuple[Flat, int]
# the Z_p-lattice p^-e * span(rows), rows in coordinates of the F(tau) basis
Lattice = tuple[list[list[int]], int]


def _rmul(d: int, X: RMat, Y: RMat) -> RMat:
    return _mmul(X[0], Y[0], 0, -d), X[1] * Y[1]


# --- exact integer lattice algebra -------------------------------------


def _congruence_lattice(
    forms: list[tuple[list[int], int]], p: int, dim: int
) -> tuple[list[list[int]], int]:
    """Basis of {x in Z^dim : g.x = 0 mod p^M for each (g, M)}, with the
    exponent of its determinant, which is a power of p.

    The forms are imposed one at a time. The basis vector on which g has
    the least valuation nu is the pivot: the others drop its multiples
    until g vanishes on them mod p^M, which keeps the determinant, and it
    is itself scaled by p^(M - nu). So the determinant is p^sum(M - nu).
    """
    basis = [[int(i == j) for j in range(dim)] for i in range(dim)]
    exponent = 0
    for g, M in forms:
        mod = p**M
        vals = [sum(map(mul, g, v)) % mod for v in basis]
        if not any(vals):
            continue
        nu = valuation(gcd(*vals), p)
        q = p**nu
        i0 = next(i for i in range(dim) if vals[i] % (q * p))
        inv = pow(vals[i0] // q, -1, mod // q)
        pivot = basis[i0]
        for i in range(dim):
            if i != i0 and vals[i]:
                c = vals[i] // q * inv % (mod // q)
                basis[i] = [x - c * y for x, y in zip(basis[i], pivot)]
        basis[i0] = [x * (mod // q) for x in pivot]
        exponent += M - nu
    return basis, exponent


def _det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, by Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * prev


def _volume(lat: Lattice, p: int) -> int:
    """v_p of the determinant of a lattice basis."""
    rows, e = lat
    return valuation(_det(rows), p) - len(rows) * e


# --- the algebra F(tau) and its distinguished orders ---------------------


def _f_basis(tau: int) -> list[Flat]:
    """Q-basis of F(tau): a in {1, pi} on the diagonal, b in {1, pi} off it."""
    return [
        _scalar(1),
        (0, 1, 0, 0, 0, 0, 0, -1),
        (0, 0, 1, 0, tau, 0, 0, 0),
        (0, 0, 0, 1, 0, -tau, 0, 0),
    ]


def _lattice(mats: list[RMat], tau: int, p: int) -> Lattice:
    """The Z_p-span of rational matrices, in coordinates of the _f_basis;
    validates membership in F(tau). A denominator counts only through its
    power of p, since the rest is a p-adic unit."""
    e = max(valuation(den, p) for _, den in mats)
    rows = []
    for X, den in mats:
        if X[4:8] != (tau * X[2], -tau * X[3], X[0], -X[1]):
            raise ValueError("matrix does not lie in F(tau)")
        rows.append([x * p ** (e - valuation(den, p)) for x in X[0:4]])
    return rows, e


def _children(
    d: int, p: int, a: int, c: int, b: Pair
) -> list[tuple[int, int, Pair]]:
    """The neighbours one step further from the base of the vertex with
    transition matrix (pi^a, b; 0, pi^c), at distance a + c. A residue b mod
    pi^a is the pair (x, y) for x + y*pi with x mod p^ceil(a/2) and y mod
    p^floor(a/2), and b = 0 when a = 0; b is a unit when a, c > 0, which
    keeps the matrix primitive. Each child J' of J has J^-1 J' integral of
    determinant pi (up to a unit), so it is a neighbour."""
    if a == 0:
        return [
            (0, c + 1, (0, 0)),
            *((1, c, (z, 0)) for z in range(c > 0, p)),
        ]
    # b + pi^a * z for z mod p, with pi^a = (-d)^(a // 2) * pi^(a % 2)
    x, y = b
    step = (-d) ** (a // 2)
    mod_x, mod_y = p ** ((a + 2) // 2), p ** ((a + 1) // 2)
    if a % 2:
        return [(a + 1, c, (x, (y + z * step) % mod_y)) for z in range(p)]
    return [(a + 1, c, ((x + z * step) % mod_x, y)) for z in range(p)]


def _vertex_matrix(d: int, a: int, c: int, b: Pair) -> Flat:
    """(pi^a, b; 0, pi^c), as pi^n = (-d)^(n // 2) * pi^(n % 2)."""

    def pi_power(n: int) -> Pair:
        z = (-d) ** (n // 2)
        return (0, z) if n % 2 else (z, 0)

    return (*pi_power(a), *b, 0, 0, *pi_power(c))


def _intersection(conj: list[Flat], scale: int, p: int, K_prec: int) -> int:
    """The _volume, read off the solver's pivots, of the lattice of x in
    p^-K Z_p^4 with sum x_i * conj_i / D in M2(o_p), the conj_i integer
    matrices over one D with v_p(D) = scale. At a held vertex the lattice
    holds the target, so it is the target exactly at the target's volume."""
    mod = p ** (K_prec + scale)
    forms = []
    for slot in range(8):
        g = [X[slot] % mod for X in conj]
        if any(g):
            forms.append((g, K_prec + scale))
    return _congruence_lattice(forms, p, 4)[1] - 4 * K_prec


def _smallest_nonresidue(p: int) -> int:
    """The least quadratic non-residue mod an odd prime p."""
    return next(n for n in range(2, p) if kronecker(n, p) == -1)


def _disc_valuation(mats: list[RMat], d: int, p: int) -> int:
    """v_p of det(trd(b_i * b_j)), the squared reduced discriminant."""
    gram = []
    for X, _ in mats:
        row = []
        for Y, _ in mats:
            trace, pi_part = _mtrace(_mmul(X, Y, 0, -d))
            if pi_part != 0:
                raise ValueError("reduced trace not rational: not in F(tau)")
            row.append(trace)
        gram.append(row)
    return valuation(_det(gram), p) - 2 * sum(valuation(den, p) for _, den in mats)


def _conjugate(d: int, A_inv: Flat, X: Flat, A: Flat) -> Flat:
    """A^-1 X A, with A^-1 given by its integer numerator."""
    return _mmul(_mmul(A_inv, X, 0, -d), A, 0, -d)


class _Frame(NamedTuple):
    """One count's target and the F(tau) basis, conjugated by the base."""

    #: base^-1 e_i base over L, for the _f_basis elements e_i
    E: list[Flat]
    #: base^-1 Y base with v_p of its denominator, for the generators
    #: Y = Pi, Pi^r Om, Pi^(r+1) Om of the target over Z_p (1 is in every
    #: vertex order)
    gens: list[tuple[Flat, int]]
    v_L: int
    target: Lattice
    volume: int


def _frame(k: ImagQuadField, p: int, eps: int, r: int) -> _Frame:
    """Build and check the maximal order of F(tau) and the target order of
    index p^r in it, and conjugate both into the base vertex's frame; a
    held vertex matches the target when its intersection has its volume."""
    d = k.d
    n = _smallest_nonresidue(p)
    if eps == 1:
        tau_star = 1
        # F(1) is the fixed algebra of X -> T conj(X) T with T = antidiag(1,1);
        # it equals g^-1 M2(Qp) g for g = (1, 1; pi, -pi), so its maximal
        # orders are the g-conjugates of the integral vertex orders.
        g: Flat = (1, 0, 1, 0, 0, 1, 0, -1)
        g_inv = _minv(g, 0, -d)
        conj_in = lambda X: _rmul(d, _rmul(d, g_inv, (X, 1)), (g, 1))
        fmax_mats = [
            conj_in(tuple(int(j == 2 * i) for j in range(8))) for i in range(4)
        ]
        Pi: RMat = ((0, 1, 0, 0, 0, 0, 0, -1), 1)
        Om = conj_in((0, 0, 1, 0, n, 0, 0, 0))
        base = g_inv[0]
        expected_disc = 0
    else:
        tau_star = n
        fmax_mats = [(X, 1) for X in _f_basis(tau_star)]
        Pi = fmax_mats[1]
        Om = fmax_mats[2]
        base = _scalar(1)
        expected_disc = 2

    if _disc_valuation(fmax_mats, d, p) != expected_disc:
        raise PrecisionError("maximal-order discriminant check failed")

    # O + O Pi^r Omega has Z_p-basis {1, Pi, Pi^r Om, Pi^(r+1) Om}
    pows: list[RMat] = [(_scalar(1), 1)]
    for _ in range(r + 1):
        pows.append(_rmul(d, pows[-1], Pi))
    gens = [Pi, _rmul(d, pows[r], Om), _rmul(d, pows[r + 1], Om)]
    target = _lattice([pows[0], *gens], tau_star, p)

    # base^-1 X base with v_p of its denominator L * den; the base's own
    # scalar denominator is cancelled
    base_inv, L = _minv(base, 0, -d)

    def in_base(mats: list[RMat]) -> list[tuple[Flat, int]]:
        return [
            (_conjugate(d, base_inv, X, base), valuation(L * den, p))
            for X, den in mats
        ]

    # fmax is maximal, so the base order holds the target only if fmax does
    one = _scalar(1)  # the transition matrix of the base vertex
    if not _vertex_holds(in_base(fmax_mats + gens), d, p, one, one, 0):
        raise PrecisionError("maximal or target order not inside the base vertex")
    # containment with index p^0 is equality, so r = 0 needs no other check
    volume = _volume(target, p)
    if volume - _volume(_lattice(fmax_mats, tau_star, p), p) != r:
        raise PrecisionError("target order has the wrong index")
    E = [_conjugate(d, base_inv, X, base) for X in _f_basis(tau_star)]
    return _Frame(E, in_base(gens), valuation(L, p), target, volume)


def _vertex_holds(
    gens: list[tuple[Flat, int]], d: int, p: int, J: Flat, J_inv: Flat, m: int
) -> bool:
    """Whether the vertex order J M2(o_p) J^-1, J at distance m, contains
    each Y over a denominator of valuation v in gens: whether J^-1 Y J is
    integral. J_inv is over d^m, whose v_p is m, so J^-1 Y J is over
    p^(v + m) times a unit, and an entry u + w*pi is integral when
    p^(v + m) divides u and w."""
    for Y, v in gens:
        mod = p ** (v + m)
        if any(co % mod for co in _conjugate(d, J_inv, Y, J)):
            return False
    return True


def _held_vertices(
    gens: list[tuple[Flat, int]], d: int, p: int, r: int
) -> Iterator[tuple[int, int, Flat, Flat]]:
    """(a, c, J, J_inv) for each vertex within distance r + 1 whose order
    holds the _Frame's gens, breadth first from the base.

    The vertices whose order contains the target form a subtree: two
    maximal orders that contain it meet in an Eichler order that contains
    it, and that order lies in every maximal order on the path between
    them. The base lies in it, as _frame checks. So a vertex whose order
    does not hold the target has no descendant whose order does, and the
    walk expands the _children of the holding vertices only."""
    queue = deque([(0, 0, (0, 0))])
    while queue:
        a, c, b = queue.popleft()
        J = _vertex_matrix(d, a, c, b)
        J_inv, _ = _minv(J, 0, -d)  # over d^m, and v_p(d^m) = m as p exactly divides d
        if not _vertex_holds(gens, d, p, J, J_inv, a + c):
            continue
        yield a, c, J, J_inv
        if a + c <= r:
            queue.extend(_children(d, p, a, c, b))


def _counts_at_precisions(
    k: ImagQuadField, p: int, eps: int, r: int, precisions: tuple[int, ...]
) -> list[int]:
    """The vertex count at each working precision K, over the _held_vertices.
    A vertex whose order does not contain the target cannot meet F(tau) in
    it, at any precision, so no other vertex is solved. A held vertex holds
    the target, which lies in p^-K Z_p^4, and so does its intersection at
    K: a match is a held vertex of the target's volume. The J^-1 E_i J are
    shared by the precisions."""
    d = k.d
    E, gens, v_L, target, volume = _frame(k, p, eps, r)
    if target[1] > min(precisions):
        raise PrecisionError(f"target order not in p^-K Z_p^4 at K={min(precisions)}")
    counts = [0] * len(precisions)
    for a, c, J, J_inv in _held_vertices(gens, d, p, r):
        conj = [_conjugate(d, J_inv, X, J) for X in E]
        for i, K_prec in enumerate(precisions):
            if _intersection(conj, v_L + a + c, p, K_prec) == volume:
                if a + c != r:
                    raise RuntimeError(f"target matched at distance {a + c} != {r}")
                counts[i] += 1
    return counts


def count_maximal_orders_local(p: int, k: ImagQuadField, tau: int, r: int) -> int:
    """Number of local maximal orders of M2(k_p) meeting F(tau) exactly in
    the order of index p^r over the diagonal quadratic ring.

    tau enters only through its square class at p (its Hilbert symbol
    against -d decides whether F(tau) splits); internally a unit
    representative of that class is used. The count is computed at working
    precision K = r + 3 and re-checked at K + 1; disagreement raises
    PrecisionError. ValueError before any vertex is visited if there are
    more than MAX_VERTICES of them within distance r + 1.
    """
    if not 0 <= r <= 3:
        raise ValueError(f"r must lie in 0..3, got {r}")
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if splitting(k, p) is not SplitType.RAMIFIED:
        raise ValueError(f"p={p} is not ramified in Q(i*sqrt({k.d}))")
    n_vertices = 1 + (p + 1) * (p ** (r + 1) - 1) // (p - 1)
    if n_vertices > MAX_VERTICES:
        raise ValueError(
            f"p={p}, distance {r + 1}: {n_vertices} tree vertices, "
            f"more than {MAX_VERTICES}"
        )
    if tau == 0 or valuation(tau, p) > 1:
        raise ValueError("tau must be nonzero with v_p(tau) <= 1")
    eps = _hilbert_symbol_at(tau, -k.d, p)
    K_prec = r + 3
    first, second = _counts_at_precisions(k, p, eps, r, (K_prec, K_prec + 1))
    if first != second:
        raise PrecisionError(
            f"count unstable: {first} at K={K_prec}, {second} at K={K_prec + 1}"
        )
    return first
