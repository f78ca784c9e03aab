"""Bounded-height search for finite subgroups of SL2(o).

Matrices are kept over the ring of integers o = Z[omega] of Q(i*sqrt(d)),
each entry an integer pair (x, y) meaning x + y*omega, in the flat layout
and the arithmetic of ``ring`` with o's constants. Finite projective
order forces the reduced trace of a non-central element into {0, +1, -1},
so the search enumerates trace-constrained determinant-1 matrices and then
pairs them. The pairing conditions collapse to the single scalar equation
trace(U*V) = 0 in both cases of interest:

* U, V of trace 0 anticommute iff trace(U*V) = 0 (2-dihedral pairs), and
* for U of trace 1 and V of trace 0, V*U*V^-1 = U^-1 iff trace(U*V) = 0
  (3-dihedral pairs),

which makes the pair scan a bilinear-form zero search. A 2-dihedral pair
extends to a tetrahedral group through W = (1 - U - V - UV)/2; the group is
a maximal finite 2-dihedral group exactly when W fails to be integral, and
all eight choices of signs in W are integral or non-integral together.

Both steps work on sigma-halves, sigma(A) = tr*I - A. sigma maps the
matrices of each trace onto themselves without a fixed point, and the
torsion tables keep only {A : A < sigma(A)}. For trace-0 V, sigma(V) = -V
and trace(sigma(U)*V) = trace(U*sigma(V)) = -trace(U*V), and every pair
with trace(U*V) = 0 and the parity of 2W its kind asks for passes the
checks, so the lexicographically first witness has its U in the half, and
its V too, as each V of the trace-0 half precedes -V: the search pairs
half with half and takes the first hit. T and maximal D2 share one pass
over the triangle above the diagonal of the trace-0 half times itself:
trace-0 U and V with trace(U*V) = 0 anticommute, so (V, U) is a pair too,
with a W of the same integrality, and no U pairs with itself. D3 pairs the
trace-1 half with the trace-0 half.

The halves come from one pass that, given the trace, alpha and beta,
solves det = 1 for gamma. It solves on one fundamental domain of sigma,
tau (beta, gamma -> -beta, -gamma) and the transpose (beta <-> gamma),
and there only for the beta whose norm lies in the window that the norm of
alpha*delta - 1 sets exactly; each table is sorted and deduplicated by one
int64 key per row (_torsion_flat, _lex_key).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import TYPE_CHECKING, Optional

from ..quadfield import FieldLike, ImagQuadField, _field
from ..quaternion import SubgroupKind
from .ring import Flat, _mdet, _mmul, _mtrace, _ring_constants, _scalar

if TYPE_CHECKING:
    import numpy as np

MAX_HEIGHT = 16
#: the height bound of a search when the CLI is given none
DEFAULT_HEIGHT = 10
# entries of the largest temporary array in the torsion pass and the pair search
_CHUNK = 2**18


@dataclass(frozen=True)
class SubgroupWitness:
    """Generators in SL2(o) realizing the requested group type.

    For D3: [U, V] with U^3 = -I, V^2 = -I, VUV^-1 = U^-1.
    For T: [U, V, W] with U^2 = V^2 = -I anticommuting and integral
    W = (1 - U - V - UV)/2 of order 6.
    For D2MAX: [U, V] as for T but with the extension W non-integral.
    Each generator is a flat 8-tuple of ``ring``.
    """

    kind: SubgroupKind
    generators: tuple[Flat, ...]


def _mneg(A: Flat) -> Flat:
    return tuple(-x for x in A)  # type: ignore[return-value]


def _exact_ring(k: ImagQuadField, H: int) -> tuple[int, int]:
    """The ring constants (s, t) of a search in the field k with height bound
    H, once H lies in 0..MAX_HEIGHT and both numeric kernels are exact.

    Let T = |t| >= 1; s is 0 or 1, and every coordinate of alpha, beta,
    gamma and delta is at most H in size.

    * Torsion pass, int64. n = alpha*delta - 1 has |n_x| <= (2 + T)*H^2 <=
      3*T*H^2 and |n_y| <= 3*H^2, conj(beta) has coordinates at most 2H and
      H, and N(beta) <= 3*T*H^2. Each product in q = n*conj(beta), t*n_y
      included, is then at most 8*T*H^3, and |q| <= 16*T*H^3 < 2^63.
    * Pair search, float64. Every entry of the trace forms is at most T, so
      each entry of vec(V) times a form is at most 8*T*H, and every sum
      vec(U).M.vec(V), partial sums included, is at most 64*T*H^2 < 2^53.

    For H <= 16 the second bound is the tighter one: it admits T < 2^39 at
    H = 16, and so every d <= 10^6.
    """
    if not 0 <= H <= MAX_HEIGHT:
        raise ValueError(f"height bound must lie in 0..{MAX_HEIGHT}, got {H}")
    s, t = _ring_constants(k.d)
    if 16 * abs(t) * H**3 >= 2**63 or 64 * abs(t) * H**2 >= 2**53:
        raise ValueError(
            f"d={k.d} at height {H} lies beyond the exact range of the search"
        )
    return s, t


class NumpyMissingError(ModuleNotFoundError):
    """numpy, which this oracle and nothing else in the package needs,
    cannot be imported."""


def _numpy():
    """The numpy module, imported here only, on the oracle's first use."""
    try:
        import numpy
    except ImportError as exc:
        raise NumpyMissingError(
            f"the subgroup search needs numpy, which cannot be imported: {exc}"
        ) from exc
    return numpy


# one entry: every caller asks for one (d, H) several times in a row, the
# three kinds of one d, and a range of d never comes back to an earlier one
@lru_cache(maxsize=1)
def _torsion_flat(d: int, H: int) -> tuple[np.ndarray, np.ndarray]:
    """The sigma-halves {A : A < sigma(A)}, sigma(A) = tr*I - A, of the
    trace-0 and the trace-1 determinant-1 matrices within the box, each an
    int64 array of shape (n, 8) whose rows are in lexicographic order.

    sigma maps these matrices onto themselves, as det(tr*I - A) = tr^2 -
    tr*trace(A) + det(A) = 1, and sends (alpha, beta, gamma, delta) to
    (delta, -beta, -gamma, alpha). It has no fixed point, so exactly one of
    each pair lies in the half: the one with 2*alpha_x < tr, or 2*alpha_x =
    tr and alpha_y < 0, or alpha = delta and beta < -beta.

    For each alpha and trace, delta is fixed and alpha*delta - beta*gamma = 1
    leaves gamma = n*conj(beta)/N(beta) with n = alpha*delta - 1. Two more
    maps keep det, trace and the box and commute with sigma: tau, (alpha,
    beta, gamma, delta) -> (alpha, -beta, -gamma, delta), and the transpose,
    (alpha, beta, gamma, delta) -> (alpha, gamma, beta, delta). Every row is
    an image of one with beta > -beta and N(beta) <= N(gamma), so the pass
    solves for those only, and adds their tau-images and then the
    transposes of both.

    For n != 0, N(beta)*N(gamma) = N(n), and a gamma in the box has N(gamma)
    <= N_max, the largest norm there. So a row has N(n) <= N(beta)*N_max and
    N(beta)^2 <= N(n): ceil(N(n)/N_max) <= N(beta) <= isqrt(N(n)). With the
    betas sorted by norm, this window is one slice per alpha, cut by
    bisecting N(beta)*N_max and N(beta)^2 in Python integers, as N(n) can
    pass 2^63. The window drops only pairs without a solution. On the pairs
    in it, the int64 division within the bound of _exact_ring keeps the
    gamma that exist, staged: the x coordinate over every pair, the y
    coordinate only where the first is exact and within the box. n = 0
    leaves the window empty; it admits beta = 0 with any gamma, and the
    transposes of that block give gamma = 0 with any beta.

    alpha and delta alone place an image in the half or out of it, except
    where alpha = delta: there the rule beta < -beta applies again. The
    images repeat where N(beta) = N(gamma), so each table is sorted and
    deduplicated by the int64 key of _lex_key.
    """
    np = _numpy()
    s, t = _ring_constants(d)
    side = np.arange(-H, H + 1, dtype=np.int64)
    box_x = np.repeat(side, len(side))
    box_y = np.tile(side, len(side))
    norm = box_x * box_x + s * box_x * box_y - t * box_y * box_y
    n_max = int(norm.max())
    above = (box_x > 0) | ((box_x == 0) & (box_y > 0))  # beta > -beta
    order = np.flatnonzero(above)[np.argsort(norm[above], kind="stable")]
    bx, by, nb = box_x[order], box_y[order], norm[order]
    cx, cy = bx + s * by, -by  # conj(beta), as conj(omega) = s - omega
    norms = nb.tolist()
    scaled = [b * n_max for b in norms]  # N(beta)*N_max, ascending
    squares = [b * b for b in norms]  # N(beta)^2, ascending
    tau = np.array([1, 1, -1, -1, -1, -1, 1, 1], dtype=np.int64)
    out = []
    for tr in (0, 1):
        keep = (np.abs(tr - box_x) <= H) & (
            (2 * box_x < tr) | ((2 * box_x == tr) & (box_y <= 0))
        )
        ax, ay = box_x[keep], box_y[keep]
        dx, dy = tr - ax, -ay
        yy = ay * dy
        nx = ax * dx + t * yy - 1
        ny = ax * dy + ay * dx + s * yy
        found = [np.empty((0, 8), dtype=np.int64)]
        for i in np.flatnonzero((nx == 0) & (ny == 0)).tolist():
            block = np.zeros((len(box_x), 8), dtype=np.int64)
            block[:, (0, 1, 6, 7)] = ax[i], ay[i], dx[i], dy[i]
            block[:, 4], block[:, 5] = box_x, box_y
            found.append(block)
        # the window of each alpha: the slice of the betas from start to stop
        norm_n = [
            x * x + s * x * y - t * y * y for x, y in zip(nx.tolist(), ny.tolist())
        ]
        start = np.array(
            list(map(bisect_left, repeat(scaled), norm_n)), dtype=np.int64
        )
        stop = np.array(
            list(map(bisect_right, repeat(squares), norm_n)), dtype=np.int64
        )
        width = np.maximum(stop - start, 0)
        pair_i = np.repeat(np.arange(len(ax)), width)
        offset = start - np.cumsum(width) + width  # beta index - pair index
        pair_j = np.arange(len(pair_i)) + np.repeat(offset, width)
        for lo in range(0, len(pair_i), _CHUNK):
            i, j = pair_i[lo : lo + _CHUNK], pair_j[lo : lo + _CHUNK]
            n_x, n_y, c_x, c_y = nx[i], ny[i], cx[j], cy[j]
            gx, rx = np.divmod(n_x * c_x + t * n_y * c_y, nb[j])
            ok = (rx == 0) & (np.abs(gx) <= H)
            i, j, gx = i[ok], j[ok], gx[ok]
            n_x, n_y, c_x, c_y = n_x[ok], n_y[ok], c_x[ok], c_y[ok]
            gy, ry = np.divmod(n_x * c_y + n_y * c_x + s * n_y * c_y, nb[j])
            ok = (ry == 0) & (np.abs(gy) <= H)
            i, j = i[ok], j[ok]
            rows = np.stack(
                [ax[i], ay[i], bx[j], by[j], gx[ok], gy[ok], dx[i], dy[i]],
                axis=1,
            )
            found += [rows, rows * tau]
        rows = np.concatenate(found)
        rows = np.concatenate((rows, rows[:, (0, 1, 4, 5, 2, 3, 6, 7)]))
        fixed = (2 * rows[:, 0] == tr) & (rows[:, 1] == 0)  # alpha = delta
        below = (rows[:, 2] < 0) | ((rows[:, 2] == 0) & (rows[:, 3] < 0))
        rows = rows[~fixed | below]
        _, first = np.unique(_lex_key(rows, H), return_index=True)
        out.append(rows[first])
        out[-1].setflags(write=False)  # shared through the cache
    return out[0], out[1]


def _lex_key(rows: np.ndarray, H: int) -> np.ndarray:
    """One int64 per row of box entries, in the order of the rows as tuples:
    the base-(2H+1) number of the digits x + H, each in 0..2H. It is below
    (2H+1)^8 < 2^41, as H <= MAX_HEIGHT."""
    np = _numpy()
    return (rows + H) @ (2 * H + 1) ** np.arange(7, -1, -1, dtype=np.int64)


def enumerate_torsion_elements(d: FieldLike, H: int) -> list[Flat]:
    """All A in SL2(o) with |x|, |y| <= H in every entry and trace in
    {0, +1, -1}, without duplicates, in lexicographic order."""
    k = _field(d)
    _exact_ring(k, H)
    np = _numpy()
    t0, t1 = _torsion_flat(k.d, H)
    s1 = -t1
    s1[:, (0, 6)] += 1  # sigma(A) = I - A on trace 1, and sigma(A) = -A on 0
    rows = np.concatenate((t0, -t0, t1, s1, -t1, -s1))  # all disjoint
    return list(map(tuple, rows[np.argsort(_lex_key(rows, H))].tolist()))


# one entry, as for _torsion_flat: find_subgroup asks for the three kinds of
# one (d, H) in a row
@lru_cache(maxsize=1)
def _first_pairs(d: int, H: int) -> dict[SubgroupKind, tuple[Flat, Flat]]:
    """The lexicographically first pair (U, V) of each kind that has one:
    for D3, trace(U) = 1; for T and D2MAX, trace(U) = 0, with W = (1 - U -
    V - UV)/2 integral for T and not for D2MAX; in each, trace(V) = 0 and
    trace(U*V) = 0. A kind without a pair has no key.

    The search multiplies half by half and takes the row-major first hit.
    For a trace-0 V, sigma(V) = -V, so trace(sigma(U)*V) = trace(U*sigma(V))
    = -trace(U*V): the pairs are closed under U -> sigma(U) and V -> -V,
    and the parity of 2*W below is the same on each such orbit. So the
    first pair has U in the half, and V too: the first nonzero coordinate
    of each V of the trace-0 half is negative, so V precedes -V.

    T and D2MAX share one pass over a triangle of the trace-0 half times
    itself. For trace-0 U and V, trace(U*V) = trace(V*U); when it is 0 they
    anticommute, so 2W for (V, U) is 2W for (U, V) plus 2*U*V, of the same
    parity. With trace(U*U) = -2, no pair lies on the diagonal, so the first
    pair of either kind lies above it, and the rows from lo on need only the
    columns from lo on.

    The two coordinates of trace(U*V) are vec(U).M.vec(V) for two 8x8
    integer forms M, evaluated on a float64 copy within the bound of
    _exact_ring: the x coordinate as one product of a block of U with the
    Vs, the y coordinate only where the x coordinate is 0. The parity of 2W
    is evaluated on the int64 entries and ring constants mod 2, which leave
    it unchanged.
    """
    np = _numpy()
    t0, t1 = _torsion_flat(d, H)
    s, t = _ring_constants(d)
    Mx, My = np.zeros((8, 8)), np.zeros((8, 8))
    # trace(UV) = aU*aV + bU*cV + cU*bV + dU*dV, entry slots (a,b,c,d)=(0,2,4,6)
    for i, j in ((0, 0), (2, 4), (4, 2), (6, 6)):
        Mx[i][j] += 1
        Mx[i + 1][j + 1] += t
        My[i][j + 1] += 1
        My[i + 1][j] += 1
        My[i + 1][j + 1] += s
    B = t0.astype(np.float64)
    BxT = (B @ Mx.T).T
    By = B @ My.T
    chunk = max(1, _CHUNK // max(1, len(t0)))

    def zeros(A: np.ndarray, lo: int, first: int) -> tuple[np.ndarray, np.ndarray]:
        """The (i, j), in row-major order, with i in the block of rows from
        lo and j >= first, at which trace(U*V) = 0."""
        i, j = np.nonzero((A[lo : lo + chunk] @ BxT[:, first:]) == 0.0)
        i += lo
        j += first
        y_zero = np.einsum("ij,ij->i", A[i], By[j]) == 0.0
        return i[y_zero], j[y_zero]

    def pair(U: np.ndarray, V: np.ndarray) -> tuple[Flat, Flat]:
        return tuple(U.tolist()), tuple(V.tolist())

    pairs: dict[SubgroupKind, tuple[Flat, Flat]] = {}
    A = t1.astype(np.float64)
    for lo in range(0, len(A), chunk):
        i, j = zeros(A, lo, 0)
        if len(i):
            pairs[SubgroupKind.D3] = pair(t1[i[0]], t0[j[0]])
            break
    for lo in range(0, len(B), chunk):
        if SubgroupKind.T in pairs and SubgroupKind.D2MAX in pairs:
            break
        i, j = zeros(B, lo, lo)
        U, V = tuple((t0[i] & 1).T), tuple((t0[j] & 1).T)
        _, even = _half_extension(U, V, s & 1, t & 1)
        for kind, hits in ((SubgroupKind.T, even), (SubgroupKind.D2MAX, ~even)):
            if kind not in pairs and hits.any():
                n = hits.argmax()
                pairs[kind] = pair(t0[i[n]], t0[j[n]])
    return pairs


def _half_extension(U: Flat, V: Flat, s: int, t: int) -> tuple[Flat, bool]:
    """2*W for W = (1 - U - V - UV)/2, and whether W is integral.

    Entry-wise in U and V, so it also takes eight numpy columns, one per
    slot, and then returns columns and a boolean array.
    """
    UV = _mmul(U, V, s, t)
    w2 = tuple(
        (1 if i in (0, 6) else 0) - U[i] - V[i] - UV[i] for i in range(8)
    )
    odd = w2[0] % 2
    for x in w2[1:]:
        odd = odd | x % 2
    return w2, odd == 0  # type: ignore[return-value]


def _check_d3(U: Flat, V: Flat, s: int, t: int) -> bool:
    if _mtrace(U) != (1, 0) or _mtrace(V) != (0, 0):
        return False
    if _mdet(U, s, t) != (1, 0) or _mdet(V, s, t) != (1, 0):
        return False
    # U^3 = -I and V^2 = -I follow from trace and det; verify anyway
    U2 = _mmul(U, U, s, t)
    if _mmul(U2, U, s, t) != _scalar(-1):
        return False
    if _mmul(V, V, s, t) != _scalar(-1):
        return False
    # VUV^-1 = U^-1 with U^-1 = (1 - U): compare VU against (1-U)V
    VU = _mmul(V, U, s, t)
    one_minus_U = tuple(x - u for x, u in zip(_scalar(1), U))
    return VU == _mmul(one_minus_U, V, s, t)  # type: ignore[arg-type]


def _check_d2_pair(U: Flat, V: Flat, s: int, t: int) -> bool:
    if _mtrace(U) != (0, 0) or _mtrace(V) != (0, 0):
        return False
    if _mdet(U, s, t) != (1, 0) or _mdet(V, s, t) != (1, 0):
        return False
    if _mmul(U, U, s, t) != _scalar(-1) or _mmul(V, V, s, t) != _scalar(-1):
        return False
    UV = _mmul(U, V, s, t)
    VU = _mmul(V, U, s, t)
    return UV == _mneg(VU)


def _witness(
    kind: SubgroupKind, U: Flat, V: Flat, s: int, t: int
) -> Optional[SubgroupWitness]:
    """The witness of the group type that U and V generate, or None when
    they fail its defining relations. For T the third generator is the
    integral W = (1 - U - V - UV)/2, which must have W^3 = -I."""
    if kind is SubgroupKind.D3:
        return SubgroupWitness(kind, (U, V)) if _check_d3(U, V, s, t) else None
    if not _check_d2_pair(U, V, s, t):
        return None
    w2, integral = _half_extension(U, V, s, t)
    if integral != (kind is SubgroupKind.T):
        return None
    if not integral:
        return SubgroupWitness(kind, (U, V))
    if _mmul(_mmul(w2, w2, s, t), w2, s, t) != _scalar(-8):
        return None
    W = tuple(x // 2 for x in w2)
    return SubgroupWitness(kind, (U, V, W))  # type: ignore[arg-type]


def find_subgroup(
    kind: SubgroupKind, d: FieldLike, H: int
) -> Optional[SubgroupWitness]:
    """First witness, in lexicographic order of (U, V), of the group type
    among height-bounded matrices; None when the bounded search is exhausted.
    The first pair that passes the filters of the search passes the checks
    of its kind, or RuntimeError.

    Absence is a value, not an error: the bound H caps the search, so None
    only certifies nonexistence within the box.
    """
    k = _field(d)
    s, t = _exact_ring(k, H)
    pair = _first_pairs(k.d, H).get(kind)
    if pair is None:
        return None
    witness = _witness(kind, *pair, s, t)
    if witness is None:
        raise RuntimeError("every filtered pair must pass the checks of its kind")
    return witness


def verify_witness(witness: SubgroupWitness, d: int) -> bool:
    """Exact re-verification of a witness: its first two generators pass the
    defining relations of its kind and rebuild it generator for generator."""
    if len(witness.generators) < 2:
        return False
    U, V = witness.generators[:2]
    return _witness(witness.kind, U, V, *_ring_constants(d)) == witness
