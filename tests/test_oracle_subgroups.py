import hashlib
import itertools
import json

import pytest

# every test here runs the search, which needs numpy
pytest.importorskip("numpy")

from bianchi.arith import is_squarefree
from bianchi.cli import main
from bianchi.oracle.ring import _mdet, _mmul, _mtrace, _omul, _ring_constants
from bianchi.oracle.subgroups import (
    MAX_HEIGHT,
    SubgroupWitness,
    _check_d2_pair,
    _check_d3,
    _exact_ring,
    _first_pairs,
    _half_extension,
    _mneg,
    _torsion_flat,
    _witness,
    enumerate_torsion_elements,
    find_subgroup,
    verify_witness,
)
from bianchi.quadfield import ImagQuadField
from bianchi.quaternion import SubgroupKind

KINDS = (SubgroupKind.D3, SubgroupKind.T, SubgroupKind.D2MAX)

# squarefree with t = -d: 64 * d * 10^2 >= 2^53, beyond the float64 pair search
BEYOND_EXACT_D = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37
# the largest |t| the CLI admits: |t| <= d, with equality when d is not 3 mod 4
LARGEST_ADMITTED_D = next(
    d for d in range(10**6, 0, -1) if d % 4 != 3 and is_squarefree(d)
)
# squarefree, within the exact range at H = 16, and with N(alpha*delta - 1)
# past 2^63 for some alpha of the H = 6 box: a prime near 10^10, the product
# of the primes to 31 and 2^40 + 15
PAST_INT64_NORM_D = [
    10000000019,
    2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31,
    2**40 + 15,
]


def _brute_force_torsion(d, H):
    """Exhaustive scan over all (2H+1)^8 matrices; only usable for tiny H."""
    s, t = _ring_constants(d)
    vals = range(-H, H + 1)
    out = set()
    for m in itertools.product(vals, repeat=8):
        if _mdet(m, s, t) == (1, 0) and _mtrace(m) in ((0, 0), (1, 0), (-1, 0)):
            out.add(m)
    return out


def _loop_torsion(d, H):
    """The enumeration as plain loops over alpha and beta, solving for gamma."""
    s, t = _ring_constants(d)
    box = [(x, y) for x in range(-H, H + 1) for y in range(-H, H + 1)]
    out = ([], [])
    for tr, found in zip((0, 1), out):
        for alpha in box:
            delta = (tr - alpha[0], -alpha[1])
            if abs(delta[0]) > H:
                continue
            prod = _omul(alpha, delta, s, t)
            n = (prod[0] - 1, prod[1])
            for beta in box:
                if beta == (0, 0):
                    if n == (0, 0):
                        found.extend((*alpha, 0, 0, *gamma, *delta) for gamma in box)
                    continue
                nb = beta[0] ** 2 + s * beta[0] * beta[1] - t * beta[1] ** 2
                q = _omul(n, (beta[0] + s * beta[1], -beta[1]), s, t)
                gamma = (q[0] // nb, q[1] // nb)
                if q[0] % nb or q[1] % nb or max(map(abs, gamma)) > H:
                    continue
                found.append((*alpha, *beta, *gamma, *delta))
    return tuple(sorted(out[0])), tuple(sorted(out[1]))


def _sigma(flats, tr):
    """tr*I - A of each A: (alpha, beta, gamma, delta) -> (delta, -beta,
    -gamma, alpha), as delta = tr - alpha."""
    return [(*m[6:8], *(-x for x in m[2:6]), *m[0:2]) for m in flats]


def _torsion_halves(d, H):
    """The two int64 tables of _torsion_flat(d, H) as lists of row tuples."""
    return [list(map(tuple, table.tolist())) for table in _torsion_flat(d, H)]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 30, 1019, LARGEST_ADMITTED_D])
def test_torsion_pass_matches_the_loops(d):
    # d = 1 and 3 give the densest sets, with n = 0 rows, at the larger H
    heights = {1: (10, 16), 3: (10,)}.get(d, ())
    for H in (0, 1, 2, 6, *heights):
        for table in _torsion_flat(d, H):
            assert table.dtype.name == "int64" and table.shape[1:] == (8,), H
            assert not table.flags.writeable, H  # the cache's one copy
        loops = _loop_torsion(d, H)
        for tr, half, full in zip((0, 1), _torsion_halves(d, H), loops):
            assert tuple(sorted(half + _sigma(half, tr))) == full, (tr, H)


@pytest.mark.parametrize("d", [1, 2, 3, *PAST_INT64_NORM_D])
def test_the_windowed_pass_matches_the_loops(d):
    # the pass solves beta > -beta with N(beta) <= N(gamma) only, on the
    # window of N(beta) that N(n) sets, and adds the images under tau and the
    # transpose; the loops over every (alpha, beta) find the same rows, once
    # each, where N(n) passes 2^63, at n = 0, and where N(beta) = N(gamma)
    for H in (1, 2, 4, 6):
        loops = _loop_torsion(d, H)
        for tr, half, full in zip((0, 1), _torsion_halves(d, H), loops):
            assert len(set(half)) == len(half), (tr, H)
            assert tuple(sorted(half + _sigma(half, tr))) == full, (tr, H)
    s, t = _ring_constants(d)

    def norm(x):
        return x[0] ** 2 + s * x[0] * x[1] - t * x[1] ** 2

    rows = loops[0] + loops[1]
    n_zero = [m for m in rows if _omul(m[0:2], m[6:8], s, t) == (1, 0)]
    equal = [m for m in rows if norm(m[2:4]) == norm(m[4:6])]
    alpha_delta = _omul((0, 6), (0, -6), s, t)  # alpha = 6*omega at trace 0
    widest = norm((alpha_delta[0] - 1, alpha_delta[1]))
    assert (widest >= 2**63) == (d in PAST_INT64_NORM_D)
    assert bool(n_zero) == (d in (1, 3)) and equal


@pytest.mark.parametrize("d", [1, 2, 3, 5, 19, LARGEST_ADMITTED_D])
def test_torsion_sets_are_closed_under_tr_minus_a(d):
    # A -> tr*I - A maps the full sets onto themselves without a fixed
    # point, and the cache keeps the smaller of each pair, in order
    for H in (1, 2, 6, 10):
        loops = _loop_torsion(d, H)
        for tr, half, full in zip((0, 1), _torsion_halves(d, H), loops):
            images = _sigma(full, tr)
            assert sorted(images) == list(full), (tr, H)
            assert all(m != img for m, img in zip(full, images))
            assert half == [m for m, img in zip(full, images) if m < img]


def test_enumeration_examples_d1():
    flats = set(enumerate_torsion_elements(1, 1))
    assert (0, 1, 0, 0, 0, 0, 0, -1) in flats  # diag(i, -i)
    assert (0, 0, 1, 0, -1, 0, 0, 0) in flats  # (0, 1; -1, 0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_enumeration_matches_exhaustive_scan(d):
    got = set(enumerate_torsion_elements(d, 1))
    assert got == _brute_force_torsion(d, 1)


def test_enumeration_h0():
    # the H = 0 box holds only the zero matrix, which has determinant 0
    assert enumerate_torsion_elements(2, 0) == []


def test_enumeration_no_duplicates_and_sorted():
    els = enumerate_torsion_elements(3, 2)
    assert len(els) == len(set(els))
    assert els == sorted(els)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_torsion_elements(1, 17)
    with pytest.raises(ValueError):
        enumerate_torsion_elements(12, 2)


def test_known_witness_pair_for_d1():
    # U = (i, 0; 0, -i), V = (0, 1; -1, 0) generate a maximal 2-dihedral
    # group: the tetrahedral extension has entries (1 +- i)/2 outside Z[i]
    U = (0, 1, 0, 0, 0, 0, 0, -1)
    V = (0, 0, 1, 0, -1, 0, 0, 0)
    witness = SubgroupWitness(SubgroupKind.D2MAX, (U, V))
    assert verify_witness(witness, 1)


def test_find_subgroup_examples():
    w = find_subgroup(SubgroupKind.D2MAX, 1, 2)
    assert w is not None and verify_witness(w, 1)
    assert find_subgroup(SubgroupKind.D3, 2, 10) is None
    w = find_subgroup(SubgroupKind.T, 1, 4)
    assert w is not None and verify_witness(w, 1)
    assert len(w.generators) == 3  # U, V, and the integral W
    # each generator is a flat 8-tuple of Python ints, as ``ring`` takes it
    assert all(len(m) == 8 and {type(x) for x in m} == {int} for m in w.generators)


def test_find_subgroup_deterministic():
    first = find_subgroup(SubgroupKind.T, 3, 6)
    second = find_subgroup(SubgroupKind.T, 3, 6)
    assert first == second


def test_tetrahedral_witness_word_is_integral_order_six():
    w = find_subgroup(SubgroupKind.T, 3, 6)
    assert w is not None
    s, t = _ring_constants(3)
    W = w.generators[2]
    W2 = _mmul(W, W, s, t)
    W3 = _mmul(W2, W, s, t)
    assert W3 == (-1, 0, 0, 0, 0, 0, -1, 0)


def test_witness_tampering_detected():
    w = find_subgroup(SubgroupKind.D2MAX, 1, 2)
    assert w is not None
    bad = SubgroupWitness(w.kind, (w.generators[0], w.generators[0]))
    assert not verify_witness(bad, 1)


def test_verify_witness_rejects_altered_generators():
    t = find_subgroup(SubgroupKind.T, 1, 4)
    d2 = find_subgroup(SubgroupKind.D2MAX, 1, 2)
    d3 = find_subgroup(SubgroupKind.D3, 3, 2)
    assert all(verify_witness(w, d) for w, d in ((t, 1), (d2, 1), (d3, 3)))
    U, V, W = t.generators
    minus_w = tuple(-x for x in W)
    for bad_w in (minus_w, U):  # W replaced by -W or by U
        assert not verify_witness(SubgroupWitness(t.kind, (U, V, bad_w)), 1)
    extra = SubgroupWitness(d2.kind, (*d2.generators, d2.generators[0]))
    assert not verify_witness(extra, 1)  # D2MAX with a third generator
    swapped = SubgroupWitness(d3.kind, d3.generators[::-1])
    assert not verify_witness(swapped, 3)  # D3 with U and V swapped
    for w, d in ((t, 1), (d2, 1), (d3, 3)):  # one generator only
        assert verify_witness(SubgroupWitness(w.kind, w.generators[:1]), d) is False


def _loop_search(kind, d, H):
    """The witness search as plain loops in Python integers: every (U, V)
    with trace(UV) = 0, in lexicographic order, through the checks of the
    search, without a parity filter; the first pair that passes them."""
    s, t = _ring_constants(d)
    t0, t1 = _loop_torsion(d, H)
    for U in t1 if kind is SubgroupKind.D3 else t0:
        for V in t0:
            UV = _mmul(U, V, s, t)
            if _mtrace(UV) != (0, 0):
                continue
            gens = (U, V)
            if kind is SubgroupKind.D3:
                if _check_d3(U, V, s, t):
                    return SubgroupWitness(kind, gens)
                continue
            if not _check_d2_pair(U, V, s, t):
                continue
            one = (1, 0, 0, 0, 0, 0, 1, 0)
            w2 = tuple(e - u - v - uv for e, u, v, uv in zip(one, U, V, UV))
            integral = all(x % 2 == 0 for x in w2)
            if integral != (kind is SubgroupKind.T):
                continue
            if integral:
                if _mmul(_mmul(w2, w2, s, t), w2, s, t) != tuple(-8 * x for x in one):
                    continue
                gens += (tuple(x // 2 for x in w2),)
            return SubgroupWitness(kind, gens)
    return None


@pytest.mark.parametrize("d", [d for d in range(1, 31) if is_squarefree(d)])
def test_search_matches_the_plain_loops(d):
    for kind in KINDS:
        assert find_subgroup(kind, d, 3) == _loop_search(kind, d, 3), kind


def test_the_half_search_loses_no_pair():
    # the search multiplies sigma-halves only: every pair with trace(UV) = 0
    # stands for (sigma(U), V), (U, -V) and (sigma(U), -V), which have
    # trace(UV) = 0 too, the same integral W when trace(U) = 0, and pass
    # the checks of their kind as (U, V) does. T and D2MAX read the triangle
    # above the diagonal only: no trace-0 U has trace(UU) = 0, and (V, U) is
    # a pair with a 2W of the parity of (U, V)'s. Its first hit of each kind
    # is the first pair of the plain loops over the full tables
    n_pairs = 0
    for d in (d for d in range(1, 31) if is_squarefree(d)):
        s, t = _ring_constants(d)
        for H in (1, 2, 3):
            t0, t1 = _loop_torsion(d, H)
            assert all(_mtrace(_mmul(U, U, s, t)) == (-2, 0) for U in t0), (d, H)
            firsts = {}  # the first pair of each kind
            for tr, lefts in ((0, t0), (1, t1)):
                for U, sU in zip(lefts, _sigma(lefts, tr)):
                    for V in t0:
                        if _mtrace(_mmul(U, V, s, t)) != (0, 0):
                            continue
                        n_pairs += 1
                        orbit = ((U, V), (sU, V), (U, _mneg(V)), (sU, _mneg(V)))
                        for A, B in orbit:
                            assert _mtrace(_mmul(A, B, s, t)) == (0, 0), (d, A, B)
                        integral = {_half_extension(A, B, s, t)[1] for A, B in orbit}
                        if tr == 1:
                            kind = SubgroupKind.D3
                        else:
                            assert _mtrace(_mmul(V, U, s, t)) == (0, 0), (d, U, V)
                            mirror = _half_extension(V, U, s, t)[1]
                            assert integral == {mirror}, (d, U, V)
                            kind = SubgroupKind.T if mirror else SubgroupKind.D2MAX
                        for A, B in orbit:
                            assert _witness(kind, A, B, s, t) is not None, (d, A, B)
                        firsts.setdefault(kind, (U, V))
            assert _first_pairs(d, H) == firsts, (d, H)
    assert n_pairs == 8124  # from d in {1, 2, 3, 5, 6, 7, 10, 11, 19} only


def test_a_filtered_pair_that_fails_its_checks_raises(monkeypatch):
    # the first pair through the filters passes the checks of its kind; one
    # that failed them would leave the next pair unproven as the first witness
    monkeypatch.setattr("bianchi.oracle.subgroups._witness", lambda *args: None)
    for kind, d, H in (
        (SubgroupKind.D3, 3, 2),
        (SubgroupKind.T, 1, 4),
        (SubgroupKind.D2MAX, 1, 2),
    ):
        with pytest.raises(RuntimeError, match="must pass the checks"):
            find_subgroup(kind, d, H)


def test_search_digest_is_pinned():
    # the first witness of each kind, as the full-table search found it, for
    # the densest tables at the largest height; the oracle-subgroups pin of
    # tests/test_pins.py holds the witnesses of the suite's whole input at
    # its default height
    h = hashlib.sha256()
    for d in (1, 3):
        for kind in KINDS:
            w = find_subgroup(kind, d, 16)
            h.update(repr((d, kind.value, w and w.generators)).encode())
    assert h.hexdigest() == (
        "6e035412463648e237afbd24696b03e02e86ff60eecf549c66ca4c8b9b79441b"
    )


def test_torsion_digest_is_pinned():
    # the enumeration for every squarefree d <= 30 at H = 10, element by
    # element, as the O(H^4) Python loops produced it
    h = hashlib.sha256()
    for d in range(1, 31):
        if is_squarefree(d):
            flats = enumerate_torsion_elements(d, 10)
            h.update(repr(flats).encode())
    assert h.hexdigest() == (
        "90e3861f856aa3f7850c51ad752ccad99c7086ac5ea9bceaa9c9844d1c8e932d"
    )


def test_the_subgroup_suite_passes_at_the_largest_height(capsys):
    # every squarefree d <= 30, as the suite's default range, at H = 16
    argv = ["verify", "--suite", "subgroups", "--height", str(MAX_HEIGHT)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "suite subgroups: pass\n"


def test_a_range_suite_keeps_one_torsion_table(capsys):
    # every (d, H) is asked for in a row, so each cache needs one entry only
    _first_pairs.cache_clear()
    _torsion_flat.cache_clear()
    assert main(["verify", "--suite", "subgroups", "--dmax", "30"]) == 0
    assert capsys.readouterr().out == "suite subgroups: pass\n"
    # 19 squarefree d <= 30: each searched once for its three kinds, and
    # each table computed once, for that search
    pairs, torsion = _first_pairs.cache_info(), _torsion_flat.cache_info()
    assert (pairs.currsize, torsion.currsize) == (1, 1)
    assert (pairs.misses, pairs.hits) == (19, 2 * 19)
    assert (torsion.misses, torsion.hits) == (19, 0)


def test_the_subgroup_commands_search_the_fields_they_hold(capsys, monkeypatch):
    # the suite searches the fields of its sieve, and the oracle the one field
    # of its d: neither builds another nor factors d
    from bianchi import quadfield

    built, factored = [], []
    post_init = ImagQuadField.__post_init__
    factorize = quadfield.factorize

    def counted(self):
        built.append(self.d)
        post_init(self)

    def counted_factorize(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(ImagQuadField, "__post_init__", counted)
    monkeypatch.setattr(quadfield, "factorize", counted_factorize)
    assert main(["verify", "--suite", "subgroups"]) == 0
    assert capsys.readouterr().out == "suite subgroups: pass\n"
    assert (len(built), factored) == (19, [])
    built.clear()
    assert main(["oracle", "subgroups", "--d", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 5
    assert built == [5]


def test_the_search_takes_a_field_or_its_d():
    k = ImagQuadField(6)
    assert enumerate_torsion_elements(k, 3) == enumerate_torsion_elements(6, 3)
    for kind in KINDS:
        assert find_subgroup(kind, k, 6) == find_subgroup(kind, 6, 6)
    with pytest.raises(ValueError, match="squarefree"):
        find_subgroup(SubgroupKind.D3, 12, 6)


def test_exactness_guard_rejects_large_d():
    with pytest.raises(ValueError, match="exact range"):
        enumerate_torsion_elements(BEYOND_EXACT_D, 10)
    for kind in KINDS:
        with pytest.raises(ValueError, match="exact range"):
            find_subgroup(kind, BEYOND_EXACT_D, 10)
    assert _exact_ring(ImagQuadField(BEYOND_EXACT_D), 1) == (0, -BEYOND_EXACT_D)


def test_exactness_guard_admits_every_d_up_to_a_million():
    d = LARGEST_ADMITTED_D
    assert _exact_ring(ImagQuadField(d), MAX_HEIGHT) == (0, -d)
