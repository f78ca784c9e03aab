import itertools
import random
import re

import pytest

from bianchi.arith import Place, hilbert_symbol, is_prime, valuation
from bianchi.cli import main
from bianchi.oracle import localtree
from bianchi.oracle.localtree import (
    PrecisionError,
    _children,
    _congruence_lattice,
    _conjugate,
    _counts_at_precisions,
    _det,
    _f_basis,
    _frame,
    _held_vertices,
    _intersection,
    _rmul,
    _smallest_nonresidue,
    _vertex_holds,
    _vertex_matrix,
    count_maximal_orders_local,
)
from bianchi.oracle.ring import _minv, _scalar
from bianchi.orders import LocalCountQuery, local_embedding_count
from bianchi.quadfield import ImagQuadField, SplitType


def test_congruence_lattice_random_systems():
    rng = random.Random(424)
    p = 3
    for _ in range(20):
        forms = [
            ([rng.randint(-9, 9) for _ in range(4)], rng.randint(1, 2))
            for _ in range(3)
        ]
        basis, exponent = _congruence_lattice(forms, p, 4)
        assert exponent == valuation(_det(basis), p)
        for v in basis:
            for g, M in forms:
                assert sum(a * b for a, b in zip(g, v)) % p**M == 0
        # the lattice contains (p^2 Z)^4, so its index in Z^4 is p^8 over the
        # number of solutions mod p^2
        mod = p**2
        brute = sum(
            all(sum(a * b for a, b in zip(g, x)) % p**M == 0 for g, M in forms)
            for x in itertools.product(range(mod), repeat=4)
        )
        assert abs(_det(basis)) == mod**4 // brute == p**exponent


def test_congruence_lattice_brute_force():
    rng = random.Random(77)
    p = 3
    for _ in range(25):
        forms = [
            ([rng.randint(-8, 8) for _ in range(3)], rng.randint(1, 2))
            for _ in range(2)
        ]
        basis, exponent = _congruence_lattice(forms, p, 3)
        assert exponent == valuation(_det(basis), p)
        # every basis vector satisfies the congruences
        for v in basis:
            for g, M in forms:
                assert sum(a * b for a, b in zip(g, v)) % p**M == 0
        # brute force the solution count in a small box and compare with
        # the index of the lattice
        mod = p ** max(M for _, M in forms)
        brute = 0
        for x in range(mod):
            for y in range(mod):
                for z in range(mod):
                    if all(
                        (g[0] * x + g[1] * y + g[2] * z) % p**M == 0
                        for g, M in forms
                    ):
                        brute += 1
        det = abs(_det3(basis))
        assert brute == mod**3 // det == mod**3 // p**exponent


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _cofactor_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
    )


def test_det_matches_cofactor_expansion():
    rng = random.Random(4)
    for _ in range(200):
        rows = [[rng.randint(-30, 30) for _ in range(4)] for _ in range(4)]
        if rng.random() < 0.2:
            rows[3] = [a - 2 * b for a, b in zip(rows[0], rows[1])]  # singular
        if rng.random() < 0.2:
            rows[0][0] = 0  # a zero first pivot, so rows swap
        assert _det(rows) == _cofactor_det(rows)
    assert _det([[0, 1], [1, 0]]) == -1


def enumerate_vertices(p, max_distance):
    """All tree vertices at distance <= max_distance from the base class,
    as the entries (a, c, b) of the primitive upper-triangular transition
    matrices (pi^a, b; 0, pi^c); a vertex lies at distance a + c. The full
    ball, the reference for the walk of the counts."""
    return [
        (a, m - a, (x, y))
        for m in range(max_distance + 1)
        for a in range(m + 1)
        for x in range(p ** ((a + 1) // 2))
        if not (0 < a < m and x % p == 0)
        for y in range(p ** (a // 2))
    ]


@pytest.mark.parametrize(
    "p,d", [(3, 3), (5, 5), (3, 15), (5, 10), (5, 15), (7, 7)]
)
def test_vertex_counts_per_distance(p, d):
    vertices = enumerate_vertices(p, 3)
    by_dist = {}
    for a, c, _ in vertices:
        by_dist[a + c] = by_dist.get(a + c, 0) + 1
    assert by_dist[0] == 1
    for m in (1, 2, 3):
        assert by_dist[m] == (p + 1) * p ** (m - 1)
    # the children of the walk, expanded everywhere, rebuild the ball once
    walked, layer = [], [(0, 0, (0, 0))]
    for _ in range(5):
        walked += layer
        layer = [child for v in layer for child in _children(d, p, *v)]
    assert sorted(walked) == sorted(enumerate_vertices(p, 4))


def test_count_r0_is_one():
    assert count_maximal_orders_local(3, ImagQuadField(3), 1, 0) == 1
    assert count_maximal_orders_local(3, ImagQuadField(3), -1, 0) == 1
    assert count_maximal_orders_local(5, ImagQuadField(5), 2, 0) == 1


@pytest.mark.parametrize(
    "tau,expected", [(1, (1, 1, 2, 6)), (-1, (1, 4, 6, 6))]
)
def test_counts_p3_d3(tau, expected):
    k = ImagQuadField(3)
    got = tuple(count_maximal_orders_local(3, k, tau, r) for r in range(4))
    assert got == expected


def test_count_stable_under_extra_precision():
    k = ImagQuadField(3)
    eps = hilbert_symbol(-1, -3, Place(3))
    counts = _counts_at_precisions(k, 3, eps, 2, (5, 6, 7))
    assert counts == [count_maximal_orders_local(3, k, -1, 2)] * 3


def test_tau_square_class_only_matters():
    k = ImagQuadField(3)
    # 7 = 1 mod 3 is a residue, -2 = 1 mod 3 as well; -1 and 5 are not
    assert count_maximal_orders_local(3, k, 7, 1) == 1
    assert count_maximal_orders_local(3, k, 5, 1) == 4


def test_counts_beyond_the_headline_cases():
    # composite d, larger p, and valuation-1 tau all route through the same
    # machinery
    k15 = ImagQuadField(15)
    assert count_maximal_orders_local(3, k15, 1, 1) == 1
    assert count_maximal_orders_local(3, k15, 2, 1) == 4  # (2,-15)_3 = -1
    assert count_maximal_orders_local(5, k15, 1, 2) == 4
    assert count_maximal_orders_local(7, ImagQuadField(7), 3, 2) == 14
    k5 = ImagQuadField(5)
    assert count_maximal_orders_local(5, k5, 10, 1) == 6  # v_5(10) = 1, division


def test_validation_errors():
    k3 = ImagQuadField(3)
    with pytest.raises(ValueError):
        count_maximal_orders_local(2, ImagQuadField(2), 1, 1)  # p = 2 unsupported
    with pytest.raises(ValueError):
        count_maximal_orders_local(5, k3, 1, 1)  # 5 not ramified for d = 3
    with pytest.raises(ValueError):
        count_maximal_orders_local(3, k3, 1, 4)  # r out of range
    with pytest.raises(ValueError):
        count_maximal_orders_local(3, k3, 9, 1)  # v_3(9) = 2
    with pytest.raises(ValueError):
        count_maximal_orders_local(3, k3, 0, 1)


def test_a_count_refuses_a_walk_beyond_the_bound(record_calls, monkeypatch):
    # the walk counts the children of a vertex before it builds them, and
    # tests each vertex it queues, so a refused count has tested at most
    # MAX_VERTICES vertices: at p = 101, r = 3 (a ball of 106,141,609) it
    # tests a few hundred; at p = 10^6 + 3 only the base, and the base's
    # p + 1 children are never built
    tested, built = [], []

    def recording(gens, d, p, J, J_inv, m):
        tested.append(J)
        return _vertex_holds(gens, d, p, J, J_inv, m)

    def children(*args):
        built.append(args)
        return _children(*args)

    monkeypatch.setattr(localtree, "_vertex_holds", recording)
    monkeypatch.setattr(localtree, "_children", children)
    seen = record_calls(is_prime)
    with pytest.raises(ValueError, match="^p=101, r=3: over 20000 tree vertices$"):
        count_maximal_orders_local(101, ImagQuadField(101), 1, 3)
    assert 0 < len(tested) <= localtree.MAX_VERTICES
    tested.clear()
    built.clear()
    p = 10**6 + 3
    with pytest.raises(ValueError, match=f"^p={p}, r=0: over 20000 tree vertices$"):
        count_maximal_orders_local(p, ImagQuadField(p), 1, 0)
    # the base twice: once in _frame and once in the walk
    assert (tested, built, seen) == ([_scalar(1)] * 2, [], [101, p])


def test_a_count_tests_p_once_and_each_vertex_once(record_calls, monkeypatch):
    k3 = ImagQuadField(3)
    tested = []

    def recording(gens, d, p, J, J_inv, m):
        tested.append(J)
        return _vertex_holds(gens, d, p, J, J_inv, m)

    monkeypatch.setattr(localtree, "_vertex_holds", recording)
    seen = record_calls(is_prime)
    assert count_maximal_orders_local(3, k3, -1, 2) == 6
    # the base twice: once in _frame, for the maximal order and the target,
    # and once in the walk
    assert tested[0] == tested[1] == _scalar(1)
    assert len(set(tested[1:])) == len(tested) - 1 < len(enumerate_vertices(3, 3))
    # the ball within distance 4 of a 13-adic tree holds 33,321 vertices; the
    # division algebra's count at r = 3 tests 874 of them
    tested.clear()
    assert count_maximal_orders_local(13, ImagQuadField(13), 2, 3) == 26
    assert len(tested) == 874
    assert seen == [3, 13]


def test_counts_match_tables_at_p7():
    # a wider check than verify --suite local, which covers p = 3 and 5
    p, k = 7, ImagQuadField(7)
    for split_alg, tau in ((True, 1), (False, _smallest_nonresidue(p))):
        for r in range(4):
            expected = local_embedding_count(
                LocalCountQuery(p, SplitType.RAMIFIED, split_alg, r)
            )
            assert count_maximal_orders_local(p, k, tau, r) == expected, (tau, r)


@pytest.mark.parametrize(
    "p, split_algs, next_p",
    [
        (11, (True, False), None),
        (13, (True, False), None),
        (79, (True,), 83),
        (61, (False,), 67),
    ],
    ids=["p11", "p13", "p79-split", "p61-division"],
)
def test_counts_match_tables_up_to_the_bound(p, split_algs, next_p):
    # 79 and 61 are the largest p at which the walk of a count at r = 3 stays
    # within MAX_VERTICES, for the split and the division algebra; the next
    # prime is refused
    k = ImagQuadField(p)
    for split_alg in split_algs:
        tau = 1 if split_alg else _smallest_nonresidue(p)
        for r in range(4):
            expected = local_embedding_count(
                LocalCountQuery(p, SplitType.RAMIFIED, split_alg, r)
            )
            assert count_maximal_orders_local(p, k, tau, r) == expected, (tau, r)
    if next_p is not None:
        tau = 1 if split_algs[0] else _smallest_nonresidue(next_p)
        with pytest.raises(ValueError, match="tree vertices"):
            count_maximal_orders_local(next_p, ImagQuadField(next_p), tau, 3)


@pytest.mark.parametrize(
    "name, fault, message",
    [
        (
            "_disc_valuation",
            lambda mats, d, p: 1,
            "maximal-order discriminant check failed",
        ),
        ("_volume", lambda lat, p: 0, "target order has the wrong index"),
        # every product over one more 3, so Pi^r Om leaves the base vertex's order
        (
            "_rmul",
            lambda d, X, Y: (_rmul(d, X, Y)[0], 3 * _rmul(d, X, Y)[1]),
            "maximal or target order not inside the base vertex",
        ),
        ("_mtrace", lambda X: (0, 1), "reduced trace not rational: not in F(tau)"),
        # a basis of F(tau + 81): the same discriminant at 3, but not in F(tau)
        ("_f_basis", lambda tau: _f_basis(tau + 81), "matrix does not lie in F(tau)"),
    ],
    ids=["discriminant", "index", "containment", "trace", "membership"],
)
def test_frame_checks_its_orders(capsys, monkeypatch, name, fault, message):
    # p = 3, tau = -1: F(tau) is the division algebra, whose maximal order
    # is built without _rmul
    monkeypatch.setattr(localtree, name, fault)
    with pytest.raises(PrecisionError, match=f"^{re.escape(message)}$"):
        _frame(ImagQuadField(3), 3, -1, 1)
    argv = ["oracle", "local-count", "--p", "3", "--d", "3", "--tau", "-1"]
    assert main([*argv, "--exp", "1"]) == 1
    assert capsys.readouterr() == ("", f"internal check failed: {message}\n")


def _full_ball(k, p, tau, r, precisions):
    """The _frame of a count, and for every vertex within distance r + 1
    its transition matrix J, whether it passes _vertex_holds, its
    conjugated F(tau) basis over a denominator of valuation scale, and the
    volume of its intersection lattice solved at each precision, whether it
    passes or not: the unfiltered reference."""
    d = k.d
    frame = _frame(k, p, hilbert_symbol(tau, -d, Place(p)), r)
    vertices = []
    for a, c, b in enumerate_vertices(p, r + 1):
        J = _vertex_matrix(d, a, c, b)
        J_inv, _ = _minv(J, 0, -d)
        conj = [_conjugate(d, J_inv, X, J) for X in frame.E]
        held = _vertex_holds(frame.gens, d, p, J, J_inv, a + c)
        scale = frame.v_L + a + c
        volumes = [_intersection(conj, scale, p, K_prec) for K_prec in precisions]
        vertices.append((J, held, conj, scale, volumes))
    return frame, vertices


def lattice_holds_target(target, conj, scale, p, K_prec):
    """Whether the lattice of x in p^-K Z_p^4 with sum x_i * conj_i / D in
    M2(o_p), v_p(D) = scale, holds the target: read from its defining
    congruences, each target row scaled to p^-K meets them in all 8 slots."""
    rows, e = target
    mod = p ** (K_prec + scale)
    return all(
        sum(x * p ** (K_prec - e) * X[slot] for x, X in zip(row, conj)) % mod == 0
        for row in rows
        for slot in range(8)
    )


@pytest.mark.parametrize(
    "p,d,r_max",
    [(3, 3, 3), (5, 5, 3), (3, 15, 3), (5, 10, 3), (7, 7, 2), (7, 7, 3), (11, 11, 3)],
)
def test_prefilter_keeps_the_counts_of_the_full_ball(p, d, r_max):
    k = ImagQuadField(d)
    for tau in (1, _smallest_nonresidue(p)):
        for r in range(r_max + 1):
            precisions = (r + 3, r + 4)
            frame, vertices = _full_ball(k, p, tau, r, precisions)
            # a vertex matches when its lattice is the target: it holds the
            # target and has the target's volume, whether it passes or not
            counts = [
                sum(
                    volumes[i] == frame.volume
                    and lattice_holds_target(frame.target, conj, scale, p, K_prec)
                    for _, _, conj, scale, volumes in vertices
                )
                for i, K_prec in enumerate(precisions)
            ]
            assert counts[0] == counts[1], (tau, r)
            assert counts[0] == count_maximal_orders_local(p, k, tau, r), (tau, r)
            # the walk finds each vertex of the ball that holds the target, once
            walked = [J for _, _, J, _ in _held_vertices(frame.gens, d, p, r)]
            held = [J for J, held, *_ in vertices if held]
            assert sorted(walked) == sorted(held), (tau, r)


@pytest.mark.parametrize("p", [3, 5])
def test_prefilter_passes_exactly_where_the_lattice_holds_the_target(p):
    k = ImagQuadField(p)
    passed = 0
    for tau in (1, _smallest_nonresidue(p)):
        for r in range(4):
            frame, vertices = _full_ball(k, p, tau, r, ())
            for _, held, conj, scale, _ in vertices:
                holds = lattice_holds_target(frame.target, conj, scale, p, r + 3)
                assert held == holds, (tau, r)
                passed += held
    # the filter is neither empty nor everything
    assert 0 < passed < 2 * len(enumerate_vertices(p, 4))


def test_verify_local_solves_each_passing_vertex_at_two_precisions(
    capsys, monkeypatch
):
    solves, tests = [], []

    def recording(conj, scale, p, K_prec):
        solves.append((tuple(conj), scale, K_prec))
        return _intersection(conj, scale, p, K_prec)

    def holds(*args):
        tests.append(args[3])
        return _vertex_holds(*args)

    monkeypatch.setattr(localtree, "_intersection", recording)
    monkeypatch.setattr(localtree, "_vertex_holds", holds)
    assert main(["verify", "--suite", "local"]) == 0
    assert capsys.readouterr().out == "suite local: pass\n"
    # the 16 counts' balls hold 2,808 vertices; solving every one at K and
    # K + 1 would take 5,616 solves. The walk tests 586 of them, and each
    # count's _frame tests its base once more
    assert (len(tests), len(solves)) == (602, 268)
    for first, second in zip(solves[::2], solves[1::2]):
        assert first[:2] == second[:2] and second[2] == first[2] + 1
