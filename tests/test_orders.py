import itertools
import re
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bianchi.arith import (
    Place,
    hilbert_symbol,
    is_prime,
    is_squarefree,
    relevant_places,
    squarefree_part,
)
from bianchi.classify import contains_in_order
from bianchi.verify import _autindex_algebras
from bianchi.orders import (
    IncompatibleIndexError,
    LocalCountQuery,
    automorphism_index,
    compatible_order_exists,
    global_embedding_count,
    hilbert_character,
    intersection_character,
    joint_intersection_factor,
    local_embedding_count,
    _divisors_of_primes,
    _index_class,
    maximal_orders_isomorphic,
    ramified_pairing_rank,
    unit_character_divisors,
)
from bianchi.quadfield import SplitType, make_field, squarefree_fields
from bianchi.quaternion import (
    MATRIX_ALGEBRA,
    SubgroupKind,
    from_hilbert_pair,
    group_algebra,
    sigma,
    sigma_k,
)
from bianchi.quaternion import _sigma_k_primes
from solver_oracle import hilbert_symbol_by_search

FD3 = group_algebra(SubgroupKind.D3).algebra
FT = group_algebra(SubgroupKind.T).algebra
SQUAREFREE = [d for d in range(1, 101) if is_squarefree(d)]


def test_lambda_class_validation():
    # an index class is the squarefree part of an index n >= 1
    assert _index_class(12) == 3
    assert _index_class(1) == 1
    for n in (0, -3):
        with pytest.raises(ValueError):
            _index_class(n)
        with pytest.raises(ValueError):
            intersection_character(MATRIX_ALGEBRA, n, make_field(7))
        with pytest.raises(ValueError):
            maximal_orders_isomorphic(1, n, MATRIX_ALGEBRA, make_field(7))


def test_compatible_order_exists_examples():
    assert compatible_order_exists(1, FD3, make_field(5))
    assert compatible_order_exists(2, FT, make_field(1))
    assert not compatible_order_exists(2, FT, make_field(3))
    assert not compatible_order_exists(3, FD3, make_field(5))


def test_maximal_orders_isomorphic_examples():
    k1 = make_field(1)
    with pytest.raises(ValueError):
        maximal_orders_isomorphic(7, 7, MATRIX_ALGEBRA, k1)  # 7 is inert
    # (2, -1)_v = +1 everywhere (2 = norm of 1+i), confirmed by the search
    # oracle, so the type-2 order is isomorphic to the reference
    pytest.importorskip("numpy")
    assert hilbert_symbol_by_search(2, -1, Place(2)) == 1
    assert maximal_orders_isomorphic(1, 2, MATRIX_ALGEBRA, k1)
    assert maximal_orders_isomorphic(1, 5, MATRIX_ALGEBRA, k1)
    # over d = 5 the class of 2 is nontrivial: (2, -5)_5 is +1 but (2,-5)_2 = -1
    assert not maximal_orders_isomorphic(1, 2, MATRIX_ALGEBRA, make_field(5))


def test_maximal_orders_isomorphic_rejects_an_inadmissible_index():
    # 3 is inert in Q(i), so no maximal order of M2(k) has type 3
    k = make_field(1)
    assert not compatible_order_exists(3, MATRIX_ALGEBRA, k)
    message = re.escape("lam=3 is not an admissible M2(k)-order type for d=1")
    for lam1, lam2 in ((3, 3), (1, 3), (3, 1), (12, 1)):
        with pytest.raises(ValueError, match=message):
            maximal_orders_isomorphic(lam1, lam2, MATRIX_ALGEBRA, k)
    # over d = 5, 3 splits but divides sigma_k = 3 of D3's algebra
    with pytest.raises(ValueError, match="lam=3 .* for d=5"):
        maximal_orders_isomorphic(5, 3, FD3, make_field(5))


def _admissible_classes(F, k, bound=15):
    return [
        m
        for m in range(1, bound)
        if squarefree_part(m) == m and compatible_order_exists(m, F, k)
    ]


@pytest.mark.parametrize("d", SQUAREFREE)
@pytest.mark.parametrize("F", [MATRIX_ALGEBRA, FD3, FT])
def test_isomorphism_is_equivalence_relation(d, F):
    k = make_field(d)
    classes = _admissible_classes(F, k)
    for a in classes:
        assert maximal_orders_isomorphic(a, a, F, k)
    for a, b in itertools.combinations(classes, 2):
        assert maximal_orders_isomorphic(a, b, F, k) == maximal_orders_isomorphic(
            b, a, F, k
        )
    for a, b, c in itertools.combinations(classes, 3):
        if maximal_orders_isomorphic(a, b, F, k) and maximal_orders_isomorphic(
            b, c, F, k
        ):
            assert maximal_orders_isomorphic(a, c, F, k)


def test_intersection_character_examples():
    assert not intersection_character(MATRIX_ALGEBRA, 1, make_field(7))
    # D3's algebra meets M2(o) of Q(i*sqrt(3)) in its own maximal order,
    # so the forced character of the index is trivial
    assert not intersection_character(FD3, 1, make_field(3))
    ch = intersection_character(FT, 1, make_field(2))
    assert len(ch) % 2 == 0


def test_intersection_character_requires_embedding():
    with pytest.raises(ValueError):
        intersection_character(FD3, 1, make_field(5))  # sigma_k = 3


def test_intersection_character_rejects_an_inadmissible_order_type():
    # 3 is inert in Q(i), so no maximal order of M2(k) has type 3
    message = re.escape("lam=3 is not an admissible M2(k)-order type for d=1")
    with pytest.raises(ValueError, match=message):
        contains_in_order(SubgroupKind.T, 3, make_field(1))
    with pytest.raises(ValueError, match=message):
        intersection_character(MATRIX_ALGEBRA, 3, make_field(1))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 10, 13, 17, 21, 33])
def test_intersection_character_even_minus_count(d):
    k = make_field(d)
    for F in (MATRIX_ALGEBRA, FD3, FT):
        if sigma_k(F, k) != 1:
            continue
        for lam in _admissible_classes(F, k):
            ch = intersection_character(F, lam, k)
            assert len(ch) % 2 == 0


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 10, 13, 17])
def test_character_triple_product(d):
    # char(lam1) * char(lam2) equals the character of lam1*lam2 mod squares
    k = make_field(d)
    for F in (MATRIX_ALGEBRA, FD3, FT):
        if sigma_k(F, k) != 1:
            continue
        classes = _admissible_classes(F, k, bound=12)
        for a, b in itertools.combinations(classes, 2):
            prod = intersection_character(F, a, k) ^ intersection_character(F, b, k)
            m = squarefree_part(a * b)
            assert prod == hilbert_character(m, k)


def _is_norm(n, k):
    # Hasse: n is a norm from k^x iff (n, -d)_v = +1 at every place
    return not hilbert_character(n, k)


def test_unit_character_divisors_evaluates_nothing_when_sigma_k_is_1(
    record_calls,
):
    from bianchi import arith, orders

    fields = [make_field(d) for d in SQUAREFREE]
    trivial = [(F, k) for F in (FD3, FT) for k in fields if sigma_k(F, k) == 1]
    assert trivial
    calls = [
        record_calls(fn)
        for fn in (
            arith._hilbert_symbol_at,
            hilbert_symbol,
            hilbert_character,
            orders._divisors_of_primes,
        )
    ]
    for F, k in trivial:
        assert unit_character_divisors(F, k) == [1]
    assert calls == [[]] * 4


# the algebras of the autindex suite, whose sigma_k has up to two primes
AUTINDEX_ALGEBRAS = _autindex_algebras()


def _divisors(n):
    return [f for f in range(1, n + 1) if n % f == 0]


def test_no_prime_of_sigma_k_flips_a_divisor_character():
    # each prime q of sigma_k splits in k, so -d is a square in Q_q and
    # (f, -d)_q = +1: unit_character_divisors need not evaluate the symbol at q
    for d in range(1, 2001):
        if not is_squarefree(d):
            continue
        k = make_field(d)
        for F in AUTINDEX_ALGEBRAS:
            sk = sigma_k(F, k)
            primes = {Place(q) for q in F.finite_ramified if sk % q == 0}
            for f in _divisors(sk):
                assert not hilbert_character(f, k) & primes, (d, F, f)


def test_unit_character_divisors_lists_the_trivial_characters():
    for d in range(1, 201):
        if not is_squarefree(d):
            continue
        k = make_field(d)
        for F in AUTINDEX_ALGEBRAS:
            sk = sigma_k(F, k)
            trivial = [f for f in _divisors(sk) if not hilbert_character(f, k)]
            assert unit_character_divisors(F, k) == trivial, (d, F)


def test_unit_character_divisors_stops_only_at_a_minus_one():
    # the test of each divisor ends at its first -1; the full character, a
    # frozenset of places, is trivial for exactly the divisors it keeps
    for k in squarefree_fields(1, 2000):
        for F in AUTINDEX_ALGEBRAS:
            divisors = _divisors_of_primes(_sigma_k_primes(F, k))
            trivial = [f for f in divisors if not hilbert_character(f, k)]
            assert unit_character_divisors(F, k) == trivial, (k.d, F)


def test_hilbert_character_rejects_zero():
    with pytest.raises(ValueError):
        hilbert_character(0, make_field(1))


def test_trivial_character_examples():
    assert _is_norm(1, make_field(1))
    assert not _is_norm(-1, make_field(1))
    assert not _is_norm(3, make_field(5))
    # (3, -1) is -1 at 2 and at 3; 6 and 15 differ by the norm 10 = 3^2 + 1^2
    k = make_field(1)
    assert hilbert_character(3, k) == {Place(2), Place(3)}
    assert hilbert_character(6, k) == hilbert_character(15, k) == {Place(2), Place(3)}


@given(
    st.sampled_from(SQUAREFREE),
    st.integers(min_value=-50, max_value=50).filter(lambda n: n != 0),
    st.integers(min_value=-50, max_value=50).filter(lambda n: n != 0),
)
def test_trivial_character_square_invariance(d, lam, mu):
    k = make_field(d)
    assert _is_norm(lam * lam * mu, k) == _is_norm(mu, k)


def test_norm_form_values_have_trivial_character():
    # x^2 + d*y^2 values must pass the local-global test
    for d in (1, 2, 3, 5, 6, 7, 10):
        k = make_field(d)
        for x in range(6):
            for y in range(6):
                n = x * x + d * y * y
                if n:
                    assert _is_norm(n, k), (d, n)


def test_joint_intersection_factor_examples():
    k1 = make_field(1)
    assert joint_intersection_factor(MATRIX_ALGEBRA, 1, MATRIX_ALGEBRA, 1, 1, k1) == 1
    # reduces to the single-algebra identity over d = 3
    assert joint_intersection_factor(MATRIX_ALGEBRA, 1, FD3, 1, 1, make_field(3)) == 1
    # lam = 2 stays consistent over d = 1 since 2 is a norm there
    assert joint_intersection_factor(MATRIX_ALGEBRA, 1, MATRIX_ALGEBRA, 2, 1, k1) == 1
    # 3 is not a norm from Q(i): no divisor can repair the identity
    assert joint_intersection_factor(MATRIX_ALGEBRA, 1, MATRIX_ALGEBRA, 3, 1, k1) is None


def test_joint_intersection_factor_requires_common_extension():
    with pytest.raises(ValueError):
        joint_intersection_factor(FD3, 1, MATRIX_ALGEBRA, 1, 1, make_field(5))


# algebras with sigma_k of up to two primes: (3, 5) is ramified at {3, 5},
# so over d = 11, where 3 and 5 split, its sigma_k is 15
REFERENCE_ALGEBRAS = [
    MATRIX_ALGEBRA,
    FD3,
    FT,
    from_hilbert_pair(3, 5),
    from_hilbert_pair(-1, 3),
    from_hilbert_pair(2, 5),
]


def _minus_set_by_symbol(n, d):
    return {v for v in relevant_places(n, d) if hilbert_symbol(n, -d, v) == -1}


def _not_inert_by_search(p, d):
    # p is inert in k iff the minimal polynomial of the integral generator
    # of o has no root mod p
    if d % 4 == 3:
        return any((x * x - x + (d + 1) // 4) % p == 0 for x in range(p))
    return any((x * x + d) % p == 0 for x in range(p))


def _sigma_k_divisors_by_trial(sk):
    return [f for f in range(1, sk + 1) if sk % f == 0 and is_squarefree(f)]


def test_maximal_orders_isomorphic_matches_a_brute_force_reference():
    indices, primes = (1, 2, 3, 5, 6, 7, 10, 11), (2, 3, 5, 7, 11)
    two_prime_pairs = 0
    admissible_pairs = inadmissible_pairs = 0
    for d in (d for d in range(1, 40) if is_squarefree(d)):
        k = make_field(d)
        for F in REFERENCE_ALGEBRAS:
            sk = sigma_k(F, k)
            divisors = _sigma_k_divisors_by_trial(sk)
            # admissible: prime to sk, and no prime of the index inert in k
            admissible = {
                lam
                for lam in indices
                if gcd(lam, sk) == 1
                and all(_not_inert_by_search(p, d) for p in primes if lam % p == 0)
            }
            for lam1, lam2 in itertools.combinations_with_replacement(indices, 2):
                if not {lam1, lam2} <= admissible:
                    inadmissible_pairs += 1
                    with pytest.raises(ValueError):
                        maximal_orders_isomorphic(lam1, lam2, F, k)
                    continue
                admissible_pairs += 1
                two_prime_pairs += len(divisors) == 4
                m = squarefree_part(lam1 * lam2)
                expected = any(not _minus_set_by_symbol(f * m, d) for f in divisors)
                assert maximal_orders_isomorphic(lam1, lam2, F, k) == expected
    assert (admissible_pairs, inadmissible_pairs) == (2197, 3419)
    assert two_prime_pairs > 0


def test_joint_intersection_factor_matches_a_brute_force_reference():
    two_prime_fields = 0
    for d in (d for d in range(1, 40) if is_squarefree(d)):
        k = make_field(d)
        for F, F2 in itertools.product(REFERENCE_ALGEBRAS, repeat=2):
            sk = sigma_k(F, k)
            if sk != sigma_k(F2, k):
                continue
            divisors = _sigma_k_divisors_by_trial(sk)
            two_prime_fields += len(divisors) == 4
            target = F.ramified ^ F2.ramified
            for lam_F, lam_F2, lam_MM2 in itertools.product((1, 2, 3), repeat=3):
                base = sigma(F) * sigma(F2) * lam_F * lam_F2 * lam_MM2
                matches = (
                    f
                    for f in divisors
                    if _minus_set_by_symbol(base * f, d) == target
                )
                found = joint_intersection_factor(F, lam_F, F2, lam_F2, lam_MM2, k)
                assert found == next(matches, None)
    assert two_prime_fields > 0


def test_local_count_examples():
    assert local_embedding_count(LocalCountQuery(5, SplitType.RAMIFIED, True, 2)) == 4
    assert local_embedding_count(LocalCountQuery(3, SplitType.RAMIFIED, False, 1)) == 4
    assert (
        local_embedding_count(LocalCountQuery(2, SplitType.RAMIFIED, False, 6, 2)) == 16
    )
    assert local_embedding_count(LocalCountQuery(7, SplitType.SPLIT, True, 3)) == 2


def test_local_count_index_one():
    for st_ in (SplitType.SPLIT, SplitType.RAMIFIED):
        assert local_embedding_count(LocalCountQuery(5, st_, True, 0)) == 1
    assert local_embedding_count(LocalCountQuery(5, SplitType.INERT, True, 0)) == 1
    assert local_embedding_count(LocalCountQuery(5, SplitType.INERT, False, 0)) == 2


def test_local_count_rejections():
    with pytest.raises(ValueError):
        local_embedding_count(LocalCountQuery(5, SplitType.INERT, True, 3))
    with pytest.raises(ValueError):
        local_embedding_count(LocalCountQuery(2, SplitType.RAMIFIED, True, 1, None))
    with pytest.raises(ValueError):
        local_embedding_count(LocalCountQuery(5, SplitType.SPLIT, True, -1))


TWO_ADIC_EXPECTED = {
    # e: (d1 split, d1 division, d2 split, d2 division)
    1: (1, 3, 1, 3),
    2: (1, 2, 1, 2),
    3: (2, 4, 2, 4),
    4: (4, 8, 4, 4),
    5: (8, 8, 4, 8),
    6: (8, 8, 8, 16),
    7: (8, 8, 16, 16),
    8: (8, 8, 16, 16),  # >= 128 row repeats
}


def test_two_adic_table_all_cells():
    for e, row in TWO_ADIC_EXPECTED.items():
        for i, (dmod, split) in enumerate(
            ((1, True), (1, False), (2, True), (2, False))
        ):
            q = LocalCountQuery(2, SplitType.RAMIFIED, split, e, dmod)
            assert local_embedding_count(q) == row[i], (e, dmod, split)


def test_global_count_examples():
    assert global_embedding_count(1, MATRIX_ALGEBRA, make_field(7)) == 1
    assert global_embedding_count(1, FD3, make_field(1)) == 2
    assert global_embedding_count(2, FT, make_field(1)) == 3
    assert global_embedding_count(2, FT, make_field(2)) == 3


def test_global_count_rejects_incompatible():
    with pytest.raises(IncompatibleIndexError):
        global_embedding_count(3, FD3, make_field(5))
    with pytest.raises(IncompatibleIndexError):
        global_embedding_count(3, MATRIX_ALGEBRA, make_field(1))
    # lam = 3 is no ideal norm of Q(i): 3 is inert
    with pytest.raises(IncompatibleIndexError):
        global_embedding_count(3, FT, make_field(1))


def test_automorphism_index_examples():
    assert automorphism_index(MATRIX_ALGEBRA, make_field(1)) == 1
    assert automorphism_index(MATRIX_ALGEBRA, make_field(15)) == 2
    assert automorphism_index(FD3, make_field(5)) == 4
    # r = 2: 2 and 3 both split in k; t = 1, s = 2 at d = 23 (rank 0), and
    # t = 2, s = 1 at d = 119 (rank 1), so 2^(t+r+s-1) = 16 either way
    F23 = from_hilbert_pair(-1, 3)
    assert automorphism_index(F23, make_field(23)) == 16
    assert automorphism_index(F23, make_field(119)) == 16


def test_automorphism_index_checks_the_divisor_count_under_optimize(run_python):
    # three trivial-character divisors are no power of 2; the check must hold
    # under python -O as well, where an assert would be stripped
    code = """
from bianchi import orders
from bianchi.quadfield import make_field
from bianchi.quaternion import SubgroupKind, group_algebra

orders.unit_character_divisors = lambda F, k: [1, 2, 3]
for d in (11, 2):
    try:
        orders.automorphism_index(group_algebra(SubgroupKind.D3).algebra, make_field(d))
    except RuntimeError as exc:
        print(exc)
"""
    done = run_python(code, "-O")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "trivial-character divisors must number a power of 2"
    ] * 2


def test_unit_conjugacy_class_count_examples():
    # B = C(lam) * [Aut : Inn], the unit-conjugacy classes of optimal embeddings
    for lam, F, d, B in ((1, MATRIX_ALGEBRA, 1, 1), (2, FT, 1, 3), (1, FD3, 3, 1)):
        k = make_field(d)
        assert global_embedding_count(lam, F, k) * automorphism_index(F, k) == B


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30])
def test_rank_remark_matches_divisor_enumeration(d):
    from bianchi.arith import factorize

    k = make_field(d)
    for F in (FD3, FT, from_hilbert_pair(-1, 3), from_hilbert_pair(2, 5)):
        sk = sigma_k(F, k)
        r = len(factorize(sk).primes()) if sk > 1 else 0
        n = len(unit_character_divisors(F, k))
        s = n.bit_length() - 1
        assert 1 << s == n
        assert s == r - ramified_pairing_rank(F, k)


@pytest.mark.parametrize("d,tested", [(14, []), (5, [])])
def test_ramified_pairing_rank_reuses_the_places_of_d(d, tested, record_calls):
    # the field tested the primes of d when it was built, and 2, which
    # divides the discriminant of Q(i*sqrt(5)) but not 5, needs no test
    k = make_field(d)
    F = from_hilbert_pair(3, 5)
    assert sigma_k(F, k) in (3, 15)
    seen = record_calls(is_prime)
    ramified_pairing_rank(F, k)
    assert seen == tested
