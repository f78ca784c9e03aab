import random
from itertools import count, islice
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchi.arith import (
    _WITNESS_TIERS,
    _WITNESSES,
    _primes_upto,
    INFINITY,
    INT64_MAX,
    Factorization,
    Place,
    factorize,
    hilbert_symbol,
    is_prime,
    kronecker,
    relevant_places,
    squarefree_part,
)
from solver_oracle import hilbert_symbol_by_search
from trial_division import is_strong_probable_prime, trial_factorize, trial_is_prime

nonzero_ints = st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0)
small_nonzero = st.integers(min_value=-300, max_value=300).filter(lambda n: n != 0)


def test_place_validation():
    assert Place(7).p == 7 and not Place(7).is_infinite
    assert INFINITY.is_infinite and INFINITY.p is None
    with pytest.raises(ValueError):
        Place(6)
    with pytest.raises(ValueError):
        Place(1)


def test_factorize_examples():
    assert factorize(1) == Factorization(1, ())
    assert factorize(-12) == Factorization(-1, ((2, 2), (3, 1)))
    assert is_prime(9973)
    assert factorize(9973) == Factorization(1, ((9973, 1),))


def test_factorize_rejects_zero_and_overflow():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**63)


@given(nonzero_ints)
def test_factorize_roundtrip(n):
    fac = factorize(n)
    assert fac.sign * prod(p**e for p, e in fac.factors) == n
    assert list(fac.primes()) == sorted(set(fac.primes()))
    assert all(e >= 1 and is_prime(p) for p, e in fac.factors)


# n up to 10^12, drawn directly and as products of two numbers above the
# trial-division bound, so that rho has to split the cofactor
up_to_10_12 = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12).filter(lambda n: n != 0),
    st.builds(
        lambda a, b: a * b,
        st.integers(min_value=1025, max_value=10**6),
        st.integers(min_value=1025, max_value=10**6),
    ),
)


@given(up_to_10_12)
@settings(max_examples=200, deadline=None)
def test_factorize_and_is_prime_match_trial_division(n):
    assert factorize(n) == trial_factorize(n)
    assert is_prime(n) == trial_is_prime(n)


def test_is_prime_matches_trial_division_on_small_n():
    # the witnesses screen these before Miller-Rabin runs
    assert [n for n in range(-2, 2**16) if is_prime(n) != trial_is_prime(n)] == []


def _primes_near(n, count, step):
    found = []
    while len(found) < count:
        if trial_is_prime(n):
            found.append(n)
        n += step
    return found


# primes on both sides of 2^31, proven by trial division
NEAR_2_31 = _primes_near(2**31 - 1, 3, -1) + _primes_near(2**31 + 1, 3, 1)


def test_balanced_semiprimes_near_2_62():
    pairs = [(p, q) for p in NEAR_2_31 for q in NEAR_2_31 if p < q]
    pairs.append((3037000453, 3037000493))  # their product is just below 2^63
    for p, q in pairs:
        assert trial_is_prime(p) and trial_is_prime(q)
        assert factorize(p * q) == Factorization(1, ((p, 1), (q, 1)))
        assert not is_prime(p * q)


def test_prime_squares_near_2_62():
    for p in NEAR_2_31:
        assert factorize(p * p) == Factorization(1, ((p, 2),))
        assert factorize(-p * p) == Factorization(-1, ((p, 2),))
        assert not is_prime(p * p)


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael numbers
        41041,
        3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
    ],
)
def test_pseudoprimes_are_composite(n):
    assert not trial_is_prime(n)
    assert not is_prime(n)
    assert factorize(n) == trial_factorize(n)


def _first_primes(k):
    return tuple(islice(filter(trial_is_prime, count(2)), k))


# psi_k, the least odd composite that is a strong pseudoprime to each of the
# first k primes (OEIS A014233; Jaeschke 1993, Sorenson and Webster 2017)
PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    8: 341550071728321,
    9: 3825123056546413051,
    10: 3825123056546413051,
    11: 3825123056546413051,
    12: 318665857834031151167461,
}


def test_witness_tiers_are_the_distinct_psi_k():
    # a tier ends at its own psi_k with the fewest k that reach it, so a k is
    # left out only where psi_k equals psi_(k-1)
    assert [(psi, len(bases)) for psi, bases in _WITNESS_TIERS] == [
        (psi, min(k for k in PSI if PSI[k] == psi)) for psi in sorted(set(PSI.values()))
    ]
    assert _WITNESS_TIERS[-2][0] <= INT64_MAX < _WITNESS_TIERS[-1][0]


@pytest.mark.parametrize("psi, bases", _WITNESS_TIERS)
def test_each_tier_bound_is_a_composite_strong_pseudoprime_to_its_bases(psi, bases):
    assert bases == _first_primes(len(bases))
    assert all(is_strong_probable_prime(psi, a) for a in bases)
    if psi > INT64_MAX:
        # psi_12 = 399165290221 * 798330580441 lies past every input
        assert psi == 399165290221 * 798330580441
        return
    fac = trial_factorize(psi)
    assert sum(e for _, e in fac.factors) > 1
    assert not is_prime(psi)
    assert factorize(psi) == fac


def test_is_prime_matches_a_sieve_past_the_second_tier():
    # every n below psi_2 = 1373653 is decided by the first two tiers
    n = 1_400_000
    assert _WITNESS_TIERS[1][0] < n
    primes = set(_primes_upto(n))
    assert [m for m in range(n + 1) if is_prime(m) != (m in primes)] == []


def _twelve_witness_reference(n):
    if any(n % p == 0 for p in _WITNESSES):
        return n in _WITNESSES
    return all(is_strong_probable_prime(n, a) for a in _WITNESSES)


def test_is_prime_matches_twelve_witnesses_in_every_tier():
    # seeded n of each tier psi_(k-1) <= n < psi_k on which Miller-Rabin
    # runs: odd n prime to the witnesses, and products of two such n
    rng = random.Random(19)
    lo = 41
    for psi, _ in _WITNESS_TIERS:
        hi = min(psi, INT64_MAX)
        odd = (rng.randrange(lo, hi) | 1 for _ in range(2000))
        coprime = [n for n in odd if n < hi and all(n % p for p in _WITNESSES)]
        products = []
        for _ in range(500):
            a = rng.randrange(41, isqrt(hi)) | 1
            b = rng.randrange(max(a, lo // a + 1), hi // a + 1) | 1
            products.append(a * b)
        checked = [n for n in coprime + products if lo <= n < hi]
        assert len(checked) > 500
        assert sum(map(is_prime, checked)) > 50
        for n in checked:
            assert is_prime(n) == _twelve_witness_reference(n), n
        lo = psi


def test_largest_int64_prime():
    n = 2**63 - 25
    # Lucas's test: some a has order n - 1 mod n. The primes of n - 1 come
    # from trial division, since the largest two are 319279 and 456065899.
    qs = trial_factorize(n - 1).primes()
    assert all(trial_is_prime(q) for q in qs)
    assert any(
        pow(a, n - 1, n) == 1 and all(pow(a, (n - 1) // q, n) != 1 for q in qs)
        for a in range(2, 100)
    )
    assert is_prime(n)
    assert factorize(n) == Factorization(1, ((n, 1),))
    # every odd number above it in int64 has a prime factor below 200
    for m in range(n + 2, 2**63, 2):
        assert not is_prime(m)
        assert any(m % p == 0 for p in range(3, 200, 2))


@pytest.mark.parametrize(
    "n",
    [
        1021,  # the largest prime below the trial-division bound 2^10
        1031,  # the smallest prime above it
        1021**2,
        1021 * 1031,
        1031**2,
        1031 * 1033,
        2**20 - 1,
        2**20 + 1,
        614889782588491410,  # the product of the first 15 primes
        -614889782588491410,
    ],
)
def test_factorize_at_the_trial_division_bound(n):
    assert factorize(n) == trial_factorize(n)


def test_is_prime_rejects_overflow():
    assert not is_prime(-7)
    with pytest.raises(ValueError):
        is_prime(2**63)


def test_valuation_rejects_a_unit_or_zero_base(run_python):
    # v_1 would divide by 1 forever; the call runs in a subprocess so that a
    # regression times out instead of hanging the suite
    code = """
from bianchi.arith import valuation
print(valuation(12, 2), valuation(-27, -3))
for p in (1, -1, 0):
    try:
        valuation(3, p)
    except ValueError as exc:
        print(exc)
"""
    done = run_python(code, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "2 3",
        "v_p needs |p| >= 2, got p=1",
        "v_p needs |p| >= 2, got p=-1",
        "v_p needs |p| >= 2, got p=0",
    ]


def test_squarefree_part_examples():
    assert squarefree_part(4) == 1
    assert squarefree_part(-18) == -2
    assert squarefree_part(360) == 10


@given(nonzero_ints)
def test_squarefree_part_contract(n):
    s = squarefree_part(n)
    q = n // s
    assert n == s * q
    r = int(round(q**0.5))
    assert max(r - 1, 0) ** 2 == q or r**2 == q or (r + 1) ** 2 == q
    assert (s > 0) == (n > 0)


@given(small_nonzero, st.integers(min_value=1, max_value=50))
def test_squarefree_part_square_invariance(n, m):
    assert squarefree_part(n * m * m) == squarefree_part(n)


def test_kronecker_examples():
    assert kronecker(2, 7) == 1  # 3^2 = 2 mod 7
    assert all(kronecker(a, 1) == 1 for a in range(-5, 6))
    assert kronecker(-1, 3) == -1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
def test_kronecker_is_legendre_at_odd_primes(p):
    squares = {x * x % p for x in range(1, p)}
    for a in range(p):
        expected = 0 if a == 0 else (1 if a in squares else -1)
        assert kronecker(a, p) == expected


@given(small_nonzero, small_nonzero, small_nonzero)
def test_kronecker_multiplicative(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_hilbert_examples():
    assert hilbert_symbol(-1, -1, INFINITY) == -1
    assert hilbert_symbol(3, 5, Place(11)) == 1
    assert hilbert_symbol(2, 7, Place(7)) == 1
    assert hilbert_symbol(-3, -1, Place(3)) == -1


def test_hilbert_examples_match_search_oracle():
    pytest.importorskip("numpy")
    assert hilbert_symbol_by_search(2, 7, Place(7)) == 1
    assert hilbert_symbol_by_search(-3, -1, Place(3)) == -1
    assert hilbert_symbol_by_search(2, -1, Place(2)) == 1
    assert hilbert_symbol_by_search(-1, -1, INFINITY) == -1


def test_hilbert_formula_matches_search_on_grid():
    pytest.importorskip("numpy")
    values = [-10, -7, -5, -3, -2, -1, 1, 2, 3, 5, 6, 10]
    for a in values:
        for b in values:
            for v in relevant_places(a, b):
                assert hilbert_symbol(a, b, v) == hilbert_symbol_by_search(a, b, v), (
                    a,
                    b,
                    v,
                )


@given(small_nonzero, small_nonzero)
def test_hilbert_symmetric_and_self_negative(a, b):
    for v in relevant_places(a, b):
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a, -a, v) == 1


@given(small_nonzero, small_nonzero, st.integers(min_value=1, max_value=30))
def test_hilbert_square_class_invariance(a, b, s):
    for v in relevant_places(a, b, s):
        assert hilbert_symbol(a * s * s, b, v) == hilbert_symbol(a, b, v)


@given(small_nonzero, small_nonzero, small_nonzero)
def test_hilbert_bimultiplicative(a, a2, b):
    for v in relevant_places(a, a2, b):
        assert hilbert_symbol(a, b, v) * hilbert_symbol(a2, b, v) == hilbert_symbol(
            a * a2, b, v
        )


@given(nonzero_ints, nonzero_ints)
@settings(max_examples=300)
def test_hilbert_reciprocity(a, b):
    prod = 1
    for v in relevant_places(a, b):
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1


def test_symbols_trivial_off_relevant_places():
    # spot checks at places outside the relevant set
    assert hilbert_symbol(3, 5, Place(7)) == 1
    assert hilbert_symbol(-6, 35, Place(11)) == 1


def test_hilbert_rejects_a_zero_argument():
    for v in (INFINITY, Place(2), Place(3)):
        for a, b in ((0, 1), (-1, 0), (0, 0)):
            with pytest.raises(ValueError):
                hilbert_symbol(a, b, v)
