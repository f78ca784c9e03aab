import pytest
from hypothesis import given
from hypothesis import strategies as st

from bianchi.arith import (
    factorize,
    hilbert_symbol,
    is_prime,
    is_squarefree,
    kronecker,
    relevant_places,
)
from bianchi.orders import hilbert_character
from bianchi.quadfield import (
    ImagQuadField,
    NonSquarefreeError,
    SplitType,
    is_ideal_norm,
    make_field,
    splitting,
    squarefree_fields,
)

SQUAREFREE = [d for d in range(1, 101) if is_squarefree(d)]
PRIMES = [p for p in range(2, 101) if is_prime(p)]


def test_make_field_examples():
    assert make_field(3).discriminant == -3
    assert make_field(1).discriminant == -4
    assert make_field(10).discriminant == -40


def test_make_field_strictness():
    with pytest.raises(NonSquarefreeError):
        make_field(12)
    with pytest.raises(ValueError):
        make_field(0)


def test_field_carries_the_primes_of_d():
    for d in SQUAREFREE:
        k = make_field(d)
        assert k.primes == factorize(d).primes()
        assert k.discriminant_primes() == factorize(k.discriminant).primes()
        for m in (-15, -2, -1, 1, 6, 35):
            reference = {
                v for v in relevant_places(m, d) if hilbert_symbol(m, -d, v) == -1
            }
            assert hilbert_character(m, k) == reference
        for m in (1, 4, 9, 36, 10**6):
            # every symbol of a positive square is +1: the trivial character
            assert all(hilbert_symbol(m, -d, v) == 1 for v in relevant_places(m, d))
            assert not hilbert_character(m, k)
    assert make_field(30) == make_field(30)
    assert hash(make_field(30)) == hash(make_field(30))
    assert repr(make_field(30)) == "ImagQuadField(d=30)"


def test_splitting_examples():
    assert splitting(make_field(3), 3) is SplitType.RAMIFIED
    assert splitting(make_field(1), 5) is SplitType.SPLIT
    assert splitting(make_field(1), 3) is SplitType.INERT


def test_splitting_at_two_convention():
    # 2 splits iff d = 7 mod 8, is inert iff d = 3 mod 8, ramified otherwise
    for d in SQUAREFREE:
        s = splitting(make_field(d), 2)
        if d % 8 == 7:
            assert s is SplitType.SPLIT
        elif d % 8 == 3:
            assert s is SplitType.INERT
        else:
            assert s is SplitType.RAMIFIED


def test_ramified_iff_divides_discriminant():
    for d in SQUAREFREE:
        k = make_field(d)
        for p in PRIMES:
            assert (splitting(k, p) is SplitType.RAMIFIED) == (
                k.discriminant % p == 0
            )


def test_is_ideal_norm_examples():
    k1 = make_field(1)
    assert is_ideal_norm(1, k1)
    assert not is_ideal_norm(3, k1)
    assert is_ideal_norm(9, k1)
    assert is_ideal_norm(5, k1)
    assert is_ideal_norm(45, k1)  # 3 is inert, and 45 = 3^2 * 5


def test_is_ideal_norm_is_its_definition():
    # every prime of lam inert in k has an even exponent; this reads all of
    # lam's factorization, where is_ideal_norm first divides out the primes
    # of the discriminant
    factored = [(lam, factorize(lam).factors) for lam in range(1, 2001)]
    primes = [p for p in range(2, 2001) if is_prime(p)]
    for d in range(1, 201):
        if not is_squarefree(d):
            continue
        k = make_field(d)
        inert = {p for p in primes if kronecker(k.discriminant, p) == -1}
        for lam, factors in factored:
            norm = all(e % 2 == 0 for p, e in factors if p in inert)
            assert is_ideal_norm(lam, k) == norm, (lam, d)


@given(
    st.sampled_from(SQUAREFREE),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=500),
)
def test_is_ideal_norm_multiplicative_on_coprimes(d, a, b):
    from math import gcd

    if gcd(a, b) != 1:
        return
    k = make_field(d)
    assert is_ideal_norm(a * b, k) == (is_ideal_norm(a, k) and is_ideal_norm(b, k))


@pytest.mark.parametrize("lo, hi", [(1, 5000), (10**6 - 2000, 10**6)])
def test_sieved_fields_match_factored_fields(lo, hi):
    expected = []
    for d in range(lo, hi + 1):
        try:
            expected.append(ImagQuadField(d))
        except NonSquarefreeError:
            continue
    sieved = list(squarefree_fields(lo, hi))
    assert [k.d for k in sieved] == [k.d for k in expected]
    for k, ref in zip(sieved, expected):
        assert k.primes == ref.primes, k.d


def test_sieved_fields_are_built_through_post_init(monkeypatch):
    # a wrapper of __post_init__, such as a tracer's, sees every sieved build
    built = []
    post_init = ImagQuadField.__post_init__

    def counted(self):
        built.append(self.d)
        post_init(self)

    monkeypatch.setattr(ImagQuadField, "__post_init__", counted)
    fields = list(squarefree_fields(1, 100))
    assert len(fields) == 61
    assert built == [k.d for k in fields]
