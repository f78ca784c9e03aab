import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bianchi.arith import (
    INFINITY,
    Place,
    hilbert_symbol,
    is_squarefree,
    relevant_places,
    squarefree_part,
)
from bianchi.quadfield import make_field
from bianchi.quaternion import (
    MATRIX_ALGEBRA,
    QuaternionAlgebraQ,
    SubgroupKind,
    from_hilbert_pair,
    group_algebra,
    normalize_tau,
    sigma,
    sigma_k,
)

SQUAREFREE_200 = [d for d in range(1, 201) if is_squarefree(d)]

nonzero_small = st.integers(min_value=-200, max_value=200).filter(lambda n: n != 0)


def test_from_hilbert_pair_examples():
    assert from_hilbert_pair(1, 1) == MATRIX_ALGEBRA
    assert from_hilbert_pair(-1, -1).ramified == frozenset({Place(2), INFINITY})
    assert from_hilbert_pair(-1, -3).ramified == frozenset({Place(3), INFINITY})


def test_odd_ramification_parity_rejected():
    with pytest.raises(ValueError):
        QuaternionAlgebraQ(frozenset({Place(2)}))


@given(nonzero_small, nonzero_small)
def test_from_hilbert_pair_matches_symbols(a, b):
    F = from_hilbert_pair(a, b)
    assert len(F.ramified) % 2 == 0
    for v in relevant_places(a, b):
        assert (-1 if v in F.ramified else 1) == hilbert_symbol(a, b, v)


def test_sigma_examples():
    FD3 = group_algebra(SubgroupKind.D3).algebra
    assert sigma(FD3) == -3
    assert sigma(MATRIX_ALGEBRA) == 1
    assert sigma(QuaternionAlgebraQ(frozenset({Place(2), Place(5)}))) == 10
    F = QuaternionAlgebraQ(frozenset({Place(5), INFINITY, Place(3), Place(2)}))
    assert F.finite_ramified == (2, 3, 5)


def test_sigma_k_examples():
    FD3 = group_algebra(SubgroupKind.D3).algebra
    FT = group_algebra(SubgroupKind.T).algebra
    assert sigma_k(MATRIX_ALGEBRA, make_field(7)) == 1
    assert sigma_k(FD3, make_field(5)) == 3  # 5 = 2 mod 3, so 3 splits
    assert sigma_k(FT, make_field(7)) == 2  # 7 = 7 mod 8, so 2 splits


@given(nonzero_small, nonzero_small, st.sampled_from(SQUAREFREE_200))
def test_sigma_k_divides_sigma(a, b, d):
    F = from_hilbert_pair(a, b)
    k = make_field(d)
    assert abs(sigma(F)) % sigma_k(F, k) == 0
    assert (sigma(F) < 0) == F.ramified_at_infinity


def test_normalize_tau_examples():
    assert normalize_tau(4, make_field(7)) == 1
    assert normalize_tau(3, make_field(3)) == 1
    assert normalize_tau(2, make_field(2)) == 1


def test_normalize_tau_keeps_1():
    # 1 is squarefree, prime to every discriminant and 1 mod 4
    for d in (1, 2, 3, 5, 6, 7, 15, 30):
        assert normalize_tau(1, make_field(d)) == 1, d


def _check_normalize_contract(tau, d):
    k = make_field(d)
    out = normalize_tau(tau, k)
    assert squarefree_part(out) == out
    assert gcd(abs(out), abs(k.discriminant)) == 1
    if d % 2 == 0:
        assert out % 4 == 1
    for v in relevant_places(tau, out, d):
        assert hilbert_symbol(out, -d, v) == hilbert_symbol(tau, -d, v), (tau, d, v)


def test_normalize_tau_contract_random():
    rng = random.Random(7131)
    squarefree = [d for d in range(1, 201) if is_squarefree(d)]
    for _ in range(200):
        tau = rng.randint(1, 10**4) * rng.choice((1, -1))
        d = rng.choice(squarefree)
        _check_normalize_contract(tau, d)


def test_normalize_tau_rejects_zero():
    with pytest.raises(ValueError):
        normalize_tau(0, make_field(1))


def test_normalize_tau_checks_each_step_under_optimize(run_python):
    # a squarefree part that never clears the gcd must fail at the first
    # step, also under python -O, where an assert would be stripped
    code = """
from bianchi import quaternion
from bianchi.quadfield import make_field

quaternion.squarefree_part = lambda n: 3
try:
    quaternion.normalize_tau(3, make_field(3))
except RuntimeError as exc:
    print(exc)
"""
    done = run_python(code, "-O")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "gcd clearing must strictly decrease\n"


def test_group_algebra_table():
    d3 = group_algebra(SubgroupKind.D3)
    t = group_algebra(SubgroupKind.T)
    d2 = group_algebra(SubgroupKind.D2MAX)
    assert d3.algebra.ramified == frozenset({Place(3), INFINITY})
    assert t.algebra.ramified == frozenset({Place(2), INFINITY})
    assert d2.algebra == t.algebra
    assert (d3.lambda_of_group_order, d3.aut_index) == (1, 2)
    assert (t.lambda_of_group_order, t.aut_index) == (1, 2)
    assert (d2.lambda_of_group_order, d2.aut_index) == (2, 6)
