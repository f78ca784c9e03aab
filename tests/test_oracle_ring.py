import random

import pytest

from bianchi.oracle.ring import _mdet, _minv, _mmul, _omul, _ring_constants, _scalar

# o for d = 3 mod 4 (s = 1), o for d = 1, 2 mod 4, and Z[pi] of the tree oracle
RINGS = [_ring_constants(3), _ring_constants(7), _ring_constants(11)]
RINGS += [_ring_constants(5), (0, -3), (0, -7)]


def _random_matrix(rng, bound=9):
    return tuple(rng.randint(-bound, bound) for _ in range(8))


@pytest.mark.parametrize("s,t", RINGS)
def test_minv_is_an_adjugate_inverse(s, t):
    rng = random.Random(1100 + 10 * s - t)
    checked = 0
    while checked < 200:
        A = _random_matrix(rng)
        if _mdet(A, s, t) == (0, 0):
            continue
        num, norm = _minv(A, s, t)
        assert norm > 0
        assert _mmul(A, num, s, t) == _scalar(norm)
        assert _mmul(num, A, s, t) == _scalar(norm)
        checked += 1


@pytest.mark.parametrize("s,t", RINGS)
def test_det_is_multiplicative(s, t):
    rng = random.Random(2200 + 10 * s - t)
    for _ in range(200):
        A, B = _random_matrix(rng), _random_matrix(rng)
        assert _mdet(_mmul(A, B, s, t), s, t) == _omul(_mdet(A, s, t), _mdet(B, s, t), s, t)


def test_ring_constants():
    assert _ring_constants(3) == (1, -1)  # omega^2 = omega - 1
    assert _ring_constants(7) == (1, -2)
    assert _ring_constants(1) == (0, -1)  # omega = i
    assert _ring_constants(2) == (0, -2)


def test_minv_rejects_a_singular_matrix():
    s, t = _ring_constants(3)
    with pytest.raises(ZeroDivisionError):
        _minv((1, 0, 2, 0, 2, 0, 4, 0), s, t)
    with pytest.raises(ZeroDivisionError):
        _minv((0,) * 8, 0, -5)
