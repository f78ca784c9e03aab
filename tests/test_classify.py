import json

import pytest

from bianchi.arith import factorize, is_prime, is_squarefree
from bianchi.classify import (
    GammaMismatchError,
    NoHostOrderError,
    checked_gamma,
    classify_report,
    contains_in_order,
    contains_in_psl2o,
    dump_row,
    failing_primes,
    gamma,
    gamma_composed,
    host_algebra_split,
)
from bianchi.quadfield import ImagQuadField, NonSquarefreeError, SplitType
from bianchi.quaternion import SubgroupKind

KINDS = (SubgroupKind.D3, SubgroupKind.T, SubgroupKind.D2MAX)


def test_congruence_examples():
    assert contains_in_psl2o(SubgroupKind.D3, 1)
    assert not contains_in_psl2o(SubgroupKind.D3, 5)
    assert contains_in_psl2o(SubgroupKind.T, 3)
    assert not contains_in_psl2o(SubgroupKind.D2MAX, 3)


def test_congruence_rejects_non_squarefree():
    with pytest.raises(NonSquarefreeError):
        contains_in_psl2o(SubgroupKind.D3, 12)


def test_failing_primes():
    assert failing_primes(SubgroupKind.D3, 5) == [5]
    assert failing_primes(SubgroupKind.D2MAX, 3) == [3]
    assert failing_primes(SubgroupKind.T, 1) == []


def test_contains_in_order_lambda_one_matches_congruences():
    for d in range(1, 301):
        if not is_squarefree(d):
            continue
        for kind in KINDS:
            assert contains_in_order(kind, 1, d) == contains_in_psl2o(kind, d)


def test_contains_in_order_examples():
    assert contains_in_order(SubgroupKind.D3, 1, 1)
    # for d = 1 the type of lambda = 5 changes nothing for D2: (-5,-1)_p
    # equals (-1,-1)_p times (5,-1)_p and 5 is a norm of Q(i)
    assert contains_in_order(SubgroupKind.D2MAX, 5, 1) == contains_in_psl2o(
        SubgroupKind.D2MAX, 1
    )


def test_contains_in_order_rejects_inadmissible_type():
    with pytest.raises(ValueError):
        contains_in_order(SubgroupKind.D3, 3, 1)  # 3 inert in Q(i)


def test_host_examples():
    assert not host_algebra_split(SubgroupKind.D3, 5)
    assert not host_algebra_split(SubgroupKind.T, 7)
    assert host_algebra_split(SubgroupKind.D2MAX, 2)
    with pytest.raises(NoHostOrderError):
        host_algebra_split(SubgroupKind.D2MAX, 3)


def test_gamma_examples():
    assert gamma(SubgroupKind.D2MAX, 1) == 1
    assert gamma(SubgroupKind.D3, 5) == 4
    assert gamma(SubgroupKind.T, 2) == 1
    assert gamma(SubgroupKind.D3, 3) == 1
    assert gamma(SubgroupKind.T, 3) == 2
    with pytest.raises(NoHostOrderError):
        gamma(SubgroupKind.D2MAX, 7)


def test_gamma_composed_examples():
    assert gamma_composed(SubgroupKind.D2MAX, 1) == 1
    assert gamma_composed(SubgroupKind.D3, 3) == 1
    assert gamma_composed(SubgroupKind.T, 3) == 2


def test_gamma_division_host_doubling():
    # with no prime of d outside the trivial congruence classes the count
    # doubles; one bad prime keeps it at 2^t
    assert gamma(SubgroupKind.D3, 2) == 4  # t = 1, vacuous condition
    assert gamma(SubgroupKind.T, 7) == 4  # 7 = -1 mod 8
    assert gamma(SubgroupKind.D3, 14) == 4  # 7 = -5 mod 12 blocks the doubling
    assert gamma(SubgroupKind.T, 15) == 4  # 3 = 3 mod 8 blocks the doubling


def test_maximal_d2_absent_for_every_order_type_when_d_is_3_mod_4():
    from bianchi.quadfield import ImagQuadField, is_ideal_norm

    for d in range(3, 200, 4):
        if not is_squarefree(d):
            continue
        k = ImagQuadField(d)
        for lam in range(1, 16):
            if not is_squarefree(lam) or not is_ideal_norm(lam, k):
                continue
            assert not contains_in_order(SubgroupKind.D2MAX, lam, d), (d, lam)


def test_gamma_paths_agree_and_are_powers_of_two():
    for d in range(1, 201):
        if not is_squarefree(d):
            continue
        for kind in KINDS:
            try:
                a = gamma(kind, d)
            except NoHostOrderError:
                assert kind is SubgroupKind.D2MAX and d % 4 == 3
                continue
            b = gamma_composed(kind, d)
            assert a == b, (kind, d, a, b)
            assert a & (a - 1) == 0


def test_classify_report_structure():
    report = classify_report(3)
    d3, t, d2 = report["kinds"]
    assert [e["kind"] for e in report["kinds"]] == ["d3", "t", "d2"]
    assert (d3["exists"], t["exists"], d2["exists"]) == (
        True,
        True,
        False,
    )
    assert d2["host_split"] is None and d2["gamma"] is None
    assert d2["failing_primes"] == [3]
    assert t["gamma"] == 2


def _canonical(row):
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def test_dump_row_writes_what_json_dumps_writes_on_every_row_shape():
    # d2 without a host at d = 3, 7; T with a division host at d = 7; D3
    # with one at d = 5; several failing primes at 385 = 5*7*11; and the
    # int64 d of the classify pin, the last a semiprime just below 2^63
    ds = (1, 2, 3, 5, 7, 385, 10000000019, 4611686018427388039, 9223371873002223329)
    shapes = set()
    for d in ds:
        row = classify_report(d)
        assert dump_row(row) == _canonical(row), d
        for e in row["kinds"]:
            shapes.add((e["kind"], "gamma", e["gamma"] is not None))
            shapes.add(("host_split", e["host_split"]))
            shapes.add(("failing primes", min(len(e["failing_primes"]), 2)))
    assert shapes == {
        ("d3", "gamma", True),
        ("t", "gamma", True),
        ("d2", "gamma", True),
        ("d2", "gamma", False),
        ("host_split", True),
        ("host_split", False),
        ("host_split", None),
        ("failing primes", 0),
        ("failing primes", 1),
        ("failing primes", 2),
    }


def test_dump_row_drops_nothing_of_the_row():
    for d in range(1, 2001):
        if is_squarefree(d):
            row = classify_report(d)
            assert json.loads(dump_row(row)) == row, d
    # a key the row gains and the fixed template lacks shows as a difference
    row = classify_report(5)
    row["kinds"][0]["extra"] = 1
    assert json.loads(dump_row(row)) != row


def test_classify_report_d5():
    report = classify_report(5)
    d3, t, d2 = report["kinds"]
    assert (d3["exists"], t["exists"], d2["exists"]) == (
        False,
        False,
        True,
    )
    assert d3["host_split"] is False
    assert d2["gamma"] == 2


def test_containment_constant_on_isomorphism_classes():
    # isomorphic maximal orders host the same group types
    from bianchi.orders import maximal_orders_isomorphic
    from bianchi.quadfield import ImagQuadField, is_ideal_norm
    from bianchi.quaternion import MATRIX_ALGEBRA

    for d in (1, 2, 5, 6, 10, 13, 17, 21, 30):
        k = ImagQuadField(d)
        classes = [
            m for m in range(1, 20) if is_squarefree(m) and is_ideal_norm(m, k)
        ]
        for a in classes:
            for b in classes:
                if not maximal_orders_isomorphic(a, b, MATRIX_ALGEBRA, k):
                    continue
                for kind in KINDS:
                    assert contains_in_order(kind, a, d) == contains_in_order(
                        kind, b, d
                    ), (d, a, b, kind)


def test_classify_report_d91():
    # 91 = 7 * 13: both are 1 mod 3, but 7 fails the mod-8 and mod-4 tests
    for d in (91, ImagQuadField(91)):
        report = classify_report(d)
        assert report["d"] == 91
        d3, t, d2 = report["kinds"]
        assert d3["exists"]
        assert not t["exists"] and not d2["exists"]
        assert t["failing_primes"] == [7, 13]  # 13 = 5 mod 8 also fails for T
        assert d2["failing_primes"] == [7]


def test_classify_gamma_presence_matches_host_existence():
    for d in range(1, 101):
        if not is_squarefree(d):
            continue
        report = classify_report(d)
        for entry in report["kinds"]:
            if entry["kind"] == SubgroupKind.D2MAX.value and d % 4 == 3:
                assert entry["gamma"] is None
            else:
                assert entry["gamma"] is not None


def test_classify_report_raises_when_gamma_paths_differ(monkeypatch):
    monkeypatch.setattr(
        "bianchi.classify.gamma_composed",
        lambda kind, d: 2 * gamma_composed(kind, d),
    )
    with pytest.raises(GammaMismatchError):
        classify_report(5)


def test_classify_report_reads_failing_primes(monkeypatch):
    from bianchi import classify

    before = classify_report(5)
    monkeypatch.setattr(classify, "failing_primes", lambda kind, d: [7])
    row = classify_report(5)
    assert row != before
    assert all(e["failing_primes"] == [7] and not e["exists"] for e in row["kinds"])


def test_classify_report_reads_host_algebra_split(monkeypatch):
    from bianchi import classify

    real = classify.host_algebra_split

    def no_d3_host(kind, d):
        if kind is SubgroupKind.D3:
            raise NoHostOrderError("no host")
        return real(kind, d)

    before = classify_report(5)
    monkeypatch.setattr(classify, "host_algebra_split", no_d3_host)
    row = classify_report(5)
    assert row["kinds"][1:] == before["kinds"][1:]
    assert before["kinds"][0]["host_split"] is False
    assert row["kinds"][0]["host_split"] is None and row["kinds"][0]["gamma"] is None


def test_classify_report_factors_d_once(record_calls):
    d = 10000000019
    seen = record_calls(factorize)
    classify_report(d)
    assert seen.count(d) == 1


def test_classify_report_tests_primality_of_d_once(record_calls):
    d = 10000000019
    seen = record_calls(is_prime)
    classify_report(d)
    assert seen.count(d) == 1


def test_embedding_path_reads_nothing_of_the_closed_form(monkeypatch):
    fields = [ImagQuadField(d) for d in range(1, 301) if is_squarefree(d)]
    expected = {}
    for k in fields:
        for kind in KINDS:
            try:
                expected[kind, k.d] = gamma_composed(kind, k)
            except NoHostOrderError:
                expected[kind, k.d] = None

    def forbidden(*args):
        raise AssertionError("the embedding path read the closed form")

    for name in ("failing_primes", "gamma", "contains_in_psl2o", "host_algebra_split"):
        monkeypatch.setattr(f"bianchi.classify.{name}", forbidden)
    for k in fields:
        for kind in KINDS:
            if expected[kind, k.d] is None:
                with pytest.raises(NoHostOrderError):
                    gamma_composed(kind, k)
            else:
                assert gamma_composed(kind, k) == expected[kind, k.d], (kind, k.d)


def test_classify_report_runs_the_embedding_path(monkeypatch):
    from bianchi import orders

    real = orders.local_embedding_count

    def doubled_when_ramified(q):
        n = real(q)
        return 2 * n if q.split_type is SplitType.RAMIFIED else n

    monkeypatch.setattr(orders, "local_embedding_count", doubled_when_ramified)
    squarefree = [d for d in range(1, 301) if is_squarefree(d)]
    caught = []
    for d in squarefree:
        try:
            classify_report(d)
        except GammaMismatchError:
            caught.append(d)
    # the 2-dihedral index lam = 2 meets the prime 2, ramified in k exactly
    # when d = 1, 2 mod 4; no other count of these reports is ramified
    assert caught == [d for d in squarefree if d % 4 in (1, 2)]


def test_no_result_outlives_a_report(monkeypatch):
    from bianchi import orders
    from bianchi.quadfield import squarefree_fields

    fields = [ImagQuadField(5), *(k for k in squarefree_fields(1, 5) if k.d == 5)]
    assert len(fields) == 2
    for k in fields:
        assert classify_report(k) == classify_report(5)
    real = orders.unit_character_divisors

    def doubled(F, k):
        # twice the divisors: still a power of 2, but twice the index
        return 2 * real(F, k)

    monkeypatch.setattr(orders, "unit_character_divisors", doubled)
    for k in fields:
        with pytest.raises(GammaMismatchError):
            classify_report(k)


def test_report_matches_the_per_function_api():
    ds = [d for d in range(1, 2001) if is_squarefree(d)]
    for d in ds + [10000000019, 3037000453 * 3037000493]:
        report = classify_report(d)
        for kind, entry in zip(KINDS, report["kinds"]):
            assert entry["kind"] == kind.value
            count = entry["gamma"]
            assert (count is None) == (kind is SubgroupKind.D2MAX and d % 4 == 3)
            if count is None:
                for path in (gamma, gamma_composed):
                    with pytest.raises(NoHostOrderError):
                        path(kind, d)
            else:
                assert count == gamma(kind, d) == gamma_composed(kind, d), (kind, d)


def test_checked_gamma_rejects_a_host_only_the_embedding_path_denies(monkeypatch):
    from bianchi import classify

    def no_host(kind, d):
        raise NoHostOrderError("no compatible order")

    monkeypatch.setattr(classify, "gamma_composed", no_host)
    with pytest.raises(GammaMismatchError):
        classify.checked_gamma(SubgroupKind.D2MAX, 5)


def test_checked_gamma_rejects_a_host_only_the_closed_form_denies(monkeypatch):
    from bianchi import classify

    real = classify.host_algebra_split

    def no_d2_host(kind, d):
        if kind is SubgroupKind.D2MAX:
            raise NoHostOrderError("no host")
        return real(kind, d)

    monkeypatch.setattr(classify, "host_algebra_split", no_d2_host)
    with pytest.raises(GammaMismatchError, match="closed form None, embedding path 1"):
        classify.checked_gamma(SubgroupKind.D2MAX, 1)


def test_checked_gamma_raises_the_closed_forms_no_host_when_both_paths_agree():
    for d in (3, 7, 11, 15):
        with pytest.raises(NoHostOrderError, match="no maximal order"):
            checked_gamma(SubgroupKind.D2MAX, d)
