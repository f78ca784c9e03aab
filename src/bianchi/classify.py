"""Which non-cyclic finite groups live in PSL2(o) and in unit groups of
maximal orders, and how many conjugacy classes of them there are.

Every question is answered twice where possible: by the closed-form
congruence criteria and by the Hilbert-symbol / embedding-count machinery.
``classify_report`` insists the two conjugacy-count paths agree and raises
on mismatch, which serves as the library's built-in self test.
"""

from __future__ import annotations

import json

from .orders import IncompatibleIndexError, _order_type, automorphism_index
from .orders import global_embedding_count, hilbert_character
from .quadfield import FieldLike, _field
from .quaternion import KINDS, MATRIX_ALGEBRA, SubgroupKind, group_algebra, sigma
from .quaternion import _D3, _T


class NoHostOrderError(ValueError):
    """The group type exists in no maximal order at all for this d."""


class GammaMismatchError(RuntimeError):
    """The two independent conjugacy-count paths disagree (internal error)."""


SCHEMA_VERSION = "1.0"

#: the paper's results behind every report
_PROVENANCE = (
    "existence-congruences",
    "order-type-symbol-criteria",
    "local-embedding-count-tables",
    "conjugacy-class-count-formulas",
)


def failing_primes(kind: SubgroupKind, d: FieldLike) -> list[int]:
    """The prime divisors of d violating the kind's congruence condition:
    D3 needs p = 1 mod 3 for all p != 3 dividing d; T needs p = 1 or 3 mod 8
    for all odd p | d; maximal D2 needs p = 1 mod 4 for all odd p | d.
    """
    primes = _field(d).primes
    if kind is _D3:
        return [p for p in primes if p != 3 and p % 3 != 1]
    if kind is _T:
        return [p for p in primes if p != 2 and p % 8 not in (1, 3)]
    return [p for p in primes if p != 2 and p % 4 != 1]


def contains_in_psl2o(kind: SubgroupKind, d: FieldLike) -> bool:
    """Existence of the group type in PSL2(o): no prime of d fails the
    kind's congruence condition (see ``failing_primes``)."""
    return not failing_primes(kind, d)


def contains_in_order(kind: SubgroupKind, lam_M: int, d: FieldLike) -> bool:
    """Existence of the group type in the unit group of an M2(k)-maximal
    order of type lam_M: with F the group's rational algebra and lam its
    index, the symbol (sigma(F) * lam * lam_M, -d)_v must be +1 at every
    place v where F is unramified, i.e. outside {3, oo} resp. {2, oo}.
    """
    k = _field(d)
    data = group_algebra(kind)
    lam = _order_type(lam_M, MATRIX_ALGEBRA, k)
    a = sigma(data.algebra) * data.lambda_of_group_order * lam
    return hilbert_character(a, k) <= data.algebra.ramified


def host_algebra_split(kind: SubgroupKind, d: FieldLike) -> bool:
    """Whether the k-algebra hosting the group type is the matrix algebra.

    D3: split iff d != 2 mod 3; T: split iff d != 7 mod 8. A maximal D2
    exists in some maximal order only for d != 3 mod 4 (and then the host
    is always split); otherwise NoHostOrderError is raised.
    """
    d = _field(d).d
    if kind is _D3:
        return d % 3 != 2
    if kind is _T:
        return d % 8 != 7
    if d % 4 == 3:
        raise NoHostOrderError(
            f"maximal 2-dihedral groups exist in no maximal order for d={d}"
        )
    return True


def gamma(kind: SubgroupKind, d: FieldLike) -> int:
    """Conjugacy classes of maximal finite subgroups of the given type in
    the unit group of a maximal order of its host algebra (closed form).

    D3 counts over t = #primes != 3 of the discriminant; T and maximal D2
    count over t = #odd primes of d. The answer is 2^t except in the
    division-host cases, where it doubles exactly when every relevant prime
    of d lies in the trivial congruence class (+-1 mod 12 resp. mod 8).
    """
    k = _field(d)
    host = host_algebra_split(kind, k)  # raises for D2, d = 3 mod 4
    if kind is _D3:
        t = len(k.discriminant_primes()) - (k.d % 3 == 0)
        doubles = not host and all(p % 12 in (1, 11) for p in k.primes if p != 2)
    else:  # the host of maximal D2 is split
        t = len(k.primes) - (k.d % 2 == 0)
        doubles = not host and all(p % 8 in (1, 7) for p in k.primes)
    return 1 << (t + 1) if doubles else 1 << t


def gamma_composed(kind: SubgroupKind, d: FieldLike) -> int:
    """The same count along the independent embedding path: B1 / (group aut
    index), with B1 = 2 * C(group order) * [Aut : Inn of the maximal order]
    the norm-one conjugacy count of optimal embeddings. NoHostOrderError if
    no order is compatible (D2, d = 3 mod 4).
    """
    k = _field(d)
    data = group_algebra(kind)
    F, lam = data.algebra, data.lambda_of_group_order
    try:
        B1 = 2 * global_embedding_count(lam, F, k) * automorphism_index(F, k)
    except IncompatibleIndexError as exc:
        raise NoHostOrderError(str(exc)) from exc
    if B1 % data.aut_index:
        raise GammaMismatchError(
            f"embedding-path count {B1} not divisible by {data.aut_index}"
        )
    return B1 // data.aut_index


def checked_gamma(kind: SubgroupKind, d: FieldLike) -> int:
    """The conjugacy count by both ``gamma`` and ``gamma_composed``, the one
    place where the two paths are compared: raises GammaMismatchError unless
    they agree on a power of 2, or on there being no host, which raises the
    closed form's NoHostOrderError."""
    k = _field(d)
    try:
        embedded = gamma_composed(kind, k)
    except NoHostOrderError:
        embedded = None
    try:
        closed = gamma(kind, k)
    except NoHostOrderError:
        if embedded is None:
            raise
        closed = None
    if closed != embedded or closed < 1 or closed & (closed - 1):
        raise GammaMismatchError(
            f"conjugacy-count paths disagree or give no power of 2 for {kind.value}, "
            f"d={k.d}: closed form {closed}, embedding path {embedded}"
        )
    return closed


_NAMED_KINDS = tuple((kind, kind.value) for kind in KINDS)


def classify_report(d: FieldLike) -> dict:
    """The schema-1.0 row of one d, the value ``classify --format json``
    prints and ``scan`` streams: per kind, in KINDS order, whether it exists
    in PSL2(o), whether its host algebra is split and its conjugacy count
    (both None where no maximal order hosts it; the count computed by both
    paths and checked for equality), and its failing primes, each read from
    the public function that answers it. d is resolved to its field once,
    and the kinds share it, with the splitting in k of each prime that one
    of them asked about."""
    k = _field(d)
    kinds = []
    for kind, name in _NAMED_KINDS:
        fails = failing_primes(kind, k)
        try:
            split = host_algebra_split(kind, k)
        except NoHostOrderError:
            split = count = None
        else:
            count = checked_gamma(kind, k)
        kinds.append(
            {
                "kind": name,
                "exists": not fails,
                "host_split": split,
                "gamma": count,
                "failing_primes": fails,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "d": k.d,
        "kinds": kinds,
        # a fresh list: the row equals what JSON reads back from it
        "provenance": {"paper_theorems": list(_PROVENANCE)},
    }


#: the row as ``json.dumps(row, sort_keys=True, separators=(",", ":"))``
#: writes it: its fixed keys in sorted order, with the fields left open
_ROW_TEMPLATE = '{"d":%%d,"kinds":[%%s],"provenance":%s,"schema_version":%s}' % (
    json.dumps({"paper_theorems": _PROVENANCE}, separators=(",", ":")),
    json.dumps(SCHEMA_VERSION),
)
_KIND_TEMPLATE = (
    '{"exists":%s,"failing_primes":%s,"gamma":%s,"host_split":%s,"kind":"%s"}'
)
_LITERALS = {True: "true", False: "false", None: "null"}


def dump_row(row: dict) -> str:
    """The schema-1.0 row of ``classify_report`` as key-sorted compact JSON,
    byte for byte what ``json.dumps(row, sort_keys=True, separators=(",",
    ":"))`` writes, filled into the fixed template of the row."""
    kinds = ",".join(
        [
            _KIND_TEMPLATE
            % (
                _LITERALS[entry["exists"]],
                # a list of ints prints as JSON but for the blank after each comma
                str(entry["failing_primes"]).replace(" ", ""),
                "null" if entry["gamma"] is None else entry["gamma"],
                _LITERALS[entry["host_split"]],
                entry["kind"],
            )
            for entry in row["kinds"]
        ]
    )
    return _ROW_TEMPLATE % (row["d"], kinds)
