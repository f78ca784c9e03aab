"""Workload definitions, seeded inputs and independent output checks.

Each check re-derives the expected answer from the benchmark's own number
theory: a smallest-prime-factor sieve for ``scan`` and the factorizations
it built for ``bigd``. It never calls ``bianchi``. A wrong answer therefore
counts as a failed item, not as a fast one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

#: scan size: about 2 s per call, so a run holds about ten calls.
SCAN_DMAX = 10_000
#: sha256 of the seed's ``scan --dmax 10000 --format json`` stdout.
SCAN_SHA256 = "2bdf4172caa4cb6b99c149b44810ba727b0d28d5ed8dbdd475729e953185f23a"

#: bigd draws log10(D) from this range, one third of the calls per class,
#: stratified into this many slices (a power of two)
BIGD_LOG10 = (8.0, 10.5)
BIGD_STRATA = 128
#: bigd's pass, timed as wall_s: 32 calls per class, as many as an aligned
#: block of the bit-reversed order, which has the same spread of sizes
BIGD_BLOCK = 96
#: Closed-form classification kinds, in the order the CLI prints them.
KINDS = ("d3", "t", "d2")

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@dataclass(frozen=True)
class Item:
    """One CLI call: its arguments, how many squarefree d it covers, and
    (bigd only) the prime factors the benchmark built its d from."""

    argv: tuple[str, ...]
    d_count: int
    primes: tuple[int, ...] = ()


@dataclass(frozen=True)
class Workload:
    """How a workload is run and judged.

    ``child_per_call`` starts a fresh interpreter for every call, as a user
    of the command line does, so that a cache that outlives one call cannot
    make the next call look faster than it is. ``block`` is the number of
    calls that make one pass, timed as ``wall_s``. ``min_calls``
    is the number of calls a run makes even past its time. ``trace_calls`` is the fixed
    number of calls a traced pass makes, so that its counts repeat exactly.
    ``guard`` gives the exact number of calls of a public function that one
    traced call must make; a call that does less work is a failed item.
    """

    name: str
    child_per_call: bool
    block: int
    min_calls: int
    trace_calls: int
    items: Callable[[int], Iterator[Item]]
    check: Callable[[Item, bytes], Optional[str]]
    guard: Callable[[Item], dict[str, int]]


# --- the benchmark's own number theory -----------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    n = max(n, 2)
    while not is_prime(n):
        n += 1
    return n


def smallest_prime_factors(n: int) -> list[int]:
    """spf[m] for 0 <= m <= n (spf[0] = spf[1] = 0)."""
    spf = [0] * (n + 1)
    for p in range(2, n + 1):
        if spf[p] == 0:
            for m in range(p, n + 1, p):
                if spf[m] == 0:
                    spf[m] = p
    return spf


def squarefree_primes(d: int, spf: list[int]) -> Optional[tuple[int, ...]]:
    """The primes of d in increasing order, or None if d is not squarefree."""
    primes = []
    while d > 1:
        p = spf[d]
        d //= p
        if d % p == 0:
            return None
        primes.append(p)
    return tuple(primes)


# --- expected rows ---------------------------------------------------------


def expected_failing(kind: str, primes: tuple[int, ...]) -> list[int]:
    """Primes of d that break the kind's congruence condition:
    D3 needs p = 1 mod 3 for p != 3, T needs p = 1, 3 mod 8 for odd p,
    maximal D2 needs p = 1 mod 4 for odd p."""
    if kind == "d3":
        return [p for p in primes if p != 3 and p % 3 != 1]
    if kind == "t":
        return [p for p in primes if p != 2 and p % 8 not in (1, 3)]
    return [p for p in primes if p != 2 and p % 4 != 1]


def expected_host_split(kind: str, d: int) -> Optional[bool]:
    if kind == "d3":
        return d % 3 != 2
    if kind == "t":
        return d % 8 != 7
    return None if d % 4 == 3 else True


def check_row(row: object, d: int, primes: tuple[int, ...]) -> Optional[str]:
    """Why one classification payload is wrong for d, or None."""
    if not isinstance(row, dict) or row.get("schema_version") != "1.0":
        return f"d={d}: not a schema 1.0 object"
    if row.get("d") != d:
        return f"d={d}: row is for d={row.get('d')!r}"
    kinds = row.get("kinds")
    if not isinstance(kinds, list) or [
        k.get("kind") if isinstance(k, dict) else None for k in kinds
    ] != list(KINDS):
        return f"d={d}: kinds are not {list(KINDS)}"
    for entry in kinds:
        kind = entry["kind"]
        failing = expected_failing(kind, primes)
        if entry.get("failing_primes") != failing:
            return f"d={d} {kind}: failing_primes {entry.get('failing_primes')} != {failing}"
        if entry.get("exists") is not (not failing):
            return f"d={d} {kind}: exists={entry.get('exists')!r} with failing {failing}"
        split = expected_host_split(kind, d)
        if entry.get("host_split") is not split:
            return f"d={d} {kind}: host_split={entry.get('host_split')!r}, expected {split}"
        gamma = entry.get("gamma")
        if split is None:
            if gamma is not None:
                return f"d={d} {kind}: gamma={gamma!r} without a host order"
        elif type(gamma) is not int or gamma < 1 or gamma & (gamma - 1):
            return f"d={d} {kind}: gamma={gamma!r} is not a power of two"
    return None


# --- scan --------------------------------------------------------------------


def scan_items(seed: int) -> Iterator[Item]:
    # scan has one input; the seed only names the run
    item = Item(("scan", "--dmax", str(SCAN_DMAX), "--format", "json"), _scan_rows())
    return itertools.repeat(item)


def _scan_rows() -> int:
    spf = smallest_prime_factors(SCAN_DMAX)
    return sum(squarefree_primes(d, spf) is not None for d in range(1, SCAN_DMAX + 1))


def check_scan(item: Item, out: bytes) -> Optional[str]:
    dmax = int(item.argv[2])
    try:
        doc = json.loads(out)
    except ValueError:
        return "scan output is not one JSON document"
    if not isinstance(doc, dict) or doc.get("schema_version") != "1.0":
        return "scan output is not a schema 1.0 object"
    if doc.get("dmax") != dmax:
        return f"scan dmax={doc.get('dmax')!r}, expected {dmax}"
    rows = doc.get("rows")
    if not isinstance(rows, list):
        return "scan output has no rows"
    spf = smallest_prime_factors(dmax)
    factored = [(d, squarefree_primes(d, spf)) for d in range(1, dmax + 1)]
    expected = [(d, primes) for d, primes in factored if primes is not None]
    if [r.get("d") if isinstance(r, dict) else None for r in rows] != [d for d, _ in expected]:
        return f"scan rows ({len(rows)}) are not the squarefree d <= {dmax} ({len(expected)})"
    totals = dict.fromkeys(KINDS, 0)
    for row, (d, primes) in zip(rows, expected):
        reason = check_row(row, d, primes)
        if reason:
            return reason
        for entry in row["kinds"]:
            totals[entry["kind"]] += entry["exists"]
    if doc.get("totals") != totals:
        return f"scan totals {doc.get('totals')} != {totals}"
    if dmax == SCAN_DMAX and hashlib.sha256(out).hexdigest() != SCAN_SHA256:
        return "scan output differs from the seed's bytes"
    return None


# --- bigd --------------------------------------------------------------------


def bigd_items(seed: int) -> Iterator[Item]:
    """Squarefree D in about 10^8..10^10.5, in a repeating order of the
    three classes (a prime, a balanced semiprime, small primes times a
    large prime).

    Within each class, log10(D) is stratified: every pass of ``BIGD_STRATA``
    numbers puts one in each of that many equal slices of the range, at a
    seeded offset, and visits the slices in bit-reversed order, so that each
    aligned block of 2^k numbers is itself stratified. Another seed gives
    other numbers with the same class mix and the same spread of sizes.
    """
    lo, hi = BIGD_LOG10
    bits = BIGD_STRATA.bit_length() - 1
    for k in itertools.count():
        cls, i = k % 3, k // 3
        cycle, pos = divmod(i, BIGD_STRATA)
        offset = random.Random(f"bigd:{seed}:{cls}:{cycle}").random()
        slot = int(f"{pos:0{bits}b}"[::-1], 2)
        u = (slot + offset) / BIGD_STRATA
        target = int(10 ** (lo + (hi - lo) * u))
        primes = _bigd_primes(cls, target, random.Random(f"bigd:{seed}:{k}"))
        yield Item(("classify", "--d", str(math.prod(primes)), "--format", "json"), 1, primes)


def _bigd_primes(cls: int, target: int, rng: random.Random) -> tuple[int, ...]:
    if cls == 0:
        return (next_prime(target + rng.randrange(target // 100)),)
    if cls == 1:
        p = next_prime(int(target**0.5 * rng.uniform(0.8, 1.0)))
        q = next_prime(max(target // p, p) + 1)
        return (p, q)
    small = sorted(rng.sample(_SMALL_PRIMES, rng.randint(1, 3)))
    return (*small, next_prime(target // math.prod(small) + rng.randrange(1000)))


def check_bigd(item: Item, out: bytes) -> Optional[str]:
    d = int(item.argv[2])
    try:
        row = json.loads(out)
    except ValueError:
        return f"d={d}: output is not one JSON document"
    return check_row(row, d, item.primes)


# --- verify suites ------------------------------------------------------------


def oracle_items(seed: int) -> Iterator[Item]:
    # both suites have fixed inputs; the seed only names the run
    return itertools.cycle((
        Item(("verify", "--suite", "local"), 2),  # the fields d = 3 and d = 5
        Item(("verify", "--suite", "subgroups"), 19),  # the squarefree d <= 30
    ))


def oracle_guard(item: Item) -> dict[str, int]:
    if item.argv[2] == "local":
        return {"localtree.count_maximal_orders_local": 16}
    return {"subgroups.find_subgroup": 57}


def check_suite(item: Item, out: bytes) -> Optional[str]:
    suite = item.argv[2]
    lines = out.decode("utf-8", "replace").splitlines()
    if any(line.startswith("FAIL") for line in lines):
        return f"suite {suite} printed a FAIL line"
    if not any(re.match(rf"suite {suite}: pass\b", line) for line in lines):
        return f"suite {suite} printed no pass line"
    return None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "scan",
            child_per_call=True,
            block=1,
            min_calls=1,
            trace_calls=1,
            items=scan_items,
            check=check_scan,
            guard=lambda item: {"classify.classify_report": item.d_count},
        ),
        Workload(
            "bigd",
            child_per_call=False,
            block=BIGD_BLOCK,
            min_calls=2 * BIGD_BLOCK,
            trace_calls=30,
            items=bigd_items,
            check=check_bigd,
            guard=lambda item: {"classify.classify_report": 1},
        ),
        Workload(
            "oracles",
            child_per_call=True,
            block=2,
            min_calls=2,
            trace_calls=2,
            items=oracle_items,
            check=check_suite,
            guard=oracle_guard,
        ),
    )
}
