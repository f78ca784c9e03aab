"""The byte pins of the CLI, its exit contracts, and the six verify suites
at their defaults.

Each pin runs its argv lists in-process through ``bianchi.cli.main``, each
call exiting 0, and compares the sha256 of their concatenated stdout. A
mismatch lists the sha256 of each call's output beside its argv, and says
of each ``--format json`` output whether it is the key-sorted compact dump
of its own parse. Each row of the exit-contract table runs one bad argument
or one fault and checks the exit code and what is printed. The
module also runs as it is under ``python -O``, where the library's
invariants still hold as explicit raises, and without numpy, where the
subgroup commands exit 2 naming it:

    PYTHONPATH=src python -O -m pytest -q tests/test_pins.py
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bianchi
from bianchi.classify import (
    NoHostOrderError,
    contains_in_order,
    gamma_composed,
    host_algebra_split,
)
from bianchi.cli import main
from bianchi.oracle.localtree import PrecisionError
from bianchi.orders import automorphism_index, local_embedding_count
from bianchi.quadfield import SplitType
from bianchi.quaternion import _sigma_k_primes

try:
    import numpy  # noqa: F401
except ImportError:
    HAS_NUMPY = False
else:
    HAS_NUMPY = True

# the squarefree d <= 30, the subgroups suite's default range
SQUAREFREE_TO_30 = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30)

PINS = {
    "scan-json-to-1e5": (
        [["scan", "--dmax", "100000", "--format", "json"]],
        "02e5c3177b6703ad2b93e4b0c0b777d8cb803715c91de12e6336ba73812a7f1e",
    ),
    "scan-json-to-1e4": (
        [["scan", "--dmax", "10000", "--format", "json"]],
        "2bdf4172caa4cb6b99c149b44810ba727b0d28d5ed8dbdd475729e953185f23a",
    ),
    "scan-json-d3-t-to-1000": (
        [["scan", "--kinds", "d3,t", "--dmax", "1000", "--format", "json"]],
        "01b6aaddbc9bd83baeb0eb5656b3c39f7189f4967fa38fc4a543b3fb289e8672",
    ),
    # matrix, division and "-" hosts, a "-" gamma, and failing-prime lists
    "classify-table": (
        [["classify", "--d", str(d)] for d in (1, 3, 5, 7, 91, 10000000019)],
        "aeefbecc1a320ddb3f1062c3fb7d8913063602327e9eb3833e89574fd087b2b5",
    ),
    "scan-table-to-500": (
        [["scan", "--dmax", "500"]],
        "a2f3e45929bac1fa546ab473f1b1d9f3a8ce3f4ce6fef7a9944092d01ae27dc0",
    ),
    "scan-table-t-d2-to-500": (
        [["scan", "--dmax", "500", "--kinds", "t,d2"]],
        "51cd01bd0a4023b595375204ed26626f24cf434e92fa4250c2425aa8e2cd6230",
    ),
    # small d, a prime above 10^10, a prime near 2^62 and a semiprime just
    # below 2^63: the last three take the Miller-Rabin and rho paths
    "classify-json-int64": (
        [
            ["classify", "--d", str(d), "--format", "json"]
            for d in (1, 2, 3, 5, 7, 10000000019, 4611686018427388039, 9223371873002223329)
        ],
        "278cbabf5d7ee7dcf62711d8033defc53b240ce03dead5cd32aea71c843faaf6",
    ),
    # the squarefree psi_k <= 2^63 - 1, the least odd composites that are
    # strong pseudoprimes to the first k primes; a witness tier of is_prime
    # ends at each
    "classify-json-mr-tiers": (
        [
            ["classify", "--d", str(d), "--format", "json"]
            for d in (
                2047, 1373653, 25326001, 3215031751, 2152302898747,
                3474749660383, 341550071728321, 3825123056546413051,
            )
        ],
        "c61d997b1967162dcf7130b8a47ac5316513ef76d2f7bf1579bd29e80402d187",
    ),
    # d = p, tau = 1 and the smallest non-residue mod p (the two classes of
    # F(tau)), r = 0..3
    "oracle-local-count": (
        [
            ["oracle", "local-count", "--p", str(p), "--d", str(p),
             "--tau", str(tau), "--exp", str(r)]
            for p, n in ((3, 2), (5, 2), (7, 3), (11, 2))
            for tau in (1, n)
            for r in range(4)
        ],
        "6e47b428634d316c11ba19980315100d6e1b45e31e76061e0f5e0911c49eaf0f",
    ),
    "oracle-subgroups": (
        [["oracle", "subgroups", "--d", str(d), "--height", "10"] for d in SQUAREFREE_TO_30],
        "929b8900f675928f331e8fe01aa043ef268afbd24b5d2789fa77c7a1f488b5a3",
    ),
    # matrix and division hosts, gamma from 1 to 8, and a prime above 10^10;
    # d2 only where it has a host, d != 3 mod 4
    "gamma": (
        [
            ["gamma", "--d", str(d), "--kind", kind]
            for d in (1, 2, 5, 7, 105, 10000000019)
            for kind in ("d3", "t", "d2")
            if kind != "d2" or d % 4 != 3
        ],
        "0678c5074b4a6cc0e2513f30d93234ac295e0f07af290b206883be6a3be51aa3",
    ),
}


def local_count(p=3, d=3, tau=-1, exp=1):
    return ["oracle", "local-count", "--p", str(p), "--d", str(d),
            "--tau", str(tau), "--exp", str(exp)]


# A usage row gives an argv and a word of its error: the call exits 2 within
# a second, prints nothing on stdout, and writes one line to stderr, which
# starts "error: " and holds the word.
USAGE_ROWS = [
    (["classify", "--d", "0"], "positive"),
    (["classify", "--d", "-3"], "positive"),
    (["classify", "--d", "12"], "squarefree"),
    (["classify", "--d", str(2147483647**2)], "squarefree"),  # a prime square near 2^62
    (["classify", "--d", str(2**63)], "2**63-1"),
    (["classify", "--d", str(10**38)], "2**63-1"),
    # an unknown kind, or a value that names no kind at all
    *[(["scan", "--dmax", "10", "--kinds", k], "--kinds") for k in ("q8", ",,", "", " , ")],
    (["scan", "--dmax", "0"], "--dmax"),
    (["gamma", "--d", "7", "--kind", "d2"], "no maximal order"),
    (["gamma", "--d", "3", "--kind", "d2"], "no maximal order"),
    (["gamma", "--d", "12", "--kind", "d3"], "squarefree"),
    (["verify", "--suite", "gamma", "--dmax", "0"], "--dmax"),
    (["verify", "--suite", "gamma", "--dmax", "1000001"], "--dmax"),
    # one above the subgroup suite's ceiling, which bounds its time at height 16
    (["verify", "--suite", "subgroups", "--dmax", "2001"], "--dmax"),
    (["verify", "--suite", "subgroups", "--height", "0"], "--height"),
    (["verify", "--suite", "subgroups", "--height", "17"], "--height"),
    # an option the suite does not read
    *[
        (["verify", "--suite", suite, option, "5"], option)
        for suite, option in (
            ("local", "--dmax"),
            ("reciprocity", "--dmax"),
            ("reciprocity", "--height"),
            ("gamma", "--height"),
            ("existence", "--height"),
            ("autindex", "--height"),
            ("local", "--height"),
        )
    ],
    (["oracle", "subgroups", "--d", "1", "--height", "0"], "--height"),
    (["oracle", "subgroups", "--d", "1", "--height", "17"], "--height"),
    (["oracle", "subgroups", "--d", "0"], "positive"),
    (["oracle", "subgroups", "--d", "-5"], "positive"),
    (["oracle", "subgroups", "--d", "4"], "squarefree"),
    (["oracle", "subgroups", "--d", str(2**63 - 1)], "squarefree"),
    # the product of the primes to 37, whose ring constant breaks the float64
    # bound of the pair search at height 10
    (["oracle", "subgroups", "--d", "7420738134810"], "exact range"),
    (local_count(p=2**63 + 29), "2**63-1"),
    (local_count(p=1), "odd prime"),
    (local_count(p=2), "odd prime"),
    (local_count(p=4), "odd prime"),
    (local_count(tau=0), "tau"),
    (local_count(p=5), "not ramified"),
    (local_count(p=1000003, d=1000003, exp=0), "tree vertices"),
    (local_count(exp=4), "0..3"),
    (local_count(d=12), "squarefree"),
]


def _count_unstable(p, k, tau, r):
    raise PrecisionError("count unstable")


def _no_d2_host_at_1_mod_4(kind, k):
    # the closed form's host, denied where only the embedding path finds one
    if kind.value == "d2" and k.d % 4 == 1:
        raise NoHostOrderError("no host")
    return host_algebra_split(kind, k)


# the embedding path's count doubled, so that the two paths disagree
TWICE_COMPOSED = ("bianchi.classify.gamma_composed", lambda kind, d: 2 * gamma_composed(kind, d))
# the tree count as the local suite calls it, and as oracle local-count does
UNSTABLE_IN_SUITE = ("bianchi.verify.count_maximal_orders_local", _count_unstable)
UNSTABLE_IN_ORACLE = ("bianchi.cli.count_maximal_orders_local", _count_unstable)

# A fault row gives an argv, the patch that breaks what the call checks (a
# target and its replacement, or None for a fault in the code as it is), and
# what the call then prints: it exits 1 with the given stdout, as many FAIL
# lines as given (or the one "internal check failed" line), and the given
# first line on stderr.
FAULTS = {
    "gamma-paths-disagree": (
        ["gamma", "--d", "5", "--kind", "d3"],
        TWICE_COMPOSED,
        "",
        0,
        "internal check failed: conjugacy-count paths disagree or give no power of 2 "
        "for d3, d=5: closed form 4, embedding path 8",
    ),
    "verify-gamma-paths-disagree": (
        ["verify", "--suite", "gamma", "--dmax", "5"],
        TWICE_COMPOSED,
        "suite gamma: 11 failure(s)\n",
        11,
        "FAIL: conjugacy-count paths disagree or give no power of 2 "
        "for d3, d=1: closed form 2, embedding path 4",
    ),
    "verify-gamma-host-denied-by-one-path": (
        ["verify", "--suite", "gamma", "--dmax", "10"],
        ("bianchi.classify.host_algebra_split", _no_d2_host_at_1_mod_4),
        "suite gamma: 2 failure(s)\n",
        2,
        "FAIL: conjugacy-count paths disagree or give no power of 2 "
        "for d2, d=1: closed form None, embedding path 1",
    ),
    "classify-ramified-2-row": (
        ["classify", "--d", "1"],
        (
            "bianchi.orders.local_embedding_count",
            lambda q: 1
            if q.p == 2 and q.split_type is SplitType.RAMIFIED
            else local_embedding_count(q),
        ),
        "",
        0,
        "internal check failed: embedding-path count 2 not divisible by 6",
    ),
    "verify-existence-inverted": (
        ["verify", "--suite", "existence", "--dmax", "10"],
        ("bianchi.verify.contains_in_order", lambda *args: not contains_in_order(*args)),
        "suite existence: 21 failure(s)\n",
        21,
        "FAIL: symbol/congruence mismatch: d3, d=1",
    ),
    "verify-autindex-r-capped": (
        # an index that loses a factor 2 once sigma_k has two primes, as a cap
        # of r at 1 would; no group algebra has two, so the gamma suite cannot
        # see it
        ["verify", "--suite", "autindex"],
        (
            "bianchi.verify.automorphism_index",
            lambda F, k: automorphism_index(F, k) >> (len(_sigma_k_primes(F, k)) == 2),
        ),
        "suite autindex: 28 failure(s)\n",
        28,
        "FAIL: automorphism index/rank mismatch: d=23, QuaternionAlgebraQ({2, 3})",
    ),
    "verify-subgroups-witness-against-theory": (
        ["verify", "--suite", "subgroups", "--dmax", "3"],
        ("bianchi.verify.contains_in_psl2o", lambda kind, k: False),
        "suite subgroups: 7 failure(s)\n",
        7,
        "FAIL: witness found but nonexistence predicted: d3, d=1",
    ),
    "verify-subgroups-height-shortfall": (
        # the box of height 10 holds no tetrahedral group of d = 33
        ["verify", "--suite", "subgroups", "--dmax", "33"],
        None,
        "suite subgroups: 1 failure(s)\n",
        1,
        "FAIL: no witness within height 10 although existence is predicted: t, d=33",
    ),
    "verify-local-r0-rows": (
        ["verify", "--suite", "local"],
        (
            "bianchi.verify.local_embedding_count",
            lambda q: 2 if q.index_exponent == 0 else local_embedding_count(q),
        ),
        "suite local: 4 failure(s)\n",
        4,
        "FAIL: tree count p=3, tau=1, r=0: got 1, table says 2",
    ),
    # every vertex passes the walk's filter, so the walk reaches vertices
    # whose order does not hold the target, some of them of its volume
    "verify-local-filter-passes-all": (
        ["verify", "--suite", "local"],
        ("bianchi.oracle.localtree._vertex_holds", lambda *args: True),
        "suite local: 10 failure(s)\n",
        10,
        "FAIL: tree count p=3, tau=1, r=1: got 4, table says 1",
    ),
    "verify-local-unstable": (
        ["verify", "--suite", "local"],
        UNSTABLE_IN_SUITE,
        "suite local: 16 failure(s)\n",
        16,
        "FAIL: precision failure p=3, tau=1, r=0: count unstable",
    ),
    "local-count-unstable": (
        local_count(), UNSTABLE_IN_ORACLE, "", 0, "internal check failed: count unstable"
    ),
}


def assert_needs_numpy(capsys, argv):
    # a missing dependency is not a failed verification: exit 2, one line
    assert main(argv) == 2, argv
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1, (argv, err)
    assert err.startswith("error: the subgroup search needs numpy"), (argv, err)


@pytest.mark.parametrize("name", PINS)
def test_cli_output_is_pinned(capsys, name):
    if name == "oracle-subgroups" and not HAS_NUMPY:
        assert_needs_numpy(capsys, ["oracle", "subgroups", "--d", "1"])
        return
    argvs, digest = PINS[name]
    h = hashlib.sha256()
    outs = []
    for argv in argvs:
        assert main(argv) == 0, argv
        outs.append(capsys.readouterr().out.encode())
        h.update(outs[-1])
    if h.hexdigest() == digest:
        return
    # the digest of each call points to its argv
    each = []
    for argv, out in zip(argvs, outs):
        line = f"{hashlib.sha256(out).hexdigest()}  {' '.join(argv)}"
        if "json" in argv:  # the value of --format, the one argument "json"
            line += "  one key-sorted dump: " + ("yes" if is_one_dump(out) else "NO")
        each.append(line)
    pytest.fail("\n".join(each))


def is_one_dump(out):
    try:
        doc = json.loads(out)
    except ValueError:
        return False
    return out == json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n"


@pytest.mark.parametrize(
    "argv, word", USAGE_ROWS, ids=["_".join(a).replace(" ", "_") for a, _ in USAGE_ROWS]
)
def test_usage_error(capsys, argv, word):
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out, err.count("\n")) == (2, "", 1), err
    assert err.startswith("error: ") and word in err, err
    assert seconds < 1.0


@pytest.mark.parametrize("name", FAULTS)
def test_fault_is_reported(capsys, monkeypatch, name):
    argv, patch, stdout, n_fail, first = FAULTS[name]
    if "subgroups" in argv and not HAS_NUMPY:
        assert_needs_numpy(capsys, argv)
        return
    if patch is not None:
        monkeypatch.setattr(*patch)
    code = main(argv)
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert (code, out, lines[0]) == (1, stdout, first), err
    assert len(lines) == max(n_fail, 1), err
    assert sum(line.startswith("FAIL: ") for line in lines) == n_fail, err


def test_a_closed_stdout_ends_the_cli_quietly():
    # a reader that stops early, as `scan --dmax 100000 | head -1` does: the
    # call exits 141, as a process that SIGPIPE killed, with nothing on stderr
    src = str(Path(bianchi.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "bianchi.cli", "scan", "--dmax", "100000"]
    env = {**os.environ, "PYTHONPATH": src}
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        assert proc.stdout.readline().split() == [b"d", b"d3", b"t", b"d2", b"gamma"]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize(
    "suite", ["reciprocity", "existence", "gamma", "autindex", "subgroups", "local"]
)
def test_verify_suite_passes_at_its_defaults(capsys, suite):
    argv = ["verify", "--suite", suite]
    if suite == "subgroups" and not HAS_NUMPY:
        assert_needs_numpy(capsys, argv)
        return
    assert main(argv) == 0
    assert capsys.readouterr().out == f"suite {suite}: pass\n"
