"""The byte pins of the CLI and the six verify suites at their defaults.

Each pin runs its argv lists in-process through ``bianchi.cli.main``, each
call exiting 0, and compares the sha256 of their concatenated stdout; a
mismatch lists the sha256 of each call's output beside its argv. The
output of each ``--format json`` call must also read back as one JSON
document whose key-sorted compact dump it is, byte for byte. The
module also runs as it is under ``python -O``, where the library's
invariants still hold as explicit raises, and without numpy, where the
subgroup commands exit 2 naming it:

    PYTHONPATH=src python -O -m pytest -q tests/test_pins.py
"""

import hashlib
import json

import pytest

from bianchi.cli import main

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
    each = []  # on a mismatch, the digest of each call points to its argv
    for argv in argvs:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if "json" in argv:  # the value of --format, the one argument "json"
            dump = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
            assert out == dump + "\n", argv
        out = out.encode()
        h.update(out)
        each.append(f"{hashlib.sha256(out).hexdigest()}  {' '.join(argv)}")
    assert h.hexdigest() == digest, "\n".join(each)


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
