import contextlib
import io
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bianchi.arith import factorize, kronecker
from bianchi.cli import COMMANDS, REQUIRED, _dump, main
from bianchi.quaternion import sigma_k


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "d",
    [
        4611686018427388039,  # a prime near 2^62
        9223371873002223329,  # 3037000453 * 3037000493, just below 2^63
    ],
)
def test_classify_large_d_within_a_second(capsys, d):
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", "--d", str(d), "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["d"] == d


@pytest.mark.parametrize("argv", [("--dmax", "3000"), ("--kinds", "t,d2", "--dmax", "1000")])
def test_scan_json_is_one_key_sorted_dump(capsys, argv):
    # the streamed rows keep the bytes of one key-sorted dump of the
    # document; the pin runner in tests/test_pins.py checks the same of the
    # pinned JSON scans, so these argvs are ones no pin runs
    code, out, _ = run(capsys, "scan", *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def test_scan_json_is_the_same_across_sieve_segments(capsys, monkeypatch):
    # a span of 64 d cuts the range into 32 sieve segments, one span of 4096
    # holds it whole
    outputs = []
    for span in (4096, 64):
        monkeypatch.setattr("bianchi.quadfield._SIEVE_SPAN", span)
        code, out, _ = run(capsys, "scan", "--dmax", "2000", "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_scan_rows_are_the_squarefree_d(capsys):
    # in the JSON and in the table, whose summary gives the JSON's totals:
    # the number of rows in which each kind exists
    for dmax in (10, 257):
        expected = [
            d for d in range(1, dmax + 1) if all(d % (p * p) for p in range(2, 17))
        ]
        code, out, _ = run(capsys, "scan", "--dmax", str(dmax), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [row["d"] for row in doc["rows"]] == expected
        totals = {"d3": 0, "t": 0, "d2": 0}
        for row in doc["rows"]:
            for kind in row["kinds"]:
                totals[kind["kind"]] += kind["exists"]
        assert doc["totals"] == totals
        code, out, _ = run(capsys, "scan", "--dmax", str(dmax))
        assert code == 0
        lines = out.splitlines()
        assert [int(line.split()[0]) for line in lines[1:-1]] == expected
        assert lines[-1] == (
            f"-- {len(expected)} squarefree d <= {dmax}; present for "
            + ", ".join(f"{kind}: {n}" for kind, n in totals.items())
        )


def test_oracle_local_count_rejects_a_large_tree_at_once(run_python):
    # the ball for p = 101, r = 3 holds about 10^8 vertices, and the walk stops
    # once it has queued MAX_VERTICES; the call runs in a subprocess so that a
    # regression times out instead of hanging the suite
    code = """
import time
from bianchi.cli import main
start = time.perf_counter()
code = main(["oracle", "local-count", "--p", "101", "--d", "101", "--tau", "1",
             "--exp", "3"])
print(code, time.perf_counter() - start < 1.0)
"""
    done = run_python(code, timeout=30)
    assert done.stdout == "2 True\n"
    assert done.stderr == "error: p=101, r=3: over 20000 tree vertices\n"


def test_oracle_subgroups(capsys):
    pytest.importorskip("numpy")
    code, out, _ = run(capsys, "oracle", "subgroups", "--d", "2", "--height", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["witnesses"]["d3"] is None
    assert payload["witnesses"]["t"] is not None


def test_scan_factors_no_d(capsys, record_calls):
    # nor anything else: the primes of each d come from the sieve, those of
    # sigma_k from the splitting that each field keeps, and each group index
    # is divided by its algebra's ramified primes before anything is factored
    factored = record_calls(factorize)
    sigma_ks = record_calls(sigma_k)
    code, out, _ = run(capsys, "scan", "--dmax", "1000", "--format", "json")
    assert code == 0
    n_d = len(json.loads(out)["rows"])
    assert n_d == 608
    assert factored == []
    assert len(sigma_ks) <= 2 * n_d


def test_scan_asks_each_field_for_the_splitting_of_2_and_3_once(capsys, monkeypatch):
    # the field keeps the splitting of each prime it was asked about, so the
    # kinds of a report share one Kronecker symbol per prime
    from bianchi import quadfield

    symbols = []

    def counted(D, p):
        symbols.append((D, p))
        return kronecker(D, p)

    monkeypatch.setattr(quadfield, "kronecker", counted)
    code, out, _ = run(capsys, "scan", "--dmax", "1000", "--format", "json")
    assert code == 0
    n_d = len(json.loads(out)["rows"])
    assert len(symbols) <= 2 * n_d
    assert {p for _, p in symbols} == {2, 3}


def test_importing_the_cli_does_not_load_numpy(run_python):
    done = run_python("import sys, bianchi.cli; print('numpy' in sys.modules)")
    assert done.stdout.strip() == "False", done.stderr


@pytest.mark.parametrize(
    "argv",
    [["verify", "--suite", "subgroups"], ["oracle", "subgroups", "--d", "1"]],
)
def test_subgroup_commands_without_numpy_exit_2_naming_it(run_python, argv):
    # a missing dependency is not a failed verification: exit 2, one line
    code = f"""
import sys
sys.modules["numpy"] = None
import bianchi.cli as cli

sys.exit(cli.main({argv!r}))
"""
    done = run_python(code)
    assert done.returncode == 2 and done.stdout == "", done.stderr
    assert done.stderr.startswith("error: the subgroup search needs numpy")
    assert done.stderr.count("\n") == 1


def test_a_scan_and_a_range_suite_import_no_concurrency_or_fractions(run_python):
    # after a scan and a range suite, neither concurrent.futures,
    # multiprocessing nor fractions has been imported
    names = (
        "concurrent.futures",
        "multiprocessing",
        "fractions",
        "bianchi.oracle.localtree",
        "bianchi.oracle.subgroups",
    )
    code = f"""
import contextlib, io, sys
import bianchi.cli as cli

print([n in sys.modules for n in {names!r}])
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["scan", "--dmax", "200"]),
        cli.main(["verify", "--suite", "existence"]),
    ]
print(codes, [n in sys.modules for n in {names[:2]!r}])
"""
    done = run_python(code)
    assert done.stdout.splitlines() == [
        "[False, False, False, True, True]",
        "[0, 0] [False, False]",
    ], done.stderr


def test_range_suites_pass_past_their_defaults(capsys):
    for suite in ("autindex", "existence", "gamma"):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--dmax", "150")
        assert (code, out) == (0, f"suite {suite}: pass\n")


def test_range_suites_report_failures_in_order_of_d(capsys):
    pytest.importorskip("numpy")
    code, out, err = run(
        capsys, "verify", "--suite", "subgroups", "--dmax", "130", "--height", "2"
    )
    assert code == 1 and out == "suite subgroups: 69 failure(s)\n"
    ds = [int(line.rsplit("d=", 1)[1]) for line in err.splitlines()]
    assert len(ds) == 69 and ds == sorted(ds) and ds[-1] == 130


def test_help_shows_every_option_and_choice_of_the_table(capsys):
    for words, (_, options) in COMMANDS.items():
        code, out, err = run(capsys, *words, "--help")
        assert (code, err) == (0, "")
        shown = {word for token in out.split() for word in token.strip("[]").split("|")}
        for name, (kind, _) in options.items():
            choices = kind if isinstance(kind, tuple) else ()
            assert {name, *choices} <= shown, (words, out)
    for flag in ("--help", "-h"):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "")
        for words in COMMANDS:
            assert f"  bianchi {' '.join(words)} " in out, out


def test_a_classify_call_imports_no_argparse(run_python):
    # parsing is a dict lookup per option, the saving a classify call makes
    code = """
import contextlib, io, sys
import bianchi.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["classify", "--d", "5", "--format", "json"])
print(code, "argparse" in sys.modules)
"""
    done = run_python(code)
    assert done.stdout == "0 False\n", done.stderr


# spellings that Python's int() reads, or half reads, and the grammar does not
ODD_INTS = ("1_0", "+5", " 5", "5 ", "٥", "١٠", "0x5", "1e1", "5.0", "", "-")
BOUNDARY = (0, 1, -1, -5, 10**6, 10**6 + 1, 2**63 - 1, 2**63, -(2**63))
# the in-range values of each integer option, kept small so that a call takes
# milliseconds
SMALL = {
    "--d": st.integers(1, 100),
    "--dmax": st.integers(1, 100),
    "--height": st.integers(1, 4),
    "--p": st.sampled_from([3, 5, 7, 11]),
    "--tau": st.integers(-3, 3),
    "--exp": st.integers(0, 3),
}


def option_values(name, kind):
    if kind is int:
        # a scan or range suite to 10^6 takes seconds
        boundary = [str(n) for n in BOUNDARY if name != "--dmax" or n != 10**6]
        small = SMALL[name].map(str)
        odd = st.sampled_from(ODD_INTS)
        return st.one_of(small, small, small, small, st.sampled_from(boundary), odd)
    if kind is str:  # --kinds
        entries = st.sampled_from(["d3", "t", "d2", "", "q8", " t"])
        return st.lists(entries, max_size=4).map(",".join)
    named = st.sampled_from(kind)
    return named | named | st.sampled_from([kind[0].upper(), kind[0][:-1], "", f" {kind[0]}"])


def is_spelled_wrong(value, kind):
    if kind is int:
        return value in ODD_INTS
    return isinstance(kind, tuple) and value not in kind


@st.composite
def argvs(draw):
    """An argv built from COMMANDS, whether its output is JSON, and whether its
    grammar is wrong."""
    words, (_, options) = draw(st.sampled_from(list(COMMANDS.items())))
    pairs, wrong = [], False
    for name, (kind, default) in options.items():
        # a required option is left out now and then, an optional one half the time
        if draw(st.integers(0, 9)) < (9 if default is REQUIRED else 5):
            pairs.append((name, draw(option_values(name, kind))))
            wrong |= is_spelled_wrong(pairs[-1][1], kind)
        else:
            wrong |= default is REQUIRED
    pairs = draw(st.permutations(pairs))
    argv = list(words)
    for name, value in pairs:
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    # then, in a third of the argvs: an option repeated, a prefix of its name,
    # an unknown option, a stray word, or an option with no value at the end
    name, value = draw(st.sampled_from(pairs)) if pairs else (next(iter(options)), "1")
    faults = [(name, value), (name[:-1], value), ("--x", "1"), ("7",), (name,)]
    fault = draw(st.sampled_from([()] * 10 + faults))
    json_out = words[0] in ("gamma", "oracle") or ("--format", "json") in pairs
    return argv + list(fault), json_out, wrong or fault != ()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argvs())
@example((["classify", "--format=json", "--d", "10"], True, False))
@example((["scan", "--dmax", "30", "--format", "json", "--kinds", "t"], True, False))
def test_fuzzed_argv_keeps_the_exit_contract(case):
    # the contract of main: exit 0, 1, 2 or 141 and no traceback; exit 2 with
    # one error line and nothing on stdout, which every wrong grammar gets; and
    # JSON that is its own key-sorted dump
    argv, json_out, wrong = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 141), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert code == 2 or not wrong, (argv, code)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    if code == 0 and json_out:
        assert out == _dump(json.loads(out)) + "\n", argv
