"""Tests of the benchmark itself: its output checks, its seeded inputs, its
tracer, and that a corrupted output counts as a failed item.

Run from the repository root (standard library only):

    python3 -m unittest discover -s bench -p "test_*.py"

The end-to-end cases run the benchmark on a copy of the program whose
``main`` corrupts its own output, and read the failure count from the
result line, so they take a few seconds each.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from run import Child, judge  # noqa: E402
from workloads import WORKLOADS, Item  # noqa: E402


def program_output(argv: list[str]) -> bytes:
    """Output of the real program, run in a child so this process stays clean."""
    child = Child()
    try:
        out, done = child.call(0, tuple(argv))
    finally:
        child.close()
    assert done["rc"] == 0, done
    return out


def done(rc: int = 0) -> dict:
    return {"rc": rc, "error": None, "stats": None}


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.scan_item = Item(("scan", "--dmax", "500", "--format", "json"), 0)
        cls.scan_out = program_output(list(cls.scan_item.argv))

    def test_valid_scan_passes(self) -> None:
        self.assertIsNone(judge(WORKLOADS["scan"], self.scan_item, self.scan_out, done()))

    def test_flipped_exists_fails(self) -> None:
        out = self.scan_out.replace(b'"exists":true', b'"exists":false', 1)
        self.assertIn("exists", judge(WORKLOADS["scan"], self.scan_item, out, done()))

    def test_dropped_row_fails(self) -> None:
        doc = json.loads(self.scan_out)
        del doc["rows"][7]
        out = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n"
        self.assertIn("rows", judge(WORKLOADS["scan"], self.scan_item, out, done()))

    def test_wrong_totals_gamma_and_failing_primes_fail(self) -> None:
        doc = json.loads(self.scan_out)
        bad = [
            lambda doc: doc["totals"].update(t=doc["totals"]["t"] + 1),
            lambda doc: doc["rows"][3]["kinds"][0].update(gamma=3),
            lambda doc: doc["rows"][40]["kinds"][1]["failing_primes"].append(7),
        ]
        for corrupt in bad:
            doc = json.loads(self.scan_out)
            corrupt(doc)
            out = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
            self.assertIsNotNone(judge(WORKLOADS["scan"], self.scan_item, out, done()))

    def test_nonzero_exit_fails(self) -> None:
        self.assertIn("exit code", judge(WORKLOADS["scan"], self.scan_item, self.scan_out,
                                         done(rc=2)))

    def test_reference_digest_is_checked(self) -> None:
        item = next(WORKLOADS["scan"].items(0))
        out = program_output(list(item.argv))
        self.assertIsNone(workloads.check_scan(item, out))
        # the same document with other whitespace passes every row check
        respaced = json.dumps(json.loads(out), sort_keys=True).encode() + b"\n"
        self.assertIn("bytes", workloads.check_scan(item, respaced))

    def test_bigd_row_checked_against_built_factorization(self) -> None:
        item = next(WORKLOADS["bigd"].items(3))
        out = program_output(list(item.argv))
        self.assertIsNone(judge(WORKLOADS["bigd"], item, out, done()))
        wrong = Item(item.argv, 1, (2, 3))
        self.assertIsNotNone(judge(WORKLOADS["bigd"], wrong, out, done()))

    def test_suite_lines(self) -> None:
        w = WORKLOADS["oracles"]
        item = next(i for i in w.items(0) if i.argv[2] == "subgroups")
        ok = b"suite subgroups: pass\n"
        self.assertIsNone(judge(w, item, ok, done()))
        self.assertIn("FAIL", judge(w, item, b"FAIL: injected\n" + ok, done()))
        self.assertIn("no pass line", judge(w, item, b"suite subgroups: 1 failure(s)\n",
                                            done()))

    def test_work_done_guard(self) -> None:
        w = WORKLOADS["oracles"]
        local, subgroups = list(itertools.islice(w.items(0), 2))
        full = {"localtree.count_maximal_orders_local": 16, "subgroups.find_subgroup": 57}
        short = dict(full, **{"localtree.count_maximal_orders_local": 15})
        for item, calls, ok in ((local, full, True), (local, short, False),
                                (subgroups, full, True)):
            record = {"rc": 0, "error": None, "stats": {"calls": calls}}
            out = f"suite {item.argv[2]}: pass\n".encode()
            self.assertEqual(judge(w, item, out, record) is None, ok)


class SeededInputs(unittest.TestCase):
    def test_is_prime_matches_trial_division(self) -> None:
        def slow(n: int) -> bool:
            return n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1))

        for n in range(-5, 5000):
            self.assertEqual(workloads.is_prime(n), slow(n), n)
        self.assertTrue(workloads.is_prime(99999999977))
        self.assertFalse(workloads.is_prime(99999999977 * 1000003))

    def test_bigd_inputs_are_seeded_squarefree_and_mixed(self) -> None:
        def take(seed: int) -> list[Item]:
            return list(itertools.islice(workloads.bigd_items(seed), 99))

        a, a_again, b = take(1), take(1), take(2)
        self.assertEqual(a, a_again)
        self.assertFalse({i.argv for i in a} & {i.argv for i in b})
        lo, hi = workloads.BIGD_LOG10
        for items in (a, b):
            shapes = [len(i.primes) for i in items]
            self.assertEqual(shapes[0::3], [1] * 33)
            self.assertEqual(shapes[1::3], [2] * 33)
            self.assertTrue(all(n >= 2 for n in shapes[2::3]))
            for item in items:
                d = int(item.argv[2])
                self.assertEqual(math.prod(item.primes), d)
                self.assertEqual(len(set(item.primes)), len(item.primes))
                self.assertTrue(all(workloads.is_prime(p) for p in item.primes))
                self.assertTrue(10**lo <= d < 1.1 * 10**hi, d)
        for seed in range(20):
            for item in itertools.islice(workloads.bigd_items(seed), 400):
                self.assertEqual(len(set(item.primes)), len(item.primes), item)
        # the same spread of sizes: medians of log10 d agree closely
        med = [sorted(math.log10(int(i.argv[2])) for i in items)[49] for items in (a, b)]
        self.assertLess(abs(med[0] - med[1]), 0.03)

    def test_scan_row_count_is_the_squarefree_count(self) -> None:
        self.assertEqual(next(workloads.scan_items(0)).d_count, 6083)


class SpeedProbe(unittest.TestCase):
    def test_every_call_carries_its_probe_time(self) -> None:
        child = Child()
        try:
            _, first = child.call(0, ("classify", "--d", "5", "--format", "json"))
            _, second = child.call(1, ("classify", "--d", "6", "--format", "json"))
        finally:
            child.close()
        for record in (first, second):
            self.assertGreater(record["probe_s"], 0.0)
            self.assertLess(record["probe_s"], 5.0)


class Tracing(unittest.TestCase):
    def traced(self, argv: tuple[str, ...]) -> dict:
        child = Child(trace=True)
        try:
            _, record = child.call(0, argv)
        finally:
            child.close()
        return record["stats"]

    def test_counts_repeat_and_self_time_adds_up(self) -> None:
        argv = ("scan", "--dmax", "300", "--format", "json")
        first, second = self.traced(argv), self.traced(argv)
        self.assertEqual(first["calls"], second["calls"])
        self.assertEqual(first["calls"]["cli.main"], 1)
        self.assertGreater(first["calls"]["arith.factorize"], 0)
        self.assertGreater(first["calls"]["quadfield.ImagQuadField"], 0)
        # self times partition the root span
        self.assertAlmostEqual(sum(first["self_s"].values()), first["total_s"]["cli.main"],
                               places=6)

    def test_subgroup_search_is_split_from_torsion(self) -> None:
        stats = self.traced(("oracle", "subgroups", "--d", "1", "--height", "4"))
        self.assertEqual(stats["calls"]["subgroups.find_subgroup"], 3)
        self.assertEqual(stats["calls"]["subgroups.enumerate_torsion_elements"], 3)
        self.assertGreater(stats["counters"]["subgroups.torsion_elements"], 0)


def corrupted_checkout(tmp: Path, transform: str) -> Path:
    """A checkout whose ``bianchi.cli.main`` passes its stdout through
    ``transform``, a Python expression in the string ``out``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp / "src" / "bianchi" / "cli.py"
    cli.write_text(cli.read_text() + f'''

_real_main = main


def main(argv=None):
    import contextlib, io, json
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = _real_main(argv)
    out = buf.getvalue()
    sys.stdout.write({transform})
    return rc
''')
    return tmp


def bench_result(checkout: Path, workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class CorruptedOutputsCount(unittest.TestCase):
    def check_counted(self, workload: str, transform: str) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            result = bench_result(corrupted_checkout(Path(tmp), transform), workload)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])

    def test_flipped_exists(self) -> None:
        self.check_counted("scan", "out.replace('\"exists\":true', '\"exists\":false', 1)")

    def test_dropped_row(self) -> None:
        self.check_counted(
            "scan",
            "json.dumps({**json.loads(out), 'rows': json.loads(out)['rows'][1:]}, "
            "sort_keys=True, separators=(',', ':')) + '\\n'",
        )

    def test_injected_fail_line(self) -> None:
        self.check_counted("oracles", "'FAIL: injected\\n' + out")

    def test_without_sources_exits_nonzero_without_result(self) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", Path(tmp) / "BENCHMARK.json")
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
