"""Benchmark of the ``bianchi`` command line tool.

Run from the root of a checkout (standard library only, nothing to build):

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a closed loop with one client: a child interpreter
(``bench/child.py``) imports ``bianchi.cli`` and makes one CLI call at a
time, with ``BIANCHI_THREADS=1``. The parent reads the child's stdout as
it streams, checks every call's output with ``workloads.py`` and counts a
call that exits nonzero, prints a ``FAIL`` line or fails its check as a
failed item.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs a fixed number of calls twice per pass, once plain and
once with every public ``bianchi`` function wrapped in a span
(``tracer.py``), and reports the per-layer metrics and the tracing
overhead. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with run metadata and sample counts, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from child import MARK
from workloads import WORKLOADS, Item, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RESULTS = BENCH / "results"

#: import-only children per run for setup_s, after one discarded warm-up
SETUP_CHILDREN = 5
#: children still running this long after a workload's run started are
#: killed, and no new call starts 5 s before; a run must end within 180 s
HARD_LIMIT_S = 165.0
#: the probe's time on an unloaded core of the 2-core VM of the first
#: baseline; end-to-end times are reported at that speed (see measure)
PROBE_REFERENCE_S = 0.020
#: the eight modules whose self time the traced run reports
MODULES = ("arith", "quadfield", "quaternion", "orders", "classify", "cli",
           "localtree", "subgroups")

_MARK = MARK.encode()
#: Each call runs pinned to one of these cores, in turn. On a VM whose cores
#: each drift in speed, independently of each other, a run then averages the
#: drift of every core instead of riding one.
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


class ChildError(RuntimeError):
    """The child died or broke the protocol."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # the CLI writes to a buffered pipe, as for a user
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        BIANCHI_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONIOENCODING="utf-8",
        # compile the program's sources on every start, and write nothing
        PYTHONDONTWRITEBYTECODE="1",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Child:
    """One child interpreter; ``setup_s`` is the time from spawn until it
    has imported ``bianchi.cli``."""

    def __init__(self, *, trace: bool = False, spans: Optional[Path] = None,
                 importtime: bool = False, kill_at: Optional[float] = None,
                 turn: int = 0) -> None:
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd.append(str(BENCH / "child.py"))
        if trace:
            cmd.append("--trace")
        if spans:
            cmd += ["--spans", str(spans)]
        t0 = time.perf_counter()
        if kill_at is None:
            kill_at = t0 + HARD_LIMIT_S
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        self.pin(turn)
        self._stderr = bytearray()
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        self._killer = threading.Timer(max(0.0, kill_at - t0), self.proc.kill)
        self._killer.daemon = True
        self._killer.start()
        try:
            out, ready = self._read_record()
            if ready["kind"] != "ready" or out:
                raise ChildError(f"unexpected start-up output {out[:200]!r}")
            expected = ROOT / "src" / "bianchi" / "cli.py"
            if Path(ready["bianchi"]).resolve() != expected:
                raise ChildError(f"imported {ready['bianchi']}, not {expected}")
        except ChildError:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0
        self.ready = ready

    def pin(self, turn: int) -> None:
        """Run the child on core ``turn`` modulo the cores this process may use."""
        if len(_CPUS) > 1:
            try:
                os.sched_setaffinity(self.proc.pid, {_CPUS[turn % len(_CPUS)]})
            except OSError:  # the child has exited, or pinning is not allowed
                pass

    def _read_stderr(self) -> None:
        for chunk in iter(lambda: self.proc.stderr.read1(65536), b""):
            self._stderr += chunk

    def _read_record(self) -> tuple[bytes, dict]:
        """The output up to the next control record, and the record."""
        chunks = []
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise ChildError("child exited: " + self.stderr[-2000:])
            k = line.find(_MARK)
            if k < 0:
                chunks.append(line)
                continue
            chunks.append(line[:k])
            return b"".join(chunks), json.loads(line[k + len(_MARK):])

    def call(self, item_id: int, argv: tuple[str, ...]) -> tuple[bytes, dict]:
        try:
            self.proc.stdin.write(
                json.dumps({"id": item_id, "argv": list(argv)}).encode() + b"\n"
            )
            self.proc.stdin.flush()
        except OSError as exc:
            raise ChildError(f"child closed its input: {exc}") from exc
        out, done = self._read_record()
        if done["kind"] != "done" or done["id"] != item_id:
            raise ChildError(f"unexpected record {done}")
        return out, done

    def close(self) -> Optional[dict]:
        """Ends the child and waits for it; returns its last record."""
        bye = None
        try:
            self.proc.stdin.close()
            _, bye = self._read_record()
        except (ChildError, OSError, ValueError):
            self.proc.kill()
        finally:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self._killer.cancel()
            self._drain.join()
            self.proc.stdout.close()
            self.proc.stderr.close()
        return bye

    @property
    def stderr(self) -> str:
        return self._stderr.decode("utf-8", "replace")


@dataclass
class Call:
    item: Item
    seconds: Optional[float]  # None when the child died during the call
    failure: Optional[str]
    out_bytes: int
    stats: Optional[dict]
    probe_s: Optional[float] = None


def judge(w: Workload, item: Item, out: bytes, done: dict) -> Optional[str]:
    if done["error"]:
        return "exception: " + done["error"].strip().splitlines()[-1]
    if done["rc"] != 0:
        return f"exit code {done['rc']}"
    reason = w.check(item, out)
    if reason is None and done["stats"] is not None:
        calls = done["stats"]["calls"]
        for name, n in w.guard(item).items():
            if calls.get(name, 0) != n:
                return f"work-done guard: {name} ran {calls.get(name, 0)} times, expected {n}"
    return reason


def probe_setup(kill_at: float, importtime: bool = False
                ) -> tuple[list[float], list[float], dict]:
    """Start import-only children: setup seconds, the cumulative import
    seconds of ``bianchi.oracle.subgroups`` (with ``importtime``), and the
    versions the child reported."""
    Child(kill_at=kill_at).close()  # warm-up: file caches, not counted
    setups, imports, ready = [], [], {}
    for turn in range(SETUP_CHILDREN):
        child = Child(importtime=importtime, kill_at=kill_at, turn=turn)
        child.close()
        setups.append(child.setup_s)
        ready = child.ready
        for line in child.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "bianchi.oracle.subgroups":
                imports.append(int(parts[1]) / 1e6)
    return setups, imports, ready


def run_calls(w: Workload, items, until, kill_at: float, *, trace=False, spans=None):
    """Make calls until ``until(calls, cycle_seconds)`` says stop, or until
    5 s before ``kill_at``. Returns the calls, and the setup seconds and peak
    RSS (kB) of every child started."""
    calls: list[Call] = []
    cycles: list[float] = []
    setups: list[float] = []
    rss: list[int] = []
    child = None
    try:
        for item_id, item in enumerate(items):
            t0 = time.perf_counter()
            if child is None:
                child = Child(trace=trace, spans=spans, kill_at=kill_at, turn=item_id)
                spans = None  # only the first child of a pass writes its spans
                setups.append(child.setup_s)
            else:
                child.pin(item_id)
            try:
                out, done = child.call(item_id, item.argv)
                call = Call(item, done["seconds"], judge(w, item, out, done), len(out),
                            done["stats"], done["probe_s"])
            except ChildError as exc:
                call = Call(item, None, str(exc), 0, None)
            calls.append(call)
            if w.child_per_call or call.seconds is None:
                bye = child.close()
                child = None
                if bye:
                    rss.append(bye["maxrss_kb"])
            cycles.append(time.perf_counter() - t0)
            if until(calls, cycles) or time.perf_counter() > kill_at - 5:
                break
    finally:
        if child is not None:
            bye = child.close()
            if bye:
                rss.append(bye["maxrss_kb"])
    return calls, setups, rss


def pct(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(w: Workload, seed: int, seconds: float,
            kill_at: float) -> tuple[dict, list[Call], dict]:
    """Untraced run: the end-to-end metrics."""
    setups, _, ready = probe_setup(kill_at)
    t_end = time.perf_counter() + seconds

    def until(calls, cycles):
        # stop only after a whole pass, and start another pass only if it
        # should end within half a pass of the deadline, so that a run lasts
        # about `seconds` on average
        if len(calls) < w.min_calls or len(calls) % w.block:
            return False
        passes = [sum(cycles[i:i + w.block]) for i in range(0, len(cycles), w.block)]
        return time.perf_counter() + statistics.median(passes) / 2 > t_end

    calls, child_setups, rss = run_calls(w, w.items(seed), until, kill_at)
    setups += child_setups
    ran = [c for c in calls if c.seconds is not None]
    if not ran or not rss:
        raise ChildError("no call completed: " + calls[-1].failure)
    # Each call's time is rescaled to the speed at which the probe takes
    # PROBE_REFERENCE_S, using the probes run on the same core just before
    # and after it. A shared machine's speed drifts by tens of percent over
    # minutes; the rescaled time tracks the program, not that drift.
    times = [c.seconds * PROBE_REFERENCE_S / c.probe_s for c in ran]
    values = {
        "setup_s": statistics.median(setups),
        # the mean rather than the median: the machine's speed switches
        # between two phases, and a median of few calls jumps between them
        "wall_s": w.block * statistics.fmean(times),
        "d_per_s": sum(c.item.d_count for c in ran) / sum(times),
        "p50_ms": pct(times, 50) * 1e3,
        "p90_ms": pct(times, 90) * 1e3,
        "max_rss_mb": max(rss) / 1024,
    }
    samples = {"setup_s": len(setups), "wall_s": len(times), "d_per_s": len(times),
               "p50_ms": len(times), "p90_ms": len(times), "max_rss_mb": len(rss)}
    return values, calls, {"samples": samples, "versions": ready,
                           "call_seconds": [c.seconds for c in ran],
                           "probe_seconds": [c.probe_s for c in ran],
                           "setup_seconds": setups}


def layer_values(calls: list[Call]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    n_calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(int)
    report_us: list[float] = []
    spans = 0
    for c in calls:
        if c.stats is None:
            continue
        spans += c.stats["spans"]
        report_us += c.stats["classify_report_us"]
        for src, dst in ((c.stats["calls"], n_calls), (c.stats["self_s"], self_s),
                         (c.stats["total_s"], total_s), (c.stats["counters"], counters)):
            for k, v in src.items():
                dst[k] += v
    module_self = defaultdict(float)
    for name, s in self_s.items():
        module_self[name.split(".", 1)[0]] += s

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    n_d = n_calls["classify.classify_report"]
    visited = counters["localtree.vertices"]
    searches = n_calls["subgroups.find_subgroup"]
    values = {
        "arith.factorize.calls": n_calls["arith.factorize"],
        "arith.factorize.calls_per_d": ratio(n_calls["arith.factorize"], n_d),
        "arith.factorize.self_s": self_s["arith.factorize"],
        "arith.is_prime.calls": n_calls["arith.is_prime"],
        "arith.is_prime.self_s": self_s["arith.is_prime"],
        "arith.hilbert_symbol.calls": n_calls["arith.hilbert_symbol"],
        "arith.hilbert_symbol.self_s": self_s["arith.hilbert_symbol"],
        "arith.kronecker.calls": n_calls["arith.kronecker"],
        "quadfield.ImagQuadField.builds": n_calls["quadfield.ImagQuadField"],
        "quadfield.ImagQuadField.builds_per_d": ratio(n_calls["quadfield.ImagQuadField"], n_d),
        "quaternion.sigma_k.calls": n_calls["quaternion.sigma_k"],
        "orders.global_embedding_count.calls": n_calls["orders.global_embedding_count"],
        "orders.automorphism_index.calls": n_calls["orders.automorphism_index"],
        "classify.classify_report.calls": n_d,
        "classify.classify_report.p50_us": pct(report_us, 50) if report_us else 0.0,
        "classify.classify_report.p99_us": pct(report_us, 99) if report_us else 0.0,
        "cli.stdout_bytes": sum(c.out_bytes for c in calls),
        "localtree.count_maximal_orders_local.calls":
            n_calls["localtree.count_maximal_orders_local"],
        "localtree.count_maximal_orders_local.self_s":
            self_s["localtree.count_maximal_orders_local"],
        "localtree.vertices": visited,
        "localtree.vertices_per_s":
            ratio(visited, total_s["localtree.count_maximal_orders_local"]),
        "localtree.match_ratio": ratio(counters["localtree.matched"], visited),
        "subgroups.find_subgroup.calls": searches,
        "subgroups.torsion_s": counters["subgroups.torsion_s"],
        "subgroups.torsion_elements": counters["subgroups.torsion_elements"],
        "subgroups.search_s": counters["subgroups.search_s"],
        "subgroups.witness_ratio": ratio(counters["subgroups.witnesses"], searches),
        "trace.spans": spans,
    }
    for mod in MODULES:
        values[f"{mod}.self_s"] = module_self[mod]
    return values


def _is_count(name: str) -> bool:
    """Whether a per-layer value is exact and must repeat between passes."""
    return name.endswith((".calls", ".calls_per_d", ".builds", ".builds_per_d",
                          ".stdout_bytes", ".vertices", ".torsion_elements",
                          ".match_ratio", ".witness_ratio", ".spans"))


def measure_traced(w: Workload, seed: int, seconds: float, kill_at: float,
                   spans: Path) -> tuple[dict, list[Call], dict]:
    """Traced run: pairs of passes over the same fixed calls, one plain and
    one traced, until the next pair would pass the deadline. The order
    within a pair alternates, so that a drift in machine speed does not
    land on one side of the overhead."""
    _, imports, ready = probe_setup(kill_at, importtime=True)
    items = list(itertools.islice(w.items(seed), w.trace_calls))
    t_end = time.perf_counter() + seconds
    plain_walls, traced_walls, passes, calls = [], [], [], []

    def whole_pass(calls, cycles):
        return len(calls) == len(items)

    while True:
        t0 = time.perf_counter()
        first_traced = len(passes) % 2 == 1
        if first_traced:
            traced, _, _ = run_calls(w, items, whole_pass, kill_at, trace=True)
        plain, _, _ = run_calls(w, items, whole_pass, kill_at)
        if not first_traced:
            traced, _, _ = run_calls(w, items, whole_pass, kill_at, trace=True,
                                     spans=spans if not passes else None)
        calls += plain + traced
        plain_walls.append(sum(c.seconds or 0.0 for c in plain))
        traced_walls.append(sum(c.seconds or 0.0 for c in traced))
        passes.append(layer_values(traced))
        now = time.perf_counter()
        if now + (now - t0) > t_end or now > kill_at - 5:
            break
    repeat = all(
        p[k] == passes[0][k] for p in passes for k in passes[0] if _is_count(k)
    )
    values = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    values["subgroups.import_s"] = statistics.median(imports) if imports else 0.0
    values["trace.wall_s"] = statistics.median(traced_walls)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(plain_walls)
    extra = {"passes": len(passes), "counts_repeat": repeat, "versions": ready,
             "spans_file": str(spans.relative_to(ROOT)),
             "counts_vs_seed": counts_vs_seed(w, seed, values)}
    if not repeat:
        calls[-1].failure = calls[-1].failure or "per-layer counts differ between passes"
    return values, calls, extra


def counts_vs_seed(w: Workload, seed: int, values: dict) -> Optional[dict]:
    """Exact counts that differ from those recorded at the seed commit, as
    ``{name: [seed, now]}``; None when no reference exists for this input."""
    refs = json.loads((BENCH / "design.json").read_text())["seed_counts"]
    ref = refs.get(w.name if w.name != "bigd" else f"bigd@seed{seed}")
    if ref is None:
        return None
    return {k: [v, values.get(k)] for k, v in ref.items() if values.get(k) != v}


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 declared: list[dict]) -> dict:
    RESULTS.mkdir(exist_ok=True)
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    kill_at = time.perf_counter() + HARD_LIMIT_S
    if trace:
        values, calls, extra = measure_traced(w, seed, seconds, kill_at,
                                              RESULTS / f"{tag}-spans.csv")
    else:
        values, calls, extra = measure(w, seed, seconds, kill_at)
    failures = [c for c in calls if c.failure]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        **git_state(),
        "python": extra["versions"].get("python"),
        "numpy": extra["versions"].get("numpy"),
        "nproc": os.cpu_count(),
        "BIANCHI_THREADS": child_env()["BIANCHI_THREADS"],
        "workloads_sha256": hashlib.sha256((BENCH / "workloads.py").read_bytes()).hexdigest(),
        "fail_ratio": len(failures) / len(calls),
        "failures": [{"argv": list(c.item.argv), "reason": c.failure} for c in failures[:20]],
        **{k: v for k, v in extra.items() if k != "versions"},
        "result": result,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, m in metrics.items():
        n = extra.get("samples", {}).get(name)
        print(f"{w.name:<10} {name:<46} {m['value']:>16.6f} {m['unit']:<6}"
              + (f" n={n}" if n else ""))
    if extra.get("counts_vs_seed"):
        print(f"{w.name:<10} counts that differ from the seed commit: "
              + json.dumps(extra["counts_vs_seed"]))
    print(f"{w.name:<10} {'fail_ratio':<46} {record['fail_ratio']:>16.6f} "
          f"({len(failures)}/{len(calls)})  record: {RESULTS.name}/{tag}.json")
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bianchi" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no bianchi sources under {ROOT / 'src'} or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                               declared)
            for name in names
        }
    except ChildError as exc:  # the program cannot even be imported
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
