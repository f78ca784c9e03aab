"""Benchmark child: imports ``bianchi.cli`` once, then makes the CLI calls
the parent sends, one at a time (a closed loop with one client).

Usage: ``python3 bench/child.py [--trace] [--spans PATH]``, with
``PYTHONPATH`` naming the program's ``src`` directory.

stdin carries one JSON request per line, ``{"id": n, "argv": [...]}``.
stdout carries the CLI's own output, with its stderr folded in so that a
``FAIL`` line is seen with the call that printed it. After the import and
after each call the child writes a control record: a line that starts with
``MARK`` followed by JSON. Each call is bracketed by a speed probe, whose
mean time goes into the call's record. The last record, sent when stdin closes, holds
the child's peak RSS.
"""

from __future__ import annotations

import contextlib
import json
import platform
import resource
import sys
import time
import traceback

MARK = "\0bench "
#: iterations of the speed probe, about 20 ms of pure-Python arithmetic
PROBE_LOOPS = 300_000


def send(kind: str, **fields) -> None:
    sys.stdout.write(MARK + json.dumps({"kind": kind, **fields}) + "\n")
    sys.stdout.flush()


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop: how fast the core that
    runs the child is at this moment."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def call(cli, argv: list[str]) -> tuple[int, str | None]:
    try:
        with contextlib.redirect_stderr(sys.stdout):
            return cli.main(argv), None
    except SystemExit as exc:  # argparse rejects a usage error this way
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception:
        return 1, traceback.format_exc()


def main() -> None:
    trace = "--trace" in sys.argv
    spans = sys.argv[sys.argv.index("--spans") + 1] if "--spans" in sys.argv else None

    import bianchi.cli as cli

    numpy = sys.modules.get("numpy")
    send(
        "ready",
        bianchi=cli.__file__,
        python=platform.python_version(),
        numpy=getattr(numpy, "__version__", None),
    )
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    for line in iter(sys.stdin.readline, ""):
        request = json.loads(line)
        before = probe()
        t0 = time.perf_counter()
        rc, error = call(cli, request["argv"])
        sys.stdout.flush()
        seconds = time.perf_counter() - t0
        probe_s = (before + probe()) / 2
        stats = tracer.end_item(request["id"]) if tracer else None
        send("done", id=request["id"], rc=rc, seconds=seconds, error=error, stats=stats,
             probe_s=probe_s)
    if tracer and spans:
        tracer.write_spans(spans)
    send("bye", maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


if __name__ == "__main__":
    main()
