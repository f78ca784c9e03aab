"""Command line surface: option parsing and printing for classification
reports, range scans, the verification suites of ``bianchi.verify``, and
oracle runs, with machine-readable JSON output.

Exit codes: 0 success; 1 a failed verification, or a RuntimeError, which
every self-check of the library raises; 2 a ValueError, which every
rejected input raises, or numpy missing for the subgroup oracle and suite,
or an argument argparse rejects, such as an option given by a prefix of its
name; 141 stdout closed before the output ended (as for a process that SIGPIPE
killed).
JSON output is versioned ("1.0"), key-sorted, and byte-stable for a fixed
input; the table renderings carry no stability contract.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import Optional, Sequence

from .classify import SCHEMA_VERSION, checked_gamma, classify_report, dump_row
from .classify import host_algebra_split
from .quadfield import ImagQuadField, squarefree_fields
from .quaternion import KINDS, SubgroupKind
from .oracle.localtree import count_maximal_orders_local
from .oracle.subgroups import DEFAULT_HEIGHT, MAX_HEIGHT, NumpyMissingError
from .oracle.subgroups import find_subgroup
from .verify import SUITES


def _check_dmax(dmax: Optional[int], ceiling: Optional[int]) -> None:
    """None stands for a suite's default range, and ceiling is the largest dmax."""
    if dmax is not None and not 1 <= dmax <= ceiling:
        shown = "10^6" if ceiling == 10**6 else ceiling
        raise ValueError(f"--dmax must lie in 1..{shown}")


def _check_height(height: Optional[int]) -> None:
    """None stands for the default height."""
    if height is not None and not 1 <= height <= MAX_HEIGHT:
        raise ValueError(f"--height must lie in 1..{MAX_HEIGHT}")


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _print_payload(**fields) -> None:
    """Print one versioned JSON document of the given fields."""
    print(_dump({"schema_version": SCHEMA_VERSION, **fields}))


def _render_report_table(report: dict) -> str:
    header = f"{'kind':<6} {'in PSL2(o)':<11} {'host':<9} {'gamma':<6} failing primes"
    lines = [f"d = {report['d']}", header, "-" * len(header)]
    for entry in report["kinds"]:
        split = entry["host_split"]
        host = "-" if split is None else ("matrix" if split else "division")
        g = "-" if entry["gamma"] is None else str(entry["gamma"])
        fp = ",".join(map(str, entry["failing_primes"])) or "-"
        mark = "yes" if entry["exists"] else "no"
        lines.append(f"{entry['kind']:<6} {mark:<11} {host:<9} {g:<6} {fp}")
    return "\n".join(lines)


def cmd_classify(args: argparse.Namespace) -> int:
    report = classify_report(args.d)
    if args.format == "json":
        print(dump_row(report))
    else:
        print(_render_report_table(report))
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    _check_dmax(args.dmax, 10**6)
    # the positions in KINDS, and so in each report's kinds, of the kinds shown
    chosen = range(len(KINDS))
    if args.kinds is not None:  # left out, it means every kind
        names = [s.strip() for s in args.kinds.split(",") if s.strip()]
        try:
            named = set(map(SubgroupKind, names))
        except ValueError:
            named = set()
        if not named:
            listed = ",".join(k.value for k in KINDS)
            raise ValueError(f"--kinds must name some of {listed}, got {args.kinds!r}")
        chosen = [i for i, k in enumerate(KINDS) if k in named]
    kinds = [KINDS[i] for i in chosen]
    totals = [0] * len(chosen)
    n_rows = 0
    json_mode = args.format == "json"
    write = sys.stdout.write
    if json_mode:
        # The key-sorted document is {"dmax", "rows", "schema_version",
        # "totals"}: each row is written as it comes, the totals after them.
        write(f'{{"dmax":{_dump(args.dmax)},"rows":[')
    else:
        header = "d      " + "".join(f"{k.value:<5}" for k in kinds) + "gamma"
        print(header)
    for k in squarefree_fields(1, args.dmax):
        report = classify_report(k)
        for j, i in enumerate(chosen):
            totals[j] += report["kinds"][i]["exists"]
        if json_mode:
            row = dump_row(report)
            write(f",{row}" if n_rows else row)
        else:
            entries = [report["kinds"][i] for i in chosen]
            marks = "".join(f"{'x' if e['exists'] else '.':<5}" for e in entries)
            counts = ("-" if e["gamma"] is None else str(e["gamma"]) for e in entries)
            print(f"{report['d']:<7}{marks}{','.join(counts)}")
        n_rows += 1
    if json_mode:
        by_name = {k.value: n for k, n in zip(kinds, totals)}
        print(f'],"schema_version":{_dump(SCHEMA_VERSION)},"totals":{_dump(by_name)}}}')
    else:
        summary = ", ".join(f"{k.value}: {n}" for k, n in zip(kinds, totals))
        print(f"-- {n_rows} squarefree d <= {args.dmax}; present for {summary}")
    return 0


def cmd_gamma(args: argparse.Namespace) -> int:
    kind = SubgroupKind(args.kind)
    k = ImagQuadField(args.d)
    # NoHostOrderError is a ValueError: main reports it as a usage error
    value = checked_gamma(kind, k)
    split = host_algebra_split(kind, k)
    host = "matrix" if split else "division"
    _print_payload(d=args.d, kind=kind.value, gamma=value, host_split=split, host=host)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suite = SUITES[args.suite]
    options = {}
    for name, default in (("dmax", suite.dmax), ("height", suite.height)):
        given = getattr(args, name)
        if default is not None:
            options[name] = default if given is None else given
        elif given is not None:
            raise ValueError(f"suite {args.suite} does not read --{name}")
    _check_dmax(args.dmax, suite.max_dmax)
    _check_height(args.height)
    failures = suite.run(**options)
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        print(f"suite {args.suite}: {len(failures)} failure(s)")
        return 1
    print(f"suite {args.suite}: pass")
    return 0


def cmd_oracle_subgroups(args: argparse.Namespace) -> int:
    _check_height(args.height)
    height = DEFAULT_HEIGHT if args.height is None else args.height
    k = ImagQuadField(args.d)
    results = {}
    for kind in KINDS:
        witness = find_subgroup(kind, k, height)
        results[kind.value] = None if witness is None else [
            {e: list(m[2 * i : 2 * i + 2]) for i, e in enumerate("abcd")}
            for m in witness.generators
        ]
    _print_payload(d=args.d, height=height, witnesses=results)
    return 0


def cmd_oracle_local(args: argparse.Namespace) -> int:
    k = ImagQuadField(args.d)
    count = count_maximal_orders_local(args.p, k, args.tau, args.exp)
    _print_payload(p=args.p, d=args.d, tau=args.tau, exp=args.exp, count=count)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="bianchi",
        allow_abbrev=False,
        description="finite subgroups of Bianchi groups: classification, "
        "class counts, and brute-force verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name: str, help: str) -> argparse.ArgumentParser:
        # as in the top parser, an option is read only by its full name
        return parent.add_parser(name, help=help, allow_abbrev=False)

    p_classify = command(sub, "classify", "classify one d")
    p_classify.add_argument("--d", type=int, required=True)
    p_classify.add_argument("--format", choices=("table", "json"), default="table")
    p_classify.set_defaults(func=cmd_classify)

    p_scan = command(sub, "scan", "classify all squarefree d up to a bound")
    p_scan.add_argument("--dmax", type=int, required=True)
    p_scan.add_argument("--kinds", type=str)
    p_scan.add_argument("--format", choices=("table", "json"), default="table")
    p_scan.set_defaults(func=cmd_scan)

    p_gamma = command(sub, "gamma", "conjugacy class count for one kind")
    p_gamma.add_argument("--d", type=int, required=True)
    p_gamma.add_argument(
        "--kind", choices=sorted(k.value for k in KINDS), required=True
    )
    p_gamma.set_defaults(func=cmd_gamma)

    p_verify = command(sub, "verify", "run a verification suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_verify.add_argument("--dmax", type=int, default=None)
    p_verify.add_argument("--height", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = command(sub, "oracle", "run a brute-force oracle")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)

    p_subgroups = command(oracle_sub, "subgroups", "search SL2(o) directly")
    p_subgroups.add_argument("--d", type=int, required=True)
    p_subgroups.add_argument("--height", type=int, default=None)
    p_subgroups.set_defaults(func=cmd_oracle_subgroups)

    p_local = command(
        oracle_sub, "local-count", "count local maximal orders on the tree"
    )
    p_local.add_argument("--p", type=int, required=True)
    p_local.add_argument("--d", type=int, required=True)
    p_local.add_argument("--tau", type=int, required=True)
    p_local.add_argument("--exp", type=int, required=True)
    p_local.set_defaults(func=cmd_oracle_local)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: end as a process that SIGPIPE killed, and
        # send what is still buffered to os.devnull, so that the interpreter's
        # last flush raises nothing either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, NumpyMissingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
