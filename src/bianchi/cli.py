"""Command line surface: option parsing and printing for classification
reports, range scans, the verification suites of ``bianchi.verify``, and
oracle runs, with machine-readable JSON output.

``COMMANDS`` holds each command's words, handler and options. An option is
``--name value`` or ``--name=value``, given at most once and by its full name;
an integer is ASCII decimal, ``-?[0-9]+``. ``--help`` prints the usage, of
every command or of the one it follows. Exit codes: 0 success; 1 a failed
verification, or a RuntimeError, which every self-check of the library raises;
2 a ValueError, which every rejected argument or input raises, or numpy
missing for the subgroup oracle and suite, printed as one ``error:`` line; 141
stdout closed before the output ended (as for a process that SIGPIPE killed).
JSON output is versioned ("1.0"), key-sorted, and byte-stable for a fixed
input; the table renderings carry no stability contract.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

from .classify import SCHEMA_VERSION, checked_gamma, classify_report, dump_row
from .classify import host_algebra_split
from .quadfield import ImagQuadField, squarefree_fields
from .quaternion import KINDS, SubgroupKind
from .oracle.localtree import count_maximal_orders_local
from .oracle.subgroups import DEFAULT_HEIGHT, MAX_HEIGHT, NumpyMissingError
from .oracle.subgroups import find_subgroup
from .verify import SUITES


def _check_range(name: str, value: Optional[int], ceiling: Optional[int]) -> None:
    """None stands for the option's default, and ceiling is its largest value."""
    if value is not None and not 1 <= value <= ceiling:
        shown = "10^6" if ceiling == 10**6 else ceiling
        raise ValueError(f"--{name} must lie in 1..{shown}")


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


def cmd_classify(args: SimpleNamespace) -> int:
    report = classify_report(args.d)
    if args.format == "json":
        print(dump_row(report))
    else:
        print(_render_report_table(report))
    return 0


def cmd_scan(args: SimpleNamespace) -> int:
    _check_range("dmax", args.dmax, 10**6)
    # the positions in KINDS, and so in each report's kinds, of the kinds shown
    chosen = range(len(KINDS))
    if args.kinds is not None:  # left out, it means every kind
        names = [s.strip() for s in args.kinds.split(",")]
        chosen = [i for i, k in enumerate(KINDS) if k.value in names]
        if len(chosen) < len(names):  # an entry unknown, empty or repeated
            listed = ",".join(k.value for k in KINDS)
            raise ValueError(
                f"--kinds must name distinct kinds of {listed}, got {args.kinds!r}"
            )
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


def cmd_gamma(args: SimpleNamespace) -> int:
    kind = SubgroupKind(args.kind)
    k = ImagQuadField(args.d)
    # NoHostOrderError is a ValueError: main reports it as a usage error
    value = checked_gamma(kind, k)
    split = host_algebra_split(kind, k)
    host = "matrix" if split else "division"
    _print_payload(d=args.d, kind=kind.value, gamma=value, host_split=split, host=host)
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
    suite = SUITES[args.suite]
    options = {}
    for name, default in (("dmax", suite.dmax), ("height", suite.height)):
        given = getattr(args, name)
        if default is not None:
            options[name] = default if given is None else given
        elif given is not None:
            raise ValueError(f"suite {args.suite} does not read --{name}")
    _check_range("dmax", args.dmax, suite.max_dmax)
    _check_range("height", args.height, MAX_HEIGHT)
    failures = suite.run(**options)
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        print(f"suite {args.suite}: {len(failures)} failure(s)")
        return 1
    print(f"suite {args.suite}: pass")
    return 0


def cmd_oracle_subgroups(args: SimpleNamespace) -> int:
    _check_range("height", args.height, MAX_HEIGHT)
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


def cmd_oracle_local(args: SimpleNamespace) -> int:
    k = ImagQuadField(args.d)
    count = count_maximal_orders_local(args.p, k, args.tau, args.exp)
    _print_payload(p=args.p, d=args.d, tau=args.tau, exp=args.exp, count=count)
    return 0


REQUIRED = object()  # the default of an option that every call must give
_INT = (int, REQUIRED)
_FORMAT = {"--format": (("table", "json"), "table")}
_HEIGHT = {"--height": (int, None)}
_KIND, _SUITE = (tuple(k.value for k in KINDS), REQUIRED), (tuple(SUITES), REQUIRED)

#: each command's words -> its handler and its options: an option's name maps
#: to its type (int, str, or the tuple of its choices) and to its default
COMMANDS = {
    ("classify",): (cmd_classify, {"--d": _INT, **_FORMAT}),
    ("scan",): (cmd_scan, {"--dmax": _INT, "--kinds": (str, None), **_FORMAT}),
    ("gamma",): (cmd_gamma, {"--d": _INT, "--kind": _KIND}),
    ("verify",): (cmd_verify, {"--suite": _SUITE, "--dmax": (int, None), **_HEIGHT}),
    ("oracle", "subgroups"): (cmd_oracle_subgroups, {"--d": _INT, **_HEIGHT}),
    ("oracle", "local-count"): (
        cmd_oracle_local, {"--p": _INT, "--d": _INT, "--tau": _INT, "--exp": _INT}
    ),
}


def _parse(argv: Sequence[str]) -> tuple[Callable, SimpleNamespace]:
    """The handler of argv's command, and the value of each of its options."""
    if tuple(argv[:1]) in (("-h",), ("--help",)):
        return _print_help, SimpleNamespace(commands=list(COMMANDS))
    words = tuple(argv[:1]) if tuple(argv[:1]) in COMMANDS else tuple(argv[:2])
    if words not in COMMANDS:
        raise ValueError(f"unknown command {' '.join(argv[:2])!r}; see bianchi --help")
    handler, options = COMMANDS[words]
    values = {}
    rest = iter(argv[len(words) :])
    for token in rest:
        if token in ("-h", "--help"):
            return _print_help, SimpleNamespace(commands=[words])
        name, eq, text = token.partition("=")
        if name not in options:
            raise ValueError(f"{' '.join(words)} takes no argument {name!r}")
        if name in values:
            raise ValueError(f"{name} is given more than once")
        text = text if eq else next(rest, "--")
        if text.startswith("--"):  # no option takes such a value
            raise ValueError(f"{name} needs a value")
        kind = options[name][0]
        if kind is int and not (text.isascii() and text.removeprefix("-").isdigit()):
            raise ValueError(f"{name} must be a decimal integer, got {text!r}")
        if isinstance(kind, tuple) and text not in kind:
            raise ValueError(f"{name} must be one of {', '.join(kind)}, got {text!r}")
        try:
            values[name] = int(text) if kind is int else text
        except ValueError:  # decimal digits, but more than int() converts
            raise ValueError(f"{name} is too long: {len(text)} characters") from None
    args = {n: values.get(n, default) for n, (_, default) in options.items()}
    if missing := [n for n, value in args.items() if value is REQUIRED]:
        raise ValueError(f"{' '.join(words)} needs {', '.join(missing)}")
    return handler, SimpleNamespace(**{n[2:]: value for n, value in args.items()})


def _print_help(args: SimpleNamespace) -> int:
    print("usage, each option given at most once, as --name value or --name=value:")
    for words in args.commands:
        line = ["  bianchi", *words]
        for name, (kind, default) in COMMANDS[words][1].items():
            value = "|".join(kind) if isinstance(kind, tuple) else name[2:].upper()
            option = f"{name} {value}"
            line.append(option if default is REQUIRED else f"[{option}]")
        print(" ".join(line))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
        code = handler(args)
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
