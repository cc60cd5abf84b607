"""Command-line front end.

Subcommands: ``compute`` (index report for one graph), ``mycielskian``
(emit mu(G) as an edge list), ``verify`` (run claim checks over a
corpus), ``enumerate`` (list all labeled connected graphs of one
order). Output for a fixed command line is byte-identical across runs:
ordering is fixed, floats carry 12 significant digits, seeds are
explicit, and verify timings are zeroed unless ``--timings`` is given.
Each subcommand accepts only its own flags; any other flag is a usage
error.

The report is written, to stdout or ``--output``, once the subcommand
finishes with status 0 or 4; any other status leaves an existing
``--output`` file as it was.

Exit status: 0 success, 1 usage error (an ``--output`` that cannot be opened
included; one that is empty, a directory, ends in a separator, or is under a
missing directory or a regular file is found before any work), 2 input error
(unreadable, not UTF-8 or malformed), 3 hypothesis violation, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from typing import Iterable

from . import generators
from .errors import EdgeListParseError, GraphError, InvalidParameterError
from .generators import FAMILIES, build_family, connected_classes, enumerate_connected
from .graph import Graph, format_edge_list, read_edge_list
from .indices import dd_mycielskian_closed, index_report, randic_bounds
from .transform import mycielskian
from .verify import CLAIM_IDS, _fmt, verify_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_VERIFY = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default, which is reserved for input parse errors
    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.family is not None:
        try:
            return build_family(args.family)
        except InvalidParameterError as exc:
            raise _UsageError(f"bad family spec {args.family!r}: {exc}") from exc
    return read_edge_list(args.input)


def _cmd_compute(args: argparse.Namespace) -> tuple[int, str]:
    g = _load_graph(args)
    report = index_report(g)
    record: dict[str, object] = report.as_dict()
    if report.diameter == 2:
        bounds = randic_bounds(g, report.randic)
        record["degree_distance_mu"] = dd_mycielskian_closed(
            report.n, report.m, report.zagreb_m1, report.degree_distance
        )
        record["randic_mu_lower"] = bounds.lower
        record["randic_mu_upper"] = bounds.upper
        record["is_regular"] = bounds.is_regular
    if args.format == "json":
        return EXIT_OK, json.dumps(_fmt(record), indent=2) + "\n"
    # identifier keys and int, float or bool values: no cell needs csv quoting
    values = (
        f"{v:.12g}" if isinstance(v, float)
        else str(v).lower() if isinstance(v, bool)
        else str(v)
        for v in record.values()
    )
    return EXIT_OK, ",".join(record) + "\n" + ",".join(values) + "\n"


def _cmd_mycielskian(args: argparse.Namespace) -> tuple[int, str]:
    g = _load_graph(args)
    n = g.n
    comment = f"roles: original 0..{n - 1}, shadow {n}..{2 * n - 1}, root {2 * n}"
    return EXIT_OK, format_edge_list(mycielskian(g).mu, comment)


def _ordered(build, n: int):
    try:
        return build(n)
    except InvalidParameterError as exc:
        raise _UsageError(f"bad --enumerate value {n}: {exc}") from exc


def _corpus(args: argparse.Namespace) -> Iterable:
    if args.gnp is None:
        if args.trials is not None:
            raise _UsageError("--trials needs --gnp")
        if args.enumerate is not None:
            return _ordered(connected_classes, args.enumerate)
        return [_load_graph(args)]
    params, _, seed = args.gnp.rpartition(",")
    trials = 1 if args.trials is None else args.trials
    if trials < 1:
        raise _UsageError("--trials must be at least 1")

    def samples() -> Iterable[Graph]:
        # a sample redraws from at most _MAX_ATTEMPTS consecutive seeds, so
        # starting trial t that many seeds after trial t-1 keeps the chains apart
        for t in range(trials):
            try:
                yield build_family(f"gnp:{params},{int(seed) + t * generators._MAX_ATTEMPTS}")
            except (ValueError, InvalidParameterError) as exc:
                raise _UsageError(f"bad --gnp value {args.gnp!r}: {exc}") from exc

    return samples()


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    if args.claims is None:
        claims = list(CLAIM_IDS)
    else:
        claims = [c.strip() for c in args.claims.split(",") if c.strip()]
        unknown = set(claims) - set(CLAIM_IDS)
        if unknown or not claims:
            what = f"unknown claims {sorted(unknown)}" if unknown else "no claims given"
            raise _UsageError(f"{what}; available: {', '.join(CLAIM_IDS)}")
    outcomes = verify_corpus(claims, _corpus(args), relax_diameter=args.relax_diameter)
    report = [o.as_dict(include_timing=args.timings) for o in outcomes]
    status = EXIT_OK if all(o.passed for o in outcomes) else EXIT_VERIFY
    return status, json.dumps(report, indent=2) + "\n"


def _cmd_enumerate(args: argparse.Namespace) -> tuple[int, str]:
    return EXIT_OK, "\n".join(map(format_edge_list, _ordered(enumerate_connected, args.enumerate)))


_SOURCES = {
    "--input": {"help": "edge-list file ('n m' header, one 'u v' per line)"},
    "--family": {"metavar": "SPEC",
                 "help": f"NAME or NAME:P1,P2,... with NAME one of {', '.join(FAMILIES)}"},
    "--enumerate": {"type": int, "metavar": "N",
                    "help": "all labeled connected graphs on N vertices "
                            f"(N <= {generators.ENUMERATION_CAP})"},
    "--gnp": {"metavar": "N,P,SEED", "help": "seeded connected G(n,p) corpus"},
}


def _add_command(sub, name: str, handler, sources: tuple[str, ...]) -> argparse.ArgumentParser:
    p = sub.add_parser(name)
    p.set_defaults(handler=handler)
    group = p.add_mutually_exclusive_group(required=True)
    for flag in sources:
        group.add_argument(flag, **_SOURCES[flag])
    p.add_argument("--output", help="write to this path instead of stdout")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mycielski", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    compute = _add_command(sub, "compute", _cmd_compute, ("--family", "--input"))
    compute.add_argument("--format", choices=["json", "csv"], default="json")
    _add_command(sub, "mycielskian", _cmd_mycielskian, ("--family", "--input"))
    verify = _add_command(
        sub, "verify", _cmd_verify, ("--enumerate", "--gnp", "--family", "--input")
    )
    verify.add_argument("--claims", help="comma-separated claim ids (default: all)")
    verify.add_argument("--trials", type=int,
                        help="number of --gnp samples; sample t starts at seed "
                             f"SEED+t*{generators._MAX_ATTEMPTS} (default 1)")
    verify.add_argument("--relax-diameter", action="store_true",
                        help="evaluate the DD closed form outside diameter 2 (exploratory)")
    verify.add_argument("--timings", action="store_true",
                        help="include measured elapsed_ms in the report")
    _add_command(sub, "enumerate", _cmd_enumerate, ("--enumerate",))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.output is not None:
            # an empty --output, a directory, a name ending in a separator or one not in a
            # directory fails before any work, its parent checked first as open does
            try:
                # the trailing separator makes a regular file fail with ENOTDIR, as open would
                os.stat((os.path.dirname(args.output.rstrip(os.sep)) or ".") + os.sep)
                if not args.output or args.output.endswith(os.sep) or os.path.isdir(args.output):
                    code = errno.EISDIR if args.output else errno.ENOENT
                    raise OSError(code, os.strerror(code))
            except OSError as exc:
                err = OSError(exc.errno, exc.strerror, args.output)  # worded as open's error
                raise _UsageError(f"cannot write {args.output}: {err}") from exc
        status, report = args.handler(args)
        if args.output is None:
            sys.stdout.write(report)
        else:
            try:
                with open(args.output, "w", encoding="utf-8", newline="\n") as out:
                    out.write(report)
            except OSError as exc:
                raise _UsageError(f"cannot write {args.output}: {exc}") from exc
        return status
    except _UsageError as exc:
        print(f"mycielski: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EdgeListParseError as exc:
        print(f"mycielski: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GraphError as exc:
        print(f"mycielski: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
