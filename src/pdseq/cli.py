"""Command-line front end: sequence dumps, series inversion, kernel reports,
automaton synthesis, language counting, relation search, and the check suite.

Exit codes: 0 all requested work succeeded, 1 at least one check failed,
2 usage or input errors, and requests that would exhaust memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import automata, catalog, checks, kernel, series

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _parse_horizon_overrides(pairs):
    overrides = {}
    for chunk in pairs:
        if "=" not in chunk:
            raise ValueError(f"horizon override {chunk!r} is not of the form id=value")
        key, value = chunk.split("=", 1)
        overrides[key.strip()] = int(value)
    return overrides


def cmd_seq(args):
    need = 8 * args.count  # an int64 prefix's 8 bytes a term, also for one-byte letters
    series.require_memory(need, f"{args.count} terms of {args.name} need at least {need} bytes")
    sys.stdout.writelines(catalog.bfile_blocks(args.name, args.count, offset=args.offset))
    return 0


def cmd_invert(args):
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file) as fh:
            text = fh.read()
    s = series.TruncatedSeries.from_json(text)
    n = s.precision
    need = series.compose_bytes(s.p, n, s.length)
    series.require_memory(need, f"inverting {n} terms over F_{s.p} needs about {need >> 20} MB")
    sys.stdout.write(series.reversion(s).to_json() + "\n")
    return 0


def _int64_prefix(name):
    """The prefix of a catalog sequence whose terms fit in int64, which kernels need."""
    if not catalog.sequence(name).int64:
        raise OverflowError(f"the terms of {name} leave int64, and a kernel needs int64 terms")
    return catalog.sequence(name).prefix


def cmd_kernel(args):
    report = kernel.rank_profile(_int64_prefix(args.name), args.k, max_depth=args.depth, horizon=args.horizon)
    report["sequence"] = args.name
    if args.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        for row in report["depths"]:
            sys.stdout.write(
                f"depth {row['depth']}: classes {row['class_count']} rank {row['rank']}\n"
            )
    return 0


def cmd_dfao(args):
    machine = kernel.compute_kernel(_int64_prefix(args.name), args.k, horizon=args.horizon)
    if machine is None:
        raise ValueError(f"kernel of {args.name} did not close within the depth cap")
    machine = automata.minimize(machine)
    if args.dot:
        sys.stdout.write(machine.to_dot(args.name) + "\n")
    else:
        sys.stdout.write(machine.to_json() + "\n")
    return 0


def cmd_complexity(args):
    dfa = catalog.language(args.language)
    counts = automata.word_counts(dfa, args.count)
    if args.format == "json":
        # json.dumps's bytes, written one count at a time
        sys.stdout.write(f'{{"language": {json.dumps(args.language)}, "counts": [')
        for n, c in enumerate(counts):
            sys.stdout.write(f'{", " if n else ""}"{c}"')
        sys.stdout.write("]}\n")
    else:
        for n, c in enumerate(counts):
            sys.stdout.write(f"{n} {c}\n")
    return 0


def cmd_ore(args):
    s = catalog.series_by_name(args.name, args.precision)
    relation = series.power_relation_search(s, args.depth, args.deg)
    sys.stdout.write(("none" if relation is None else relation.to_json()) + "\n")
    return 0


def cmd_check(args):
    if args.list:
        for check_id, (description, _) in checks.CHECKS.items():
            sys.stdout.write(f"{check_id}: {description}\n")
        return 0
    overrides = _parse_horizon_overrides(args.horizon)
    selection = args.ids or None
    start = time.perf_counter()
    results = checks.run_paper_checks(selection, overrides)
    elapsed = time.perf_counter() - start
    if args.format == "json":
        report = {
            "results": [r.to_json_dict() for r in results],
            "elapsed_seconds": round(elapsed, 3),
        }
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    else:
        for r in results:
            line = f"{r.check_id}: {r.status.upper()} [{r.horizon}] ({r.elapsed:.2f}s)"
            if r.detail:
                line += f"\n    {r.detail}"
            sys.stdout.write(line + "\n")
    return CHECK_FAILURE if any(r.status == "fail" for r in results) else 0


@functools.cache
def build_parser():
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="pdseq",
        description="automatic sequences, F_p power series, and the period-doubling formal inverse",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print a sequence as b-file lines")
    p.add_argument("name", choices=catalog.sequence_names())
    p.add_argument("count", type=int)
    p.add_argument("--offset", type=int, default=0)
    p.set_defaults(fn=cmd_seq)

    p = sub.add_parser("invert", help="compositional inverse of a series given as JSON")
    p.add_argument("file", help="path to the series JSON, or - for stdin")
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("kernel", help="kernel class/rank report for a sequence")
    p.add_argument("name", choices=catalog.sequence_names())
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--horizon", type=int, default=512)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("dfao", help="synthesize the minimal automaton from a closed kernel")
    p.add_argument("name", choices=catalog.sequence_names())
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--horizon", type=int, default=512)
    p.add_argument("--dot", action="store_true", help="emit GraphViz instead of JSON")
    p.set_defaults(fn=cmd_dfao)

    p = sub.add_parser("complexity", help="accepted-word counts by length")
    p.add_argument("language", choices=sorted(catalog.LANGUAGES))
    p.add_argument("count", type=int, help="largest length to report")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_complexity)

    # without abbreviations, so that --p is refused rather than read as --precision
    p = sub.add_parser("ore", help="search a power-pattern relation for a series", allow_abbrev=False)
    p.add_argument("name", help="sequence name (over F_p for tp<p>, else F_2), inv:<name>, u, or up<p>")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--deg", type=int, default=3)
    p.add_argument("--precision", type=int, default=512)
    p.set_defaults(fn=cmd_ore)

    p = sub.add_parser("check", help="run the claim-check suite")
    p.add_argument("ids", nargs="*", help="check ids (default: all)")
    p.add_argument(
        "--horizon",
        action="append",
        default=[],
        metavar="ID=VALUE",
        help="override the main horizon of one check",
    )
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--list", action="store_true", help="list known check ids and exit")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except MemoryError as exc:
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return USAGE_ERROR
    except OverflowError as exc:
        sys.stderr.write(f"error: integer overflow: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
