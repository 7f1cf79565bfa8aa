"""Command-line front end: reproducible generation, table dumps, the
verification battery and consumption metering.

Every artifact starts with a comment header carrying the seed and the
parameters needed to reproduce it byte for byte.  ``main`` opens the one
destination, ``--out`` or stdout, and each line is written as it is made.
With ``--out``, a failed run leaves the lines written before the error and
exits 1; a reader that closes the pipe early ends the run with exit 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import __version__, samplers, stats, tables
from .bitstream import UniformSource

_ALIASES = {
    "grand": samplers.NORMAL_GRAND,
    "forsythe": samplers.NORMAL_FORSYTHE,
}
_SAMPLER_CHOICES = tuple(samplers.SAMPLER_KINDS) + tuple(sorted(_ALIASES))


def _parse_seed(text: str) -> int:
    # base 0 accepts decimal and 0x-prefixed hex
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}")
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _count(lo: int, hi: float = math.inf):
    """An argparse type for an integer count in [lo, hi]."""
    def count(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be in [{lo}, {hi}], got {value}")
        return value
    return count


def _alpha(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:       # also rejects nan
        raise argparse.ArgumentTypeError(f"alpha must be in (0, 1), got {text}")
    return value


def cmd_generate(args, out) -> int:
    kind = _ALIASES.get(args.sampler, args.sampler)
    config = samplers.default_config(kind)
    draw = samplers.make_sampler(
        config, UniformSource(args.seed, recycling=config.recycling_enabled))

    header = (f"# fvn {__version__} generate sampler={kind} seed={args.seed} "
              f"n={args.n} format={args.format}")
    if config.table is not None:
        header += f" K={config.table.K} recycling={config.recycling_enabled}"
    out.write(header + "\n")
    table = config.table
    for _ in range(args.n):
        value = draw()
        if args.format == "csv":
            out.write(repr(value) + "\n")
        else:
            record = {"value": value}
            if table is not None:
                record["interval_k"] = samplers.interval_index(table, value)
            out.write(json.dumps(record) + "\n")
    return 0


def cmd_tables(args, out) -> int:
    out.write(tables.dump_table(tables.IntervalTable(args.scheme, args.K)))
    return 0


def cmd_verify(args, out) -> int:
    out.write(f"# fvn {__version__} verify seed={args.seed} n={args.n} "
              f"alpha={args.alpha}\n")
    reports = stats.verify_battery(args.seed, args.n, args.alpha)
    for r in reports:
        verdict = "pass" if r.passed else "FAIL"
        out.write(f"{r.test_name} statistic={r.statistic:.8g} "
                  f"critical={r.critical_value:.8g} n={r.n} {verdict}\n")
    return 0 if all(r.passed for r in reports) else 1


def cmd_consumption(args, out) -> int:
    out.write(f"# fvn {__version__} consumption seed={args.seed} n={args.n}\n"
              "sampler,n,mean,ci95\n")
    for kind in args.sampler or samplers.SAMPLER_KINDS:
        config = samplers.default_config(_ALIASES.get(kind, kind))
        report = stats.measure_consumption(config, args.n, args.seed)
        out.write(f"{report.sampler_kind},{report.samples},"
                  f"{report.mean_per_sample:.6f},{report.ci95_halfwidth:.6f}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvn",
        description="Comparison-method exponential and normal variate "
                    "generators with bit-level uniform accounting.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, n_default, n_min=0):
        p.add_argument("--seed", type=_parse_seed, default=2024,
                       help="64-bit seed, decimal or 0x-hex (default 2024)")
        p.add_argument("--n", type=_count(n_min), default=n_default,
                       help=f"number of samples (default {n_default})")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("generate", help="emit variates")
    p.add_argument("--sampler", required=True, choices=_SAMPLER_CHOICES)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    common(p, 10)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("tables", help="dump an interval table")
    p.add_argument("--scheme", required=True, choices=tables.SCHEMES)
    p.add_argument("--K", type=_count(1, tables.MAX_TABLE_LEN),
                   default=tables.DEFAULT_TABLE_LEN,
                   help="interval table length (default %(default)s)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run the statistical battery")
    p.add_argument("--alpha", type=_alpha, default=0.01,
                   help="significance level in (0, 1) (default 0.01)")
    common(p, 100_000, stats.VERIFY_MIN_N)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("consumption", help="measure uniforms per sample")
    p.add_argument("--sampler", action="append", choices=_SAMPLER_CHOICES,
                   help="restrict to a sampler (repeatable; default: all)")
    common(p, 100_000, stats.CONSUMPTION_MIN_N)
    p.set_defaults(func=cmd_consumption)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with (open(args.out, "w") if args.out
              else contextlib.nullcontext(sys.stdout)) as out:
            return args.func(args, out)
    except BrokenPipeError:
        # the reader left early; send the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:                     # noqa: BLE001
        print(f"fvn: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
