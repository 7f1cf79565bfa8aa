"""Command-line front end: reproducible generation, table dumps, the
verification battery, consumption metering, and throughput benchmarks.

Every artifact starts with a comment header carrying the seed and the
parameters needed to reproduce it byte for byte (benchmark timings are the
documented exception: they are machine-dependent by nature).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, samplers, tables
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


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("count must be >= 0")
    return value


def _write(args, lines) -> None:
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args, parser) -> int:
    kind = _ALIASES.get(args.sampler, args.sampler)
    config = samplers.default_config(kind)
    draw = samplers.make_sampler(
        config, UniformSource(args.seed, recycling=config.recycling_enabled))

    header = (f"# fvn {__version__} generate sampler={kind} seed={args.seed} "
              f"n={args.n} format={args.format}")
    if config.table is not None:
        header += f" K={config.table.K} recycling={config.recycling_enabled}"
    lines = [header]
    table = config.table
    for _ in range(args.n):
        value = draw()
        if args.format == "csv":
            lines.append(repr(value))
        else:
            record = {"value": value}
            if table is not None:
                record["interval_k"] = samplers.interval_index(table, value)
            lines.append(json.dumps(record))
    _write(args, lines)
    return 0


def cmd_tables(args, parser) -> int:
    if not 1 <= args.K <= tables.MAX_TABLE_LEN:
        parser.error(f"--K must be in [1, {tables.MAX_TABLE_LEN}], got {args.K}")
    table = tables.IntervalTable(args.scheme, args.K)
    _write(args, tables.dump_table(table).splitlines())
    return 0


def cmd_verify(args, parser) -> int:
    from . import stats     # deferred: scipy loads only for the battery

    lines = [f"# fvn {__version__} verify seed={args.seed} n={args.n} "
             f"alpha={args.alpha}"]
    reports = stats.verify_battery(args.seed, args.n, args.alpha)
    for r in reports:
        verdict = "pass" if r.passed else "FAIL"
        lines.append(f"{r.test_name} statistic={r.statistic:.8g} "
                     f"critical={r.critical_value:.8g} n={r.n} {verdict}")
    _write(args, lines)
    return 0 if all(r.passed for r in reports) else 1


def cmd_consumption(args, parser) -> int:
    from . import stats     # deferred: scipy loads only for the meter

    if args.sampler:
        kinds = [_ALIASES.get(k, k) for k in args.sampler]
    else:
        kinds = list(samplers.SAMPLER_KINDS)
    lines = [f"# fvn {__version__} consumption seed={args.seed} n={args.n}",
             "sampler,n,mean,ci95"]
    for kind in kinds:
        report = stats.measure_consumption(samplers.default_config(kind),
                                           args.n, args.seed)
        lines.append(f"{report.sampler_kind},{report.samples},"
                     f"{report.mean_per_sample:.6f},{report.ci95_halfwidth:.6f}")
    _write(args, lines)
    return 0


def cmd_bench(args, parser) -> int:
    lines = [f"# fvn {__version__} bench seed={args.seed} n={args.n} "
             "(timings are machine-dependent; nothing here is asserted)",
             "sampler,n,seconds,rate"]
    for kind in samplers.SAMPLER_KINDS:
        config = samplers.default_config(kind)
        draw = samplers.make_sampler(
            config, UniformSource(args.seed, recycling=config.recycling_enabled))
        start = time.perf_counter()
        for _ in range(args.n):
            draw()
        elapsed = time.perf_counter() - start
        rate = args.n / elapsed if elapsed > 0 else float("inf")
        lines.append(f"{kind},{args.n},{elapsed:.6f},{rate:.1f}")
    _write(args, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fvn",
        description="Comparison-method exponential and normal variate "
                    "generators with bit-level uniform accounting.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, n_default):
        p.add_argument("--seed", type=_parse_seed, default=2024,
                       help="64-bit seed, decimal or 0x-hex (default 2024)")
        p.add_argument("--n", type=_nonneg, default=n_default,
                       help=f"number of samples (default {n_default})")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("generate", help="emit variates")
    p.add_argument("--sampler", required=True, choices=_SAMPLER_CHOICES)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    common(p, 10)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("tables", help="dump an interval table")
    p.add_argument("--scheme", required=True, choices=tables.SCHEMES)
    p.add_argument("--K", type=int, default=tables.DEFAULT_TABLE_LEN,
                   help="interval table length (default %(default)s)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run the statistical battery")
    p.add_argument("--alpha", type=float, default=0.01)
    common(p, 100_000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("consumption", help="measure uniforms per sample")
    p.add_argument("--sampler", action="append", choices=_SAMPLER_CHOICES,
                   help="restrict to a sampler (repeatable; default: all)")
    common(p, 100_000)
    p.set_defaults(func=cmd_consumption)

    p = sub.add_parser("bench", help="samples/second per sampler")
    common(p, 20_000)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except Exception as exc:                     # noqa: BLE001
        print(f"fvn: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
