"""fvn benchmark.

    python3 perfbench/run.py --workload {dyadic,classic,wallace} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; fvn is imported from ./src.  The
workloads are defined in workloads.py.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a JSON record with the stream digest, the gate's figures and
the machine.

--trace 0 (end-to-end; nothing is wrapped):
  set-up probes     SETUP_PROBES fresh interpreters each time ``import
                    fvn`` up to the workload's first variates.
  warm-up           WARMUP_BLOCKS blocks, untimed.
  timed phase       blocks until S seconds have passed, and at least until
                    the stream prefix is complete.  The reference loop runs
                    before the first block and after each block.  Gated
                    times are thread CPU time; wall times go to the record.
  gate              gate.py on the prefix.

--trace 1 (per layer): the stream prefix drawn twice from fresh sources,
  plain and then through the shims of tracing.py; the ratio of the two is
  the tracing overhead and the digests must agree.  Then the isolated
  per-layer costs of layers.py, which are the same for every workload.
  The traced run does fixed work and does not use --seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One thread per process: BLAS pools would make the Wallace refresh and
# the timings depend on what else the host runs.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}
os.environ.update(SINGLE_THREAD_ENV)
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from workloads import (BLOCK, WARMUP_BLOCKS,  # noqa: E402
                       Prefix, Workload, count_failed, timed_reference)

SETUP_PROBES = 5          # fresh interpreters per --trace 0 run
IMPORT_PROBES = 3         # fresh interpreters per --trace 1 run
PROBE_TIMEOUT_S = 60
MIN_TIMED_BLOCKS = 1000   # so that at least 10 blocks lie beyond p99

# Gated metrics.  Block costs are CPU time in units of the reference loop
# timed around each block.  On a shared 2-core VM the speed of Python code
# swung 1.7x within an hour: raw times moved as much, these ratios a few
# percent.
END_TO_END_UNITS = {
    "rel_cost": "ratio",
    "block_rel_p50": "ratio",
    "block_rel_p99": "ratio",
    "uniforms_per_variate": "uniforms/variate",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed in the record line, not gated: raw wall-clock figures.
RAW_UNITS = {
    "variates_per_s": "variates/s",
    "block_us_p50": "us",
    "block_us_p99": "us",
    "failed_share": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ns"):
        return "ns"
    if name.endswith("_ns_per_word"):
        return "ns/word"
    if name.endswith("_ns_per_value"):
        return "ns/value"
    if name.endswith("_ns_per_variate"):
        return "ns/variate"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_variate"):
        return "count/variate"
    if name.endswith("mean_run_length"):
        return "count"
    return "ratio"


def p99(values) -> float:
    return statistics.quantiles(values, n=100)[98]


def run_probes(workload: str, seed: int, count: int) -> list[dict]:
    """Set-up times from ``count`` fresh interpreters, one at a time."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT),
             workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def machine_info(reference_s: float) -> dict:
    import numpy
    import scipy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "reference_loop_us": reference_s * 1e6}


def untraced_run(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    probes = run_probes(name, seed, SETUP_PROBES)
    wl = Workload(name, seed)
    prefix = Prefix(wl)
    attempted = failed = 0
    for _ in range(WARMUP_BLOCKS):
        block, _, _ = wl.run_block()
        prefix.add(block)
        attempted += len(block)
        failed += count_failed(block)

    # Gated figures use the thread's CPU time, which leaves out the time
    # the process waits while other tenants of a shared host run.
    # ref_cpu[i] and ref_cpu[i + 1] flank block i.
    block_wall, block_cpu = array("d"), array("d")
    ref_wall, ref_cpu = (array("d", [t]) for t in timed_reference())
    deadline = perf_counter() + seconds
    while (not prefix.complete or len(block_cpu) < MIN_TIMED_BLOCKS
           or perf_counter() < deadline):
        block, wall, cpu = wl.run_block()
        block_wall.append(wall)
        block_cpu.append(cpu)
        wall, cpu = timed_reference()
        ref_wall.append(wall)
        ref_cpu.append(cpu)
        prefix.add(block)
        attempted += len(block)
        failed += count_failed(block)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = gate.check_prefix(prefix)
    block_rel = [2.0 * b / (r0 + r1)
                 for b, r0, r1 in zip(block_cpu, ref_cpu, ref_cpu[1:])]
    metrics = {
        "rel_cost": sum(block_cpu) / sum(ref_cpu[1:]),
        "block_rel_p50": statistics.median(block_rel),
        "block_rel_p99": p99(block_rel),
        "uniforms_per_variate": prefix.uniforms_per_variate(),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mib": peak_rss_mib,
    }
    raw = {
        "variates_per_s": len(block_wall) * BLOCK / sum(block_wall),
        "block_us_p50": statistics.median(block_wall) * 1e6,
        "block_us_p99": p99(block_wall) * 1e6,
        "failed_share": failed / attempted,
    }
    record = {
        "raw": {m: {"value": v, "unit": RAW_UNITS[m]} for m, v in raw.items()},
        "timed_blocks": len(block_cpu),
        "block_variates": BLOCK,
        "setup_probes_s": [p["setup_s"] for p in probes],
        "machine": machine_info(statistics.median(ref_wall)),
    }
    return _result(True, attempted, failed, metrics, END_TO_END_UNITS,
                   prefix, checks, record)


def traced_run(name: str, seed: int) -> tuple[dict, dict]:
    import layers
    from tracing import Tracer

    probes = run_probes(name, seed, IMPORT_PROBES)

    def draw_prefix(wl: Workload) -> tuple[Prefix, float, int]:
        prefix = Prefix(wl)
        elapsed = 0.0
        failed = 0
        while not prefix.complete:
            block, wall, _ = wl.run_block()
            elapsed += wall
            failed += count_failed(block)
            prefix.add(block)
        return prefix, elapsed, failed

    plain, plain_s, failed = draw_prefix(Workload(name, seed))
    tracer = Tracer()
    with tracer.installed():
        traced, traced_s, traced_failed = draw_prefix(
            Workload(name, seed, wrap_source=tracer.wrap_source))
    failed += traced_failed
    variates = traced.variates
    per_sampler_variates = variates // len(traced.values)

    checks = gate.check_prefix(plain)
    same_stream = traced.digest() == plain.digest()
    ref_s = [timed_reference()[0] for _ in range(50)]

    metrics = tracer.metrics(variates)
    metrics["trace.overhead"] = traced_s / plain_s
    metrics["setup.import_fvn_s"] = statistics.median(p["import_s"] for p in probes)
    metrics.update(layers.measure(seed))
    units = {m: per_layer_unit(m) for m in metrics}
    record = {
        "traced_digest": traced.digest(),
        "traced_stream_matches": same_stream,
        "failed_share": failed / (2 * variates),
        "per_sampler": {kind: tracer.per_sampler(kind, per_sampler_variates, words)
                        for kind, words in zip(traced.workload.kinds,
                                               traced.words_per_source)},
        "machine": machine_info(statistics.median(ref_s)),
    }
    return _result(same_stream, 2 * variates, failed, metrics, units,
                   plain, checks, record)


def _result(ok, attempted, failed, metrics, units, prefix, checks, record):
    """The record line and the result line.  The run is correct when every
    gate check passed, ``ok`` holds and no variate failed."""
    ok = ok and all(c["passed"] for c in checks)
    record = {
        "digest": prefix.digest(),
        "prefix_variates": prefix.variates,
        "gate_alpha": gate.ALPHA,
        "gate": checks,
        **record,
    }
    result = {
        "correct": bool(ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fvn" / "__init__.py").is_file():
        print(f"run.py: no fvn sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must fit in 64 unsigned bits")
    sys.path.insert(0, str(SRC))
    import fvn

    if Path(fvn.__file__).resolve().parent != (SRC / "fvn").resolve():
        print(f"run.py: imported fvn from {fvn.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.trace:
        record, result = traced_run(args.workload, args.seed)
    else:
        record, result = untraced_run(args.workload, args.seed, args.seconds)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, **record}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
