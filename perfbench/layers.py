"""Isolated per-layer costs: loops over one public function each, after a
warm-up repeat, reported as the median over repeats of the mean cost per
call.  The loop's own overhead (tens of ns) is part of every figure."""

from __future__ import annotations

import statistics
from functools import partial
from time import perf_counter_ns

import numpy as np

REPEATS = 7                 # timed repeats; one more is run first and dropped
WALLACE_LAG_PASSES = 100    # pool passes behind wallace.lag_n_sq_corr


def per_call_ns(fn, calls: int, reset=None) -> float:
    """Median over REPEATS of the mean ns per ``fn()`` in a loop of
    ``calls``; ``reset()`` runs untimed before each repeat."""
    times = []
    loop = range(calls)
    for _ in range(REPEATS + 1):
        if reset is not None:
            reset()
        t0 = perf_counter_ns()
        for _ in loop:
            fn()
        times.append((perf_counter_ns() - t0) / calls)
    return statistics.median(times[1:])


def bitstream_costs(seed: int) -> dict[str, float]:
    from fvn import UniformSource, bitstream

    fresh = UniformSource(seed, recycling=False)
    rec = UniformSource(seed, recycling=True)
    calls = 20_000
    filler = [0.5] * calls

    def refill_recycled():
        rec.recycled[:] = filler

    # The one private hook: the engine refill has no public entry point.
    refill_ns = per_call_ns(fresh._refill, 50) / bitstream._BUFFER_WORDS
    return {
        "bitstream.next_uniform_fresh_ns": per_call_ns(fresh.next_uniform, calls),
        "bitstream.next_uniform_recycled_ns":
            per_call_ns(rec.next_uniform, calls, reset=refill_recycled),
        "bitstream.geometric_index_ns":
            per_call_ns(rec.geometric_index, calls, reset=rec.recycled.clear),
        "bitstream.recycle_pair_ns":
            per_call_ns(partial(rec.recycle_pair, 0.25, 0.75), calls,
                        reset=rec.recycled.clear),
        "bitstream.random_sign_ns": per_call_ns(fresh.random_sign, calls),
        "bitstream.refill_ns_per_word": refill_ns,
    }


def comparison_costs(seed: int) -> dict[str, float]:
    from fvn import UniformSource
    from fvn.comparison import run_test

    src = UniformSource(seed, recycling=False)
    return {f"comparison.run_test_g{g}_ns":
            per_call_ns(partial(run_test, g, src), 10_000)
            for g in (0.25, 0.5, 1.0)}


def tables_costs(seed: int) -> dict[str, float]:
    from fvn import UniformSource, tables

    dyadic_src = UniformSource(seed, recycling=True)
    masses_src = UniformSource(seed, recycling=False)
    out = {
        "tables.select_interval_dyadic_ns": per_call_ns(
            partial(tables.select_interval, tables.build_normal_brent(),
                    dyadic_src), 10_000, reset=dyadic_src.recycled.clear),
        "tables.select_interval_masses_ns": per_call_ns(
            partial(tables.select_interval, tables.build_normal_forsythe(),
                    masses_src), 10_000),
    }
    for scheme in tables.SCHEMES:
        builder = getattr(tables, f"build_{scheme}")
        out[f"tables.build_{scheme}_ms"] = per_call_ns(builder, 5) / 1e6
    return out


def sampler_costs(seed: int) -> dict[str, float]:
    from fvn import UniformSource, samplers

    out = {}
    for kind, recycling in (("normal_grand", True), ("exp_brent", True),
                            ("normal_forsythe", False), ("exp_vn", False),
                            ("exp_log", False), ("box_muller", False),
                            ("polar", False)):
        config = samplers.default_config(kind, recycling=recycling)
        src = UniformSource(seed, recycling=config.recycling_enabled)
        out[f"samplers.{kind}_ns"] = per_call_ns(
            samplers.make_sampler(config, src), 5_000)
    return out


def wallace_costs(seed: int) -> dict[str, float]:
    from fvn import UniformSource, samplers, wallace

    src = UniformSource(seed, recycling=False)
    pool = wallace.init_pool(wallace.DEFAULT_POOL_SIZE, src)
    size = pool.values.size

    def rewind():
        pool.read_cursor = 0

    out = {
        # a full pool from the start emits `size` values without a refresh
        "wallace.next_normal_ns": per_call_ns(
            partial(wallace.next_normal, pool, src), size, reset=rewind),
        "wallace.refresh_ns_per_value":
            per_call_ns(partial(wallace.refresh, pool, src), 50) / size,
        "wallace.init_pool_ms":
            per_call_ns(partial(wallace.init_pool, size, src), 1) / 1e6,
    }
    draw = samplers.make_sampler(samplers.default_config("wallace"),
                                 UniformSource(seed, recycling=False))
    sq = np.array([draw() for _ in range(WALLACE_LAG_PASSES * size)]) ** 2
    out["wallace.lag_n_sq_corr"] = float(np.corrcoef(sq[:-size], sq[size:])[0, 1])
    return out


def measure(seed: int) -> dict[str, float]:
    out = {}
    for layer in (bitstream_costs, comparison_costs, tables_costs,
                  sampler_costs, wallace_costs):
        out.update(layer(seed))
    return out
