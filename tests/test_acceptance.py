"""Acceptance battery.

Each numbered test pins one exit criterion at its stated tolerance and
prints a `[PASS]`/`[FAIL]` line (visible with `pytest -s`).  Expensive
sample batches are shared through module-scoped fixtures, and the wall
clocks pin the staged runtime budgets.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr

from fvn import samplers, tables, wallace
from fvn.bitstream import UniformSource
from fvn.comparison import odd_parity_probability, run_length_pmf, run_test
from fvn.samplers import default_config, interval_index, make_sampler
from fvn.stats import (chi_square_test, exp1_cdf, ks_test,
                       measure_consumption, std_normal_cdf, uniform_cdf)
from tests.test_cli import run_cli

SEED = 20260809
N_RUNS = 1_000_000
G_VALUES = (0.25, 0.5, 1.0)

KS_KINDS = (samplers.EXP_VN, samplers.EXP_BRENT, samplers.NORMAL_FORSYTHE,
            samplers.NORMAL_GRAND, samplers.WALLACE)
CDF_FOR = {
    samplers.EXP_VN: exp1_cdf,
    samplers.EXP_BRENT: exp1_cdf,
    samplers.NORMAL_FORSYTHE: std_normal_cdf,
    samplers.NORMAL_GRAND: std_normal_cdf,
    samplers.WALLACE: std_normal_cdf,
}


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def run_lengths():
    """One million run-test lengths per g, plus the generation wall time."""
    start = time.perf_counter()
    data = {}
    for i, g in enumerate(G_VALUES):
        src = UniformSource(SEED + i, recycling=False)
        data[g] = np.array([run_test(g, src).n for _ in range(N_RUNS)],
                           dtype=np.int64)
    return data, time.perf_counter() - start


@pytest.fixture(scope="module")
def million_draws():
    """One million variates per comparison-method sampler (and Wallace)."""
    start = time.perf_counter()
    data = {}
    for i, kind in enumerate(KS_KINDS):
        config = default_config(kind)
        draw = make_sampler(config, UniformSource(
            SEED + 10 + i, recycling=config.recycling_enabled))
        data[kind] = np.array([draw() for _ in range(N_RUNS)])
    return data, time.perf_counter() - start


def test_criterion_01_run_length_law(run_lengths):
    data, elapsed = run_lengths
    details = [f"runtime {elapsed:.1f}s"]
    ok = elapsed < 10.0
    for g, lengths in data.items():
        counts = np.bincount(np.minimum(lengths, 9), minlength=10)[1:]
        probs = [run_length_pmf(g, n) for n in range(1, 9)]
        probs.append(1.0 - sum(probs))
        rep = chi_square_test(counts.tolist(), probs)
        details.append(f"g={g}: chi2={rep.statistic:.2f}<{rep.critical_value:.2f}")
        ok = ok and rep.passed
    report("criterion 01: run-length histogram matches "
           "g^(n-1)/(n-1)! - g^n/n!", ok, "; ".join(details))


def test_criterion_02_odd_parity_acceptance_law(run_lengths):
    data, _ = run_lengths
    details, ok = [], True
    for g, lengths in data.items():
        p = odd_parity_probability(g)
        rate = float(np.mean(lengths % 2 == 1))
        sigma = math.sqrt(p * (1.0 - p) / lengths.size)
        details.append(f"g={g}: {rate:.6f} vs {p:.6f}")
        ok = ok and abs(rate - p) < 4.0 * sigma
    report("criterion 02: odd-parity rate equals exp(-g) within 4 sigma",
           ok, "; ".join(details))


def test_criterion_03_expected_run_length(run_lengths):
    data, _ = run_lengths
    lengths = data[1.0]
    mean = float(lengths.mean())
    se = float(lengths.std(ddof=1)) / math.sqrt(lengths.size)
    ok = abs(mean - math.e) < 4.0 * se
    report("criterion 03: mean run length at g=1 equals e within 4 sigma",
           ok, f"{mean:.6f} vs {math.e:.6f}, se={se:.2g}")


def test_criterion_04_distributional_correctness(million_draws):
    data, gen_elapsed = million_draws
    start = time.perf_counter()
    details, ok = [], True
    for kind in KS_KINDS:
        rep = ks_test(np.sort(data[kind]), CDF_FOR[kind], 0.01, f"ks_{kind}")
        details.append(f"{kind}: D={rep.statistic:.2g}<{rep.critical_value:.2g}")
        ok = ok and rep.passed
    elapsed = gen_elapsed + time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report("criterion 04: KS vs analytic CDFs at alpha=0.01, n=1e6",
           ok, f"runtime {elapsed:.1f}s; " + "; ".join(details))


def test_criterion_05_consumption_constants():
    vn = measure_consumption(default_config(samplers.EXP_VN), N_RUNS, SEED + 20)
    fo = measure_consumption(default_config(samplers.NORMAL_FORSYTHE),
                             N_RUNS, SEED + 21)
    gr = measure_consumption(default_config(samplers.NORMAL_GRAND),
                             N_RUNS, SEED + 22)
    ok_vn = abs(vn.mean_per_sample - 5.88) <= 0.05
    ok_fo = abs(fo.mean_per_sample - 4.04) <= 0.05
    ok_gr = gr.mean_per_sample <= 1.45
    in_target_band = abs(gr.mean_per_sample - 1.38) <= 0.05
    report("criterion 05: uniforms per sample (5.88 / 4.04 / <=1.45)",
           ok_vn and ok_fo and ok_gr,
           f"exp_vn={vn.mean_per_sample:.4f} "
           f"normal_forsythe={fo.mean_per_sample:.4f} "
           f"normal_grand={gr.mean_per_sample:.4f} "
           f"(1.38 target band: {'yes' if in_target_band else 'no'})")


def test_criterion_06_table_invariants():
    brent = tables.build_normal_brent(64)
    tail_ok = all(abs(tables.half_normal_tail(brent.boundaries[k]) - 2.0 ** -k)
                  < 1e-12 for k in range(1, 65))
    gap_bound = 2.0 * math.log(2.0)
    gaps_ok = all(brent.boundaries_sq[k] - brent.boundaries_sq[k - 1] < gap_bound
                  for k in range(1, 65))
    forsythe = tables.build_normal_forsythe(64)
    exact_ok = all(forsythe.boundaries_sq[k] - forsythe.boundaries_sq[k - 1] == 2.0
                   for k in range(2, 65))
    report("criterion 06: table invariants (tail equation to 1e-12, "
           "squared gaps)", tail_ok and gaps_ok and exact_ok,
           f"tail={tail_ok} dyadic_gaps={gaps_ok} forsythe_exact={exact_ok}")


def test_criterion_07_dyadic_interval_occupancy(million_draws):
    data, _ = million_draws
    details, ok = [], True
    for kind in (samplers.EXP_BRENT, samplers.NORMAL_GRAND):
        table = default_config(kind).table
        counts = [0] * table.K
        for v in data[kind].tolist():
            counts[interval_index(table, v) - 1] += 1
        probs = [2.0 ** -k for k in range(1, table.K)]
        probs.append(2.0 ** -(table.K - 1))
        rep = chi_square_test(counts, probs)
        details.append(f"{kind}: chi2={rep.statistic:.2f}<{rep.critical_value:.2f}")
        ok = ok and rep.passed
    report("criterion 07: interval frequencies match 2^-k", ok,
           "; ".join(details))


def test_criterion_08_recycled_values_are_uniform():
    src = UniformSource(SEED + 30, recycling=True)
    values = []
    gs = (0.2, 0.5, 0.9)
    while len(values) < 100_000:
        run_test(gs[len(values) % 3], src)
        values.extend(src.recycled)
        src.recycled.clear()
    rep = ks_test(np.sort(values[:100_000]), uniform_cdf, 0.01, "ks_recycled")
    report("criterion 08: run-test leftovers pass KS uniformity",
           rep.passed, f"D={rep.statistic:.2g}<{rep.critical_value:.2g}")


def test_criterion_09_wallace_invariants(million_draws):
    gram_err = float(np.max(np.abs(wallace.ORTHO_Q.T @ wallace.ORTHO_Q
                                   - np.eye(4))))
    src = UniformSource(SEED + 31)
    pool = wallace.init_pool(4096, src)
    for _ in range(1000):
        wallace.refresh(pool, src)
    drift = abs(float(pool.values @ pool.values) - pool.norm_sq) / pool.norm_sq
    ks_rep = ks_test(np.sort(million_draws[0][samplers.WALLACE]),
                     std_normal_cdf, 0.01)
    ok = gram_err <= 1e-15 and drift < 1e-9 and ks_rep.passed
    report("criterion 09: Wallace orthogonality, norm drift, emitted KS",
           ok, f"|QtQ-I|={gram_err:.1e} drift={drift:.1e} "
               f"D={ks_rep.statistic:.2g}")


def test_criterion_10_cli_determinism():
    invocations = (
        ("generate", "--sampler", "grand", "--n", "5", "--seed", "42"),
        ("generate", "--sampler", "exp_vn", "--n", "100", "--seed", "0xDEAD",
         "--format", "jsonl"),
        ("tables", "--scheme", "normal_brent", "--K", "32"),
        ("verify", "--n", "20000", "--seed", "7"),
        ("consumption", "--sampler", "exp_log", "--n", "100000", "--seed", "7"),
    )
    ok = True
    for args in invocations:
        a, b = run_cli(*args), run_cli(*args)
        ok = ok and a.returncode == 0 and a.stdout == b.stdout
    report("criterion 10: repeated CLI invocations are byte-identical",
           ok, f"{len(invocations)} invocations")
