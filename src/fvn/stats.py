"""Statistical oracles and meters: goodness-of-fit tests, moment
estimators, the uniform-consumption meter behind every efficiency claim,
and the verification battery run by ``fvn verify``.

This is the only module that uses scipy, and it imports scipy inside the
two functions that call it, so ``import fvn.stats`` loads no scipy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import samplers
from .bitstream import UniformSource
from .comparison import run_length_pmf, run_test

# Bins with expected count below this are merged into the tail.
MIN_EXPECTED_COUNT = 5.0
# The least n the verify battery can bin (n / 2 >= MIN_EXPECTED_COUNT) and
# the least n measure_consumption takes.
VERIFY_MIN_N = 10
CONSUMPTION_MIN_N = 100_000


@dataclass(frozen=True)
class TestReport:
    test_name: str
    statistic: float
    critical_value: float
    n: int
    passed: bool


@dataclass(frozen=True)
class ConsumptionReport:
    sampler_kind: str
    samples: int
    uniforms: int
    mean_per_sample: float
    ci95_halfwidth: float


def exp1_cdf(x):
    return -np.expm1(-np.asarray(x, dtype=float))


def std_normal_cdf(x):
    from scipy.special import ndtr
    return ndtr(np.asarray(x, dtype=float))


def uniform_cdf(x):
    return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)


def ks_critical(alpha: float, n: int) -> float:
    """DKW-Massart critical value sqrt(ln(2/alpha)/2)/sqrt(n), valid for
    every n; c(0.01) ~ 1.628."""
    return math.sqrt(0.5 * math.log(2.0 / alpha)) / math.sqrt(n)


def ks_test(samples, cdf, alpha: float = 0.01, name: str = "ks") -> TestReport:
    """One-sample Kolmogorov-Smirnov test on pre-sorted samples.

    Fails closed on samples too small to reject anything: D never exceeds
    1, so while the critical value is >= 1 (n <= ln(2/alpha)/2, i.e.
    n <= 2 at alpha = 0.01) the report says ``passed=False`` whatever
    the data.  From there on the verdict is ``D < critical``.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("ks_test needs at least one sample")
    if np.any(np.diff(x) < 0):
        raise ValueError("ks_test requires sorted samples")
    f = np.asarray(cdf(x), dtype=float)
    n = x.size
    steps = np.arange(1, n + 1) / n
    d = max(float(np.max(steps - f)), float(np.max(f - (steps - 1.0 / n))))
    crit = ks_critical(alpha, n)
    return TestReport(name, d, crit, n, d < crit < 1.0)


def chi_square_test(observed, expected, *, alpha: float = 0.01,
                    name: str = "chi_square") -> TestReport:
    """Pearson test of counts against a probability vector; the sample
    size n is the total of the counts.

    Bins of zero mass are handled first.  An empty one carries no
    information and is dropped, so it adds no degree of freedom.  An
    occupied one is impossible under the null: it is dropped too, and the
    report has ``statistic = inf`` and ``passed=False``.  Tail bins whose
    expected count falls below MIN_EXPECTED_COUNT are then merged
    rightward into their predecessor before computing the statistic.
    """
    obs = [float(c) for c in observed]
    n = int(sum(obs))
    probs = [float(p) for p in expected]
    if len(obs) != len(probs):
        raise ValueError("observed and expected lengths differ")
    if abs(sum(probs) - 1.0) > 1e-6:
        raise ValueError(f"expected probabilities sum to {sum(probs)}, not 1")
    impossible = any(p == 0.0 and o > 0.0 for o, p in zip(obs, probs))
    obs = [o for o, p in zip(obs, probs) if p != 0.0]
    probs = [p for p in probs if p != 0.0]
    while len(probs) > 1 and probs[-1] * n < MIN_EXPECTED_COUNT:
        probs[-2] += probs[-1]
        obs[-2] += obs[-1]
        del probs[-1], obs[-1]
    if len(probs) < 2 or any(p * n < MIN_EXPECTED_COUNT for p in probs):
        raise ValueError("bins too sparse even after merging the tail")
    stat = math.inf if impossible else sum((o - p * n) ** 2 / (p * n)
                                           for o, p in zip(obs, probs))
    dof = len(probs) - 1
    # the value of scipy.stats.chi2.isf(alpha, dof), without the slow import
    from scipy.special import chdtri
    crit = float(chdtri(dof, alpha))
    return TestReport(name, stat, crit, n, stat < crit)


def measure_consumption(config: samplers.SamplerConfig, n: int,
                        seed: int) -> ConsumptionReport:
    """Mean fresh uniforms per output sample on a fresh metered source.

    Any setup cost (e.g. pool bootstrap) is amortized into the mean; the
    confidence halfwidth comes from the per-sample cost variance.
    """
    if n < CONSUMPTION_MIN_N:
        raise ValueError(
            f"consumption runs need n >= {CONSUMPTION_MIN_N}, got {n}")
    src = UniformSource(seed, recycling=config.recycling_enabled)
    sampler = samplers.make_sampler(config, src)
    costs = np.empty(n, dtype=np.int64)
    before = src.draws
    for i in range(n):
        sampler()
        after = src.draws
        costs[i] = after - before
        before = after
    uniforms = src.draws
    halfwidth = 1.96 * float(np.std(costs, ddof=1)) / math.sqrt(n)
    return ConsumptionReport(config.kind, n, uniforms, uniforms / n, halfwidth)


def verify_battery(seed: int, n: int, alpha: float) -> list[TestReport]:
    """The statistical battery behind ``fvn verify``: a deterministic list
    of reports, one per test.  Sub-runs use seed offsets from ``seed``,
    wrapped modulo 2^64 so that every 64-bit seed runs."""
    if n < VERIFY_MIN_N:
        raise ValueError(f"the verify battery needs n >= {VERIFY_MIN_N}, got {n}")

    def sub_seed(offset: int) -> int:
        return (seed + offset) % 2 ** 64

    reports = []
    cdf_for = {
        samplers.EXP_VN: exp1_cdf,
        samplers.EXP_BRENT: exp1_cdf,
        samplers.NORMAL_FORSYTHE: std_normal_cdf,
        samplers.NORMAL_GRAND: std_normal_cdf,
        samplers.WALLACE: std_normal_cdf,
    }
    kept = {}
    for i, (kind, cdf) in enumerate(cdf_for.items()):
        config = samplers.default_config(kind)
        draw = samplers.make_sampler(
            config, UniformSource(sub_seed(i), recycling=config.recycling_enabled))
        values = np.array([draw() for _ in range(n)])
        kept[kind] = (config, values)
        reports.append(ks_test(np.sort(values), cdf, alpha, f"ks_{kind}"))

    # run-length histogram at g = 1 against the closed-form law
    src = UniformSource(sub_seed(10), recycling=False)
    counts = [0] * 9
    for _ in range(n):
        counts[min(run_test(1.0, src).n, 9) - 1] += 1
    probs = [run_length_pmf(1.0, m) for m in range(1, 9)]
    probs.append(1.0 - sum(probs))
    reports.append(chi_square_test(counts, probs, alpha=alpha,
                                   name="chi_square_run_length_g1"))

    # geometric index frequencies against 2^-k
    src = UniformSource(sub_seed(11), recycling=False)
    kmax = 16
    counts = [0] * kmax
    for _ in range(n):
        counts[min(src.geometric_index(), kmax) - 1] += 1
    probs = [2.0 ** -k for k in range(1, kmax)]
    probs.append(2.0 ** -(kmax - 1))
    reports.append(chi_square_test(counts, probs, alpha=alpha,
                                   name="chi_square_geometric_index"))

    # uniformity of recycled leftovers from live run tests: n per g, each g
    # on its own source, so a g-dependent bias cannot average away.  One
    # line reports the largest D against a Bonferroni-split critical value.
    g_values = (0.2, 0.5, 0.9, 1.0)
    worst = 0.0
    for j, g in enumerate(g_values):
        src = UniformSource(sub_seed(12 + j), recycling=True)
        recycled = []
        while len(recycled) < n:
            run_test(g, src)
            recycled.extend(src.recycled)
            src.recycled.clear()
        worst = max(worst,
                    ks_test(np.sort(recycled[:n]), uniform_cdf).statistic)
    crit = ks_critical(alpha / len(g_values), n)
    reports.append(TestReport("ks_recycled_uniformity", worst, crit, n,
                              worst < crit < 1.0))

    # dyadic interval occupancy on the kept sample arrays
    for kind in (samplers.EXP_BRENT, samplers.NORMAL_GRAND):
        config, values = kept[kind]
        table = config.table
        counts = [0] * table.K
        for v in values.tolist():
            counts[samplers.interval_index(table, v) - 1] += 1
        probs = [2.0 ** -k for k in range(1, table.K)]
        probs.append(2.0 ** -(table.K - 1))
        reports.append(chi_square_test(counts, probs, alpha=alpha,
                                       name=f"chi_square_occupancy_{kind}"))
    return reports


def moments(samples) -> tuple[float, float, float, float]:
    """(mean, unbiased variance, skewness, excess kurtosis)."""
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("moments need at least two samples")
    mean = float(np.mean(x))
    centered = x - mean
    m2 = float(np.mean(centered ** 2))
    var = m2 * x.size / (x.size - 1)
    if m2 == 0.0:
        return mean, 0.0, 0.0, 0.0
    skew = float(np.mean(centered ** 3)) / m2 ** 1.5
    exkurt = float(np.mean(centered ** 4)) / m2 ** 2 - 3.0
    return mean, var, skew, exkurt
