"""Verification machinery: the tests behind the tests."""

import math

import numpy as np
import pytest
from scipy.stats import binom

from fvn import samplers
from fvn.bitstream import UniformSource
from fvn.comparison import run_length_pmf, run_test
from fvn.samplers import default_config, make_sampler
from fvn.stats import (chi_square_test, exp1_cdf, ks_critical, ks_test,
                       measure_consumption, moments, std_normal_cdf,
                       uniform_cdf, verify_battery)


def test_ks_single_point_at_median():
    report = ks_test([0.0], std_normal_cdf)
    assert report.statistic == 0.5
    # the critical value at n = 1 is 1.63, above any D: one point cannot be
    # rejected, so the test fails closed rather than passing on no evidence
    assert not report.passed


def test_ks_fails_closed_until_the_critical_value_drops_below_one():
    assert ks_critical(0.01, 2) >= 1.0
    assert not ks_test([0.49, 0.51], uniform_cdf).passed
    # from n = 3 (critical 0.94) the verdict is again D < critical
    assert ks_critical(0.01, 3) == pytest.approx(0.9397, abs=5e-4)
    good = ks_test([1 / 6, 0.5, 5 / 6], uniform_cdf)
    assert good.statistic < good.critical_value and good.passed
    bad = ks_test([0.97, 0.98, 0.99], uniform_cdf)
    assert bad.statistic > bad.critical_value and not bad.passed


def test_ks_requires_sorted_nonempty_input():
    with pytest.raises(ValueError):
        ks_test([], uniform_cdf)
    with pytest.raises(ValueError):
        ks_test([0.5, 0.2], uniform_cdf)


def test_ks_critical_constant():
    assert ks_critical(0.01, 1) == pytest.approx(1.6276, abs=5e-4)


def test_ks_rejects_wrong_distribution():
    rng = np.random.default_rng(9)
    x = np.sort(rng.exponential(size=10_000))
    assert not ks_test(x, std_normal_cdf).passed


def test_ks_calibration_under_the_null():
    """Rejection rate over 200 seeded repetitions stays inside the exact
    binomial 99% band around alpha."""
    alpha = 0.01
    reps, n = 200, 5_000
    rejections = 0
    for i in range(reps):
        x = np.sort(np.random.default_rng(1000 + i).random(n))
        if not ks_test(x, uniform_cdf, alpha).passed:
            rejections += 1
    lo = binom.ppf(0.005, reps, alpha)
    hi = binom.ppf(0.995, reps, alpha)
    assert lo <= rejections <= hi


def test_chi_square_exact_proportions_give_zero():
    report = chi_square_test([50, 30, 20], [0.5, 0.3, 0.2])
    assert report.statistic == 0.0 and report.passed


def test_chi_square_merges_sparse_tail_bins():
    from scipy.stats import chi2

    probs = [0.5, 0.3, 0.15, 0.04, 0.009, 0.001]
    obs = [55, 28, 13, 4, 0, 0]
    report = chi_square_test(obs, probs)
    # the three tail bins merge into one: 4 bins remain, 3 dof
    assert report.critical_value == pytest.approx(chi2.ppf(0.99, 3))


def test_chi_square_zero_mass_bins():
    from scipy.stats import chi2

    # an empty zero-mass bin is dropped: three bins remain, two dof
    report = chi_square_test([0, 50, 30, 20], [0.0, 0.5, 0.3, 0.2])
    assert report.statistic == 0.0 and report.passed
    assert report.critical_value == pytest.approx(chi2.ppf(0.99, 2))
    # an occupied zero-mass bin is impossible under the null
    report = chi_square_test([1, 49, 30, 20], [0.0, 0.5, 0.3, 0.2])
    assert report.statistic == math.inf
    assert report.passed is False


def test_chi_square_errors():
    with pytest.raises(ValueError):
        chi_square_test([1, 2], [0.9, 0.2])             # probs sum > 1
    with pytest.raises(ValueError):
        chi_square_test([1], [1.0])                     # single sparse bin
    with pytest.raises(ValueError):
        chi_square_test([1, 2, 3], [0.5, 0.5])          # length mismatch
    with pytest.raises(TypeError):
        chi_square_test([50, 50], [0.5, 0.5], 100)      # n is the total


def test_chi_square_critical_value_stays_finite_at_tiny_alpha():
    from scipy.stats import chi2

    # 1 - 1e-17 rounds to 1.0, where the upper quantile would be inf
    alpha = 1e-17
    report = chi_square_test([50, 30, 20], [0.5, 0.3, 0.2], alpha=alpha)
    assert math.isfinite(report.critical_value)
    assert report.critical_value == chi2.isf(alpha, 2)
    assert report.passed
    report = chi_square_test([1000, 0, 0], [0.5, 0.3, 0.2], alpha=alpha)
    assert report.statistic > report.critical_value
    assert report.passed is False


def test_verify_battery_runs_at_the_largest_seed():
    # sub-run seeds wrap modulo 2^64 instead of overflowing
    assert len(verify_battery(2 ** 64 - 1, 10, 0.01)) == 10


def test_chi_square_calibration_under_the_null():
    alpha = 0.01
    reps, n = 200, 5_000
    probs = [0.4, 0.3, 0.2, 0.1]
    rejections = 0
    for i in range(reps):
        counts = np.random.default_rng(2000 + i).multinomial(n, probs)
        if not chi_square_test(counts.tolist(), probs, alpha=alpha).passed:
            rejections += 1
    lo = binom.ppf(0.005, reps, alpha)
    hi = binom.ppf(0.995, reps, alpha)
    assert lo <= rejections <= hi


def test_geometric_index_counts_pass_chi_square():
    src = UniformSource(701, recycling=False)
    n = 200_000
    kmax = 14
    counts = [0] * kmax
    for _ in range(n):
        counts[min(src.geometric_index(), kmax) - 1] += 1
    probs = [2.0 ** -k for k in range(1, kmax)] + [2.0 ** -(kmax - 1)]
    assert chi_square_test(counts, probs).passed


def test_run_length_counts_pass_chi_square():
    src = UniformSource(702, recycling=False)
    n = 200_000
    counts = [0] * 9
    for _ in range(n):
        counts[min(run_test(1.0, src).n, 9) - 1] += 1
    probs = [run_length_pmf(1.0, m) for m in range(1, 9)]
    probs.append(1.0 - sum(probs))
    assert chi_square_test(counts, probs).passed


def test_consumption_of_log_baseline_is_exactly_one():
    report = measure_consumption(default_config(samplers.EXP_LOG), 100_000, 703)
    assert report.mean_per_sample == 1.0
    assert report.ci95_halfwidth == 0.0
    assert report.uniforms == 100_000


def test_consumption_requires_large_n():
    with pytest.raises(ValueError):
        measure_consumption(default_config(samplers.EXP_LOG), 10_000, 0)


def test_consumption_meter_matches_source_draws_exactly():
    config = default_config(samplers.NORMAL_GRAND)
    n = 100_000
    report = measure_consumption(config, n, 704)
    src = UniformSource(704, recycling=config.recycling_enabled)
    sampler = make_sampler(config, src)
    for _ in range(n):
        sampler()
    assert report.uniforms == src.draws
    assert report.mean_per_sample == report.uniforms / report.samples


def test_moments_constant_sequence():
    mean, var, skew, exkurt = moments([3.0, 3.0, 3.0])
    assert (mean, var, skew, exkurt) == (3.0, 0.0, 0.0, 0.0)


def test_moments_requires_two_samples():
    with pytest.raises(ValueError):
        moments([1.0])


def test_moments_of_standard_normal_samples():
    n = 1_000_000
    x = np.random.default_rng(42).standard_normal(n)
    mean, var, skew, exkurt = moments(x)
    assert abs(mean) < 5.0 / math.sqrt(n)
    assert abs(var - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert abs(skew) < 5.0 * math.sqrt(6.0 / n)
    assert abs(exkurt) < 5.0 * math.sqrt(24.0 / n)


def test_moments_of_exponential_samples():
    n = 1_000_000
    x = np.random.default_rng(43).exponential(size=n)
    mean, var, _, _ = moments(x)
    assert abs(mean - 1.0) < 5.0 / math.sqrt(n)
    assert abs(var - 1.0) < 5.0 * math.sqrt(8.0 / n)   # var of var-hat ~ 8/n


def test_cdf_helpers():
    assert exp1_cdf(0.0) == 0.0
    assert std_normal_cdf(0.0) == 0.5
    assert uniform_cdf(0.5) == 0.5
