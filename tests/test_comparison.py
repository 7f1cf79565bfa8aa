"""Run-test kernel and its closed-form law.

Monte Carlo assertions use four-sigma bands; closed-form expectations were
frozen from independent oracles (power series, brute-force integration
over ordered uniform tuples) coded alongside the tests.
"""

import hashlib
import math
import struct
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvn.bitstream import UniformSource
from fvn.comparison import (MAX_RUN_LENGTH, expected_run_length,
                            odd_parity_probability, run_length_pmf, run_test)
from tests.test_bitstream import FakeEngine, raw_from_word

# sum of x^k/k!, the oracle for everything exp-shaped in this file
def _exp_series(x, terms=40):
    total, term = 1.0, 1.0
    for k in range(1, terms):
        term *= x / k
        total += term
    return total


E_SERIES = _exp_series(1.0)                 # 2.718281828459045
EXP_MINUS_1_SERIES = _exp_series(-1.0)      # 0.36787944117144233


def _pmf_by_brute_force(g, n, rng, trials=2_000_000):
    """Prob(run length == n) estimated from raw ordered uniform tuples."""
    u = rng.random((trials, n + 1))
    ok = np.ones(trials, dtype=bool)
    prev = np.full(trials, g)
    for j in range(n - 1):
        ok &= u[:, j] < prev
        prev = u[:, j]
    return float(np.mean(ok & (u[:, n - 1] >= prev)))


def test_run_test_g_zero_always_accepts_with_n_one():
    src = UniformSource(3)
    for _ in range(1000):
        r = run_test(0.0, src)
        assert r.accepted and r.n == 1
        assert r.terminal_pair[0] == 0.0


def test_run_test_rejects_out_of_range_g():
    src = UniformSource(0)
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            run_test(bad, src)


def test_run_test_cap_raises_after_exactly_max_run_length_draws():
    # strictly decreasing words: a run that never ends
    words = [raw_from_word(2 ** 53 - 1 - i) for i in range(2 * MAX_RUN_LENGTH)]
    src = UniformSource(0, engine=FakeEngine(words), recycling=False)
    with pytest.raises(RuntimeError, match="run length exceeded"):
        run_test(1.0, src)
    assert MAX_RUN_LENGTH == 64
    assert src.draws == 64


def test_run_test_terminal_pair_ordered():
    src = UniformSource(11)
    for _ in range(2000):
        lo, hi = run_test(0.8, src).terminal_pair
        assert lo <= hi


def test_run_test_acceptance_rate_at_g_one():
    n = 1_000_000
    src = UniformSource(101, recycling=False)
    hits = sum(1 for _ in range(n) if run_test(1.0, src).accepted)
    p = EXP_MINUS_1_SERIES
    sigma = math.sqrt(p * (1 - p) * n)
    assert abs(hits - n * p) < 4 * sigma


def test_run_test_prob_n_two_at_g_half():
    # p_2 = g - g^2/2 = 0.375 at g = 0.5
    n = 1_000_000
    src = UniformSource(102, recycling=False)
    hits = sum(1 for _ in range(n) if run_test(0.5, src).n == 2)
    sigma = math.sqrt(0.375 * 0.625 * n)
    assert abs(hits - n * 0.375) < 4 * sigma


def test_run_test_length_capped_on_broken_input():
    # an engine emitting a strictly decreasing ramp never terminates a run
    top = 2 ** 53 - 1
    words = [raw_from_word(top - i) for i in range(100)]
    src = UniformSource(0, engine=FakeEngine(words), recycling=False)
    with pytest.raises(RuntimeError):
        run_test(1.0, src)


# SHA-256 of 20,000 run tests at seed 4242: each run's (n, u_n, u_next) as
# little-endian float64, then the final draws and recycled store.  Any
# change to the run_test stream or its recycling shows here.
RUN_TEST_PINS = {
    (0.25, False):
        "63df242d1b98bbeccf31403145c29203128a6bdcda65650adbd60c950ed239c3",
    (0.25, True):
        "1f5ffbb3f789d7895e685d6cf3a73d2fa0704e72f6ae5ce77df1866e743eaf8e",
    (0.5, False):
        "104ad499511ccf30f7cac5bbcddfa1d51774ade1e6ce44f1dd5222fb5072db6e",
    (0.5, True):
        "87e4d6ee0e7af06d22e8d2f66698be1cfe29e1c8cc8ea157e7936794ec291378",
    (1.0, False):
        "6660c3e8eb7d1c660ffc22366396eee2b89d0df529208313814089035ab842dd",
    (1.0, True):
        "e6f8ef02f861ae0d2f0b625f4c7071864175bbb8f1abdfe5f7c2cc53ee88731b",
}


@pytest.mark.parametrize("g, recycling", sorted(RUN_TEST_PINS))
def test_run_test_stream_is_pinned(g, recycling):
    src = UniformSource(4242, recycling=recycling)
    sha = hashlib.sha256()
    for _ in range(20_000):
        r = run_test(g, src)
        sha.update(struct.pack("<3d", r.n, *r.terminal_pair))
    sha.update(struct.pack("<q", src.draws))
    sha.update(struct.pack(f"<{len(src.recycled)}d", *src.recycled))
    assert sha.hexdigest() == RUN_TEST_PINS[g, recycling]


def test_pmf_boundary_values():
    assert run_length_pmf(0.0, 1) == 1.0
    assert run_length_pmf(1.0, 1) == 0.0
    assert run_length_pmf(0.5, 3) == pytest.approx(0.10416666666666667, abs=1e-16)


def test_pmf_matches_brute_force_integration():
    rng = np.random.default_rng(2718)
    for g, n in ((0.5, 2), (0.5, 3), (1.0, 3), (0.25, 1)):
        est = _pmf_by_brute_force(g, n, rng)
        p = run_length_pmf(g, n)
        sigma = math.sqrt(p * (1 - p) / 2_000_000)
        assert abs(est - p) < 4 * sigma, (g, n)


def test_pmf_validates_arguments():
    with pytest.raises(ValueError):
        run_length_pmf(1.5, 1)
    with pytest.raises(ValueError):
        run_length_pmf(0.5, 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(1, 20))
def test_pmf_telescopes_exactly(g, big_n):
    total = sum(run_length_pmf(g, n) for n in range(1, big_n + 1))
    assert total == pytest.approx(1.0 - g ** big_n / math.factorial(big_n),
                                  abs=1e-12)


def _within_one_ulp(value, exact):
    return abs(Decimal(value) - exact) <= Decimal(math.ulp(float(exact)))


# g = 0, 0.01, ..., 1: the oracles against exp in 60-digit arithmetic
_G_GRID = [k / 100 for k in range(101)]


def test_expected_run_length_values():
    assert expected_run_length(0.0) == 1.0
    assert expected_run_length(1.0) == pytest.approx(E_SERIES, abs=1e-15)
    with localcontext() as ctx:
        ctx.prec = 60
        off = [g for g in _G_GRID if not _within_one_ulp(
            expected_run_length(g), Decimal(g).exp())]
    assert off == []


def test_expected_run_length_matches_simulation():
    n = 1_000_000
    src = UniformSource(103, recycling=False)
    lengths = np.array([run_test(0.7, src).n for _ in range(n)])
    se = lengths.std(ddof=1) / math.sqrt(n)
    assert abs(lengths.mean() - _exp_series(0.7)) < 4 * se


def test_odd_parity_probability_values():
    assert odd_parity_probability(0.0) == 1.0
    assert odd_parity_probability(1.0) == pytest.approx(EXP_MINUS_1_SERIES,
                                                        abs=1e-15)
    with localcontext() as ctx:
        ctx.prec = 60
        off = [g for g in _G_GRID if not _within_one_ulp(
            odd_parity_probability(g), (-Decimal(g)).exp())]
    assert off == []


@pytest.mark.parametrize("g", [0.25, 0.5, 1.0])
def test_odd_parity_equals_partial_alternating_sum(g):
    partial = sum((-g) ** k / math.factorial(k) for k in range(21))
    assert abs(odd_parity_probability(g) - partial) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_odd_parity_equals_odd_pmf_sum(g):
    odd_sum = sum(run_length_pmf(g, n) for n in range(1, 31, 2))
    assert abs(odd_parity_probability(g) - odd_sum) < 1e-12


def test_run_length_histogram_matches_pmf():
    from fvn.stats import chi_square_test

    n = 200_000
    src = UniformSource(104, recycling=False)
    counts = [0] * 9
    for _ in range(n):
        counts[min(run_test(1.0, src).n, 9) - 1] += 1
    probs = [run_length_pmf(1.0, m) for m in range(1, 9)]
    probs.append(1.0 - sum(probs))
    assert chi_square_test(counts, probs).passed
