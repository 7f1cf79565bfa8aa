"""Pool generator: orthogonality, norm conservation, emitted distribution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from fvn import samplers, wallace
from fvn.bitstream import UniformSource
from fvn.stats import ks_test, measure_consumption, moments
from fvn.wallace import (BLOCK, DEFAULT_POOL_SIZE, ORTHO_Q,
                         _block_permutation, init_pool, next_normal, refresh)


def test_transform_is_orthogonal_to_machine_zero():
    gram = ORTHO_Q.T @ ORTHO_Q
    assert np.max(np.abs(gram - np.eye(BLOCK))) <= 1e-15


def test_unit_block_keeps_unit_norm_exactly():
    y = ORTHO_Q @ np.array([1.0, 0.0, 0.0, 0.0])
    assert float(y @ y) == 1.0


def test_pool_size_validation():
    src = UniformSource(1)
    for bad in (0, 100, 255, 258):
        with pytest.raises(ValueError):
            init_pool(bad, src)


def test_init_pool_norm_is_chi_square_sized():
    pool = init_pool(256, UniformSource(601))
    # sum of 256 squared normals: mean 256, variance 2 * 256
    assert abs(pool.norm_sq - 256.0) < 4.0 * math.sqrt(512.0)
    assert pool.pass_count == 0 and pool.read_cursor == 0


def test_init_pool_deterministic():
    a = init_pool(256, UniformSource(602))
    b = init_pool(256, UniformSource(602))
    assert np.array_equal(a.values, b.values)
    assert a.emit_scale == b.emit_scale


def test_bootstrap_pool_is_normal():
    pool = init_pool(4096, UniformSource(603))
    assert ks_test(np.sort(pool.values), ndtr).passed


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 53 - 1),
       st.sampled_from([256, 4096, 1020]))
def test_block_permutation_is_a_bijection(word, size):
    idx = _block_permutation(size, word)
    assert np.array_equal(np.sort(idx), np.arange(size))


def test_refresh_preserves_squared_norm():
    src = UniformSource(604)
    pool = init_pool(4096, src)
    before = float(pool.values @ pool.values)
    refresh(pool, src)
    after = float(pool.values @ pool.values)
    assert abs(after - before) / before <= 1e-12
    assert pool.pass_count == 1


def test_thousand_refreshes_drift_below_1e9():
    src = UniformSource(605)
    pool = init_pool(4096, src)
    for _ in range(1000):
        refresh(pool, src)
    drift = abs(float(pool.values @ pool.values) - pool.norm_sq) / pool.norm_sq
    assert drift < 1e-9


def test_pool_still_normal_after_hundred_refreshes():
    src = UniformSource(606)
    pool = init_pool(4096, src)
    for _ in range(100):
        refresh(pool, src)
    assert ks_test(np.sort(pool.values), ndtr).passed


def test_next_normal_walks_the_pool_then_refreshes():
    src = UniformSource(607)
    pool = init_pool(256, src)
    first_pass = [next_normal(pool, src) for _ in range(256)]
    assert pool.pass_count == 0
    next_normal(pool, src)
    assert pool.pass_count == 1 and pool.read_cursor == 1
    scale = pool.emit_scale
    assert first_pass[0] != pytest.approx(first_pass[1])
    assert scale > 0.0


def test_emitted_stream_deterministic():
    def emit(seed, n):
        src = UniformSource(seed)
        pool = init_pool(256, src)
        return [next_normal(pool, src) for _ in range(n)]

    assert emit(608, 600) == emit(608, 600)


def test_emitted_moments_match_standard_normal():
    n = 1_000_000
    src = UniformSource(609)
    pool = init_pool(DEFAULT_POOL_SIZE, src)
    values = np.array([next_normal(pool, src) for _ in range(n)])
    mean, var, skew, exkurt = moments(values)
    assert abs(mean) < 5.0 / math.sqrt(n)
    assert abs(var - 1.0) < 5.0 * math.sqrt(2.0 / n)
    assert abs(skew) < 5.0 * math.sqrt(6.0 / n)
    assert abs(exkurt) < 5.0 * math.sqrt(24.0 / n)


def test_amortized_uniform_cost_is_tiny():
    report = measure_consumption(samplers.default_config(samplers.WALLACE),
                                 100_000, 610)
    assert report.mean_per_sample < 0.5


@pytest.mark.parametrize("size", [256, DEFAULT_POOL_SIZE])
def test_bound_draw_matches_next_normal_across_passes(size, monkeypatch):
    monkeypatch.setattr(wallace, "DEFAULT_POOL_SIZE", size)
    src, twin = (UniformSource(612, recycling=False) for _ in range(2))
    draw = samplers.make_sampler(samplers.default_config(samplers.WALLACE), src)
    pool = init_pool(size, twin)
    assert src.draws == twin.draws
    before = src.draws
    for i in range(4 * size + 3):          # four pass boundaries
        assert draw() == next_normal(pool, twin)
        assert src.draws == twin.draws
        # the N-th value spends nothing; the (N+1)-th begins a pass
        assert (src.draws != before) == (i > 0 and i % size == 0)
        before = src.draws
    assert pool.pass_count == 4


def test_emission_reads_the_snapshot_of_the_pass():
    src = UniformSource(613)
    pool = init_pool(256, src)
    snapshot = pool.values * pool.emit_scale
    head = [next_normal(pool, src) for _ in range(10)]
    refresh(pool, src)                      # mid-pass: not seen until the next
    tail = [next_normal(pool, src) for _ in range(246)]
    assert head + tail == snapshot.tolist()
    assert next_normal(pool, src) == pool.values[0] * pool.emit_scale
    assert pool.pass_count == 2
