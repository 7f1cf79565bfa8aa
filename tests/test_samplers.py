"""Full generators: distributional checks, consumption orderings,
accounting contracts, determinism."""

import hashlib
import math
import struct

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import ks_2samp

from fvn import samplers, tables
from fvn.bitstream import UniformSource
from fvn.samplers import (SamplerConfig, box_muller, default_config,
                          exp_brent, exp_log_baseline, exp_vn, interval_index,
                          make_sampler, normal_forsythe, normal_grand, polar)
from fvn.stats import chi_square_test, measure_consumption
from tests.test_bitstream import FakeEngine, raw_from_word


def draw_many(kind, n, seed, recycling=None):
    config = default_config(kind, recycling=recycling)
    sampler = make_sampler(
        config, UniformSource(seed, recycling=config.recycling_enabled))
    return np.array([sampler() for _ in range(n)])


def test_config_requires_matching_table():
    # a config sets its own table: a stale table or K is refused, and is
    # never taken as the recycling flag
    table = default_config(samplers.EXP_BRENT).table
    with pytest.raises(TypeError):
        SamplerConfig(samplers.EXP_BRENT, table)
    with pytest.raises(TypeError):
        SamplerConfig(samplers.EXP_BRENT, table=table)
    with pytest.raises(TypeError):
        default_config(samplers.EXP_BRENT, 53)
    with pytest.raises(TypeError):
        default_config(samplers.EXP_BRENT, K=53)
    with pytest.raises(ValueError):
        SamplerConfig("nope")


@pytest.mark.parametrize("kind", samplers.SAMPLER_KINDS)
def test_every_kind_has_one_table(kind):
    table = SamplerConfig(kind).table
    if kind in samplers.TABLE_SCHEMES:
        assert table is default_config(kind).table
        assert table.scheme == samplers.TABLE_SCHEMES[kind]
        assert table.K == tables.DEFAULT_TABLE_LEN
    else:
        assert table is None and default_config(kind).table is None


def test_default_recycling_flags():
    assert default_config(samplers.EXP_BRENT).recycling_enabled
    assert default_config(samplers.NORMAL_GRAND).recycling_enabled
    assert not default_config(samplers.EXP_VN).recycling_enabled
    assert not default_config(samplers.NORMAL_FORSYTHE).recycling_enabled
    # a config built directly gets the same default as default_config
    assert SamplerConfig(samplers.NORMAL_GRAND).recycling_enabled
    assert not SamplerConfig(samplers.EXP_LOG).recycling_enabled
    assert not default_config(samplers.NORMAL_GRAND,
                              recycling=False).recycling_enabled


def test_sampler_functions_reject_wrong_scheme():
    # a one-shot sampler draws its kind's one table and takes no table:
    # neither its own nor one of another scheme can be passed in
    src = UniformSource(0)
    wrong = tables.build_exp_vn(8)
    for sampler in (exp_vn, exp_brent, normal_forsythe, normal_grand):
        for table in (wrong, default_config(sampler.__name__).table):
            with pytest.raises(TypeError):
                sampler(table, src)
    assert src.draws == 0


def test_exp_vn_sample_mean():
    n = 1_000_000
    values = draw_many(samplers.EXP_VN, n, 501)
    assert abs(values.mean() - 1.0) < 4 * 1e-3    # Exp(1): sigma/sqrt(n) = 1e-3
    assert values.min() >= 0.0


def test_exp_brent_two_sample_against_log_baseline():
    n = 100_000
    a = draw_many(samplers.EXP_BRENT, n, 502)
    b = draw_many(samplers.EXP_LOG, n, 503)
    assert ks_2samp(a, b).pvalue > 0.01


def test_normal_grand_two_sample_against_polar():
    n = 100_000
    a = draw_many(samplers.NORMAL_GRAND, n, 504)
    b = draw_many(samplers.POLAR, n, 505)
    assert ks_2samp(a, b).pvalue > 0.01


def test_normal_forsythe_moments():
    n = 1_000_000
    values = draw_many(samplers.NORMAL_FORSYTHE, n, 506)
    var = values.var(ddof=1)
    assert abs(var - 1.0) < 4 * math.sqrt(2.0 / n)
    kurt = np.mean((values - values.mean()) ** 4) / values.var() ** 2
    assert abs(kurt - 3.0) < 5 * math.sqrt(24.0 / n)


def _occupancy_counts(kind, n, seed):
    table = default_config(kind).table
    counts = [0] * table.K
    for value in draw_many(kind, n, seed).tolist():
        counts[interval_index(table, value) - 1] += 1
    return counts, table.K


def test_exp_brent_interval_occupancy():
    n = 200_000
    counts, K = _occupancy_counts(samplers.EXP_BRENT, n, 507)
    probs = [2.0 ** -k for k in range(1, K)] + [2.0 ** -(K - 1)]
    assert chi_square_test(counts, probs, n).passed


def _conditional_chi_square(kind, cdf, n, seed, k):
    """Within interval k, the sample law must match the renormalized target."""
    table = default_config(kind).table
    values = draw_many(kind, n, seed)
    if table.is_normal:
        values = np.abs(values)
    lo, hi = table.interval(k)
    inside = values[(values >= lo) & (values < hi)]
    edges = np.linspace(lo, hi, 7)
    counts, _ = np.histogram(inside, bins=edges)
    cdf_edges = cdf(edges)
    probs = np.diff(cdf_edges) / (cdf_edges[-1] - cdf_edges[0])
    return chi_square_test(counts.tolist(), probs.tolist(), inside.size)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exp_brent_conditional_distribution_per_interval(k):
    report = _conditional_chi_square(samplers.EXP_BRENT,
                                     lambda x: 1.0 - np.exp(-x),
                                     200_000, 508 + k, k)
    assert report.passed


@pytest.mark.parametrize("k", [1, 2, 3])
def test_normal_grand_conditional_distribution_per_interval(k):
    report = _conditional_chi_square(samplers.NORMAL_GRAND,
                                     lambda x: 2.0 * ndtr(x) - 1.0,
                                     200_000, 511 + k, k)
    assert report.passed


def test_exp_brent_with_recycling_beats_exp_vn():
    n = 100_000
    brent = measure_consumption(default_config(samplers.EXP_BRENT), n, 514)
    vn = measure_consumption(default_config(samplers.EXP_VN), n, 514)
    assert brent.mean_per_sample < vn.mean_per_sample


def test_normal_grand_recycling_strictly_helps():
    n = 100_000
    on = measure_consumption(default_config(samplers.NORMAL_GRAND), n, 515)
    off = measure_consumption(
        default_config(samplers.NORMAL_GRAND, recycling=False), n, 515)
    assert off.mean_per_sample > on.mean_per_sample


def test_normal_grand_beats_normal_forsythe():
    n = 100_000
    grand = measure_consumption(default_config(samplers.NORMAL_GRAND), n, 516)
    forsythe = measure_consumption(
        default_config(samplers.NORMAL_FORSYTHE), n, 516)
    assert grand.mean_per_sample < forsythe.mean_per_sample


def test_box_muller_consumes_exactly_one_uniform_per_output():
    src = UniformSource(517, recycling=False)
    draw = make_sampler(default_config(samplers.BOX_MULLER), src)
    costs = []
    before = src.draws
    for _ in range(1000):
        draw()
        costs.append(src.draws - before)
        before = src.draws
    assert costs == [2, 0] * 500    # two per pair, one per output on average


def test_exp_log_baseline_redraws_a_zero_uniform():
    src = UniformSource(0, engine=FakeEngine([0, raw_from_word(1 << 52)]))
    assert exp_log_baseline(src) == pytest.approx(math.log(2.0))
    assert src.draws == 2


@pytest.mark.parametrize("sampler", [normal_forsythe, normal_grand])
@pytest.mark.parametrize("position_word", [0, 2 ** 53 - 1])
def test_normal_samplers_survive_extreme_positions_in_interval_3(
        sampler, position_word):
    """A position uniform of 0 or 1 - 2^-53 lands on a rounded boundary of
    interval 3.  For normal_forsythe that is sqrt(3) or sqrt(5), where the
    unclamped shifted exponent leaves [0, 1] by a few ulps."""
    table = default_config(sampler.__name__).table
    if table.is_dyadic:
        select_word = 1 << (53 - 3)            # two leading zeros: k = 3
    else:
        # a uniform between the cumulative masses of intervals 2 and 3
        select_word = int(0.5 * (table.cum_probs[1] + table.cum_probs[2])
                          * 2 ** 53)
    run_words = [1 << 52, 1 << 51, 3 << 51]    # 0.5, 0.25, 0.75: n = 3
    words = [1 << 52, select_word, position_word] + run_words
    src = UniformSource(0, engine=FakeEngine([raw_from_word(w) for w in words]),
                        recycling=False)
    value = sampler(src)
    lo, hi = table.interval(3)
    assert lo <= value <= hi
    if sampler is normal_forsythe:
        assert (lo, hi) == (math.sqrt(3.0), math.sqrt(5.0))


def test_baseline_values_match_textbook_transforms():
    src = UniformSource(518)
    u1, u2 = src.next_uniform(), src.next_uniform()
    src2 = UniformSource(518)
    z1, z2 = box_muller(src2)
    assert z1 == pytest.approx(math.sqrt(-2 * math.log(u1))
                               * math.cos(2 * math.pi * u2))
    assert z2 == pytest.approx(math.sqrt(-2 * math.log(u1))
                               * math.sin(2 * math.pi * u2))
    assert polar(UniformSource(519))  # smoke: terminates and returns a pair


def test_every_kind_is_deterministic_under_fixed_seed():
    for kind in samplers.SAMPLER_KINDS:
        n = 50 if kind == samplers.WALLACE else 200
        a = draw_many(kind, n, 520)
        b = draw_many(kind, n, 520)
        assert np.array_equal(a, b), kind


def test_interval_index_maps_samples_into_their_intervals():
    t = tables.build_normal_brent(8)
    assert interval_index(t, 0.0) == 1
    assert interval_index(t, -0.5) == 1
    assert interval_index(t, 100.0) == 8
    te = tables.build_exp_brent(8)
    assert interval_index(te, 0.8) == 2


# SHA-256 of the first 20,000 make_sampler variates (little-endian float64)
# at seed 20240, and the engine words spent on them.  Any change to a
# sampler's stream or its uniform accounting shows here.
STREAM_PINS = {
    samplers.EXP_VN: (
        "c587927f8f69de83709ed457664c66338bbab94ee3ce5dddf23302850d21fd59",
        118310),
    samplers.EXP_BRENT: (
        "e89f457b3ac12b68085909440a99dbdc011b6b04c2596509e922380be36cd240",
        39975),
    samplers.NORMAL_FORSYTHE: (
        "f2f917051458ef4a8a2b6a37153a1aa0add23192470b8b7b5f3d2da9be501592",
        81673),
    samplers.NORMAL_GRAND: (
        "bf3217d0f28c23cadeca4788a4d64da65206eb8968871a86dd323b241f60eae4",
        27783),
    samplers.WALLACE: (
        "636e2ed2f60e305c68e1c79958428060aad99932b7ae5bad795451b9a03585c8",
        14408),
}


@pytest.mark.parametrize("kind", sorted(STREAM_PINS))
def test_stream_and_draws_are_pinned(kind):
    config = default_config(kind)
    src = UniformSource(20240, recycling=config.recycling_enabled)
    draw = make_sampler(config, src)
    sha = hashlib.sha256()
    for _ in range(20_000):
        sha.update(struct.pack("<d", draw()))
    assert (sha.hexdigest(), src.draws) == STREAM_PINS[kind]


@pytest.mark.parametrize("kind", samplers.SAMPLER_KINDS)
def test_every_bound_draw_returns_a_python_float(kind):
    # `fvn generate --format csv` writes repr(value); an np.float64 would
    # print as np.float64(...) and change the bytes.
    config = default_config(kind)
    draw = make_sampler(
        config, UniformSource(611, recycling=config.recycling_enabled))
    for _ in range(4_097):                  # past a Wallace pass boundary
        assert type(draw()) is float


@pytest.mark.parametrize("kind", samplers.SAMPLER_KINDS)
def test_make_sampler_refuses_a_source_with_the_other_recycling_flag(kind):
    config = default_config(kind)
    src = UniformSource(613, recycling=not config.recycling_enabled)
    with pytest.raises(ValueError, match="recycling"):
        make_sampler(config, src)
    assert src.recycling is not config.recycling_enabled
    assert (src.draws, src.recycled) == (0, [])


def test_recycling_flag_cannot_change_under_a_bound_sampler():
    config = default_config(samplers.NORMAL_GRAND)
    src, twin = (UniformSource(5, recycling=True) for _ in range(2))
    draw, twin_draw = make_sampler(config, src), make_sampler(config, twin)
    for _ in range(1_000):
        assert draw() == twin_draw()
    with pytest.raises(AttributeError):
        src.recycling = False
    assert src.recycling
    for _ in range(1_000):
        assert draw() == twin_draw() and src.draws == twin.draws


@pytest.mark.parametrize("pair_fn", [box_muller, polar])
def test_pair_draws_are_the_pairs_flattened(pair_fn):
    src, twin = (UniformSource(612, recycling=False) for _ in range(2))
    draw = make_sampler(default_config(pair_fn.__name__), src)
    for _ in range(2_500):
        a, b = pair_fn(twin)
        assert draw() == a and src.draws == twin.draws
        assert draw() == b and src.draws == twin.draws
    # the first value of the next pair draws the pair
    assert draw() == pair_fn(twin)[0] and src.draws == twin.draws
