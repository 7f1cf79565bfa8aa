"""Interval tables: boundary values, selection masses, shifted exponents.

Half-normal quantities are cross-checked against two oracles that share no
code with the package: a Taylor series for erf and adaptive quadrature.
"""

import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fvn import tables
from fvn.bitstream import UniformSource
from fvn.tables import (IntervalTable, build_exp_brent, build_exp_vn,
                        build_normal_brent, build_normal_forsythe,
                        dump_table, half_normal_tail, select_interval)
from tests.test_bitstream import FakeEngine, raw_from_word

LN2 = 0.69314718055994531


def _erf_series(z):
    """Taylor expansion 2/sqrt(pi) * sum (-1)^n z^(2n+1) / (n! (2n+1))."""
    total = 0.0
    power = z
    fact = 1.0
    n = 0
    while True:
        term = power / (fact * (2 * n + 1))
        new = total + term
        if new == total:
            return 2.0 / math.sqrt(math.pi) * total
        total = new
        n += 1
        power *= -z * z
        fact *= n


def _tail_by_quadrature(x):
    val, _ = integrate.quad(lambda t: math.sqrt(2.0 / math.pi)
                            * math.exp(-0.5 * t * t), x, np.inf)
    return val


def test_half_normal_tail_at_zero_is_one():
    assert half_normal_tail(0.0) == 1.0


def test_half_normal_tail_at_one_against_two_oracles():
    expected_series = 1.0 - _erf_series(1.0 / math.sqrt(2.0))  # 0.3173105078629141
    expected_quad = _tail_by_quadrature(1.0)
    got = half_normal_tail(1.0)
    assert got == pytest.approx(0.31731050786291415, abs=1e-14)
    assert got == pytest.approx(expected_series, abs=1e-14)
    assert got == pytest.approx(expected_quad, abs=1e-10)


def test_half_normal_tail_monotone_decreasing():
    xs = np.linspace(0.0, 9.0, 400)
    vals = [half_normal_tail(float(x)) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_half_normal_tail_rejects_negative():
    with pytest.raises(ValueError):
        half_normal_tail(-0.5)


def test_exp_brent_boundaries():
    t = build_exp_brent(1)
    assert t.boundaries == (0.0, pytest.approx(LN2, abs=1e-16))
    # a_1 really is ln 2: e^{a_1} must give back 2
    assert math.exp(t.boundaries[1]) == pytest.approx(2.0, abs=1e-15)


def test_exp_brent_shifted_exponent_vanishes_at_left_endpoint():
    t = build_exp_brent(8)
    assert t.shifted_exponent(3, 2.0 * math.log(2.0)) == 0.0


def test_exp_brent_gmax_is_ln2_everywhere():
    t = build_exp_brent(53)
    for k in range(1, 54):
        assert t.gmax(k) == pytest.approx(LN2, abs=1e-12)
        assert t.gmax(k) < 1.0


def test_exp_vn_selection_masses():
    t = build_exp_vn(8)
    q1 = t.selection_probability(1)
    assert q1 == pytest.approx(0.6321205588285577, abs=1e-15)
    assert q1 == pytest.approx((math.e - 1.0) / math.e, abs=1e-15)
    # cumulative mass telescopes to 1 - e^-k
    for k in range(1, 9):
        assert t.cum_probs[k - 1] == pytest.approx(1.0 - math.exp(-k), abs=1e-15)
        masses = sum(t.selection_probability(j) for j in range(1, k + 1))
        assert t.cum_probs[k - 1] == pytest.approx(masses, abs=1e-14)


def test_exp_vn_shift():
    t = build_exp_vn(8)
    assert t.shifted_exponent(5, 4.5) == 0.5


def test_forsythe_boundaries_and_exact_square_gaps():
    t = build_normal_forsythe(64)
    assert t.boundaries[1] == 1.0
    assert t.boundaries[2] == pytest.approx(1.7320508075688772, abs=1e-16)
    for k in range(2, 65):
        # carried squares make this exact, not approximate
        assert t.boundaries_sq[k] - t.boundaries_sq[k - 1] == 2.0


def test_forsythe_first_mass_against_two_oracles():
    t = build_normal_forsythe(8)
    q1 = t.selection_probability(1)
    assert q1 == pytest.approx(0.6826894921370859, abs=1e-14)
    assert q1 == pytest.approx(_erf_series(1.0 / math.sqrt(2.0)), abs=1e-14)
    assert q1 == pytest.approx(1.0 - _tail_by_quadrature(1.0), abs=1e-10)


def test_forsythe_gmax_profile():
    t = build_normal_forsythe(16)
    assert t.gmax(1) == 0.5
    for k in range(2, 17):
        assert t.gmax(k) == 1.0


def test_brent_first_boundary_is_half_normal_median():
    t = build_normal_brent(4)
    assert t.boundaries[1] == pytest.approx(0.6744897501960817, abs=1e-12)
    assert half_normal_tail(t.boundaries[1]) == pytest.approx(0.5, abs=1e-12)


def test_brent_tail_equation_to_1e12_and_independent_quadrature():
    t = build_normal_brent(64)
    for k in range(1, 65):
        assert abs(half_normal_tail(t.boundaries[k]) - 2.0 ** -k) < 1e-12
    for k in range(1, 31):
        quad_tail = _tail_by_quadrature(t.boundaries[k])
        assert quad_tail == pytest.approx(2.0 ** -k, rel=1e-8)


def test_brent_first_interval_mass_is_one_half():
    t = build_normal_brent(2)
    mass = half_normal_tail(t.boundaries[0]) - half_normal_tail(t.boundaries[1])
    assert mass == pytest.approx(0.5, abs=1e-12)


def test_brent_squared_gaps_below_two_ln_two():
    t = build_normal_brent(64)
    bound = 2.0 * math.log(2.0)
    for k in range(1, 65):
        assert t.boundaries_sq[k] - t.boundaries_sq[k - 1] < bound


def test_dyadic_schemes_store_no_probability_table():
    assert build_exp_brent(8).cum_probs is None
    assert build_normal_brent(8).cum_probs is None
    assert build_exp_vn(8).cum_probs is not None
    assert build_normal_forsythe(8).cum_probs is not None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(tables.SCHEMES), st.integers(1, 64))
def test_table_invariants_for_any_length(scheme, K):
    t = IntervalTable(scheme, K)
    assert t.K == K and t.boundaries[0] == 0.0
    assert all(a < b for a, b in zip(t.boundaries, t.boundaries[1:]))
    total = sum(t.selection_probability(k) for k in range(1, K + 1))
    assert 1.0 - 2.0 ** -K <= total <= 1.0 + 1e-12
    for k in range(1, K + 1):
        lo, hi = t.interval(k)
        for x in np.linspace(lo, hi, 101):
            g = t.shifted_exponent(k, float(x))
            assert -1e-12 <= g <= 1.0 + 1e-12


def test_shifted_exponent_grid_audit_dense():
    for scheme in tables.SCHEMES:
        t = IntervalTable(scheme, 53)
        for k in range(1, 54):
            lo, hi = t.interval(k)
            xs = np.linspace(lo, hi, 1000)
            gs = [t.shifted_exponent(k, float(x)) for x in xs]
            assert min(gs) >= 0.0 and max(gs) <= 1.0, (scheme, k)


def test_builds_are_deterministic():
    for scheme in tables.SCHEMES:
        assert IntervalTable(scheme, 32) == IntervalTable(scheme, 32)


def test_build_length_validation():
    for bad in (0, 65, -3, True, 8.0):
        with pytest.raises(ValueError):
            build_exp_brent(bad)
    # any integer type is read as its value, as the seed is
    table = IntervalTable("exp_vn", np.int64(8))
    assert table == IntervalTable("exp_vn", 8) and type(table.K) is int
    assert dump_table(table) == dump_table(IntervalTable("exp_vn", 8))


def test_raw_table_construction_is_validated():
    with pytest.raises(ValueError):
        IntervalTable("exp_brent", (0.0, 1.0, 0.5))
    with pytest.raises(ValueError):
        IntervalTable("nope", (0.0, 1.0))
    with pytest.raises(ValueError):
        IntervalTable("nope")
    for bad in (0, 65, 2.5):
        with pytest.raises(ValueError):
            IntervalTable("exp_brent", bad)
    # a table is its scheme and K: every other field is computed, so no
    # boundaries or masses of another law can be passed in
    assert list(inspect.signature(IntervalTable).parameters) == ["scheme", "K"]
    vn = IntervalTable("exp_vn", 8)
    wrong_masses = tuple(0.1 * k for k in range(1, 9))
    half_wide = tuple(0.5 * k for k in range(9))
    with pytest.raises(TypeError):
        IntervalTable("exp_vn", vn.boundaries, cum_probs=wrong_masses)
    with pytest.raises(ValueError):
        IntervalTable("exp_brent", half_wide)
    with pytest.raises(ValueError):
        IntervalTable("exp_vn", vn.boundaries)
    for keyword, value in (("cum_probs", vn.cum_probs),
                           ("boundaries_sq", (0.0, 1.0)),
                           ("boundaries", vn.boundaries)):
        with pytest.raises(TypeError):
            IntervalTable("exp_vn", 8, **{keyword: value})
    # a stale positional K after the boundaries is refused too
    with pytest.raises(TypeError):
        IntervalTable("exp_brent", (0.0, 0.5, 1.0), 2)
    # the named builders give the same tables
    for scheme in tables.SCHEMES:
        builder = getattr(tables, f"build_{scheme}")
        assert builder(8) == IntervalTable(scheme, 8)
        assert builder() == IntervalTable(scheme, tables.DEFAULT_TABLE_LEN)


def test_raw_table_rejects_a_shifted_exponent_above_one(monkeypatch):
    # the run test needs g <= 1: an exponential interval wider than 1
    monkeypatch.setitem(tables._LAYOUTS, tables.EXP_BRENT,
                        lambda K: ((0.0, 1.5), None, None))
    with pytest.raises(ValueError, match="shifted exponent"):
        IntervalTable("exp_brent", 1)


@pytest.mark.parametrize("scheme", tables.SCHEMES)
def test_per_interval_constants_match_the_boundaries(scheme):
    # by_k: one row per interval; the selection folds k > K into K
    for K in (1, 8, 53, 64):
        t = IntervalTable(scheme, K)
        sq = t.boundaries_sq
        assert len(t.by_k) == K
        for k in range(1, K + 1):
            lo, hi = t.interval(k)
            if t.is_normal:
                row = (lo, hi - lo, (sq[k] - sq[k - 1]) * 0.5, sq[k - 1])
            else:
                row = (lo, hi - lo, hi - lo, None)
            assert t.by_k[k - 1] == row
            assert t.gmax(k) == row[2]


def test_select_interval_dyadic_frequency():
    t = build_exp_brent(53)
    src = UniformSource(424242, recycling=False)
    n = 1_000_000
    hits = sum(1 for _ in range(n) if select_interval(t, src) == 3)
    p = 0.125
    assert abs(hits - n * p) < 4 * math.sqrt(p * (1 - p) * n)


def test_select_interval_explicit_frequency():
    t = build_normal_forsythe(53)
    src = UniformSource(434343, recycling=False)
    n = 1_000_000
    hits = sum(1 for _ in range(n) if select_interval(t, src) == 1)
    p = t.selection_probability(1)
    assert abs(hits - n * p) < 4 * math.sqrt(p * (1 - p) * n)


def test_select_interval_clamps_to_table_length():
    # a word with four leading zeros wants k = 5; a K = 2 table folds it
    word = 1 << (53 - 5)
    src = UniformSource(0, engine=FakeEngine([raw_from_word(word)]),
                        recycling=False)
    assert select_interval(build_exp_brent(2), src) == 2
    # explicit scheme: a uniform beyond the stored cumulative mass clamps too
    top = raw_from_word(2 ** 53 - 1)
    src = UniformSource(0, engine=FakeEngine([top]))
    assert select_interval(build_normal_forsythe(3), src) == 3


def test_dump_format_round_trips():
    t = build_normal_brent(32)
    text = dump_table(t)
    lines = text.strip().split("\n")
    assert lines[0] == "#scheme=normal_brent K=32"
    assert len(lines) == 33
    prev_hi = 0.0
    for k, line in enumerate(lines[1:], start=1):
        fields = line.split(" ")
        assert int(fields[0]) == k
        lo, hi, q, gmax = map(float, fields[1:])
        assert lo == t.boundaries[k - 1] and hi == t.boundaries[k]
        assert q == 2.0 ** -k
        assert hi > prev_hi
        prev_hi = hi
    # 17 significant digits round-trip bit-exactly
    assert float(lines[1].split(" ")[2]) == t.boundaries[1]


# SHA-256 of the dump of each scheme's table at K = 8 and K = 53.  Any
# change to a boundary, mass or gmax formula shows here.
DUMP_PINS = {
    ("exp_vn", 8):
        "b046af8ef5f45066a19c2b82e7eddf9d951e7cc6c089372af09afbc612548467",
    ("exp_vn", 53):
        "beca0e8dd8c924bef1674aa4a81270e8718fc8bd012763401b455f606b71d0a5",
    ("exp_brent", 8):
        "907279f8736489bef89a5da9d1eb50e0e2d805a41304bf978059ce77cde3c589",
    ("exp_brent", 53):
        "3d76465b1f9b32cc37c34e6293b92c553df0d4d5f46e15e0c9f8fdfad0a2cc31",
    ("normal_forsythe", 8):
        "cc2e02ee365001885aeb30dc8b927e433746d98ef4215abc02a54b6ac8c85e7f",
    ("normal_forsythe", 53):
        "a40bdf99567784528eae0a0af09d5ee6e354f149e4f918e822d591e66d52ad42",
    ("normal_brent", 8):
        "45e4ebadf24bb51e6f01184dea6125c7de652cf32fe7b0a2c3f30823bbbfd262",
    ("normal_brent", 53):
        "2b9da9bfd60f3c37b3d81ad3e1c68fbc421ce0c8fe9c4ebb090840b366a58adc",
}


@pytest.mark.parametrize(("scheme", "K"), sorted(DUMP_PINS))
def test_table_dumps_are_pinned(scheme, K):
    text = dump_table(IntervalTable(scheme, K))
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_PINS[scheme, K]
