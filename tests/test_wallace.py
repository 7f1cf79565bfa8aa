"""Pool generator: orthogonality, norm conservation, emitted distribution;
the compiled regroup against the numpy one, with the fill and with it
forced off, and the pools that only the numpy regroup may take; the
compiled pass of a bound draw against ``_next_pass``, and the draws that
keep the Python pass."""

import functools
import gc
import hashlib
import math
import struct
import weakref
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from fvn import _fill, samplers, wallace
from fvn.bitstream import UniformSource
from fvn.stats import ks_test, measure_consumption, moments
from fvn.wallace import (BLOCK, DEFAULT_POOL_SIZE, ORTHO_Q, NormalPool,
                         _block_permutation, emit_passes, init_pool,
                         next_normal, refresh)
from tests.test_comparison_draw import (  # noqa: F401
    OverridesRandomRaw, RawOnly, WeakPCG64, binding, fill_only, over_entries,
    waits_for_the_lock)


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


# The two entries that emit a pool: ``next_normal`` moves ``read_cursor``,
# the draw of ``emit_passes`` (the bound sampler's) leaves it at 0.
ENTRIES = ("next_normal", "emit_passes")


def emitter(entry, pool, src):
    """A zero-argument draw of ``pool`` through ``entry``."""
    if entry == "next_normal":
        return functools.partial(next_normal, pool, src)
    return emit_passes(pool, src)


@pytest.mark.parametrize("entry", ENTRIES)
def test_next_normal_walks_the_pool_then_refreshes(entry):
    src = UniformSource(607)
    pool = init_pool(256, src)
    draw = emitter(entry, pool, src)
    first_pass = [draw() for _ in range(256)]
    assert pool.pass_count == 0
    draw()
    assert pool.pass_count == 1
    assert pool.read_cursor == (1 if entry == "next_normal" else 0)
    scale = pool.emit_scale
    assert first_pass[0] != pytest.approx(first_pass[1])
    assert scale > 0.0


@pytest.mark.parametrize("entry", ENTRIES)
def test_emitted_stream_deterministic(entry):
    def emit(seed, n):
        src = UniformSource(seed)
        draw = emitter(entry, init_pool(256, src), src)
        return [draw() for _ in range(n)]

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


@pytest.mark.parametrize("entry", ENTRIES)
def test_emission_reads_the_snapshot_of_the_pass(entry):
    src = UniformSource(613)
    pool = init_pool(256, src)
    draw = emitter(entry, pool, src)
    snapshot = pool.values * pool.emit_scale
    head = [draw() for _ in range(10)]
    refresh(pool, src)                      # mid-pass: not seen until the next
    tail = [draw() for _ in range(246)]
    assert head + tail == snapshot.tolist()
    assert draw() == pool.values[0] * pool.emit_scale
    assert pool.pass_count == 2


class WordSource:
    """Hands ``refresh`` the words it is given, in order."""

    def __init__(self, words):
        self.words = iter(words)

    def next_word(self):
        return next(self.words)


def numpy_regroup(values, word, pass_count):
    """The regroup as numpy spells it, each output summed as
    ((x0 q0 + x1 q1) + x2 q2) + x3 q3: the spec of both spellings."""
    idx = _block_permutation(values.size, word)
    q = ORTHO_Q if pass_count % 2 == 0 else ORTHO_Q.T
    x = values[idx].reshape(-1, BLOCK)
    values[idx] = (((x[:, 0:1] * q[:, 0] + x[:, 1:2] * q[:, 1])
                    + x[:, 2:3] * q[:, 2]) + x[:, 3:4] * q[:, 3]).ravel()


@functools.cache
def bootstrap_values(size):
    return init_pool(size, UniformSource(615)).values.tobytes()


# Values off the normal range, where the order of a block's sums shows in
# the bytes: the sign of a zero, a subnormal's rounding, inf - inf, NaN.
OFF_NORMAL = (0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, -3.5e-310,
              math.inf, -math.inf, math.nan, 1e308, -1e308)


@st.composite
def pool_values(draw, size):
    """The first ``size`` bootstrap values, a drawn share of them replaced
    by values of OFF_NORMAL."""
    values = np.frombuffer(bootstrap_values(max(size, 256)))[:size].copy()
    share = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    hit = rng.random(size) < share
    values[hit] = rng.choice(OFF_NORMAL, size=int(hit.sum()))
    return values


def nan_blind_bytes(values):
    """The bytes of ``values`` with every NaN written as one NaN.  IEEE 754
    leaves open which NaN a sum of two NaNs returns, and gcc orders the
    operands of each sum as it likes, so the sign of a NaN made from a NaN
    and a -NaN is not the order's to keep."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


REFRESH_PASSES = 64     # even and odd passes: Q and its transpose


# 4 and 8: hand-built pools whose stride wraps at almost every step; 1020
# bumps the stride past gcds
@over_entries("size", [4, 8, 256, 1020, 4096])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # inf - inf, overflow
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(),
       words=st.lists(st.integers(min_value=0, max_value=2 ** 53 - 1),
                      min_size=REFRESH_PASSES, max_size=REFRESH_PASSES))
def test_refresh_is_the_numpy_regroup_bit_for_bit(size, data, words):
    values = data.draw(pool_values(size))
    pool = NormalPool(values=values.copy(), pass_count=0, norm_sq=1.0,
                      read_cursor=0, emit_scale=1.0)
    src = WordSource(words)
    for i, word in enumerate(words):
        numpy_regroup(values, word, i)
        refresh(pool, src)
        assert nan_blind_bytes(pool.values) == nan_blind_bytes(values), i
        assert pool.pass_count == i + 1


EMIT_PASS_PINS = {
    256: ("a046331a38e29a8bd933278e6caa0aab6ab855ca0a7073b75e7af046a4d07996", 907),
    4096: ("7464737c847506af8276f12a5e1adcbfcbca5bfd07d59f8393de5ebadd0b7776",
           14763),
}


@over_entries("size", list(EMIT_PASS_PINS))
def test_emit_passes_is_pinned_across_three_refreshes(size):
    """Each value and the ``draws`` after it, over three passes and the
    first value of a fourth, are the same on both regroups."""
    src = UniformSource(614, recycling=False)
    pool = init_pool(size, src)
    draw = emit_passes(pool, src)
    sha = hashlib.sha256()
    for _ in range(3 * size + 1):
        sha.update(struct.pack("<dq", draw(), src.draws))
    assert (sha.hexdigest(), src.draws) == EMIT_PASS_PINS[size]
    assert pool.pass_count == 3


def read_only(values):
    values.flags.writeable = False
    return values


# Hand-built pool values that C cannot read in place.
UNREADABLE_LAYOUTS = pytest.mark.parametrize("make_values", [
    lambda: np.arange(256, dtype=np.float32),
    lambda: np.arange(512.0)[::2],              # a strided view
    lambda: np.arange(258.0),                   # not a multiple of BLOCK
    lambda: read_only(np.arange(256.0)),
    lambda: np.arange(256.0).reshape(-1, BLOCK),
], ids=["float32", "strided", "size-258", "read-only", "2-d"])


@UNREADABLE_LAYOUTS
def test_pools_c_cannot_read_take_the_numpy_regroup(make_values, monkeypatch):
    """A hand-built pool whose values are not 1-D, C-contiguous, writeable
    float64 with a size that is a multiple of BLOCK never reaches
    ``fvn_refresh``: it gets the numpy regroup's result or its error."""
    def outcome(lib):
        monkeypatch.setattr(_fill, "library", lambda: lib)
        pool = NormalPool(values=make_values(), pass_count=0, norm_sq=1.0,
                          read_cursor=0, emit_scale=1.0)
        src = UniformSource(616)
        try:
            refresh(pool, src)
        except (ValueError, IndexError) as exc:
            result = type(exc), str(exc)
        else:
            result = pool.values.tobytes()
        return result, pool.pass_count, src.draws

    class Refuses:
        def fvn_refresh(self, *args):
            raise AssertionError("fvn_refresh was handed a pool C cannot read")

    assert outcome(Refuses()) == outcome(None)


def test_a_pool_c_can_read_reaches_the_compiled_regroup(monkeypatch):
    calls = []

    class Records:
        def fvn_refresh(self, *args):
            calls.append(args)

    monkeypatch.setattr(_fill, "library", lambda: Records())
    values = np.arange(256.0)
    pool = NormalPool(values=values, pass_count=1, norm_sq=1.0,
                      read_cursor=0, emit_scale=1.0)
    refresh(pool, WordSource([(5 << 32) | 6]))
    # the pool's own values, stride 7 (6 | 1), offset 5, the transpose on
    # an odd pass
    assert len(calls) == 1
    got, stride, offset, q = calls[0]
    assert got is values and (stride, offset) == (7, 5)
    assert q is wallace._ORTHO_Q_T
    assert pool.pass_count == 2


# The compiled pass: the draw of ``emit_passes`` begins each pass itself
# on an engine the fill reads.

PASSES = 40     # even and odd passes: Q and its transpose
# A recycled store, popped from its end: two passes' u1 and u2, then a u1
# of 0, which is drawn again.
STORE = [0.0, 0.5, 0.125, 0.75, 0.375]


def refuse_python_pass(monkeypatch):
    """Makes ``wallace._next_pass`` fail the test when a draw calls it, and
    returns the real one, the spec of the compiled pass."""
    def refuse(*args):
        raise AssertionError("the Python pass ran")

    spec = wallace._next_pass
    monkeypatch.setattr(wallace, "_next_pass", refuse)
    return spec


def source_fields(src):
    return (src.draws, src._pos, src._spent, src._floats.tobytes(),
            list(src.recycled))


def pool_fields(pool):
    return (pool.emitted.tobytes(), pool.values.tobytes(), pool.pass_count,
            pool.emit_scale)


@fill_only
@pytest.mark.parametrize("case", ["recycled", "u1-zero", "runs-out"])
@pytest.mark.parametrize("size", [256, 1020, 4096])   # 1020: stride bumps
def test_the_compiled_pass_is_next_pass_bit_for_bit(size, case, monkeypatch):
    """After each of 40 passes begun by the draw, the values emitted,
    the pool's bytes, ``pass_count``, ``emit_scale``, ``draws`` and the
    source's buffer, position, spent words and recycled store are those of
    ``_next_pass`` on a twin.  Each source's buffer is refilled once after
    the bootstrap, as a direct call refills it.  "recycled": recycling on,
    with a scripted store popped for Box-Muller's uniforms, whose third
    u1 is 0 (the bootstrap's own scale pops what its fill leaves);
    "u1-zero": a scripted u1 of 0 makes Box-Muller draw u1 again;
    "runs-out": the buffer runs out in the middle of the first pass, and
    the compiled pass refills it in place, as the fill does, where
    ``_refill`` replaces the twin's."""
    pools = []
    for _ in range(2):
        src = UniformSource(40 + size, recycling=case == "recycled")
        pool = init_pool(size, src)
        src._refill()
        if case == "recycled":
            src.recycled[:] = STORE
        elif case == "u1-zero":
            src._floats[src._pos + 1] = 0.0
        elif case == "runs-out":
            src._pos = len(src._floats) - 2
        pools.append((pool, src))
    (pool, src), (twin_pool, twin) = pools
    spent = twin._spent
    spec = refuse_python_pass(monkeypatch)
    draw = emit_passes(pool, src)
    for _ in range(size):
        draw()
    for n in range(PASSES):
        before = twin.draws
        values = [draw()]
        spec(twin_pool, twin)
        assert pool_fields(pool) == pool_fields(twin_pool), n
        assert source_fields(src) == source_fields(twin), n
        values += [draw() for _ in range(size - 1)]
        assert array("d", values).tobytes() == twin_pool.emitted.tobytes()
        if n == 0:
            # the word, a retried u1 and u2; or two pops from the store
            assert twin.draws - before == {"u1-zero": 4,
                                           "recycled": 1}.get(case, 3)
            assert len(twin.recycled) == 3 * (case == "recycled")
            assert (twin._spent > spent) == (case == "runs-out")
    assert pool.pass_count == PASSES


@fill_only
def test_the_compiled_pass_waits_for_the_engine_lock(monkeypatch):
    """The draw that begins a pass returns only once another thread lets
    the engine's lock go."""
    engine = np.random.PCG64(4)
    src = UniformSource(0, engine=engine, recycling=False)
    pool = init_pool(256, src)
    draw = emit_passes(pool, src)
    refuse_python_pass(monkeypatch)
    for _ in range(256):
        draw()
    before = src.draws
    assert waits_for_the_lock(engine, draw)
    assert src.draws == before + 3 and pool.pass_count == 1


@fill_only
def test_the_compiled_pass_lets_its_pool_and_source_go_with_it(monkeypatch):
    """The draw holds the pool, its source, the engine and the snapshot
    while it lives, beginning passes itself, and lets them go, with no
    garbage collection, when it goes."""
    src = UniformSource(0, engine=WeakPCG64(5), recycling=False)
    pool = init_pool(256, src)
    draw = emit_passes(pool, src)
    refuse_python_pass(monkeypatch)
    held = [weakref.ref(obj) for obj in (pool, src, src._engine,
                                         pool.emitted, pool.values)]
    del src, pool
    for _ in range(3 * 256 + 1):
        draw()
    assert held[0]().pass_count == 3
    assert all(ref() is not None for ref in held)
    gc.disable()
    try:
        del draw
        assert [ref() for ref in held] == [None] * 5
    finally:
        gc.enable()


def python_passes(monkeypatch):
    """Counts the calls of ``wallace._next_pass``, which still runs."""
    calls = []
    spec = wallace._next_pass

    def spy(pool, src):
        calls.append(pool.pass_count)
        spec(pool, src)

    monkeypatch.setattr(wallace, "_next_pass", spy)
    return calls


@fill_only
@pytest.mark.parametrize("make_engine", [
    lambda: RawOnly(np.random.PCG64(7)),
    lambda: OverridesRandomRaw(7),
], ids=["raw-only", "overrides-random-raw"])
def test_an_engine_the_fill_cannot_read_keeps_the_python_pass(make_engine,
                                                              monkeypatch):
    """With the library loaded, the draw on an engine read through
    ``random_raw`` only is the module's ``Draw`` with ``_next_pass`` as
    its refill: the values and ``draws`` of ``next_normal`` on a twin."""
    src, twin = (UniformSource(0, engine=make_engine(), recycling=False)
                 for _ in range(2))
    pool, twin_pool = init_pool(256, src), init_pool(256, twin)
    expected = [(next_normal(twin_pool, twin), twin.draws)
                for _ in range(3 * 256 + 1)]
    calls = python_passes(monkeypatch)
    draw = emit_passes(pool, src)
    assert type(draw) is _fill.library().Draw
    assert [(draw(), src.draws) for _ in expected] == expected
    assert calls == [0, 1, 2]


@UNREADABLE_LAYOUTS
def test_pools_c_cannot_read_keep_the_python_pass(make_values, monkeypatch):
    """A hand-built pool whose values C cannot read, bound by
    ``emit_passes``, begins its pass with ``_next_pass`` when the library
    loads, with the values or the error it gives with no library."""
    calls = python_passes(monkeypatch)

    def outcome(lib):
        calls.clear()
        monkeypatch.setattr(_fill, "library", lambda: lib)
        values = make_values()
        pool = NormalPool(values=values, pass_count=0, norm_sq=1.0,
                          read_cursor=0, emit_scale=1.0,
                          emitted=array("d", bytes(8 * values.size)))
        src = UniformSource(617, recycling=False)
        draw = emit_passes(pool, src)
        out = []
        for _ in range(values.size + 2):
            try:
                out.append(draw())
            except (ValueError, IndexError) as exc:
                out.append((type(exc), str(exc)))
        return out, pool.pass_count, src.draws, list(calls)

    loaded = _fill.library()
    assert outcome(None) == outcome(loaded)
    assert calls
