"""Uniform source: draw accounting, bit repackaging, recycling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvn import bitstream, samplers
from fvn.bitstream import WORD_BITS, UniformSource
from fvn.comparison import run_test

W = WORD_BITS


class FakeEngine:
    """Cycles a fixed list of 64-bit raw words."""

    def __init__(self, words):
        self._words = [int(w) % 2 ** 64 for w in words]
        self._i = 0

    def random_raw(self, size):
        out = np.empty(size, dtype=np.uint64)
        for j in range(size):
            out[j] = self._words[self._i % len(self._words)]
            self._i += 1
        return out


def raw_from_word(word53):
    # engine words are 64-bit; the source keeps the top 53
    return word53 << 11


def test_fresh_uniform_counts_one_draw():
    src = UniformSource(1)
    u = src.next_uniform()
    assert 0.0 <= u < 1.0
    assert src.draws == 1


def test_fresh_uniforms_are_fixed_point():
    src = UniformSource(5)
    for _ in range(1000):
        u = src.next_uniform()
        assert (u * 2.0 ** W) == int(u * 2.0 ** W)


def test_recycled_value_takes_priority_and_costs_nothing():
    src = UniformSource(1)
    src.recycle_pair(0.0, 0.5)
    assert src.recycled == [0.5]
    assert src.next_uniform() == 0.5
    assert src.draws == 0


def test_equal_seeds_give_identical_streams():
    a = UniformSource(987654321)
    b = UniformSource(987654321)
    assert [a.next_uniform() for _ in range(1000)] == \
           [b.next_uniform() for _ in range(1000)]


def test_different_seeds_differ():
    a = UniformSource(1)
    b = UniformSource(2)
    assert [a.next_uniform() for _ in range(10)] != \
           [b.next_uniform() for _ in range(10)]


def test_seed_validation():
    with pytest.raises(ValueError):
        UniformSource(-1)
    with pytest.raises(ValueError):
        UniformSource(2 ** 64)
    # the word length is fixed: a second positional argument is refused
    with pytest.raises(TypeError):
        UniformSource(0, W)
    # a numpy integer seed is its value; a bool is not a seed
    plain = UniformSource(5)
    stream = [plain.next_uniform() for _ in range(10)]
    for seed in (np.uint64(5), np.int64(5)):
        src = UniformSource(seed)
        assert [src.next_uniform() for _ in range(10)] == stream
    with pytest.raises(ValueError):
        UniformSource(True)


def test_geometric_index_top_bit_set_gives_one():
    # u in [1/2, 1): no leading zeros
    src = UniformSource(0, engine=FakeEngine([raw_from_word(1 << (W - 1))]))
    assert src.geometric_index() == 1


def test_geometric_index_u_point_three_gives_two():
    # 0.3 in binary is 0.0100...: one leading zero
    word = int(0.3 * 2 ** W)
    src = UniformSource(0, engine=FakeEngine([raw_from_word(word)]))
    assert src.geometric_index() == 2


def test_geometric_index_all_zero_word_clamps_to_wordlength():
    src = UniformSource(0, engine=FakeEngine([0]))
    assert src.geometric_index() == W
    assert src.recycled == []


def test_geometric_index_repackages_leftover_bits():
    # word 0b001<tail>: k = 3, tail must come back left-justified
    tail = 0b1011
    word = (1 << (W - 3)) | tail
    src = UniformSource(0, engine=FakeEngine([raw_from_word(word)]))
    assert src.geometric_index() == 3
    assert src.recycled == [(tail << 3) * 2.0 ** -W]
    assert src.draws == 1


def test_geometric_index_marginal_frequencies():
    """Empirical Prob(k) vs 2^-k, binomial four-sigma bands, k <= 10."""
    n = 1_000_000
    src = UniformSource(20240617, recycling=False)
    counts = np.zeros(W + 1, dtype=int)
    for _ in range(n):
        counts[src.geometric_index()] += 1
    assert src.draws == n
    for k in range(1, 11):
        p = 2.0 ** -k
        sigma = math.sqrt(p * (1 - p) * n)
        assert abs(counts[k] - n * p) < 4 * sigma, f"k={k}"


def test_recycle_pair_exact_arithmetic():
    src = UniformSource(0)
    src.recycle_pair(0.25, 0.625)
    assert src.recycled == [0.5]
    src.recycled.clear()
    src.recycle_pair(0.0, 0.8125)
    assert src.recycled == [0.8125]


def test_recycle_pair_rejects_decreasing_pair():
    src = UniformSource(0)
    with pytest.raises(ValueError):
        src.recycle_pair(0.7, 0.3)


def test_recycle_pair_skips_degenerate_and_disabled():
    src = UniformSource(0)
    src.recycle_pair(1.0, 1.0)
    assert src.recycled == []
    src = UniformSource(0, recycling=False)
    src.recycle_pair(0.25, 0.625)
    assert src.recycled == []


def test_recycled_values_from_live_runs_are_uniform():
    """KS on 2.5e5 terminal-pair leftovers from real run tests, per g.

    Testing each g on its own catches a g-dependent bias that pooling
    could average away; alpha = 1e-4 per g keeps the false-alarm rate of
    the four tests near 4e-4.
    """
    n = 250_000
    alpha = 1e-4
    critical = math.sqrt(0.5 * math.log(2.0 / alpha) / n)   # 0.00445
    for g in (0.2, 0.5, 0.9, 1.0):
        src = UniformSource(31337, recycling=True)
        values = []
        while len(values) < n:
            run_test(g, src)
            values.extend(src.recycled)
            src.recycled.clear()
        x = np.sort(values[:n])
        d = max(np.max(np.arange(1, n + 1) / n - x),
                np.max(x - np.arange(0, n) / n))
        assert d < critical, (g, d)


def test_random_sign_is_balanced():
    n = 1_000_000
    src = UniformSource(77)
    plus = sum(1 for _ in range(n) if src.random_sign() == 1)
    sigma = math.sqrt(0.25 * n)
    assert abs(plus - n / 2) < 4 * sigma


def test_random_sign_deterministic_and_bit_pooled():
    n = 10_007
    a = UniformSource(5)
    b = UniformSource(5)
    assert [a.random_sign() for _ in range(n)] == \
           [b.random_sign() for _ in range(n)]
    # one word serves WORD_BITS calls
    assert a.draws == math.ceil(n / W)


def test_injected_engine_is_used():
    src = UniformSource(0, engine=FakeEngine([raw_from_word(1 << (W - 1))]))
    assert src.next_uniform() == 0.5


@pytest.mark.parametrize("engine", ["PCG64", "PCG64DXSM", "Philox", "SFC64",
                                    "MT19937"])
def test_numpy_engines_give_full_range_uniforms(engine):
    """An engine of 64-bit words fills [0, 1); MT19937's 32-bit words
    would put every uniform below 2**-32, so it is refused."""
    bit_generator = getattr(np.random, engine)(5)
    if engine == "MT19937":
        with pytest.raises(ValueError, match="64-bit words"):
            UniformSource(0, engine=bit_generator)
        return
    src = UniformSource(0, engine=bit_generator)
    u = np.array([src.next_uniform() for _ in range(10_000)])
    assert u.max() > 0.99
    assert 0.49 <= u.mean() <= 0.51


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["uniform", "word", "geometric", "sign"]),
                min_size=1, max_size=300),
       st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_draw_accounting_matches_declared_costs(ops, seed):
    """draws == sum of declared per-operation costs for any interleaving."""
    src = UniformSource(seed, recycling=True)
    expected = 0
    sign_calls = 0
    for op in ops:
        if op == "uniform":
            if not src.recycled:
                expected += 1
            src.next_uniform()
        elif op == "word":
            expected += 1
            src.next_word()
        elif op == "geometric":
            expected += 1
            src.geometric_index()
        else:
            if sign_calls % W == 0:
                expected += 1
            sign_calls += 1
            src.random_sign()
    assert src.draws == expected


def _reference_run(src, start):
    """The descending run spelled out with one next_uniform call per value,
    as ``(n, u_n, u_next)``."""
    prev, n = start, 0
    while True:
        u = src.next_uniform()
        n += 1
        if not u < prev:
            break
        prev = u
    src.recycle_pair(prev, u)
    return n, prev, u


@pytest.mark.parametrize("recycling", [False, True])
def test_descending_run_matches_a_next_uniform_loop(recycling):
    """run_test against the loop above: same n, terminal pair, recycled
    store and draws after every run, over 24,576 words of runs that cross
    many engine refills."""
    buffer_words = bitstream._BUFFER_WORDS
    fast = UniformSource(2468, recycling=recycling)
    slow = UniformSource(2468, recycling=recycling)
    straddles = 0
    g_cycle = (0.2, 0.5, 0.9, 1.0)
    i = 0
    while fast.draws < 24 * buffer_words:
        g = g_cycle[i % len(g_cycle)]
        i += 1
        before = fast.draws
        r = run_test(g, fast)
        assert (r.n, *r.terminal_pair) == _reference_run(slow, g)
        assert fast.recycled == slow.recycled
        assert fast.draws == slow.draws
        if before // buffer_words < (fast.draws - 1) // buffer_words:
            straddles += 1
    assert straddles >= 1


@pytest.mark.parametrize("recycling", [False, True])
def test_descending_run_straddling_a_refill(recycling):
    """At g = 1 run_test has n >= 2, so one started on the last word of the
    buffer always reads into the next one.  The second input pre-fills the
    recycled store on both twins with values that descend just below 1:
    the run drains the store, then reads on through the last word into
    the refill."""
    buffer_words = bitstream._BUFFER_WORDS
    for stored in ([], [1.0 - 2.0 ** -30, 1.0 - 2.0 ** -40]):
        fast = UniformSource(97, recycling=recycling)
        slow = UniformSource(97, recycling=recycling)
        for src in (fast, slow):
            for _ in range(buffer_words - 1):
                src.next_uniform()
            src.recycled.extend(stored)
        r = run_test(1.0, fast)
        assert (r.n, *r.terminal_pair) == _reference_run(slow, 1.0)
        assert fast.draws == slow.draws > buffer_words
        assert fast.recycled == slow.recycled
        assert [fast.next_uniform() for _ in range(10)] == \
               [slow.next_uniform() for _ in range(10)]


def test_descending_run_spends_recycled_values_first():
    src = UniformSource(5)
    src.recycled.extend([0.6, 0.3, 0.75])      # popped last-in first
    r = run_test(1.0, src)
    assert (r.n, *r.terminal_pair) == (3, 0.3, 0.6)
    assert src.draws == 0
    assert src.recycled == [(0.6 - 0.3) / (1.0 - 0.3)]


def test_descending_run_cap_also_holds_on_recycled_values():
    src = UniformSource(0)
    src.recycled.extend((k + 1) / 128 for k in range(64))   # 0.5 popped first
    with pytest.raises(RuntimeError, match="run length exceeded"):
        run_test(1.0, src)
    assert src.draws == 0


class FailOnceEngine:
    """PCG64 whose ``fail_on``-th ``random_raw`` call raises before it
    draws anything, as a device or entropy source might fail, or, with
    ``empty``, returns no words at all."""

    def __init__(self, seed, fail_on, empty=False):
        self._engine = np.random.PCG64(seed)
        self._calls = 0
        self._fail_on = fail_on
        self._empty = empty

    def random_raw(self, size):
        self._calls += 1
        if self._calls == self._fail_on:
            if self._empty:
                return np.empty(0, dtype=np.uint64)
            raise OSError("engine failed")
        return self._engine.random_raw(size)


_EXP_BRENT = samplers.default_config(samplers.EXP_BRENT).table
_FORSYTHE = samplers.default_config(samplers.NORMAL_FORSYTHE).table

# Each step with the words left in the buffer before it, so that its
# refill comes where named: at once, inside the run (g = 1 reads at least
# two values), at the run's first value after selection and position, or
# at the selection right after a fresh sign word.  Last, the sign bits
# the step leaves in the pool.
REFILL_STEPS = {
    "next_uniform": (0, lambda src: src.next_uniform(), 0),
    "next_word": (0, lambda src: src.next_word(), 0),
    "run_test": (1, lambda src: run_test(1.0, src), 0),
    "comparison_draw": (
        2, lambda src: next(src.comparison_variates(_EXP_BRENT)), 0),
    "comparison_draw_after_sign": (
        1, lambda src: next(src.comparison_variates(_FORSYTHE)), W - 1),
    "comparison_fill": (2, lambda src: src.fill_variates(_EXP_BRENT, 1), 0),
    "comparison_fill_after_sign": (
        1, lambda src: src.fill_variates(_FORSYTHE, 1), W - 1),
}


# Each step under an engine that raises once and, with ids of their own,
# under one that returns no words once.
_REFILL_FAULTS = [
    *(pytest.param(step, False, OSError, "engine failed", id=step)
      for step in sorted(REFILL_STEPS)),
    *(pytest.param(step, True, RuntimeError, "engine returned no words",
                   id=f"{step}-empty")
      for step in sorted(REFILL_STEPS)),
]


@pytest.mark.parametrize("step, empty, error, message", _REFILL_FAULTS)
def test_failed_refill_leaves_draws_at_the_words_consumed(step, empty, error,
                                                          message):
    """An engine that fails once costs no word and skips none: draws
    counts the whole used-up buffer, a sign bit drawn before the failure
    stays spent, and once the engine recovers the stream goes on where a
    twin whose engine never failed would.  An engine that returns no
    words fails the same way, with a ``RuntimeError``."""
    buffer_words = bitstream._BUFFER_WORDS
    left, call, sign_bits = REFILL_STEPS[step]
    src = UniformSource(0, engine=FailOnceEngine(31, fail_on=2, empty=empty),
                        recycling=False)
    for _ in range(buffer_words - left):
        src.next_word()
    with pytest.raises(error, match=message):
        call(src)
    assert src._sign_bits == sign_bits
    assert src.draws == buffer_words
    twin = UniformSource(31)
    for _ in range(buffer_words):
        twin.next_word()
    assert [src.next_word() for _ in range(20)] == \
           [twin.next_word() for _ in range(20)]
    assert src.draws == twin.draws
