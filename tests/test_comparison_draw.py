"""The fused comparison kernel against the same draw composed from the
source's public steps, value by value and state by state."""

import gc
import random

import numpy as np
import pytest

from fvn import bitstream, samplers, tables
from fvn.bitstream import MAX_RUN_LENGTH, UniformSource
from fvn.samplers import default_config, make_sampler
from tests.test_bitstream import FailOnceEngine, FakeEngine, raw_from_word

KINDS = (samplers.EXP_VN, samplers.EXP_BRENT, samplers.NORMAL_FORSYTHE,
         samplers.NORMAL_GRAND)


def reference_draw(table, src):
    """The comparison method as separate calls: a pooled sign bit, the
    interval selection, a position uniform and the descending run, with the
    shifted exponent from the table's own method."""
    sign = src.random_sign() if table.is_normal else 1
    while True:
        k = tables.select_interval(table, src)
        lo, hi = table.interval(k)
        width = hi - lo
        while True:
            if table.is_normal:
                x = lo + width * src.next_uniform()
                g = table.shifted_exponent(k, x)
            else:
                # the kernel's arithmetic, x = lo + g, not g = x - lo;
                # g < width = gmax(k) needs no clamp
                g = width * src.next_uniform()
                x = lo + g
            if src.descending_run(g)[0] & 1:
                return sign * x
            if table.restarts:
                break


def state(src):
    # Not the buffer offset: a variate rolled back at a buffer's end starts
    # the next buffer at its own first word, so the offsets of two sources
    # in the same state can differ.  ``draws`` counts the words either way.
    return (src.draws, list(src.recycled), src._sign_bits, src._sign_word)


def kernel_and_reference(kind, recycling, make_source):
    """A bound kernel on one source and the reference draw on a twin, each
    built by ``make_source(recycling)``."""
    config = default_config(kind, recycling=recycling)
    fast, slow = (make_source(config.recycling_enabled) for _ in range(2))
    draw = make_sampler(config, fast)

    def reference():
        return reference_draw(config.table, slow)

    return draw, fast, reference, slow


class GridEngine:
    """PCG64 words with only their top ``bits`` bits kept: an injected
    engine whose uniforms lie on a 2**-bits grid.  At 53 bits the source
    gives exactly the stream of ``UniformSource(seed)``."""

    def __init__(self, seed, bits):
        self._pcg = np.random.PCG64(seed)
        self._mask = np.uint64(((1 << bits) - 1) << (64 - bits))

    def random_raw(self, size):
        return self._pcg.random_raw(size) & self._mask


@pytest.mark.parametrize("seed", [3, 1009, 2 ** 63 + 11])
@pytest.mark.parametrize("engine_bits", [53, 24])
@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_matches_the_composed_draw(kind, recycling, engine_bits, seed):
    """Same value, draws, recycled store and sign pool after every variate,
    over 8,256 words and the engine refills among them."""
    draw, fast, reference, slow = kernel_and_reference(
        kind, recycling, lambda r: UniformSource(
            0, engine=GridEngine(seed, engine_bits), recycling=r))
    while fast.draws < 8 * bitstream._BUFFER_WORDS + 64:
        assert draw() == reference()
        assert state(fast) == state(slow)


@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_variate_straddling_a_refill(kind, recycling):
    """Variates started on each of the last words of a buffer: the refill
    lands in turn on the sign word, the selection, the position and the
    run."""
    buffer_words = bitstream._BUFFER_WORDS
    for left in range(1, 8):
        draw, fast, reference, slow = kernel_and_reference(
            kind, recycling, lambda r: UniformSource(41 + left, recycling=r))
        for src in (fast, slow):
            for _ in range(buffer_words - left):
                src.next_word()
        while fast.draws <= buffer_words:
            assert draw() == reference()
            assert state(fast) == state(slow)
        assert [fast.next_uniform() for _ in range(10)] == \
               [slow.next_uniform() for _ in range(10)]


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_variate_longer_than_two_buffers(kind):
    """About 800 rejected trials in interval 1, each a position of 0.5 and
    an even run (2^-33, 0.75), then an accepted one (0.75 ends the run at
    once): the variate runs off the end of two or three buffers in turn
    and is carried into the next each time."""
    table = default_config(kind).table
    sign = [1 << 52] if table.is_normal else []
    select = [1 << 52 if table.is_dyadic else 0]
    # exp_vn selects afresh in every trial, the others once per variate
    per_trial, once = (select, []) if table.restarts else ([], select)
    reject, accept = [1 << 52, 1 << 20, 3 << 51], [1 << 52, 3 << 51]
    words = sign + once + (per_trial + reject) * 800 + per_trial + accept
    draw, fast, reference, slow = kernel_and_reference(
        kind, False, _edge_source(words))
    assert draw() == reference()
    assert state(fast) == state(slow)
    assert fast.draws > 2 * bitstream._BUFFER_WORDS


@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_interleaved_with_direct_source_calls(kind, recycling):
    """Draws mixed with next_uniform, random_sign, geometric_index and
    next_word on the same source share its buffer, store and sign pool."""
    draw, fast, reference, slow = kernel_and_reference(
        kind, recycling, lambda r: UniformSource(777, recycling=r))
    ops = random.Random(5)
    names = ("next_uniform", "random_sign", "geometric_index", "next_word")
    for _ in range(3000):
        if ops.random() < 0.5:
            assert draw() == reference()
        else:
            name = ops.choice(names)
            assert getattr(fast, name)() == getattr(slow, name)()
        assert state(fast) == state(slow)


def _edge_source(words):
    return lambda recycling: UniformSource(
        0, engine=FakeEngine([raw_from_word(w) for w in words]),
        recycling=recycling)


@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_on_an_all_zero_selection_word(kind, recycling):
    """The all-zero selection word and the other edges of the leading-zero
    count: 0 and 1 clamp to k = WORD_BITS with no leftover, 2^52 and
    2^53 - 1 give k = 1 with an all-zero and an all-ones leftover.  The
    mass tables read them as uniforms at both ends of [0, 1)."""
    table = default_config(kind).table
    sign = [1 << 52] if table.is_normal else []
    for select in (0, 1, 1 << 52, 2 ** 53 - 1):
        words = sign + [select, 1 << 52, 2 ** 53 - 1]   # then 0.5, run stop
        draw, fast, reference, slow = kernel_and_reference(
            kind, recycling, _edge_source(words))
        value = draw()
        assert value == reference(), select
        assert state(fast) == state(slow), select
        twin = _edge_source(words)(recycling)
        if table.is_normal:
            twin.random_sign()
        lo, hi = table.interval(tables.select_interval(table, twin))
        assert lo <= value < hi, select


@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("position_word", [0, 2 ** 53 - 1])
def test_kernel_on_extreme_positions_in_forsythe_interval_3(position_word,
                                                           recycling):
    """Positions 0 and 1 - 2^-53 sit on the rounded boundaries sqrt(3) and
    sqrt(5), where the unclamped shifted exponent leaves [0, 1].  With
    recycling on, the clamped exponent also shapes the recycled value."""
    table = default_config(samplers.NORMAL_FORSYTHE).table
    select_word = int(0.5 * (table.cum_probs[1] + table.cum_probs[2]) * 2 ** 53)
    run_words = [1 << 52, 1 << 51, 3 << 51]    # 0.5, 0.25, 0.75
    words = [1 << 52, select_word, position_word] + run_words
    draw, fast, reference, slow = kernel_and_reference(
        samplers.NORMAL_FORSYTHE, recycling, _edge_source(words))
    value = draw()
    assert value == reference()
    assert state(fast) == state(slow)
    assert table.boundaries[2] <= value <= table.boundaries[3]


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_cap_raises_where_the_composed_draw_does(kind):
    """A run of MAX_RUN_LENGTH strictly descending words trips the cap with
    the same draws and buffer position as the composed draw; the source
    then goes on to the same next variate."""
    table = default_config(kind).table
    sign = [1 << 52] if table.is_normal else []
    # Interval 1 on every scheme: a leading one-bit, or a selection
    # uniform of 0 below the first cumulative mass.
    select = 1 << 52 if table.is_dyadic else 0
    top = int(0.2 * 2 ** 53)       # below every interval-1 exponent at u ~ 1
    descending = [top - (i << 33) for i in range(MAX_RUN_LENGTH)]
    words = (sign + [select, 2 ** 53 - 1] + descending
             + [select, 1 << 52, 2 ** 53 - 1])
    draw, fast, reference, slow = kernel_and_reference(
        kind, False, _edge_source(words))
    for call in (draw, reference):
        with pytest.raises(RuntimeError, match="run length exceeded"):
            call()
    assert state(fast) == state(slow)
    assert fast.draws == fast._pos == len(sign) + 2 + MAX_RUN_LENGTH
    assert draw() == reference()
    assert state(fast) == state(slow)


PUBLIC_SAMPLERS = {
    samplers.EXP_VN: samplers.exp_vn,
    samplers.EXP_BRENT: samplers.exp_brent,
    samplers.NORMAL_FORSYTHE: samplers.normal_forsythe,
    samplers.NORMAL_GRAND: samplers.normal_grand,
    samplers.EXP_LOG: samplers.exp_log_baseline,
}


@pytest.mark.parametrize("kind", PUBLIC_SAMPLERS)
def test_public_samplers_match_the_bound_draw(kind):
    """A one-shot public call gives the bound draw's value and leaves the
    same draws, store and sign pool, variate by variate across refills."""
    config = default_config(kind)
    public = PUBLIC_SAMPLERS[kind]
    src, twin = (UniformSource(90, recycling=config.recycling_enabled)
                 for _ in range(2))
    draw = make_sampler(config, twin)
    while src.draws < 2 * bitstream._BUFFER_WORDS + 64:
        assert public(src) == draw()
        assert state(src) == state(twin)


@pytest.mark.parametrize("kind", KINDS)
def test_bound_draw_recovers_from_an_engine_failure_mid_variate(kind):
    """An engine that raises once, on the refill a variate needs after its
    first word: the bound draw raises, and its later draws match those of a
    twin whose engine never failed, once the twin holds the same state."""
    config = default_config(kind)
    buffer_words = bitstream._BUFFER_WORDS
    src = UniformSource(0, engine=FailOnceEngine(73, fail_on=2),
                        recycling=config.recycling_enabled)
    twin = UniformSource(73, recycling=config.recycling_enabled)
    draw, twin_draw = make_sampler(config, src), make_sampler(config, twin)
    for _ in range(50):
        assert draw() == twin_draw()
    assert src.draws < buffer_words - 1        # still on the first buffer
    # An empty store and, for the normal kinds, an empty sign pool: every
    # variate then reads at least two fresh words.
    for s in (src, twin):
        s.recycled.clear()
        s._sign_bits = 0
        while s.draws < buffer_words - 1:
            s.next_word()
    with pytest.raises(OSError, match="engine failed"):
        draw()
    assert src.draws == buffer_words
    twin.next_word()
    twin._sign_word, twin._sign_bits = src._sign_word, src._sign_bits
    twin.recycled[:] = src.recycled
    assert state(src) == state(twin)
    for _ in range(2000):
        assert draw() == twin_draw()
        assert state(src) == state(twin)


@pytest.mark.parametrize("kind", KINDS)
def test_dropped_bound_draw_leaves_the_source_as_next_uniform_left_it(kind):
    """A suspended kernel that is collected writes nothing back: the
    source keeps the position, store and sign pool that direct calls gave
    it after the last variate."""
    config = default_config(kind)
    src, twin = (UniformSource(58, recycling=config.recycling_enabled)
                 for _ in range(2))
    draw, twin_draw = (make_sampler(config, s) for s in (src, twin))
    for _ in range(20):
        assert draw() == twin_draw()
    moved = [src.next_uniform() for _ in range(30)]
    before = state(src)
    del draw
    gc.collect()
    assert state(src) == before
    assert [twin.next_uniform() for _ in range(30)] == moved
    assert [src.next_uniform() for _ in range(30)] == \
           [twin.next_uniform() for _ in range(30)]


@pytest.mark.parametrize("family", [
    (samplers.NORMAL_GRAND, samplers.EXP_BRENT),
    (samplers.NORMAL_FORSYTHE, samplers.EXP_VN),
])
def test_interleaved_bound_draws_of_one_family_match_the_composed_draw(family):
    """Two kernels suspended on one source each read the other's moves on
    resume: value by value and state by state against the composed draw."""
    configs = [default_config(kind) for kind in family]
    # one recycling flag per family: on for the dyadic pair, off for the other
    fast, slow = (UniformSource(1234, recycling=configs[0].recycling_enabled)
                  for _ in range(2))
    draws = [make_sampler(config, fast) for config in configs]
    ops = random.Random(9)
    while fast.draws < 2 * bitstream._BUFFER_WORDS + 64:
        pick = ops.randrange(2)
        assert draws[pick]() == reference_draw(configs[pick].table, slow)
        assert state(fast) == state(slow)

