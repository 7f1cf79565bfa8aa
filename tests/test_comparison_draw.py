"""The fused comparison kernel against the same draw composed from the
source's public steps, value by value and state by state."""

import gc
import random

import pytest

from fvn import bitstream, samplers, tables
from fvn.bitstream import MAX_RUN_LENGTH, UniformSource
from fvn.samplers import default_config, make_sampler
from tests.test_bitstream import FailOnceEngine, FakeEngine, raw_from_word

KINDS = (samplers.EXP_VN, samplers.EXP_BRENT, samplers.NORMAL_FORSYTHE,
         samplers.NORMAL_GRAND)


def reference_draw(table, src, restart):
    """The comparison method as separate calls: a pooled sign bit, the
    interval selection, a position uniform and the descending run."""
    lows, widths, tops = table.lows, table.widths, table.tops
    lows_sq = table.lows_sq
    sign = 1 if lows_sq is None else src.random_sign()
    while True:
        j = tables.select_interval(table, src) - 1
        lo, width, top = lows[j], widths[j], tops[j]
        while True:
            if lows_sq is None:
                g = width * src.next_uniform()
                x = lo + g
            else:
                x = lo + width * src.next_uniform()
                g = (x * x - lows_sq[j]) * 0.5
            if not 0.0 <= g <= top:
                g = 0.0 if g < 0.0 else top
            if src.descending_run(g)[0] & 1:
                return sign * x
            if restart:
                break


def state(src):
    return (src.draws, src._pos, list(src.recycled), src._sign_bits,
            src._sign_word)


def kernel_and_reference(kind, recycling, make_source):
    """A bound kernel on one source and the reference draw on a twin."""
    config = default_config(kind, recycling=recycling)
    fast, slow = make_source(), make_source()
    draw = make_sampler(config, fast)
    slow.recycling = config.recycling_enabled
    restart = kind == samplers.EXP_VN

    def reference():
        return reference_draw(config.table, slow, restart)

    return draw, fast, reference, slow


@pytest.mark.parametrize("seed", [3, 1009, 2 ** 63 + 11])
@pytest.mark.parametrize("word_bits", [53, 24])
@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_matches_the_composed_draw(kind, recycling, word_bits, seed):
    """Same value, draws, recycled store and sign pool after every variate,
    over 8,256 words and the engine refills among them."""
    draw, fast, reference, slow = kernel_and_reference(
        kind, recycling, lambda: UniformSource(seed, word_bits=word_bits))
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
            kind, recycling, lambda: UniformSource(41 + left))
        for src in (fast, slow):
            for _ in range(buffer_words - left):
                src.next_word()
        while fast.draws <= buffer_words:
            assert draw() == reference()
            assert state(fast) == state(slow)
        assert [fast.next_uniform() for _ in range(10)] == \
               [slow.next_uniform() for _ in range(10)]


@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_interleaved_with_direct_source_calls(kind, recycling):
    """Draws mixed with next_uniform, random_sign, geometric_index and
    next_word on the same source share its buffer, store and sign pool."""
    draw, fast, reference, slow = kernel_and_reference(
        kind, recycling, lambda: UniformSource(777))
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
    return lambda: UniformSource(
        0, engine=FakeEngine([raw_from_word(w) for w in words]))


@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_on_an_all_zero_selection_word(kind, recycling):
    """A zero word selects the last interval on the dyadic schemes (the
    leading-zero count clamps to K) and the first on the mass tables."""
    table = default_config(kind).table
    sign = [1 << 52] if table.is_normal else []
    words = sign + [0, 1 << 52, 2 ** 53 - 1]      # selection, 0.5, run stop
    draw, fast, reference, slow = kernel_and_reference(
        kind, recycling, _edge_source(words))
    value = draw()
    assert value == reference()
    assert state(fast) == state(slow)
    lo, hi = table.interval(table.K if table.is_dyadic else 1)
    assert lo <= value < hi


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
    samplers.EXP_VN: lambda table, src: samplers.exp_vn(src, table),
    samplers.EXP_BRENT: samplers.exp_brent,
    samplers.NORMAL_FORSYTHE: samplers.normal_forsythe,
    samplers.NORMAL_GRAND: samplers.normal_grand,
}


@pytest.mark.parametrize("kind", KINDS)
def test_public_samplers_match_the_bound_draw(kind):
    """A one-shot public call gives the bound draw's value and leaves the
    same draws, store and sign pool, variate by variate across refills."""
    config = default_config(kind)
    public, src, twin = PUBLIC_SAMPLERS[kind], UniformSource(90), UniformSource(90)
    src.recycling = config.recycling_enabled
    draw = make_sampler(config, twin)
    while src.draws < 2 * bitstream._BUFFER_WORDS + 64:
        assert public(config.table, src) == draw()
        assert state(src) == state(twin)


@pytest.mark.parametrize("kind", KINDS)
def test_bound_draw_recovers_from_an_engine_failure_mid_variate(kind):
    """An engine that raises once, on the refill a variate needs after its
    first word: the bound draw raises, and its later draws match those of a
    twin whose engine never failed, once the twin holds the same state."""
    config = default_config(kind)
    buffer_words = bitstream._BUFFER_WORDS
    src = UniformSource(0, engine=FailOnceEngine(73, fail_on=2))
    twin = UniformSource(73)
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
    src, twin = UniformSource(58), UniformSource(58)
    draw, twin_draw = (make_sampler(default_config(kind), s)
                       for s in (src, twin))
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
    fast, slow = UniformSource(1234), UniformSource(1234)
    configs = [default_config(kind) for kind in family]
    draws = [make_sampler(config, fast) for config in configs]
    slow.recycling = fast.recycling
    ops = random.Random(9)
    while fast.draws < 2 * bitstream._BUFFER_WORDS + 64:
        pick = ops.randrange(2)
        config = configs[pick]
        assert draws[pick]() == reference_draw(
            config.table, slow, config.kind == samplers.EXP_VN)
        assert state(fast) == state(slow)


@pytest.mark.parametrize("kind", (samplers.EXP_BRENT, samplers.NORMAL_GRAND))
def test_restart_on_a_dyadic_table_matches_the_composed_draw(kind):
    """With ``restart`` on a dyadic scheme a rejected trial's recycled value
    goes back on the store before the next selection word is read."""
    table = default_config(kind).table
    fast, slow = UniformSource(66), UniformSource(66)
    variates = fast.comparison_variates(table, True)
    for _ in range(3000):
        assert next(variates) == reference_draw(table, slow, True)
        assert state(fast) == state(slow)
