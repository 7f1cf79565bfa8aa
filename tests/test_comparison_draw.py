"""The comparison kernels against the same draw composed from the
source's public steps and ``comparison.run_test``, value by value and
state by state: the Python generator ``comparison_variates`` and the
compiled fill, each through an entry point that reads nothing ahead.
Then the bound sampler, which fills blocks ahead of its caller, against
the Python kernel, value by value and draw count by draw count."""

import gc
import random
from functools import partial
from itertools import chain

import numpy as np
import pytest

from fvn import _fill, bitstream, samplers, tables
from fvn.bitstream import MAX_RUN_LENGTH, UniformSource
from fvn.comparison import run_test
from fvn.samplers import default_config, make_sampler
from tests.test_bitstream import FailOnceEngine, FakeEngine, raw_from_word

KINDS = (samplers.EXP_VN, samplers.EXP_BRENT, samplers.NORMAL_FORSYTHE,
         samplers.NORMAL_GRAND)

PYTHON, FILL = "python", "fill"


def with_kernels(values, ids=None):
    """``(value, kernel)`` params: each value on the Python kernel, under
    its own id, and on the compiled fill, under its id and ``-fill``."""
    ids = ids or [str(v) for v in values]
    return ([pytest.param(v, PYTHON, id=i) for v, i in zip(values, ids)]
            + [pytest.param(v, FILL, id=f"{i}-fill")
               for v, i in zip(values, ids)])


KERNEL_KINDS = with_kernels(KINDS)


def kernel_draw(kernel, table, src):
    """One variate per call from ``kernel``, reading nothing ahead: the
    Python kernel resumes one generator and starts a fresh one after an
    error, as a bound sampler does when the fill does not load; the fill
    makes one variate per call."""
    if kernel == PYTHON:
        variates = partial(src.comparison_variates, table)
        return chain.from_iterable(iter(variates, None)).__next__
    if _fill.library() is None:
        pytest.skip("the compiled fill did not load")
    return lambda: src.fill_variates(table, 1)[0]


def reference_draw(table, src):
    """The comparison method as separate calls: a pooled sign bit, the
    interval selection, a position uniform and the run test, with the
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
            if run_test(g, src).accepted:
                return sign * x
            if table.restarts:
                break


def state(src):
    # Not the buffer offset: a variate rolled back at a buffer's end starts
    # the next buffer at its own first word, so the offsets of two sources
    # in the same state can differ.  ``draws`` counts the words either way.
    return (src.draws, list(src.recycled), src._sign_bits, src._sign_word)


def kernel_and_reference(kind, recycling, make_source, kernel):
    """A kernel's draw on one source and the reference draw on a twin,
    each built by ``make_source(recycling)``."""
    config = default_config(kind, recycling=recycling)
    fast, slow = (make_source(config.recycling_enabled) for _ in range(2))
    draw = kernel_draw(kernel, config.table, fast)

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
@pytest.mark.parametrize("kind, kernel", KERNEL_KINDS)
def test_kernel_matches_the_composed_draw(kind, kernel, recycling, engine_bits,
                                          seed):
    """Same value, draws, recycled store and sign pool after every variate,
    over 8,256 words and the engine refills among them."""
    draw, fast, reference, slow = kernel_and_reference(
        kind, recycling, lambda r: UniformSource(
            0, engine=GridEngine(seed, engine_bits), recycling=r), kernel)
    while fast.draws < 8 * bitstream._BUFFER_WORDS + 64:
        assert draw() == reference()
        assert state(fast) == state(slow)


@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind, kernel", KERNEL_KINDS)
def test_kernel_variate_straddling_a_refill(kind, kernel, recycling):
    """Variates started on each of the last words of a buffer, and on a
    buffer just used up: the refill lands in turn on the sign word, the
    selection, the position and the run.

    The second input pre-fills the recycled store on both twins.  Its
    values fall fast enough that, for every kind, the first run drains
    the store and goes on into the buffer.  When ``left`` equals the
    fresh words read before the run (none, a sign word or a leading-zero
    selection word, or both), that first buffer read runs off the end."""
    buffer_words = bitstream._BUFFER_WORDS
    for stored in ([], [2.0 ** -49, 2.0 ** -48, 2.0 ** -23, 2.0 ** -10]):
        for left in range(8):
            draw, fast, reference, slow = kernel_and_reference(
                kind, recycling,
                lambda r: UniformSource(41 + left, recycling=r), kernel)
            for src in (fast, slow):
                for _ in range(buffer_words - left):
                    src.next_word()
                src.recycled.extend(stored)
            while fast.draws <= buffer_words:
                assert draw() == reference()
                assert state(fast) == state(slow)
            assert [fast.next_uniform() for _ in range(10)] == \
                   [slow.next_uniform() for _ in range(10)]


@pytest.mark.parametrize("kind, kernel", KERNEL_KINDS)
def test_kernel_variate_longer_than_two_buffers(kind, kernel):
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
        kind, False, _edge_source(words), kernel)
    assert draw() == reference()
    assert state(fast) == state(slow)
    assert fast.draws > 2 * bitstream._BUFFER_WORDS


@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind, kernel", KERNEL_KINDS)
def test_kernel_interleaved_with_direct_source_calls(kind, kernel, recycling):
    """Draws mixed with next_uniform, random_sign, geometric_index and
    next_word on the same source share its buffer, store and sign pool."""
    draw, fast, reference, slow = kernel_and_reference(
        kind, recycling, lambda r: UniformSource(777, recycling=r), kernel)
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
@pytest.mark.parametrize("kind, kernel", KERNEL_KINDS)
def test_kernel_on_an_all_zero_selection_word(kind, kernel, recycling):
    """The all-zero selection word and the other edges of the leading-zero
    count: 0 and 1 clamp to k = WORD_BITS with no leftover, 2^52 and
    2^53 - 1 give k = 1 with an all-zero and an all-ones leftover.  The
    mass tables read them as uniforms at both ends of [0, 1)."""
    table = default_config(kind).table
    sign = [1 << 52] if table.is_normal else []
    for select in (0, 1, 1 << 52, 2 ** 53 - 1):
        words = sign + [select, 1 << 52, 2 ** 53 - 1]   # then 0.5, run stop
        draw, fast, reference, slow = kernel_and_reference(
            kind, recycling, _edge_source(words), kernel)
        value = draw()
        assert value == reference(), select
        assert state(fast) == state(slow), select
        twin = _edge_source(words)(recycling)
        if table.is_normal:
            twin.random_sign()
        lo, hi = table.interval(tables.select_interval(table, twin))
        assert lo <= value < hi, select


@pytest.mark.parametrize("recycling, kernel", with_kernels([False, True]))
@pytest.mark.parametrize("position_word", [0, 2 ** 53 - 1])
def test_kernel_on_extreme_positions_in_forsythe_interval_3(position_word,
                                                           recycling, kernel):
    """Positions 0 and 1 - 2^-53 sit on the rounded boundaries sqrt(3) and
    sqrt(5), where the unclamped shifted exponent leaves [0, 1].  With
    recycling on, the clamped exponent also shapes the recycled value."""
    table = default_config(samplers.NORMAL_FORSYTHE).table
    select_word = int(0.5 * (table.cum_probs[1] + table.cum_probs[2]) * 2 ** 53)
    run_words = [1 << 52, 1 << 51, 3 << 51]    # 0.5, 0.25, 0.75
    words = [1 << 52, select_word, position_word] + run_words
    draw, fast, reference, slow = kernel_and_reference(
        samplers.NORMAL_FORSYTHE, recycling, _edge_source(words), kernel)
    value = draw()
    assert value == reference()
    assert state(fast) == state(slow)
    assert table.boundaries[2] <= value <= table.boundaries[3]


@pytest.mark.parametrize("kind, kernel", KERNEL_KINDS)
def test_kernel_cap_raises_where_the_composed_draw_does(kind, kernel):
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
        kind, False, _edge_source(words), kernel)
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
    """A one-shot public call gives the bound draw's value and draws,
    variate by variate across refills, and leaves the store and sign pool
    of the Python kernel resumed on a twin: a bound sampler that reads
    nothing ahead, or the bound draw itself for exp_log."""
    config = default_config(kind)
    public = PUBLIC_SAMPLERS[kind]
    src, twin, kernel_twin = (
        UniformSource(90, recycling=config.recycling_enabled)
        for _ in range(3))
    draw = make_sampler(config, twin)
    if config.table is None:
        kernel_twin, kernel = twin, draw
    else:
        kernel = kernel_draw(PYTHON, config.table, kernel_twin)
    while src.draws < 2 * bitstream._BUFFER_WORDS + 64:
        value = public(src)
        assert value == draw() == (kernel() if kernel is not draw else value)
        assert src.draws == twin.draws
        assert state(src) == state(kernel_twin)


@pytest.mark.parametrize("kind, kernel", KERNEL_KINDS)
def test_bound_draw_recovers_from_an_engine_failure_mid_variate(kind, kernel):
    """An engine that raises once, on the refill a variate needs after its
    first word: the kernel's draw raises, and its later draws match those
    of a twin whose engine never failed, once the twin holds the same
    state."""
    config = default_config(kind)
    buffer_words = bitstream._BUFFER_WORDS
    src = UniformSource(0, engine=FailOnceEngine(73, fail_on=2),
                        recycling=config.recycling_enabled)
    twin = UniformSource(73, recycling=config.recycling_enabled)
    draw, twin_draw = (kernel_draw(kernel, config.table, s)
                       for s in (src, twin))
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


@pytest.mark.parametrize("kind, kernel", KERNEL_KINDS)
def test_dropped_bound_draw_leaves_the_source_as_next_uniform_left_it(kind,
                                                                     kernel):
    """A suspended kernel that is collected writes nothing back: the
    source keeps the position, store and sign pool that direct calls gave
    it after the last variate."""
    config = default_config(kind)
    src, twin = (UniformSource(58, recycling=config.recycling_enabled)
                 for _ in range(2))
    draw, twin_draw = (kernel_draw(kernel, config.table, s)
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


@pytest.mark.parametrize("family, kernel", with_kernels([
    (samplers.NORMAL_GRAND, samplers.EXP_BRENT),
    (samplers.NORMAL_FORSYTHE, samplers.EXP_VN),
], ids=["family0", "family1"]))
def test_interleaved_bound_draws_of_one_family_match_the_composed_draw(family,
                                                                      kernel):
    """Two kernels on one source, each suspended between its draws, read
    the other's moves: value by value and state by state against the
    composed draw."""
    configs = [default_config(kind) for kind in family]
    # one recycling flag per family: on for the dyadic pair, off for the other
    fast, slow = (UniformSource(1234, recycling=configs[0].recycling_enabled)
                  for _ in range(2))
    draws = [kernel_draw(kernel, config.table, fast) for config in configs]
    ops = random.Random(9)
    while fast.draws < 2 * bitstream._BUFFER_WORDS + 64:
        pick = ops.randrange(2)
        assert draws[pick]() == reference_draw(configs[pick].table, slow)
        assert state(fast) == state(slow)


@pytest.mark.parametrize("engine_bits", [53, 24])
@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_fill_of_many_variates_matches_the_composed_draws(kind, recycling,
                                                          engine_bits):
    """Fills of 1 to 300 variates, each value against the composed draw and
    the state after each fill, over 8,256 words: the store and sign pool
    carried from variate to variate inside one fill, and refills inside
    it."""
    draw, fast, reference, slow = kernel_and_reference(
        kind, recycling, lambda r: UniformSource(
            0, engine=GridEngine(5, engine_bits), recycling=r), FILL)
    table = default_config(kind, recycling=recycling).table
    sizes = random.Random(11)
    while fast.draws < 8 * bitstream._BUFFER_WORDS + 64:
        values = fast.fill_variates(table, sizes.randint(1, 300))
        assert values.tolist() == [reference() for _ in values]
        assert state(fast) == state(slow)
    assert len(fast.fill_variates(table, 0)) == 0
    assert state(fast) == state(slow)


# The bound sampler: blocks filled ahead, emitted value by value.

BLOCK = bitstream.FILL_BLOCK


def bound_and_kernel(kind, recycling, make_source):
    """A bound sampler on one source, and the Python kernel, reading
    nothing ahead, on a twin; each source built by ``make_source``."""
    config = default_config(kind, recycling=recycling)
    src, twin = (make_source(config.recycling_enabled) for _ in range(2))
    return (make_sampler(config, src), src,
            kernel_draw(PYTHON, config.table, twin), twin)


def outcome(draw, src):
    """The value or the error of one draw, and ``draws`` after it."""
    try:
        return draw(), src.draws
    except (RuntimeError, OSError) as exc:
        return repr(exc), src.draws


@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_bound_sampler_matches_the_python_kernel_across_blocks(kind,
                                                               recycling):
    """Value and ``draws`` after every variate, through the ends of three
    read-ahead blocks (B - 1, B, B + 1 and on)."""
    draw, src, kernel, twin = bound_and_kernel(
        kind, recycling, lambda r: UniformSource(314, recycling=r))
    assert src.draws == 0
    for _ in range(3 * BLOCK + 2):
        assert draw() == kernel()
        assert src.draws == twin.draws


@pytest.mark.parametrize("kind", KINDS)
def test_a_bound_source_cannot_be_bound_again(kind):
    """A second make_sampler on a source that a bound sampler owns raises
    before it touches the source, for every kind it might bind."""
    config = default_config(kind)
    src = UniformSource(17, recycling=config.recycling_enabled)
    draw = make_sampler(config, src)
    for _ in range(BLOCK + 1):
        draw()
    before = (src.draws, list(src.recycled), src._sign_bits, src._sign_word,
              src._pos)
    for second in samplers.SAMPLER_KINDS:
        with pytest.raises(ValueError, match="already feeds a bound sampler"):
            make_sampler(default_config(
                second, recycling=config.recycling_enabled), src)
        assert (src.draws, list(src.recycled), src._sign_bits,
                src._sign_word, src._pos) == before
    with pytest.raises(ValueError, match="already feeds a bound sampler"):
        src.bind_variates(config.table)
    assert src.bound


class StretchEngine:
    """PCG64 words, with the first 65 of every 130 replaced by a strictly
    descending stretch from 0.01: a run test that reaches one goes on
    descending until it trips the run cap."""

    def __init__(self, seed):
        self._pcg = np.random.PCG64(seed)
        self._k = 0

    def random_raw(self, size):
        out = self._pcg.random_raw(size)
        phase = np.arange(self._k, self._k + size, dtype=np.uint64) % 130
        self._k += size
        stretch = np.uint64(int(0.01 * 2 ** 53)) - (phase << np.uint64(20))
        inside = phase < 65
        out[inside] = stretch[inside] << np.uint64(11)
        return out


@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_bound_sampler_raises_where_the_python_kernel_raises(kind, recycling):
    """Run-cap errors inside read-ahead blocks, at many positions in them:
    each raised by the draw where the Python kernel raises it, with the
    same ``draws``, and the draws after it go on alike.  The error comes
    from the iterator being emitted, so the sampler is not ended by it."""
    draw, src, kernel, twin = bound_and_kernel(
        kind, recycling,
        lambda r: UniformSource(0, engine=StretchEngine(5), recycling=r))
    raised = set()
    for i in range(3 * BLOCK):
        got = outcome(draw, src)
        assert got == outcome(kernel, twin)
        if isinstance(got[0], str):
            raised.add(i)
    assert len({i % BLOCK for i in raised}) >= 5


@pytest.mark.parametrize("empty", [False, True])
@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_bound_sampler_fails_where_the_python_kernel_fails(kind, recycling,
                                                           empty):
    """An engine that fails once, on a refill inside a read-ahead block:
    the draw that needs the refill raises with the kernel's ``draws``, and
    the draws after it go on alike."""
    draw, src, kernel, twin = bound_and_kernel(
        kind, recycling,
        lambda r: UniformSource(0, engine=FailOnceEngine(
            29, fail_on=3, empty=empty), recycling=r))
    outcomes = [outcome(draw, src) for _ in range(3 * BLOCK)]
    assert outcomes == [outcome(kernel, twin) for _ in range(3 * BLOCK)]
    assert sum(isinstance(value, str) for value, _ in outcomes) == 1
