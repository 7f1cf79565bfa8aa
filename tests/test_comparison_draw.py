"""The compiled fill against the composed draw ``samplers.comparison_draw``,
value by value and state by state, through ``fill_variates``, the entry
point that reads nothing ahead; each such test runs again with the fill
forced off, where the composed draw makes every variate.  Then the bound
sampler, which fills blocks ahead of its caller with the compiled fill,
or is the composed draw itself without it, against the composed draw,
value by value and draw count by draw count.

The fill runs on every engine: it reads a numpy engine's words itself into
the source's buffer once that is used up, and takes any other engine's
through ``random_raw``, as ``_refill`` does.  An edge word reaches the fill
as a scripted word at the head of a source's buffer (``scripted``); the
injected engines are checked against PCG64 by one harness
(``test_every_engine_fills_as_the_composed_draw``)."""

import copy
import gc
import math
import pickle
import random
import re
import sys
import threading
import types
import weakref
from array import array
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvn import _fill, bitstream, samplers, tables, wallace
from fvn.bitstream import MAX_RUN_LENGTH, MAX_TRIALS, UniformSource
from fvn.samplers import comparison_draw, default_config, make_sampler
from tests.test_bitstream import FailOnceEngine, FakeEngine

KINDS = (samplers.EXP_VN, samplers.EXP_BRENT, samplers.NORMAL_FORSYTHE,
         samplers.NORMAL_GRAND)

FILL, NO_FILL = "fill", "no-fill"


@pytest.fixture(params=[FILL, NO_FILL])
def binding(request, monkeypatch):
    """Runs a test on the compiled fill and again with ``_fill.library``
    returning None, as on a host with no compiler, where the composed draw
    makes every variate that ``fill_variates`` and ``make_sampler`` give."""
    if request.param == NO_FILL:
        monkeypatch.setattr(_fill, "library", lambda: None)
    elif _fill.library() is None:
        pytest.skip("the compiled fill did not load")
    return request.param


def over_entries(argname, values, ids=None, entries=(FILL, NO_FILL)):
    """Parametrizes ``argname`` by ``values`` on each ``binding`` entry:
    each value under its id and ``-fill``, then ``-no-fill``."""
    ids = ids or [str(v) for v in values]
    params = pytest.mark.parametrize(
        f"{argname}, binding",
        [pytest.param(v, entry, id=f"{i}-{entry}")
         for entry in entries for v, i in zip(values, ids)],
        indirect=["binding"])
    return lambda test: pytest.mark.usefixtures("binding")(params(test))


def assert_compiled_draw(draw, lib):
    """``draw`` is the module's draw: a builtin method bound to a ``Draw``,
    which holds its state.  CPython 3.11 specialises a call to a builtin."""
    assert type(draw) is types.BuiltinFunctionType
    assert type(draw.__self__) is lib.Draw


def fill_draw(table, src):
    """One variate per call from ``fill_variates``, reading nothing
    ahead."""
    return lambda: src.fill_variates(table, 1)[0]


def state(src, offset=True):
    """``draws``, the recycled store, the sign pool and, unless ``offset``
    is false, the buffer: its position, the words spent before it and its
    bytes.  The fill refills the buffer in place as the composed draw's
    refill replaces it, so they agree on every engine."""
    fields = (src.draws, list(src.recycled), src._sign_bits, src._sign_word)
    if offset:
        return fields + (src._pos, src._spent, src._floats.tobytes())
    return fields


def fill_and_reference(kind, recycling, make_source):
    """The fill's draw on one source and the composed draw on a twin, each
    built by ``make_source(recycling)``."""
    config = default_config(kind, recycling=recycling)
    fast, slow = (make_source(config.recycling_enabled) for _ in range(2))
    draw = fill_draw(config.table, fast)
    return draw, fast, partial(comparison_draw, config.table, slow), slow


def scripted(words, seed=0):
    """Builds, for a recycling flag, a source on ``PCG64(seed)`` whose
    buffer is the 53-bit integers ``words``.  The fill reads them and then
    refills the buffer from the engine, as the composed draw's refill does,
    so the words reach the C."""
    def make(recycling):
        src = UniformSource(seed, recycling=recycling)
        src._floats = array("d", [w / 2 ** 53 for w in words])
        return src
    return make


# Three words on which exp_vn's third variate never accepts, and enough
# cycles of them for two values and four trial-capped variates.
NEVER_ACCEPTS, CYCLES = [0, 1 << 52, 2 ** 53 - 1], 4096


def grid_words(seed, bits, n):
    """``n`` words of ``PCG64(seed)`` with only their top ``bits`` of 53
    kept: uniforms on a 2**-bits grid."""
    words = np.random.PCG64(seed).random_raw(n) >> np.uint64(64 - 53)
    return (words & np.uint64(((1 << bits) - 1) << (53 - bits))).tolist()


class RawOnly:
    """A numpy engine seen through its ``random_raw`` alone: the same
    words, which the fill takes from ``random_raw`` refills, as it does
    from every engine not of numpy."""

    def __init__(self, engine):
        self._engine = engine

    def random_raw(self, size):
        return self._engine.random_raw(size)


@pytest.mark.parametrize("seed", [3, 1009, 2 ** 63 + 11])
@pytest.mark.parametrize("engine_bits", [53, 24])
@pytest.mark.parametrize("recycling", [False, True])
@over_entries("kind", KINDS)
def test_kernel_matches_the_composed_draw(kind, recycling, engine_bits, seed):
    """Same value, draws, recycled store and sign pool after every variate,
    over 8,192 scripted words on a 2**-engine_bits grid, then on into the
    engine."""
    words = grid_words(seed, engine_bits, 8 * bitstream._BUFFER_WORDS)
    draw, fast, reference, slow = fill_and_reference(
        kind, recycling, scripted(words, seed))
    while fast.draws < 8 * bitstream._BUFFER_WORDS + 64:
        assert draw() == reference()
        assert state(fast) == state(slow)


@pytest.mark.parametrize("wrap", [np.random.PCG64, lambda seed: RawOnly(
    np.random.PCG64(seed))], ids=["numpy", "raw-only"])
@pytest.mark.parametrize("recycling", [False, True])
@over_entries("kind", KINDS)
def test_kernel_variate_straddling_a_refill(kind, recycling, wrap):
    """Variates started on each of the last words of a buffer, and on a
    buffer just used up: the refill lands in turn on the sign word, the
    selection, the position and the run.  On the numpy engine the fill
    refills the buffer there; on the ``random_raw``-only wrapper the
    composed draw makes every variate, this one across a refill.

    The second input pre-fills the recycled store on both twins.  Its
    values fall fast enough that, for every kind, the first run drains
    the store and goes on into the buffer.  When ``left`` equals the
    fresh words read before the run (none, a sign word or a leading-zero
    selection word, or both), that first buffer read runs off the end."""
    buffer_words = bitstream._BUFFER_WORDS
    for stored in ([], [2.0 ** -49, 2.0 ** -48, 2.0 ** -23, 2.0 ** -10]):
        for left in range(8):
            draw, fast, reference, slow = fill_and_reference(
                kind, recycling, lambda r: UniformSource(
                    0, engine=wrap(41 + left), recycling=r))
            for src in (fast, slow):
                for _ in range(buffer_words - left):
                    src.next_word()
                src.recycled.extend(stored)
            while fast.draws <= buffer_words:
                assert draw() == reference()
                assert state(fast) == state(slow)
            assert [fast.next_uniform() for _ in range(10)] == \
                   [slow.next_uniform() for _ in range(10)]


def _rejecting_trials(table, trials):
    """Words for ``trials`` rejected trials in interval 1, each a position
    of 0.5 and an even run (2^-33, 0.75), after the sign and the
    selection they need, and the selection word on its own."""
    sign = [1 << 52] if table.is_normal else []
    select = [1 << 52 if table.is_dyadic else 0]
    # exp_vn selects afresh in every trial, the others once per variate
    per_trial, once = (select, []) if table.restarts else ([], select)
    reject = [1 << 52, 1 << 20, 3 << 51]
    return sign + once + (per_trial + reject) * trials, select


@over_entries("kind", KINDS)
def test_kernel_variate_longer_than_two_buffers(kind):
    """About 800 rejected trials, then an accepted one (0.75 ends the run
    at once): one variate reads more than two buffers' worth of words."""
    table = default_config(kind).table
    words, select = _rejecting_trials(table, 800)
    words += (select if table.restarts else []) + [1 << 52, 3 << 51]
    draw, fast, reference, slow = fill_and_reference(
        kind, False, scripted(words))
    assert draw() == reference()
    assert state(fast) == state(slow)
    assert fast.draws > 2 * bitstream._BUFFER_WORDS


@over_entries("kind", KINDS)
def test_kernel_trial_cap_raises_where_the_composed_draw_does(kind):
    """MAX_TRIALS rejected trials: the fill raises right after the last
    one's run test, with the draws and state of the composed draw; both
    then go on to the same next variate (its sign from the pool)."""
    table = default_config(kind).table
    words, select = _rejecting_trials(table, MAX_TRIALS)
    draw, fast, reference, slow = fill_and_reference(
        kind, False, scripted(words + select + [1 << 52, 3 << 51]))
    for call in (draw, reference):
        with pytest.raises(RuntimeError, match="no trial accepted"):
            call()
    assert state(fast) == state(slow)
    assert fast.draws == len(words)
    assert draw() == reference()
    assert state(fast) == state(slow)
    assert fast.draws == len(words) + 3


@pytest.mark.usefixtures("binding")
def test_kernel_trial_cap_keeps_the_recycled_store():
    """A cycle of three words on which exp_vn's third variate never
    accepts, with recycling on: the fill raises the trial cap with the
    composed draw's draws and state, the last run's leftover on the store,
    and goes on alike, all inside the scripted words."""
    words = NEVER_ACCEPTS * CYCLES
    draw, fast, reference, slow = fill_and_reference(
        samplers.EXP_VN, True, scripted(words))
    for _ in range(2):
        assert draw() == reference()
    for _ in range(3):
        for call in (draw, reference):
            with pytest.raises(RuntimeError, match="no trial accepted"):
                call()
        assert state(fast) == state(slow)
        assert fast.recycled
    assert fast.draws < len(words)


@pytest.mark.parametrize("recycling", [False, True])
@over_entries("kind", KINDS)
def test_kernel_interleaved_with_direct_source_calls(kind, recycling):
    """Draws mixed with next_uniform, random_sign, geometric_index and
    next_word on the same source share its buffer, store and sign pool."""
    draw, fast, reference, slow = fill_and_reference(
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


@pytest.mark.parametrize("recycling", [False, True])
@over_entries("kind", KINDS)
def test_kernel_on_an_all_zero_selection_word(kind, recycling):
    """The all-zero selection word and the other edges of the leading-zero
    count: 0 and 1 clamp to k = WORD_BITS with no leftover, 2^52 and
    2^53 - 1 give k = 1 with an all-zero and an all-ones leftover.  The
    mass tables read them as uniforms at both ends of [0, 1)."""
    table = default_config(kind).table
    sign = [1 << 52] if table.is_normal else []
    for select in (0, 1, 1 << 52, 2 ** 53 - 1):
        words = sign + [select, 1 << 52, 2 ** 53 - 1]   # then 0.5, run stop
        draw, fast, reference, slow = fill_and_reference(
            kind, recycling, scripted(words))
        value = draw()
        assert value == reference(), select
        assert state(fast) == state(slow), select
        twin = scripted(words)(recycling)
        if table.is_normal:
            twin.random_sign()
        lo, hi = table.interval(tables.select_interval(table, twin))
        assert lo <= value < hi, select


@pytest.mark.parametrize("K", [1, 2, 4, 6, 8])
@pytest.mark.parametrize("recycling", [False, True])
@over_entries("scheme", tables.SCHEMES)
def test_short_tables_fold_the_tail_into_interval_K(scheme, recycling, K):
    """On a table of K < WORD_BITS intervals the selection gives k > K,
    which both spellings fold into K: one ``fill_variates`` of 3,000
    variates against the composed draw on a twin, values and state, across
    the end of the first buffer.  Then a selection word past the table,
    all zero on a dyadic table and above ``cum_probs[K - 1]`` on a mass
    table, scripted."""
    table = tables.IntervalTable(scheme, K)
    fast, slow = (UniformSource(11, recycling=recycling) for _ in range(2))
    values = fast.fill_variates(table, 3000)
    assert values.tolist() == [comparison_draw(table, slow)
                               for _ in range(3000)]
    assert state(fast) == state(slow)
    assert fast.draws > bitstream._BUFFER_WORDS

    select = 0 if table.is_dyadic else 2 ** 53 - 1
    assert table.is_dyadic or select / 2 ** 53 > table.cum_probs[K - 1]
    sign = [1 << 52] if table.is_normal else []
    fast, slow = (scripted(sign + [select, 1 << 52, 2 ** 53 - 1])(
        recycling) for _ in range(2))
    value = fast.fill_variates(table, 1)[0]
    assert value == comparison_draw(table, slow)
    assert state(fast) == state(slow)
    assert table.interval(K)[0] < value < table.interval(K)[1]


@over_entries("recycling", [False, True])
@pytest.mark.parametrize("position_word", [0, 2 ** 53 - 1])
def test_kernel_on_extreme_positions_in_forsythe_interval_3(position_word,
                                                           recycling):
    """Positions 0 and 1 - 2^-53 sit on the rounded boundaries sqrt(3) and
    sqrt(5), where the unclamped shifted exponent leaves [0, 1]: it reads
    -2^-52 and 1 + 2^-51, and the clamp makes them 0 and 1.  No uniform
    lies between an unclamped exponent and its clamp, so the run test
    reads the same outcome from either; only the recycled value of a run
    of length 1, (u - g) / (1 - g), reads g itself.  So with recycling on,
    position 0 with a first run word of 3 * 2^-53 stores that word with
    the clamp and 5 * 2^-53 without it.  At 1 - 2^-53 the run descends
    through 3 * 2^-53 and 2 * 2^-53 and stops at 1/2."""
    table = default_config(samplers.NORMAL_FORSYTHE).table
    lo, width, _, lo_sq = table.by_k[2]
    x = lo + width * (position_word / 2 ** 53)
    assert (x * x - lo_sq) * 0.5 == (-2 ** -52 if position_word == 0
                                     else 1 + 2 ** -51)
    select_word = int(0.5 * (table.cum_probs[1] + table.cum_probs[2]) * 2 ** 53)
    run_words = [3, 2, 1 << 52]
    words = [1 << 52, select_word, position_word] + run_words
    draw, fast, reference, slow = fill_and_reference(
        samplers.NORMAL_FORSYTHE, recycling, scripted(words))
    value = draw()
    assert value == reference()
    assert state(fast) == state(slow)
    assert table.boundaries[2] <= value <= table.boundaries[3]
    if recycling and position_word == 0:
        assert fast.recycled[-1] == 3 * 2 ** -53


# The mass-table selection: the fill finds bisect_right's index through
# the kernel's guide, tables.select_interval by bisecting.

MASS_KINDS = (samplers.EXP_VN, samplers.NORMAL_FORSYTHE)


def selection_edge_words(tables_):
    """The 53-bit words on and just below each cumulative mass of
    ``tables_`` and each bucket edge b / GUIDE_LEN of the guide.  Every
    mass is at least 1/2, so a multiple of 2**-53 with an exact word; a
    mass of 1.0 has no word."""
    edges = {b * 2 ** 53 // _fill.GUIDE_LEN for b in range(_fill.GUIDE_LEN)}
    for table in tables_:
        assert min(table.cum_probs) >= 0.5
        edges |= {int(c * 2 ** 53) for c in table.cum_probs if c < 1.0}
    return sorted({w - d for w in edges for d in (0, 1)} - {-1})


@pytest.mark.parametrize("K", [8, tables.DEFAULT_TABLE_LEN])
@pytest.mark.parametrize("recycling", [False, True])
@over_entries("scheme", MASS_KINDS)
def test_fill_selects_bisect_rights_interval_on_edge_words(scheme, recycling,
                                                           K):
    """A selection word on each cumulative mass and each guide bucket edge,
    and one word below each: the fill's guide and scan give the interval
    that ``select_interval`` bisects for, so one ``fill_variates`` of two
    variates, the first on the scripted words, has the value and state of
    two composed draws on a twin."""
    table = tables.IntervalTable(scheme, K)
    sign = [1 << 52] if table.is_normal else []
    for word in selection_edge_words([table]):
        fast, slow = (scripted(sign + [word, 1 << 52, 2 ** 53 - 1])(
            recycling) for _ in range(2))
        values = fast.fill_variates(table, 2).tolist()
        assert values == [comparison_draw(table, slow) for _ in range(2)], word
        assert state(fast) == state(slow), word


@pytest.mark.parametrize("slot", ["selection", "position"])
@pytest.mark.parametrize("stored", [1.0, 1.5, -0.0, -1e-300, math.inf,
                                    -math.inf, math.nan], ids=repr)
@over_entries("kind", MASS_KINDS)
def test_fill_selects_bisect_rights_interval_on_an_out_of_range_store(
        kind, stored, slot):
    """``src.recycled`` is public, so it can hold a value off [0, 1), which
    no uniform of the method is: with 0.25 stored beside it, popped first
    when it is to land in the position slot, both spellings refuse the
    store with ValueError before they touch the source.  -0.0 is a
    uniform, 0.0, and both give the same value and state."""
    config = default_config(kind, recycling=True)
    fast, slow, untouched = (UniformSource(29, recycling=True)
                             for _ in range(3))
    for src in (fast, slow, untouched):
        src.recycled.extend([0.25, stored] if slot == "selection"
                            else [stored, 0.25])
    fill = lambda: fast.fill_variates(config.table, 1)[0]   # noqa: E731
    if 0.0 <= stored < 1.0:
        assert outcome(fill, fast) == \
               outcome(partial(comparison_draw, config.table, slow), slow)
    else:
        for draw in (fill, partial(comparison_draw, config.table, slow)):
            with pytest.raises(ValueError, match=re.escape(
                    bitstream.STORE_OFF_UNIT)):
                draw()
        assert state(slow) == state(untouched)
    assert state(fast) == state(slow)


@pytest.fixture(scope="module")
def compiled_fill():
    """The compiled fill, for tests that cannot take the function-scoped
    ``binding``; skipped when it does not load."""
    if _fill.library() is None:
        pytest.skip("the compiled fill did not load")


MASS_TABLES = [default_config(kind).table for kind in MASS_KINDS]
# Every kind's default table, then the short tables of every scheme, on
# which a selection past the table folds into k = K.
SHORT_TABLES = [tables.IntervalTable(scheme, K) for scheme in tables.SCHEMES
                for K in (1, 2, 4, 6, 8)]
HARNESS_TABLES = [default_config(kind).table for kind in KINDS] + SHORT_TABLES
# Dyadic selection words: zero (k clamped to WORD_BITS), one, a leading
# one at bits 20, 40 and 51, 2**52 and its neighbours (k = 1 or 2), and the
# all-ones word.
DYADIC_EDGE_WORDS = [0, 1, 1 << 20, 1 << 40, 1 << 51, (1 << 52) - 1, 1 << 52,
                     (1 << 52) + 1, 2 ** 53 - 1]
SCRIPT_WORDS = st.one_of(
    st.sampled_from(DYADIC_EDGE_WORDS),
    st.sampled_from(selection_edge_words(
        MASS_TABLES + [t for t in SHORT_TABLES if not t.is_dyadic])),
    st.integers(min_value=0, max_value=2 ** 53 - 1))


def outcomes(draw, n):
    """The bytes of ``n`` values of ``draw``, or the repr of the error that
    stops them."""
    try:
        return array("d", [draw() for _ in range(n)]).tobytes()
    except RuntimeError as exc:
        return repr(exc)


@pytest.mark.usefixtures("compiled_fill")
@settings(max_examples=1200, deadline=None, derandomize=True)
@given(words=st.lists(SCRIPT_WORDS, max_size=60),
       table=st.sampled_from(HARNESS_TABLES),
       recycling=st.booleans(), n=st.integers(min_value=1, max_value=6))
def test_fill_is_the_composed_draw_on_any_script(words, table, recycling, n):
    """Up to 60 scripted words, edge words among them, at the head of the
    buffer, then the engine, on each kind's table and on tables of K = 1
    to 8 intervals of every scheme, so on every fill of the module and at
    every length it takes: ``fill_variates`` of n
    variates has the values, or the error, and the state of n composed
    draws on a twin, and the bound draw, the module's draw, has the
    values, or the error, and the ``draws`` of n composed draws.  The
    values are compared by their bytes, so the sign of a zero counts."""
    fast, bound, slow = (scripted(words)(recycling) for _ in range(3))
    try:
        got = fast.fill_variates(table, n).tobytes()
    except RuntimeError as exc:
        got = repr(exc)
    drawn = outcomes(bound.bind_variates(table), n)
    assert got == drawn == outcomes(partial(comparison_draw, table, slow), n)
    assert state(fast) == state(slow)
    assert bound.draws == slow.draws


@over_entries("kind", KINDS)
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
    draw, fast, reference, slow = fill_and_reference(
        kind, False, scripted(words))
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
    of the composed draw on the kind's table on a twin (for exp_log, of
    the bound draw itself, which reads nothing ahead)."""
    config = default_config(kind)
    public = PUBLIC_SAMPLERS[kind]
    src, twin, composed_twin = (
        UniformSource(90, recycling=config.recycling_enabled)
        for _ in range(3))
    draw = make_sampler(config, twin)
    if config.table is None:
        composed_twin, composed = twin, draw
    else:
        composed = partial(comparison_draw, config.table, composed_twin)
    while src.draws < 2 * bitstream._BUFFER_WORDS + 64:
        value = public(src)
        assert value == draw() == (composed() if composed is not draw
                                   else value)
        assert src.draws == twin.draws
        assert state(src) == state(composed_twin)


@over_entries("kind", KINDS)
def test_bound_draw_recovers_from_an_engine_failure_mid_variate(kind):
    """An engine that raises once, on the refill a variate needs after its
    first word: the draw raises, and its later draws match those of a twin
    whose engine never failed, once the twin holds the same state.  Their
    buffer offsets differ: the failed refill left the used-up buffer in
    place, and the twin is on a numpy engine.  The failing engine is read
    through ``random_raw`` only: on the ``-fill`` entry the compiled fill
    refills from it, as the twin's fill refills from its numpy engine, and
    on the ``-no-fill`` entry both make composed draws."""
    config = default_config(kind)
    buffer_words = bitstream._BUFFER_WORDS
    src = UniformSource(0, engine=FailOnceEngine(73, fail_on=2),
                        recycling=config.recycling_enabled)
    twin = UniformSource(73, recycling=config.recycling_enabled)
    draw, twin_draw = (fill_draw(config.table, s) for s in (src, twin))
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
    assert state(src, offset=False) == state(twin, offset=False)
    for _ in range(2000):
        assert draw() == twin_draw()
        assert state(src, offset=False) == state(twin, offset=False)


@over_entries("family", [
    (samplers.NORMAL_GRAND, samplers.EXP_BRENT),
    (samplers.NORMAL_FORSYTHE, samplers.EXP_VN),
], ids=["family0", "family1"])
def test_interleaved_bound_draws_of_one_family_match_the_composed_draw(family):
    """Fill draws of two kinds on one source read each other's moves:
    value by value and state by state against the composed draw."""
    configs = [default_config(kind) for kind in family]
    # one recycling flag per family: on for the dyadic pair, off for the other
    fast, slow = (UniformSource(1234, recycling=configs[0].recycling_enabled)
                  for _ in range(2))
    draws = [fill_draw(config.table, fast) for config in configs]
    ops = random.Random(9)
    while fast.draws < 2 * bitstream._BUFFER_WORDS + 64:
        pick = ops.randrange(2)
        assert draws[pick]() == comparison_draw(configs[pick].table, slow)
        assert state(fast) == state(slow)


@pytest.mark.usefixtures("binding")
@pytest.mark.parametrize("engine_bits", [53, 24])
@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_fill_of_many_variates_matches_the_composed_draws(kind, recycling,
                                                          engine_bits):
    """Fills of 1 to 300 variates, each value against the composed draw and
    the state after each fill, over 8,192 scripted words on a
    2**-engine_bits grid and on into the engine: the store and sign pool
    carried from variate to variate inside one fill, and the buffer's end
    inside it."""
    words = grid_words(5, engine_bits, 8 * bitstream._BUFFER_WORDS)
    draw, fast, reference, slow = fill_and_reference(
        kind, recycling, scripted(words, 5))
    table = default_config(kind, recycling=recycling).table
    sizes = random.Random(11)
    while fast.draws < 8 * bitstream._BUFFER_WORDS + 64:
        values = fast.fill_variates(table, sizes.randint(1, 300))
        assert values.tolist() == [reference() for _ in values]
        assert state(fast) == state(slow)
    assert len(fast.fill_variates(table, 0)) == 0
    assert state(fast) == state(slow)


def fill_only(test):
    """Runs a test on the compiled fill alone, skipped when it does not
    load."""
    on_fill = pytest.mark.parametrize("binding", [FILL], indirect=True)
    return pytest.mark.usefixtures("binding")(on_fill(test))


class OverridesRandomRaw(np.random.PCG64):
    def random_raw(self, size=None, output=True):
        return super().random_raw(size, output)


def refuse_composed_draw(monkeypatch):
    """Makes the composed draw, and ``_refill``, which it and the direct
    calls refill through, fail the test when called."""
    def refuse(*args):
        raise AssertionError("the composed draw ran")

    monkeypatch.setattr(tables, "select_interval", refuse)
    monkeypatch.setattr(UniformSource, "_refill", refuse)


@pytest.mark.parametrize("make_engine", [
    lambda: FakeEngine(np.random.PCG64(7).random_raw(5000)),
    lambda: RawOnly(np.random.PCG64(7)),
    lambda: OverridesRandomRaw(7),
], ids=["fake", "raw-only", "overrides-random-raw"])
@over_entries("kind", KINDS)
def test_an_engine_read_through_random_raw_is_filled_in_c(kind, make_engine,
                                                          monkeypatch):
    """On an engine read through ``random_raw`` only, ``fill_variates``
    and a bound sampler give the composed draw's values and ``draws``, and
    the fill its state.  With the library loaded they run the compiled
    fill, which refills from ``random_raw`` itself, and no composed draw
    runs; without it the bound sampler is the composed draw."""
    config = default_config(kind)
    filled, bound, composed = (
        UniformSource(0, engine=make_engine(),
                      recycling=config.recycling_enabled) for _ in range(3))
    want = [comparison_draw(config.table, composed) for _ in range(700)]
    lib = _fill.library()
    if lib is not None:
        refuse_composed_draw(monkeypatch)
    draw = make_sampler(config, bound)
    if lib is not None:
        assert_compiled_draw(draw, lib)
    else:
        assert draw.func is comparison_draw
    values = filled.fill_variates(config.table, 300).tolist()
    values += filled.fill_variates(config.table, 400).tolist()
    assert values == [draw() for _ in range(700)] == want
    assert filled.draws == bound.draws == composed.draws
    assert state(filled) == state(composed)


# The fill on a numpy engine, whose words it reads itself into the buffer.

NUMPY_ENGINES = ("PCG64", "PCG64DXSM", "Philox", "SFC64")


def lock_is_free(lock):
    """Whether another thread can take ``lock`` now: a reentrant lock
    left held by this thread would let this thread take it again."""
    taken = []

    def probe():
        if lock.acquire(blocking=False):
            lock.release()
            taken.append(True)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join(30)
    assert not thread.is_alive()
    return taken == [True]


@pytest.mark.parametrize("kind", [samplers.NORMAL_GRAND, samplers.EXP_VN])
@over_entries("engine", NUMPY_ENGINES, entries=(FILL,))
def test_fill_reads_a_numpy_engine_as_random_raw_does(engine, kind):
    """Fills on a numpy engine, which refill the source's buffer from the
    engine themselves, and on a twin that reads the same engine through
    ``random_raw`` alone: the same values, state, buffer among it, and
    next uniforms after each fill, and the engine's lock free again."""
    config = default_config(kind)
    fast = UniformSource(0, engine=getattr(np.random, engine)(8),
                         recycling=config.recycling_enabled)
    slow = UniformSource(0, engine=RawOnly(getattr(np.random, engine)(8)),
                         recycling=config.recycling_enabled)
    for n in (1, 700, 5000, 3):
        assert fast.fill_variates(config.table, n) == \
               slow.fill_variates(config.table, n)
        assert state(fast) == state(slow)
        assert lock_is_free(fast._engine.lock)
        # the fill refilled the buffer in place, a refill's words at a time
        assert len(fast._floats) == bitstream._BUFFER_WORDS
        assert [fast.next_uniform() for _ in range(10)] == \
               [slow.next_uniform() for _ in range(10)]
        assert state(fast) == state(slow)


@fill_only
def test_a_source_that_read_its_engine_copies_and_pickles():
    """A source whose fill has refilled its buffer from its numpy engine
    still deep copies and round-trips through pickle, and the copies go
    on with the source's values, each reading its own engine."""
    table = default_config(samplers.EXP_VN).table
    src = UniformSource(9, recycling=False)
    src.fill_variates(table, 500)
    copies = [copy.deepcopy(src), pickle.loads(pickle.dumps(src))]
    values = src.fill_variates(table, 500)
    for twin in copies:
        assert twin.fill_variates(table, 500) == values
        assert state(twin) == state(src)


def in_bounded_time(work):
    """``work()`` run in a worker thread that must end within 30 s: one
    that never returns fails the test and is left behind, a daemon, where
    it cannot hang the run.  Returns what ``work()`` returned."""
    out = []
    thread = threading.Thread(target=lambda: out.append(work()), daemon=True)
    thread.start()
    thread.join(30)
    assert not thread.is_alive()
    assert len(out) == 1
    return out[0]


def overriding_entries(entry, src, twin):
    """Two draws of ``entry`` for the overriding-engine test, on ``src``
    and on ``twin``, which make the same values: ``fill`` reads nothing
    ahead, ``bound`` is a bound exp_vn sampler and ``pass`` the draw of a
    256-value Wallace pool, against ``next_normal`` on the twin's."""
    table = default_config(samplers.EXP_VN).table
    if entry == "fill":
        return (lambda: src.fill_variates(table, 1)[0],
                lambda: twin.fill_variates(table, 1)[0])
    if entry == "bound":
        return src.bind_variates(table), partial(comparison_draw, table, twin)
    pool, twin_pool = wallace.init_pool(256, src), wallace.init_pool(256, twin)
    return (wallace.emit_passes(pool, src),
            partial(wallace.next_normal, twin_pool, twin))


@fill_only
@pytest.mark.parametrize("entry", ["fill", "bound", "pass"])
def test_fill_calls_an_overriding_random_raw(entry):
    """A numpy engine whose class overrides ``random_raw`` is read through
    that override, as an injected engine is, by a fill, a bound draw and a
    Wallace pass, with the values of PCG64's.  No refill holds the
    engine's lock, which the override's ``super().random_raw`` takes:
    another thread can take it at every call, the work ends in bounded
    time, and it leaves the lock free."""
    calls = []

    class Counted(np.random.PCG64):
        def random_raw(self, size=None, output=True):
            calls.append((size, lock_is_free(self.lock)))
            return super().random_raw(size, output)

    src = UniformSource(0, engine=Counted(12), recycling=False)
    twin = UniformSource(12, recycling=False)
    draw, twin_draw = overriding_entries(entry, src, twin)
    assert in_bounded_time(lambda: [draw() for _ in range(12_000)]) == \
           [twin_draw() for _ in range(12_000)]
    assert lock_is_free(src._engine.lock)
    assert src.draws == twin.draws > bitstream._BUFFER_WORDS
    assert len(calls) >= 2
    assert set(calls) == {(bitstream._BUFFER_WORDS, True)}


def waits_for_the_lock(engine, work):
    """Whether ``work()``, run while another thread holds ``engine.lock``,
    returns only after that thread lets it go, and leaves the lock free."""
    held, release, done = (threading.Event() for _ in range(3))

    def hold():
        with engine.lock:
            held.set()
            release.wait(30)

    def run():
        work()
        done.set()

    holder, worker = threading.Thread(target=hold), threading.Thread(target=run)
    holder.start()
    assert held.wait(30)
    worker.start()
    try:
        waited = not done.wait(0.5)
    finally:
        release.set()
    assert done.wait(30)
    for thread in (holder, worker):
        thread.join(30)
        assert not thread.is_alive()
    return waited and lock_is_free(engine.lock)


@fill_only
def test_fill_waits_for_the_engine_lock():
    """A fill on an engine whose lock another thread holds returns only
    after that thread lets it go."""
    engine = np.random.PCG64(4)
    src = UniformSource(0, engine=engine)
    table = default_config(samplers.NORMAL_GRAND).table
    assert waits_for_the_lock(engine, lambda: src.fill_variates(table, 100))
    assert src.draws > 0


@fill_only
def test_fills_and_random_raw_on_one_engine_lose_no_word():
    """Fills that read a PCG64 themselves, and two threads that call
    its ``random_raw``, which lets the interpreter lock go while it draws,
    with thread switches forced often: under the engine's lock every word
    is drawn once, so the engine ends as far on as all their words."""
    engine = np.random.PCG64(6)
    src = UniformSource(0, engine=engine, recycling=False)
    table = default_config(samplers.EXP_VN).table
    raw, stop = [], threading.Event()

    def draw_raw():
        while not stop.is_set():
            raw.append(len(engine.random_raw(20_000)))

    others = [threading.Thread(target=draw_raw) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in others:
            thread.start()
        for _ in range(50):
            src.fill_variates(table, 500)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    for thread in others:
        thread.join(60)
        assert not thread.is_alive()
    # every word of the fills was read into the buffer, refilled in C
    assert len(src._floats) == bitstream._BUFFER_WORDS
    twin = np.random.PCG64(6)
    twin.advance(src._spent + len(src._floats) + sum(raw))
    assert engine.state == twin.state


# The fill across its refill of the source's own buffer: the buffer's
# start, its last words, a new source's empty buffer and a scripted one.

BUFFER_WORDS = bitstream._BUFFER_WORDS
STARTS = ("new", "scripted", 0, 1, BUFFER_WORDS - 1, BUFFER_WORDS)


def buffered(seed, recycling, start, words):
    """A source on ``PCG64(seed)``: as built ("new"), with ``words`` as its
    buffer ("scripted"), or at position ``start`` of its first buffer."""
    src = UniformSource(seed, recycling=recycling)
    if start == "scripted":
        src._floats = array("d", [w / 2 ** 53 for w in words])
    elif start != "new":
        src._refill()
        src._pos = start
    return src


@pytest.mark.usefixtures("compiled_fill")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), recycling=st.booleans(),
       start=st.sampled_from(STARTS),
       words=st.lists(SCRIPT_WORDS, max_size=40),
       n=st.integers(min_value=1, max_value=700),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_fill_is_the_composed_draw_across_the_refill(kind, recycling, start,
                                                     words, n, seed):
    """A fill of n variates from a start near the buffer's end, or on a
    new or scripted buffer, and n composed draws on a twin: the same
    values, ``draws`` after each value, made count and error, then the
    same buffer bytes, ``_pos``, ``_spent``, store and sign pool.  The
    engine is as far on as the words that came into the buffer from it:
    ``_spent + len(_floats)``, less the scripted words."""
    table = default_config(kind, recycling=recycling).table
    kernel = _fill.kernel(table, recycling)
    fast, slow = (buffered(seed, recycling, start, words) for _ in range(2))
    runs = []
    for src, lib in ((fast, _fill.library()), (slow, None)):
        values = array("d", bytes(8 * n))
        counts = array("q", bytes(8 * (n + 1)))
        made, exc = src._fill_into(lib, kernel, values, counts, n)
        runs.append((values.tobytes(), counts.tolist(), made, repr(exc)))
    assert runs[0] == runs[1]
    assert state(fast) == state(slow)
    scripted_words = len(words) if start == "scripted" else 0
    twin = np.random.PCG64(seed)
    twin.advance(fast._spent + len(fast._floats) - scripted_words)
    assert fast._engine.state == twin.state == slow._engine.state


@fill_only
@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_a_fill_that_ends_on_the_buffers_last_word(kind, recycling):
    """A fill whose last variate takes the buffer's last word leaves the
    buffer used up, as the composed draw does, and the next fill refills
    it in place first."""
    table = default_config(kind, recycling=recycling).table
    fast, slow = (UniformSource(21, recycling=recycling) for _ in range(2))
    values = []
    for n in range(1, 20 * BUFFER_WORDS):
        values.append(comparison_draw(table, slow))
        if slow._pos == BUFFER_WORDS:
            break
    else:
        pytest.fail("no variate ended on a buffer's last word")
    assert fast.fill_variates(table, n).tolist() == values
    assert state(fast) == state(slow) and fast._pos == BUFFER_WORDS
    floats, spent = fast._floats, fast._spent
    assert fast.fill_variates(table, 1)[0] == comparison_draw(table, slow)
    assert state(fast) == state(slow)
    assert fast._floats is floats and fast._spent == spent + BUFFER_WORDS


# The bound sampler: blocks filled ahead, by the compiled fill or by the
# composed draw when the fill does not load, emitted value by value.

BLOCK = bitstream.FILL_BLOCK


def bound_and_reference(kind, recycling, make_source):
    """A bound sampler on one source, and the composed draw on a twin;
    each source built by ``make_source``."""
    config = default_config(kind, recycling=recycling)
    src, twin = (make_source(config.recycling_enabled) for _ in range(2))
    return (make_sampler(config, src), src,
            partial(comparison_draw, config.table, twin), twin)


def outcome(draw, src):
    """The value or the error of one draw, and ``draws`` after it."""
    try:
        return draw(), src.draws
    except (RuntimeError, OSError) as exc:
        return repr(exc), src.draws


@pytest.mark.usefixtures("binding")
@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_bound_sampler_matches_the_composed_draw_across_blocks(kind,
                                                               recycling):
    """Value and ``draws`` after every variate, through the ends of three
    read-ahead blocks (B - 1, B, B + 1 and on), with the fill or without
    it.  At each block's end nothing is read ahead, so the whole state
    matches."""
    draw, src, reference, twin = bound_and_reference(
        kind, recycling, lambda r: UniformSource(314, recycling=r))
    assert src.draws == 0
    for i in range(1, 3 * BLOCK + 3):
        assert draw() == reference()
        assert src.draws == twin.draws
        if i % BLOCK == 0:
            assert state(src) == state(twin)


@pytest.mark.usefixtures("binding")
@pytest.mark.parametrize("kind", samplers.SAMPLER_KINDS)
def test_a_bound_source_cannot_be_bound_again(kind):
    """A second make_sampler on a source that a sampler of any kind owns
    raises before it touches the source, for every kind it might bind."""
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
        src.bind_variates(default_config(samplers.NORMAL_GRAND).table)
    assert src.bound


@pytest.mark.parametrize("bind", ["wallace", "exp_log", "no-module",
                                  "module"])
def test_only_the_modules_bound_draw_builds_a_read_ahead(bind, monkeypatch):
    """A bound sampler that reads nothing ahead builds no read-ahead
    record: Wallace and exp_log, whose sources ``make_sampler`` claims
    itself, and a comparison kind bound with no module, whose draw is the
    composed draw.  The module's bound draw builds one.  On each,
    ``draws`` is a twin's after every value."""
    if bind == "module" and _fill.library() is None:
        pytest.skip("the compiled fill did not load")
    built = []

    class Counted(bitstream._ReadAhead):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(bitstream, "_ReadAhead", Counted)
    if bind == "no-module":
        monkeypatch.setattr(_fill, "library", lambda: None)
    kind = {"wallace": samplers.WALLACE,
            "exp_log": samplers.EXP_LOG}.get(bind, samplers.NORMAL_GRAND)
    config = default_config(kind)
    src, twin = (UniformSource(31, recycling=config.recycling_enabled)
                 for _ in range(2))
    draw = make_sampler(config, src)
    if kind == samplers.WALLACE:
        pool = wallace.init_pool(wallace.DEFAULT_POOL_SIZE, twin)
        reference = partial(wallace.next_normal, pool, twin)
    elif kind == samplers.EXP_LOG:
        reference = partial(samplers.exp_log_baseline, twin)
    else:
        reference = partial(comparison_draw, config.table, twin)
    for _ in range(wallace.DEFAULT_POOL_SIZE + 2):
        assert draw() == reference()
        assert src.draws == twin.draws
    assert src.bound
    assert src._bound is (built[0] if bind == "module" else None)
    assert len(built) == (bind == "module")


# Enough stretch words for 4 read-ahead blocks of any kind.
STRETCH_WORDS = 32 * 1024


def stretch_words(seed, n):
    """``n`` words of ``PCG64(seed)``, with the first 65 of every 130
    replaced by a strictly descending stretch from 0.01: a run test that
    reaches one goes on descending until it trips the run cap."""
    words = np.random.PCG64(seed).random_raw(n) >> np.uint64(64 - 53)
    phase = np.arange(n, dtype=np.uint64) % 130
    inside = phase < 65
    words[inside] = (np.uint64(int(0.01 * 2 ** 53))
                     - (phase[inside] << np.uint64(20)))
    return words.tolist()


@pytest.mark.usefixtures("binding")
@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_bound_sampler_raises_where_the_composed_draw_raises(kind, recycling):
    """Run-cap errors inside read-ahead blocks, at many positions in them:
    each raised by the draw where the composed draw raises it, with the
    same ``draws``, and the draws after it go on alike.  The error is
    raised by the emitter's refill, which leaves the draw usable.
    Every word read, read-ahead among them, is scripted."""
    words = stretch_words(5, STRETCH_WORDS)
    draw, src, reference, twin = bound_and_reference(
        kind, recycling, scripted(words))
    raised = set()
    for i in range(3 * BLOCK):
        got = outcome(draw, src)
        assert got == outcome(reference, twin)
        if isinstance(got[0], str):
            raised.add(i)
    assert len({i % BLOCK for i in raised}) >= 5
    assert src._spent + src._pos < len(words)


@pytest.mark.usefixtures("binding")
@pytest.mark.parametrize("empty", [False, True])
@pytest.mark.parametrize("recycling", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_bound_sampler_fails_where_the_composed_draw_fails(kind, recycling,
                                                           empty):
    """An engine that fails once, on a refill inside a read-ahead block:
    the draw that needs the refill raises with the composed draw's
    ``draws``, and the draws after it go on alike.  The engine is read
    through ``random_raw`` only: on the ``-fill`` entry the compiled fill
    makes the bound sampler's blocks, refilling from it, and on the
    ``-no-fill`` entry the composed draw makes every value."""
    draw, src, reference, twin = bound_and_reference(
        kind, recycling,
        lambda r: UniformSource(0, engine=FailOnceEngine(
            29, fail_on=3, empty=empty), recycling=r))
    outcomes = [outcome(draw, src) for _ in range(3 * BLOCK)]
    assert outcomes == [outcome(reference, twin) for _ in range(3 * BLOCK)]
    assert sum(isinstance(value, str) for value, _ in outcomes) == 1


@pytest.mark.usefixtures("binding")
def test_bound_sampler_stops_a_variate_that_never_accepts():
    """A cycle of three words on which exp_vn's third variate never
    accepts: the bound sampler returns two values and then raises the
    trial cap at every draw, as the composed draw does, with the same
    ``draws``.  The read-ahead meets that variate first and reads no
    further, so every word read is scripted."""
    words = NEVER_ACCEPTS * CYCLES
    draw, src, reference, twin = bound_and_reference(
        samplers.EXP_VN, True, scripted(words))
    outcomes = [outcome(draw, src) for _ in range(5)]
    assert outcomes == [outcome(reference, twin) for _ in range(5)]
    assert [isinstance(value, str) for value, _ in outcomes] == \
           [False, False, True, True, True]
    assert "no trial accepted" in outcomes[2][0]
    assert src.draws < len(words)


# The bound draw's own refill: on an engine the fill reads, with the
# module loaded, the draw runs ``fvn_fill_source`` itself.

class WeakPCG64(np.random.PCG64):
    """PCG64 that a weak reference can follow; the fill still reads it."""


def no_python_fill(monkeypatch):
    """Makes the Python-called spellings of the fill fail the test when
    called: ``_fill_into`` and the module's ``fill_source``."""
    def refuse(*args):
        raise AssertionError("a Python fill ran")

    monkeypatch.setattr(UniformSource, "_fill_into", refuse)
    monkeypatch.setattr(_fill.library(), "fill_source", refuse)


@fill_only
@pytest.mark.parametrize("kind", KINDS)
def test_a_bound_draw_refills_its_block_in_c(kind, monkeypatch):
    """On a numpy engine a bound draw refills each block with no Python
    fill: its values and ``draws`` are the composed draw's through four
    blocks.  ``counts`` holds the draws before the block and after each
    value of it, and at each block's end nothing is read ahead."""
    draw, src, reference, twin = bound_and_reference(
        kind, True, lambda r: UniformSource(27, recycling=r))
    no_python_fill(monkeypatch)
    counts = src._bound.counts
    for block in range(4):
        before = twin.draws
        for i in range(BLOCK):
            assert draw() == reference()
            assert src.draws == twin.draws == counts[i + 1]
        assert counts[0] == before
        assert state(src) == state(twin)


@fill_only
def test_a_bound_draw_waits_for_the_engine_lock(monkeypatch):
    """A bound draw whose block is used up refills it only once another
    thread lets the engine's lock go."""
    engine = np.random.PCG64(4)
    src = UniformSource(0, engine=engine)
    draw = make_sampler(default_config(samplers.NORMAL_GRAND), src)
    no_python_fill(monkeypatch)
    assert waits_for_the_lock(engine, draw)
    assert src.draws > 0
    for _ in range(BLOCK - 1):
        draw()
    assert waits_for_the_lock(engine, draw)


@fill_only
def test_a_bound_draw_lets_its_source_and_engine_go_with_it():
    """The draw holds its source, its engine, the block, the cursor and
    the counts while it lives, refilling the block itself, and lets them
    go, with no garbage collection, when it goes."""
    config = default_config(samplers.EXP_BRENT)
    src = UniformSource(0, engine=WeakPCG64(5),
                        recycling=config.recycling_enabled)
    draw = make_sampler(config, src)
    ahead = src._bound
    held = [weakref.ref(obj) for obj in (src, src._engine, ahead.values,
                                         ahead.cursor, ahead.counts)]
    del src, ahead
    for _ in range(3 * BLOCK):
        draw()
    assert all(ref() is not None for ref in held)
    gc.disable()
    try:
        del draw
        assert [ref() for ref in held] == [None] * 5
    finally:
        gc.enable()


@fill_only
@pytest.mark.parametrize("make_engine", [
    lambda: RawOnly(np.random.PCG64(7)),
    lambda: OverridesRandomRaw(7),
], ids=["raw-only", "overrides-random-raw"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_bound_draw_on_a_random_raw_engine_refills_its_block_in_c(
        kind, make_engine, monkeypatch):
    """With the library loaded, a bound draw on an engine read through
    ``random_raw`` only refills each block itself, with no Python fill and
    no composed draw: its values, ``draws`` and ``counts`` are the
    composed draw's on a twin."""
    config = default_config(kind)
    src, twin = (UniformSource(0, engine=make_engine(),
                               recycling=config.recycling_enabled)
                 for _ in range(2))
    blocks = []
    for _ in range(3):
        before = twin.draws
        blocks.append((before, [(comparison_draw(config.table, twin),
                                 twin.draws) for _ in range(BLOCK)]))
    draw = make_sampler(config, src)
    no_python_fill(monkeypatch)
    refuse_composed_draw(monkeypatch)
    counts = src._bound.counts
    for before, block in blocks:
        for i, (value, draws) in enumerate(block):
            assert draw() == value
            assert src.draws == draws == counts[i + 1]
        assert counts[0] == before


# One harness for every engine: the fill, through ``_fill_into`` and
# ``fill_variates``, and the bound draw against the composed draw.

class ShortRaw:
    """PCG64 read through a ``random_raw`` that returns at most ``most``
    words a call, so each refill is a short buffer."""

    def __init__(self, seed, most):
        self._engine = np.random.PCG64(seed)
        self._most = most

    def random_raw(self, size):
        return self._engine.random_raw(min(size, self._most))


# Each engine built from a seed and a drawn k: the call that fails, or
# the length of a short or cycled engine.
ENGINES = {
    "pcg64": lambda seed, k: np.random.PCG64(seed),
    "raw-only": lambda seed, k: RawOnly(np.random.PCG64(seed)),
    "fake": lambda seed, k: FakeEngine(
        np.random.PCG64(seed).random_raw(997 * k)),
    "overrides-random-raw": lambda seed, k: OverridesRandomRaw(seed),
    "short": lambda seed, k: ShortRaw(seed, 7 * k),
    "fail-once": lambda seed, k: FailOnceEngine(seed, fail_on=k),
    "fail-once-empty": lambda seed, k: FailOnceEngine(seed, fail_on=k,
                                                      empty=True),
}


@pytest.mark.usefixtures("compiled_fill")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(engine=st.sampled_from(sorted(ENGINES)),
       k=st.integers(min_value=1, max_value=6),
       kind=st.sampled_from(KINDS), recycling=st.booleans(),
       sizes=st.lists(st.integers(min_value=1, max_value=700), min_size=1,
                      max_size=3),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_every_engine_fills_as_the_composed_draw(engine, k, kind, recycling,
                                                 sizes, seed):
    """On every engine, fills of 1 to 700 variates and a bound draw
    against the composed draw on a twin: the values, ``draws`` after each
    value and the error where the composed draw raises one, with each
    fill's state, buffer bytes, ``_pos`` and ``_spent`` among it, equal to
    the twin's.  A fill stops at the error; the bound draw raises it in
    place and goes on, as the composed draw does."""
    table = default_config(kind, recycling=recycling).table
    lib, kernel = _fill.library(), _fill.kernel(table, recycling)
    counted, filled, bound, twin = (
        UniformSource(0, engine=ENGINES[engine](seed, k), recycling=recycling)
        for _ in range(4))
    draw = bound.bind_variates(table)
    assert_compiled_draw(draw, lib)
    for n in sizes:
        before, want, error = twin.draws, [], None
        for _ in range(n):
            try:
                want.append((comparison_draw(table, twin), twin.draws))
            except (RuntimeError, OSError) as exc:
                error = repr(exc)
                break
        values = array("d", bytes(8 * n))
        counts = array("q", bytes(8 * (n + 1)))
        made, exc = counted._fill_into(lib, kernel, values, counts, n)
        assert list(zip(values[:made], counts[1:made + 1])) == want
        assert counts[0] == before
        assert (None if exc is None else repr(exc)) == error
        try:
            got = filled.fill_variates(table, n).tolist()
        except (RuntimeError, OSError) as exc:
            got = repr(exc)
        assert got == (error or [value for value, _ in want])
        assert state(counted) == state(filled) == state(twin)
        expected = want + ([(error, twin.draws)] if error else [])
        assert [outcome(draw, bound) for _ in expected] == expected
