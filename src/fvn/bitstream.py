"""Deterministic uniform bit/real stream with exact draw accounting.

Fresh uniforms are ``WORD_BITS``-bit fixed-point reals in [0, 1), cut from
the top bits of 64-bit engine words: one engine word per fresh uniform.
Only the reals are buffered; a word is read back from its real exactly.
``draws`` is derived, not counted step by step: it is the words of the
buffers already used up plus the position in the current one.  On top of
the raw stream the source offers leading-zero geometric indices, single
sign bits served from a pooled word, and a last-in-first-out store of
recycled uniforms rebuilt from run-test leftovers.  Consuming a recycled
value never touches ``draws``.

``comparison_variates`` fuses those steps into one generator of whole
comparison-method variates.  It reads the source's state afresh on each
resume, commits it once per variate, and redraws a variate that ran off the
buffer's end from its first word.  It is the spec of the comparison
kernel, and the one-shot public samplers take the first value of a fresh
one.  ``fill_variates`` makes the same values with the compiled block fill
of ``_fill.c`` (the generator, when the fill does not load) and reads
nothing ahead; ``wallace.init_pool`` bootstraps through it.
``bind_variates``, which a bound sampler draws from, fills blocks ahead of
its caller and keeps ``draws`` exact at the value it has reached.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_right
from functools import partial
from itertools import chain, islice
from math import frexp
from typing import TYPE_CHECKING, Iterator

import numpy as np

from . import _fill

if TYPE_CHECKING:
    from .tables import IntervalTable

# Bits per fresh uniform: the most a float64 holds exactly, so every uniform
# is a multiple of 2**-WORD_BITS and its word is read back from it exactly.
WORD_BITS = 53
_UNIT = 2.0 ** WORD_BITS
# Engine words per refill.  Words are read in order, so the size changes
# neither the stream nor ``draws``, only how a refill's cost is spread: the
# floats of a 1024-word buffer stay cache-sized, where the refill blocks of
# an 8192-word buffer set the slowest variates of a long run.
_BUFFER_WORDS = 1024

# Hard cap on a descending run; Prob(n > 64) < 1/64! even at g = 1, so
# tripping it means a broken (e.g. NaN) input, not bad luck.
MAX_RUN_LENGTH = 64
RUN_OVERFLOW = f"run length exceeded {MAX_RUN_LENGTH}; uniform source is broken"

# Variates per compiled fill of a bound sampler.  A fill lands inside one
# caller's loop iteration, so the block trades the fixed cost of a fill
# call against the longest pause it puts between two values.
FILL_BLOCK = 512


def _raising(exc: BaseException) -> Iterator[float]:
    raise exc
    yield   # makes this a generator, so that ``chain`` raises from it


class _ReadAhead:
    """What a bound sampler has read ahead of its caller: the iterator over
    the block being emitted, None while nothing is read ahead, and the
    draws before the block and after each of its variates."""

    def __init__(self):
        self.it: Iterator[float] | None = None
        self.counts: array | None = None


class UniformSource:
    """Seedable uniform source.  Single-owner: never share across workers.

    The engine is injectable: anything with ``random_raw(size) -> uint64
    array`` of 64-bit words works, as numpy's PCG64, PCG64DXSM, Philox and
    SFC64 do.  MT19937's words are 32-bit, which would put every uniform
    below 2**-32, so it is refused.  Defaults to PCG64.
    ``recycling`` says whether run-test and selection leftovers are stored
    for reuse; it is set here, by the owner, and is read-only after.
    """

    def __init__(self, seed: int, *, engine=None, recycling: bool = True):
        if (isinstance(seed, bool) or not hasattr(seed, "__index__")
                or not 0 <= operator.index(seed) < 2 ** 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        if isinstance(engine, np.random.MT19937):
            raise ValueError("MT19937 returns 32-bit words; the engine must "
                             "return 64-bit words")
        self.recycled: list[float] = []
        self._recycling = recycling
        self._engine = (engine if engine is not None
                        else np.random.PCG64(operator.index(seed)))
        self._floats = array("d")
        self._pos = 0
        self._spent = 0         # words in the buffers already used up
        self._sign_word = 0
        self._sign_bits = 0
        self._bound: _ReadAhead | None = None

    @property
    def recycling(self) -> bool:
        return self._recycling

    @property
    def bound(self) -> bool:
        """Whether ``bind_variates`` has bound a sampler to this source."""
        return self._bound is not None

    @property
    def draws(self) -> int:
        """Fresh engine words spent so far; under a bound sampler, by the
        variates it has returned, not by those it has read ahead."""
        ahead = self._bound
        if ahead is None or ahead.it is None:
            return self._spent + self._pos
        # the array iterator's pickle state is its position in the block
        return ahead.counts[ahead.it.__reduce__()[2]]

    def _refill(self) -> array:
        """Replace the used-up buffer with fresh floats and return them.
        ``comparison_variates`` puts a rolled-back variate's words in front.

        The old buffer joins ``_spent`` only once the engine has delivered,
        so an engine that raises, or returns no words, leaves ``draws`` at
        the words consumed.
        """
        raw = np.asarray(self._engine.random_raw(_BUFFER_WORDS), dtype=np.uint64)
        if not raw.size:
            raise RuntimeError("engine returned no words")
        floats = array("d", ((raw >> np.uint64(64 - WORD_BITS)) / _UNIT).tobytes())
        self._spent += len(self._floats)
        self._floats, self._pos = floats, 0
        return floats

    def next_word(self) -> int:
        """One fresh WORD_BITS-bit integer, read from its float; one draw."""
        floats, i = self._floats, self._pos
        if i >= len(floats):
            floats, i = self._refill(), 0
        self._pos = i + 1
        return int(floats[i] * _UNIT)

    def next_uniform(self) -> float:
        """Uniform in [0, 1): recycled value if one is stored (no draw
        counted), otherwise a fresh word scaled to a real."""
        rec = self.recycled
        if rec:
            return rec.pop()
        i = self._pos
        if i >= len(self._floats):
            self._refill()
            i = 0
        self._pos = i + 1
        return self._floats[i]

    def geometric_index(self) -> int:
        """Index k >= 1 with Prob(k) = 2**-k, from the leading zero bits of
        one fresh word (an all-zero word clamps to k = WORD_BITS).

        The WORD_BITS - k bits below the leading one-bit are left-justified
        into a recycled uniform, so selection costs one draw and wastes
        nothing.
        """
        w = WORD_BITS
        word = self.next_word()
        if word == 0:
            return w
        k = w - word.bit_length() + 1
        if k < w and self._recycling:
            # word << k carries the leading one-bit at bit w: drop it
            self.recycled.append(((word << k) - (1 << w)) / _UNIT)
        return k

    def random_sign(self) -> int:
        """+1 or -1, each with probability 1/2, from a pooled bit word.

        Costs one draw per WORD_BITS calls, not one per call.
        """
        nb = self._sign_bits
        if nb == 0:
            self._sign_word = self.next_word()
            nb = WORD_BITS
        nb -= 1
        self._sign_bits = nb
        return 1 if (self._sign_word >> nb) & 1 else -1

    def comparison_variates(self, table: IntervalTable) -> Iterator[float]:
        """Endless comparison-method variates on ``table``'s scheme.

        A normal scheme draws a pooled sign bit first.  Then an interval k
        is selected (a leading-zero count on one fresh word, or a bisection
        of the cumulative masses by one uniform), a position x in it is
        drawn with one uniform, and the run test accepts x with probability
        exp(-G_k(x)).  G_k is clamped into [0, gmax(k)] as in
        ``IntervalTable.shifted_exponent``.  On a rejection a table that
        ``restarts`` (von Neumann's exp_vn) selects a fresh interval; every
        other table redraws the position inside the chosen interval.

        Each step draws exactly as ``random_sign``, ``tables.select_interval``,
        ``next_uniform`` and ``comparison.run_test`` would, so the stream,
        the draw count and the recycled store match those calls made one by
        one.  A uniform comes off the recycled store while it holds one and
        from the buffer otherwise; sign and leading-zero words are always
        fresh.  A selection leftover or a rejected trial's recycled value
        that the next step would pop straight back off the store is used
        directly instead; the store is the same after every variate.

        The table's constants and the recycling flag are bound once.  The
        source's state (buffer, position, recycled store, sign pool) is read
        afresh on every resume and committed once per variate, before its
        value is yielded or its exception raised.  So ``draws`` is exact
        after every variate, direct calls on the source may come between two
        variates, and a suspended generator that is closed or collected
        writes nothing.  An exception ends the generator.

        Reads are not checked against the buffer's end.  A variate that runs
        off it is undone, its words are carried to the front of a refill,
        and it is drawn again from its first word.  If that refill raises,
        the partial variate is committed as a step-by-step draw leaves it.
        """
        by_k, cum = table.by_k, table.cum_probs
        normal, restart = table.is_normal, table.restarts
        w, unit, recycling = WORD_BITS, _UNIT, self._recycling
        while True:
            rec = self.recycled
            floats, i, r = self._floats, self._pos, len(rec)
            nb, sign_word = self._sign_bits, self._sign_word
            try:
                if normal:
                    if nb == 0:
                        sign_word = int(floats[i] * unit)
                        i += 1
                        nb = w
                    nb -= 1
                    sign = 1 if (sign_word >> nb) & 1 else -1
                else:
                    sign = 1
                # The value the recycled store would serve next, kept here
                # instead of pushed and popped straight back.
                held = None
                while True:
                    if cum is None:
                        # j = k - 1 from u = m * 2**-j, m in [1/2, 1); the
                        # leftover is 2m - 1.  A zero word clamps k to w.
                        m, e = frexp(floats[i])
                        i += 1
                        j = -e if m else w - 1
                        if recycling and j < w - 1:
                            held = m + m - 1.0
                    else:
                        if held is not None:    # a restart
                            u, held = held, None
                        elif r:
                            r -= 1
                            u = rec[r]
                        else:
                            u = floats[i]
                            i += 1
                        j = bisect_right(cum, u)
                    lo, width, top, lo_sq = by_k[j]
                    while True:
                        if held is not None:
                            u = held
                        elif r:
                            r -= 1
                            u = rec[r]
                        else:
                            u = floats[i]
                            i += 1
                        if normal:
                            x = lo + width * u
                            g = (x * x - lo_sq) * 0.5
                        else:
                            g = width * u
                            x = lo + g
                        if not 0.0 <= g <= top:
                            g = 0.0 if g < 0.0 else top
                        # The run test, drawn as comparison.run_test would.
                        prev = g
                        n = 0
                        while True:
                            if r:
                                r -= 1
                                u = rec[r]
                            else:
                                u = floats[i]
                                i += 1
                            n += 1
                            if not u < prev:
                                break
                            if n >= MAX_RUN_LENGTH:
                                raise RuntimeError(RUN_OVERFLOW)
                            prev = u
                        held = None
                        if recycling and prev < 1.0:
                            v = (u - prev) / (1.0 - prev)
                            if v < 1.0:
                                held = v
                        if n & 1 or restart:
                            break
                    if n & 1:
                        break
            except IndexError:
                if i < len(floats):
                    raise
                # Off the buffer's end: undo the variate, carry its words to
                # the front of a refill, and draw it again from there.
                tail = floats[self._pos:]
                self._refill()[:0] = tail
                self._spent -= len(tail)
                i, r = 0, len(rec)
                nb, sign_word = self._sign_bits, self._sign_word
                continue
            finally:
                self._pos = i
                if r < len(rec):
                    del rec[r:]
                if normal:
                    self._sign_bits, self._sign_word = nb, sign_word
            if held is not None:
                rec.append(held)
            yield sign * x

    def fill_variates(self, table: IntervalTable, n: int) -> array:
        """The next ``n`` values of ``comparison_variates(table)``, made by
        the compiled fill when it loads and by that generator otherwise.
        Nothing is read ahead: the source is left as ``n`` draws of the
        generator leave it, and an error is raised as it raises it, after
        the same draws.  The values made before an error are lost."""
        fill = _fill.library()
        if fill is None:
            return array("d", islice(self.comparison_variates(table), n))
        values = array("d", bytes(8 * n))
        counts = array("q", bytes(8 * (n + 1)))
        _, exc = self._fill_into(fill, _fill.kernel(table, self._recycling),
                                 values, counts, n)
        if exc is not None:
            raise exc
        return values

    def _fill_into(self, fill, kernel, values: array, counts: array,
                   n: int) -> tuple[int, BaseException | None]:
        """Make up to ``n`` variates with the compiled fill into ``values``,
        with ``draws`` before them in ``counts[0]`` and after each in
        ``counts[1:]``.  Returns how many were made and the error that
        stopped the fill, if one did; the source is committed as
        ``comparison_variates`` commits it by then.

        A variate that runs off the buffer's end is carried to the front
        of a refill and drawn again, as ``comparison_variates`` does.
        """
        rec = self.recycled
        store = array("d", rec)
        store.frombytes(bytes(8 * n))       # a variate pushes at most one
        floats = self._floats
        st = _fill.State(*floats.buffer_info(), self._pos, self._spent,
                         store.buffer_info()[0], len(rec),
                         self._sign_bits, self._sign_word)
        vaddr, caddr = values.buffer_info()[0], counts.buffer_info()[0]
        counts[0] = self._spent + self._pos
        made, exc = 0, None
        while True:
            made += fill(kernel, st, vaddr + 8 * made, caddr + 8 * (made + 1),
                         n - made)
            if st.status != _fill.FILL_EMPTY:
                break
            tail = floats[st.pos:]
            try:
                floats = self._refill()
            # Whatever the engine raises is the error of this variate: it
            # is passed on, not handled, once the variate is committed.
            except Exception as error:
                st.pos = len(floats)
                st.nstore = st.part_nstore
                st.sign_bits, st.sign_word = st.part_sign_bits, st.part_sign_word
                exc = error
                break
            floats[:0] = tail
            self._spent -= len(tail)
            st.buf, st.nbuf = floats.buffer_info()
            st.pos, st.spent = 0, self._spent
        self._pos = st.pos
        rec[:] = store[:st.nstore]
        self._sign_bits, self._sign_word = st.sign_bits, st.sign_word
        if st.status == _fill.FILL_OVERFLOW:
            exc = RuntimeError(RUN_OVERFLOW)
        return made, exc

    def bind_variates(self, table: IntervalTable) -> Iterator[float]:
        """Endless values of ``comparison_variates(table)`` for a bound
        sampler, which owns the source from now on: a second bind raises
        ValueError, and nothing else may draw from it.

        With the compiled fill the iterator reads ahead: it fills a block
        of FILL_BLOCK variates and emits it through C-level iterators, with
        no Python frame per value.  ``draws`` is exact after every value;
        the buffer position, the recycled store and the sign pool are
        those of the block's end.  An error is raised at the variate where
        the generator raises it, with the same ``draws``, and the values go
        on after it as the generator's would.  Without the fill, the
        iterator resumes ``comparison_variates`` generators, starting a
        fresh one after an error.
        """
        if self._bound is not None:
            raise ValueError("the source already feeds a bound sampler")
        self._bound = ahead = _ReadAhead()
        fill = _fill.library()
        if fill is None:
            return chain.from_iterable(
                iter(partial(self.comparison_variates, table), None))
        return chain.from_iterable(self._blocks(
            fill, _fill.kernel(table, self._recycling), ahead))

    def _blocks(self, fill, kernel, ahead: _ReadAhead) -> Iterator[Iterator[float]]:
        values = array("d", bytes(8 * FILL_BLOCK))
        ahead.counts = array("q", bytes(8 * (FILL_BLOCK + 1)))
        while True:
            made, exc = self._fill_into(fill, kernel, values, ahead.counts,
                                        FILL_BLOCK)
            if made:
                ahead.it = it = iter(values if made == FILL_BLOCK
                                     else values[:made])
                yield it
            if exc is not None:
                # Raised by the iterator being emitted: an exception out of
                # this generator would end the chain for good.
                ahead.it = None
                yield _raising(exc)

    def recycle_pair(self, u_n: float, u_next: float) -> None:
        """Store (u_next - u_n) / (1 - u_n) for reuse: the last step of
        ``comparison.run_test``, which ``comparison_variates`` makes inline.

        The pair must be the terminating pair of a run test (u_n <= u_next),
        which makes the stored value uniform on [0, 1) and independent of
        the run outcome.  A degenerate u_n >= 1 is skipped.  No-op while
        recycling is disabled.
        """
        if u_n > u_next:
            raise ValueError(f"terminating pair must satisfy u_n <= u_next, "
                             f"got ({u_n}, {u_next})")
        if not self._recycling or u_n >= 1.0:
            return
        r = (u_next - u_n) / (1.0 - u_n)
        if r < 1.0:
            self.recycled.append(r)
