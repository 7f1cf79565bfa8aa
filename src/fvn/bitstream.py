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

``samplers.comparison_draw`` composes those steps, with
``tables.select_interval`` and ``comparison.run_test``, into one
comparison-method variate; it is the spec of the comparison kernel.
``fill_variates`` makes the same values and reads nothing ahead;
``wallace.init_pool`` bootstraps through it.  ``bind_variates`` gives
the draw of a bound sampler, which keeps ``draws`` exact at the value it
has reached.  With the extension module loaded, both run
``fvn_fill_source`` of ``_fill.c`` on every engine: it reads this
source's state, runs the compiled block fill, which refills the source's
buffer, as ``_refill`` does, once it is used up, and writes the state
back.  ``fill_variates`` calls it through the module's ``fill_source``;
a bound draw, the module's ``Draw``, fills blocks ahead of its caller
with it, with no Python frame per block or value.  When the module does
not load, the composed draw makes every variate.
"""

from __future__ import annotations

import operator
from array import array
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import _fill

if TYPE_CHECKING:
    from .tables import IntervalTable

# Bits per fresh uniform: the most a float64 holds exactly, so every uniform
# is a multiple of 2**-WORD_BITS and its word is read back from it exactly.
WORD_BITS = 53
_UNIT = 2.0 ** WORD_BITS
# Engine words per refill, of ``_refill`` and of the compiled fill's refill
# in place (BUFFER_WORDS in _fill.c).  Words are read in order, so the size
# changes neither the stream nor ``draws``, only how a refill's cost is
# spread: the floats of a 1024-word buffer stay cache-sized, where the
# refill blocks of an 8192-word buffer set the slowest variates of a long
# run.
_BUFFER_WORDS = 1024

# Hard cap on a descending run; Prob(n > 64) < 1/64! even at g = 1, so
# tripping it means a broken (e.g. NaN) input, not bad luck.
MAX_RUN_LENGTH = 64
RUN_OVERFLOW = f"run length exceeded {MAX_RUN_LENGTH}; uniform source is broken"
# Hard cap on the rejected trials of one variate.  A trial accepts with
# probability at least exp(-gmax(k)) >= 1/e, so a working source trips it
# with probability below (1 - 1/e)**1024 < 2**-670; a periodic source whose
# words keep rejecting would otherwise loop for ever.
MAX_TRIALS = 1024
TRIAL_OVERFLOW = f"no trial accepted in {MAX_TRIALS}; uniform source is broken"
# The message of each status of the compiled fill (_fill.FILL_OVERFLOW,
# _fill.FILL_TRIALS), read by _fill.c as it loads; 0 stops nothing.
_FILL_ERRORS = (None, RUN_OVERFLOW, TRIAL_OVERFLOW)
# Every uniform of the method lies in [0, 1), and so must every value on
# the public recycled store: both spellings of the comparison method refuse
# a store that holds one off it, with this message (read by _fill.c too),
# before they touch the source.
STORE_OFF_UNIT = "the recycled store holds a value off [0, 1)"

# Variates per compiled fill of a bound sampler.  A fill lands inside one
# caller's loop iteration, so the block trades the fixed cost of a fill
# call against the longest pause it puts between two values.
FILL_BLOCK = 512


class _ReadAhead:
    """What the module's bound draw has read ahead of its caller: the block
    ``values``, the draw's ``cursor`` over it, the next index and the
    values made (0 while nothing is read ahead), and ``counts``, the draws
    before the block and after each of its variates."""

    def __init__(self):
        self.values = array("d", bytes(8 * FILL_BLOCK))
        self.cursor = array("q", [0, 0])
        self.counts = array("q", bytes(8 * (FILL_BLOCK + 1)))


class UniformSource:
    """Seedable uniform source.  Single-owner: never share across workers.

    The engine is injectable: anything with ``random_raw(size) -> uint64
    array`` of 64-bit words works, as numpy's PCG64, PCG64DXSM, Philox and
    SFC64 do.  MT19937's words are 32-bit, which would put every uniform
    below 2**-32, so it is refused.  Defaults to PCG64.
    The compiled fill refills the buffer as ``_refill`` does once it is
    used up: from a numpy engine whose class keeps numpy's ``random_raw``
    it reads the same words itself with ``next_raw``, into the buffer in
    place, holding ``engine.lock`` over each fill, as ``random_raw``
    does; from any other engine it takes ``_engine_floats()``, with no
    lock held.
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
        self._claimed = False
        # the read-ahead of the module's bound draw (bind_variates), or None
        self._bound: _ReadAhead | None = None

    @property
    def recycling(self) -> bool:
        return self._recycling

    @property
    def bound(self) -> bool:
        """Whether a bound sampler owns this source: see ``claim``."""
        return self._claimed

    def claim(self) -> None:
        """Give the source to a bound sampler, which owns it from now on:
        a second claim raises ValueError."""
        if self._claimed:
            raise ValueError("the source already feeds a bound sampler")
        self._claimed = True

    @property
    def draws(self) -> int:
        """Fresh engine words spent so far; under a bound sampler, by the
        variates it has returned, not by those it has read ahead."""
        ahead = self._bound
        if ahead is None or not ahead.cursor[1]:
            return self._spent + self._pos
        return ahead.counts[ahead.cursor[0]]

    def _engine_floats(self) -> array:
        """The engine's next words, ``random_raw(_BUFFER_WORDS)`` of them
        or as many as it returns, each cut to its top WORD_BITS bits and
        scaled to a float.  RuntimeError when it returns no words."""
        raw = np.asarray(self._engine.random_raw(_BUFFER_WORDS), dtype=np.uint64)
        if not raw.size:
            raise RuntimeError("engine returned no words")
        return array("d", ((raw >> np.uint64(64 - WORD_BITS)) / _UNIT).tobytes())

    def _refill(self) -> array:
        """Replace the used-up buffer with ``_engine_floats()`` and return
        them, for the direct calls and the composed draw.  The spec of the
        compiled fill's refill, which takes the same floats, or on a numpy
        engine writes them in place.

        The old buffer joins ``_spent`` only once the engine has delivered,
        so an engine that raises, or returns no words, leaves ``draws`` at
        the words consumed.
        """
        floats = self._engine_floats()
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

    def fill_variates(self, table: IntervalTable, n: int) -> array:
        """The next ``n`` values of ``samplers.comparison_draw(table,
        self)``, made by ``_fill_into``.  Nothing is read ahead: the source
        is left as ``n`` composed draws leave it, and an error is raised as
        the draw raises it, after the same draws.  The values made before
        an error are lost."""
        values = array("d", bytes(8 * n))
        counts = array("q", bytes(8 * (n + 1)))
        _, exc = self._fill_into(_fill.library(),
                                 _fill.kernel(table, self._recycling),
                                 values, counts, n)
        if exc is not None:
            raise exc
        return values

    def _fill_into(self, lib, kernel, values: array, counts: array,
                   n: int) -> tuple[int, BaseException | None]:
        """Make up to ``n`` variates of ``kernel`` into ``values``, with
        ``draws`` before them in ``counts[0]`` and after each in
        ``counts[1:]``.  Returns how many were made and the error that
        stopped them, if one did; the source is left as the composed draw
        leaves it by then.

        One spelling makes them all: ``fill_source`` of the extension
        module ``lib`` on ``kernel.compiled``, which runs on this source's
        state in C and leaves the composed draw's buffer, ``_pos`` and
        ``_spent``; with ``lib`` None, the composed draw ``kernel.draw``.
        """
        if lib is not None:
            return lib.fill_source(self, kernel.compiled, values, counts, n)
        counts[0] = self._spent + self._pos
        for made in range(n):
            # Whatever the draw raises, a failing engine's error among
            # it, is this variate's error: it is passed on, not handled.
            try:
                values[made] = kernel.draw(self)
            except Exception as exc:
                return made, exc
            counts[made + 1] = self._spent + self._pos
        return n, None

    def bind_variates(self, table: IntervalTable) -> Callable[[], float]:
        """A draw of endless values of ``samplers.comparison_draw(table,
        self)`` for a bound sampler, which ``claim``s the source.

        With the extension module loaded the draw is its ``Draw``, made by
        ``fill_emitter``: it reads ahead, filling a block of FILL_BLOCK
        variates in place with ``fvn_fill_source`` once the last is used,
        and hands them back one per call, with no Python frame.  ``draws``
        is exact after every value; the buffer position, the recycled store
        and the sign pool are those of the block's end.  An error that
        stops a block is held until the values before it are read, so the
        draw raises it where the composed draw does, with the same
        ``draws``, and goes on after it as the composed draw would.  With
        no module the draw is the composed draw itself, which reads nothing
        ahead, so no read-ahead record is built.
        """
        self.claim()
        lib = _fill.library()
        kernel = _fill.kernel(table, self._recycling)
        if lib is None:
            return partial(kernel.draw, self)
        self._bound = ahead = _ReadAhead()
        return lib.fill_emitter(self, kernel.compiled, ahead.values,
                                ahead.cursor, ahead.counts)

    def recycle_pair(self, u_n: float, u_next: float) -> None:
        """Store (u_next - u_n) / (1 - u_n) for reuse: the last step of
        ``comparison.run_test``, and so of each trial of the composed draw.

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
