"""Deterministic uniform bit/real stream with exact draw accounting.

Fresh uniforms are ``word_bits``-bit fixed-point reals in [0, 1), cut from
the top bits of 64-bit engine words: one engine word per fresh uniform.
Only the reals are buffered; a word is read back from its real exactly.
``draws`` is derived, not counted step by step: it is the words of the
buffers already used up plus the position in the current one.  On top of
the raw stream the source offers leading-zero geometric indices, single
sign bits served from a pooled word, the descending run behind every run
test, and a last-in-first-out store of recycled uniforms rebuilt from
run-test leftovers.  Consuming a recycled value never touches ``draws``.

``comparison_variates`` fuses those steps into one generator of whole
comparison-method variates.  It reads the source's state afresh on each
resume, commits it once per variate, and redraws a variate that ran off the
buffer's end from its first word.  A bound draw resumes one generator, a
one-shot call takes the first value of a fresh one.
"""

from __future__ import annotations

from bisect import bisect_right
from math import frexp
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from .tables import IntervalTable

DEFAULT_WORD_BITS = 53
# Engine words per refill.  Words are read in order, so the size changes
# neither the stream nor ``draws``, only how a refill's cost is spread: the
# floats of a 1024-word buffer stay cache-sized, where the refill blocks of
# an 8192-word buffer set the slowest variates of a long run.
_BUFFER_WORDS = 1024

# Hard cap on a descending run; Prob(n > 64) < 1/64! even at g = 1, so
# tripping it means a broken (e.g. NaN) input, not bad luck.
MAX_RUN_LENGTH = 64


class UniformSource:
    """Seedable uniform source.  Single-owner: never share across workers.

    The engine is injectable: anything with ``random_raw(size) -> uint64
    array`` works (every numpy ``BitGenerator`` does).  Defaults to PCG64.
    ``word_bits`` is capped at 53 so every uniform is an exact multiple of
    ``2**-word_bits`` in a float64; word reads are served from those floats.
    """

    def __init__(self, seed: int, word_bits: int = DEFAULT_WORD_BITS,
                 engine=None, recycling: bool = True):
        if not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        if not 1 <= word_bits <= 53:
            raise ValueError(f"word_bits must be in [1, 53], got {word_bits}")
        self.word_bits = word_bits
        self.recycled: list[float] = []
        self.recycling = recycling
        self._engine = engine if engine is not None else np.random.PCG64(seed)
        self._scale = 2.0 ** -word_bits
        self._shift = 64 - word_bits
        self._mask = (1 << word_bits) - 1
        self._floats: list[float] = []
        self._pos = 0
        self._spent = 0         # words in the buffers already used up
        self._sign_word = 0
        self._sign_bits = 0

    @property
    def draws(self) -> int:
        """Fresh engine words spent so far."""
        return self._spent + self._pos

    def _refill(self) -> list[float]:
        """Replace the used-up buffer with fresh floats and return them.
        ``comparison_variates`` puts a rolled-back variate's words in front.

        The old buffer joins ``_spent`` only once the engine has delivered,
        so an engine that raises leaves ``draws`` at the words consumed.
        """
        raw = np.asarray(self._engine.random_raw(_BUFFER_WORDS), dtype=np.uint64)
        floats = ((raw >> np.uint64(self._shift)) * self._scale).tolist()
        self._spent += len(self._floats)
        self._floats, self._pos = floats, 0
        return floats

    def next_word(self) -> int:
        """One fresh word_bits-bit integer, read from its float; one draw."""
        floats, i = self._floats, self._pos
        if i >= len(floats):
            floats, i = self._refill(), 0
        self._pos = i + 1
        return int(floats[i] * 2.0 ** self.word_bits)

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
        one fresh word (an all-zero word clamps to k = word_bits).

        The word_bits - k bits below the leading one-bit are left-justified
        into a recycled uniform, so selection costs one draw and wastes
        nothing.
        """
        w = self.word_bits
        word = self.next_word()
        if word == 0:
            return w
        k = w - word.bit_length() + 1
        if k < w and self.recycling:
            self.recycled.append(((word << k) & self._mask) * self._scale)
        return k

    def random_sign(self) -> int:
        """+1 or -1, each with probability 1/2, from a pooled bit word.

        Costs one draw per word_bits calls, not one per call.
        """
        nb = self._sign_bits
        if nb == 0:
            self._sign_word = self.next_word()
            nb = self.word_bits
        nb -= 1
        self._sign_bits = nb
        return 1 if (self._sign_word >> nb) & 1 else -1

    def descending_run(self, start: float) -> tuple[int, float, float]:
        """Draw uniforms while they strictly decrease below ``start``; stop
        at the first non-decrease.  Returns ``(n, u_n, u_next)``: the run
        length and the terminating pair, with u_n = start when n = 1.

        Draws exactly as ``next_uniform`` would, recycled values first, and
        recycles the terminating pair as ``recycle_pair`` would.  The loop
        reads the buffer directly, which saves a method call per uniform.
        ``comparison_variates`` runs the same loop inline; this method is
        the run test on its own, behind ``comparison.run_test``.
        """
        rec = self.recycled
        prev = start
        n = 0
        # Recycled values first.  The store only grows after the run, so
        # once it is empty every further value is fresh (the else branch).
        while rec:
            u = rec.pop()
            n += 1
            if not u < prev:
                break
            if n >= MAX_RUN_LENGTH:
                raise self._run_overflow()
            prev = u
        else:
            floats = self._floats
            end = len(floats)
            i = self._pos
            try:
                while True:
                    if i >= end:
                        floats = self._refill()
                        i, end = 0, len(floats)
                    u = floats[i]
                    i += 1
                    n += 1
                    if not u < prev:
                        break
                    if n >= MAX_RUN_LENGTH:
                        raise self._run_overflow()
                    prev = u
            finally:
                self._pos = i
        if self.recycling and prev < 1.0:
            r = (u - prev) / (1.0 - prev)
            if r < 1.0:
                rec.append(r)
        return n, prev, u

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
        ``next_uniform`` and ``descending_run`` would, so the stream, the
        draw count and the recycled store match those calls made one by
        one.  A selection leftover or a rejected trial's recycled value that
        the next step would pop straight back off the store is used
        directly instead; the store is the same after every variate.

        The table's constants are bound once.  The source's state (buffer,
        position, recycled store, recycling flag, sign pool) is read afresh
        on every resume and committed once per variate, before its value is
        yielded or its exception raised.  So ``draws`` is exact after every
        variate, direct calls on the source may come between two variates,
        and a suspended generator that is closed or collected writes
        nothing.  An exception ends the generator.

        Reads are not checked against the buffer's end.  A variate that runs
        off it is undone, its words are carried to the front of a refill,
        and it is drawn again from its first word.  If that refill raises,
        the partial variate is committed as a step-by-step draw leaves it.
        """
        by_k, cum = table.by_k, table.cum_probs
        normal, restart = table.is_normal, table.restarts
        w, unit = self.word_bits, 2.0 ** self.word_bits
        while True:
            rec, recycling = self.recycled, self.recycling
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
                            held = None
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
                        # The run test, drawn as descending_run draws it.
                        prev = g
                        n = 0
                        while r:
                            r -= 1
                            u = rec[r]
                            n += 1
                            if not u < prev:
                                break
                            if n >= MAX_RUN_LENGTH:
                                raise self._run_overflow()
                            prev = u
                        else:
                            while True:
                                u = floats[i]
                                i += 1
                                n += 1
                                if not u < prev:
                                    break
                                if n >= MAX_RUN_LENGTH:
                                    raise self._run_overflow()
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

    @staticmethod
    def _run_overflow() -> RuntimeError:
        return RuntimeError(f"run length exceeded {MAX_RUN_LENGTH}; "
                            "uniform source is broken")

    def recycle_pair(self, u_n: float, u_next: float) -> None:
        """Store (u_next - u_n) / (1 - u_n) for reuse.

        The pair must be the terminating pair of a run test (u_n <= u_next),
        which makes the stored value uniform on [0, 1) and independent of
        the run outcome.  A degenerate u_n >= 1 is skipped.  No-op while
        recycling is disabled.
        """
        if u_n > u_next:
            raise ValueError(f"terminating pair must satisfy u_n <= u_next, "
                             f"got ({u_n}, {u_next})")
        if not self.recycling or u_n >= 1.0:
            return
        r = (u_next - u_n) / (1.0 - u_n)
        if r < 1.0:
            self.recycled.append(r)
