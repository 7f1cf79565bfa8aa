"""Deterministic uniform bit/real stream with exact draw accounting.

Fresh uniforms are ``word_bits``-bit fixed-point reals in [0, 1), cut from
the top bits of buffered 64-bit engine words: one engine word per fresh
uniform, counted in ``draws``.  On top of the raw stream the source offers
leading-zero geometric indices, single sign bits served from a pooled word,
the descending run behind every run test, and a last-in-first-out store of
recycled uniforms rebuilt from run-test leftovers.  Consuming a recycled
value never touches ``draws``.
"""

from __future__ import annotations

import numpy as np

DEFAULT_WORD_BITS = 53
_BUFFER_WORDS = 8192

# Hard cap on a descending run; Prob(n > 64) < 1/64! even at g = 1, so
# tripping it means a broken (e.g. NaN) input, not bad luck.
MAX_RUN_LENGTH = 64


class UniformSource:
    """Seedable uniform source.  Single-owner: never share across workers.

    The engine is injectable: anything with ``random_raw(size) -> uint64
    array`` works (every numpy ``BitGenerator`` does).  Defaults to PCG64.
    ``word_bits`` is capped at 53 so every uniform is an exact multiple of
    ``2**-word_bits`` in a float64.
    """

    def __init__(self, seed: int, word_bits: int = DEFAULT_WORD_BITS,
                 engine=None, recycling: bool = True):
        if not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        if not 1 <= word_bits <= 53:
            raise ValueError(f"word_bits must be in [1, 53], got {word_bits}")
        self.word_bits = word_bits
        self.draws = 0
        self.recycled: list[float] = []
        self.recycling = recycling
        self._engine = engine if engine is not None else np.random.PCG64(seed)
        self._scale = 2.0 ** -word_bits
        self._shift = 64 - word_bits
        self._mask = (1 << word_bits) - 1
        self._ints: list[int] = []
        self._floats: list[float] = []
        self._pos = 0
        self._sign_word = 0
        self._sign_bits = 0

    def _refill(self) -> None:
        raw = np.asarray(self._engine.random_raw(_BUFFER_WORDS), dtype=np.uint64)
        words = raw >> np.uint64(self._shift)
        self._ints = words.tolist()
        self._floats = (words * self._scale).tolist()
        self._pos = 0

    def next_word(self) -> int:
        """One fresh word_bits-bit integer; always counts one draw."""
        i = self._pos
        if i >= len(self._ints):
            self._refill()
            i = 0
        self._pos = i + 1
        self.draws += 1
        return self._ints[i]

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
        self.draws += 1
        return self._floats[i]

    def geometric_index(self) -> int:
        """Index k >= 1 with Prob(k) = 2**-k, from the leading zero bits of
        one fresh word (an all-zero word clamps to k = word_bits).

        The word_bits - k bits below the leading one-bit are left-justified
        into a recycled uniform, so selection costs one draw and wastes
        nothing.
        """
        w = self.word_bits
        i = self._pos
        if i >= len(self._ints):
            self._refill()
            i = 0
        self._pos = i + 1
        self.draws += 1
        word = self._ints[i]
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
            i = i0 = self._pos
            while True:
                if i >= end:
                    self.draws += i - i0
                    self._refill()
                    floats = self._floats
                    end = len(floats)
                    i = i0 = 0
                u = floats[i]
                i += 1
                n += 1
                if not u < prev:
                    break
                if n >= MAX_RUN_LENGTH:
                    self._pos = i
                    self.draws += i - i0
                    raise self._run_overflow()
                prev = u
            self._pos = i
            self.draws += i - i0
        if self.recycling and prev < 1.0:
            r = (u - prev) / (1.0 - prev)
            if r < 1.0:
                rec.append(r)
        return n, prev, u

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
