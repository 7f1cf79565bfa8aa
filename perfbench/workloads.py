"""The benchmark's workloads and the block loop that drives them.

Every workload draws through the public ``samplers.make_sampler`` on
``UniformSource`` objects built here, each with the recycling flag its
config asks for.  A block is one pass over the workload's samplers, with
``BLOCK // len(samplers)`` variates from each in turn, so the block-time
distribution is one population even when the samplers differ in cost.

This module imports only the standard library at load time, so the set-up
probe can import it before it starts the clock on ``import fvn``.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from time import perf_counter, thread_time

# Variates per block: about 1.3 ms of comparison-method draws, and 16
# blocks per Wallace pool pass, so a refresh lands in 1 block in 16.
BLOCK = 256
# Untimed blocks that fill the engine buffers and the sampler caches.
WARMUP_BLOCKS = 32
# The stream prefix that is hashed, gated and counted: warm-up included,
# 524,288 variates.  At 262,144 exp_vn draws the +-0.05 consumption band
# is more than 6 standard errors wide.
PREFIX_BLOCKS = 2048

# (sampler kind, recycling) per workload, drawn in this order in a block.
WORKLOADS = {
    # Brent's dyadic samplers: leading-zero selection, recycled leftovers,
    # redraws inside the chosen interval.  Wallace is idle.
    "dyadic": (("normal_grand", True), ("exp_brent", True)),
    # The historical algorithms: selection by bisecting stored masses,
    # every uniform fresh, and exp_vn restarts the whole trial.
    "classic": (("normal_forsythe", False), ("exp_vn", False)),
    # The Wallace pool: the run test and the bit stream only run in the
    # 4096-draw bootstrap and once per pass.
    "wallace": (("wallace", False),),
}

_NAN = float("nan")
_MASK64 = 0xFFFFFFFFFFFFFFFF


def source_seed(seed: int, index: int) -> int:
    """Seed of the workload's index-th source, derived from the run seed."""
    return (seed * 0x9E3779B97F4A7C15 + index) & _MASK64


def _reference_values(n: int = 4096) -> list[float]:
    x, out = 0x2545F4914F6CDD1D, []
    for _ in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK64
        out.append((x >> 11) * 2.0 ** -53)
    return out


_REFERENCE_VALUES = _reference_values()
# Run tests per reference loop: about as long as a wallace block.
REFERENCE_RUNS = 1000


class _ReferenceStream:
    def __init__(self):
        self.pos = 0
        self.draws = 0

    def next(self) -> float:
        i = self.pos
        if i >= len(_REFERENCE_VALUES):
            i = 0
        self.pos = i + 1
        self.draws += 1
        return _REFERENCE_VALUES[i]


def timed_reference() -> tuple[float, float]:
    """Wall and CPU seconds of one reference loop."""
    c0 = thread_time()
    t0 = perf_counter()
    reference_loop()
    t1 = perf_counter()
    return t1 - t0, thread_time() - c0


def reference_loop(runs: int = REFERENCE_RUNS) -> int:
    """Fixed pure-Python work that uses no fvn code: descending-run tests
    on a fixed list of floats, through a method call per value, which is
    the same kind of interpreter work as a draw.  Timed after every block,
    it measures how fast the host runs such code right then."""
    stream = _ReferenceStream()
    nxt = stream.next
    odd = 0
    for _ in range(runs):
        prev = 0.5
        n = 0
        while True:
            u = nxt()
            n += 1
            if u < prev:
                prev = u
                continue
            break
        odd += n & 1
    return odd


class Workload:
    """The samplers of one workload, each on its own fresh source.

    ``wrap_source`` lets the traced run put its shims on a source before
    the sampler is bound to it, so the Wallace bootstrap is traced too.
    """

    def __init__(self, name: str, seed: int, wrap_source=None):
        from fvn import UniformSource, samplers

        self.name = name
        self.kinds = tuple(kind for kind, _ in WORKLOADS[name])
        self.sources = []
        self.draws = []
        for i, (kind, recycling) in enumerate(WORKLOADS[name]):
            config = samplers.default_config(kind, recycling=recycling)
            src = UniformSource(source_seed(seed, i),
                                recycling=config.recycling_enabled)
            if wrap_source is not None:
                wrap_source(src, kind)
            self.sources.append(src)
            self.draws.append(samplers.make_sampler(config, src))
        self.share = BLOCK // len(self.draws)
        self._range = range(self.share)

    def first_variates(self) -> list[float]:
        return [draw() for draw in self.draws]

    def run_block(self) -> tuple[list[float], float, float]:
        """One block: ``share`` variates from each sampler in turn, and the
        wall and CPU seconds it took.  A draw that raises is recorded as
        NaN."""
        out: list[float] = []
        append = out.append
        rng = self._range
        c0 = thread_time()
        t0 = perf_counter()
        for draw in self.draws:
            for _ in rng:
                try:
                    append(draw())
                except Exception:          # counted as failed via the NaN
                    append(_NAN)
        t1 = perf_counter()
        return out, t1 - t0, thread_time() - c0


class Prefix:
    """The first PREFIX_BLOCKS blocks of a workload's stream: its SHA-256,
    the values of each sampler for the gate, and the engine words spent by
    the time the prefix is complete (set-up included)."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.blocks = 0
        self.sha = hashlib.sha256()
        self.values = [array("d") for _ in workload.kinds]
        self.words_per_source: list[int] = []

    @property
    def complete(self) -> bool:
        return self.blocks >= PREFIX_BLOCKS

    def add(self, block: list[float]) -> None:
        if self.complete:
            return
        packed = array("d", block)
        self.sha.update(packed.tobytes())
        share = self.workload.share
        for i, kept in enumerate(self.values):
            kept.extend(packed[i * share:(i + 1) * share])
        self.blocks += 1
        if self.complete:
            self.words_per_source = [src.draws for src in self.workload.sources]

    @property
    def variates(self) -> int:
        return self.blocks * BLOCK

    def uniforms_per_variate(self) -> float:
        return sum(self.words_per_source) / self.variates

    def digest(self) -> str:
        return self.sha.hexdigest()


def count_failed(block: list[float]) -> int:
    return sum(1 for v in block if not math.isfinite(v))
