"""Pool-based normal generator.

Keeps N pseudo-normal values and refreshes them in place with 4x4
orthogonal transforms applied to randomly regrouped blocks.  Orthogonality
preserves the pool's Euclidean norm, so refreshed values stay normal;
uniforms are spent only on the block permutation and a per-pass variance
correction, not per emitted variate.

A pass, not a single value, is the unit of emission.  When a pass begins,
the pool is refreshed, the variance correction is redrawn and the
corrected values are copied once into ``NormalPool.emitted``; every value
of that pass is read from this snapshot.  So a direct ``refresh()`` in the
middle of a pass is not seen until the next pass starts.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Iterator

import numpy as np

from . import samplers
from .bitstream import UniformSource

BLOCK = 4
MIN_POOL_SIZE = 256
DEFAULT_POOL_SIZE = 4096

# Row-permuted Hadamard over 4 points, scaled by 1/2: entries are exact in
# binary so Q^T Q == I with zero rounding error.  Not symmetric, so
# alternating with the transpose actually alternates.
ORTHO_Q = 0.5 * np.array([
    [1.0,  1.0,  1.0,  1.0],
    [1.0, -1.0,  1.0, -1.0],
    [1.0, -1.0, -1.0,  1.0],
    [1.0,  1.0, -1.0, -1.0],
])
_ORTHO_Q_T = np.ascontiguousarray(ORTHO_Q.T)


@dataclass
class NormalPool:
    """Pool state.  ``emitted`` holds ``values * emit_scale`` as they were
    when the current pass began, and emission reads only it."""

    values: np.ndarray      # N pseudo-normal values, refreshed in place
    pass_count: int         # refreshes performed
    norm_sq: float          # squared norm recorded at initialization
    read_cursor: int        # next value to emit
    emit_scale: float       # sqrt(S / norm_sq), redrawn once per pass
    emitted: array | None = None    # array("d") snapshot, set by init_pool


def _pass_scale(pool: NormalPool, src: UniformSource) -> float:
    """Variance correction for the frozen pool norm.

    A live pool would have squared norm ~ chi-square(N); this one is pinned
    at norm_sq forever.  Redrawing S ~ chi-square(N) (Wilson-Hilferty, one
    fresh gaussian) once per pass and emitting values * sqrt(S / norm_sq)
    restores the missing spread.
    """
    n = pool.values.size
    c = 2.0 / (9.0 * n)
    s = n * (1.0 - c + samplers.box_muller(src)[0] * math.sqrt(c)) ** 3
    return math.sqrt(s / pool.norm_sq)


def _block_permutation(n: int, word: int) -> np.ndarray:
    """Full-cycle stride permutation of range(n) derived from one word."""
    stride = (word & 0xFFFFFFFF) | 1
    while math.gcd(stride, n) != 1:
        stride += 2
    offset = (word >> 32) % n
    return (stride * np.arange(n) + offset) % n


def init_pool(size: int, src: UniformSource) -> NormalPool:
    """Bootstrap a pool of ``size`` comparison-method normals: normal_grand's
    stream under ``src``'s own recycling flag, made by one exact
    ``src.fill_variates``, the compiled fill when it loads.  It reads
    nothing ahead, so ``src`` is left as ``size`` draws of the Python
    kernel leave it.  A wallace config has recycling off, so a pool bound
    by ``make_sampler`` is normal_grand's stream with recycling off."""
    if size < MIN_POOL_SIZE or size % BLOCK != 0:
        raise ValueError(f"pool size must be a multiple of {BLOCK} and "
                         f">= {MIN_POOL_SIZE}, got {size}")
    table = samplers.default_config(samplers.NORMAL_GRAND).table
    values = np.array(src.fill_variates(table, size))
    pool = NormalPool(values=values, pass_count=0,
                      norm_sq=float(values @ values), read_cursor=0,
                      emit_scale=1.0)
    pool.emit_scale = _pass_scale(pool, src)
    _snapshot(pool)
    return pool


def refresh(pool: NormalPool, src: UniformSource) -> None:
    """Regroup the pool into random 4-blocks and transform each, spending
    one uniform word; the squared norm is preserved to rounding error."""
    idx = _block_permutation(pool.values.size, src.next_word())
    q = ORTHO_Q if pool.pass_count % 2 == 0 else _ORTHO_Q_T
    blocks = pool.values[idx].reshape(-1, BLOCK)
    pool.values[idx] = (blocks @ q.T).ravel()
    pool.pass_count += 1


def _snapshot(pool: NormalPool) -> array:
    # values * emit_scale in float64 is the same IEEE multiply as
    # emit_scale * float(values[i]).  An array("d") copy is close to a
    # memcpy, and its iterator makes each Python float only as it is read;
    # tolist() would build all N floats at the start of every pass.
    pool.emitted = array("d", (pool.values * pool.emit_scale).tobytes())
    return pool.emitted


def _next_pass(pool: NormalPool, src: UniformSource) -> array:
    """Begin a pass: refresh, redraw the variance correction, snapshot."""
    refresh(pool, src)
    pool.emit_scale = _pass_scale(pool, src)
    return _snapshot(pool)


def next_normal(pool: NormalPool, src: UniformSource) -> float:
    """Emit the next value of the snapshot taken when the current pass
    began; a ``refresh()`` made since is not seen until the next pass.  The
    call after the last value begins that pass: refresh, a new scale, a
    new snapshot."""
    i = pool.read_cursor
    if i >= pool.values.size:
        _next_pass(pool, src)
        i = 0
    pool.read_cursor = i + 1
    return pool.emitted[i]


def emit_passes(pool: NormalPool, src: UniformSource) -> Iterator[float]:
    """Iterator over the values of a fresh pool: the current pass's
    snapshot, then one new pass each time the last is used up.  It yields
    exactly what ``next_normal`` would, with the same draws after every
    value, but it runs in C with no Python frame per value.  It does not
    move ``read_cursor``, so the pool must be new (cursor 0) and owned by
    the iterator."""
    passes = chain([pool.emitted], iter(partial(_next_pass, pool, src), None))
    return chain.from_iterable(passes)
