"""Pool-based normal generator.

Keeps N pseudo-normal values and refreshes them in place with 4x4
orthogonal transforms applied to randomly regrouped blocks.  Orthogonality
preserves the pool's Euclidean norm, so refreshed values stay normal;
uniforms are spent only on the block permutation and a per-pass variance
correction, not per emitted variate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    values: np.ndarray      # N pseudo-normal values, refreshed in place
    pass_count: int         # refreshes performed
    norm_sq: float          # squared norm recorded at initialization
    read_cursor: int        # next value to emit
    emit_scale: float       # sqrt(S / norm_sq), redrawn once per pass


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
    """Bootstrap a pool of ``size`` comparison-method normals."""
    if size < MIN_POOL_SIZE or size % BLOCK != 0:
        raise ValueError(f"pool size must be a multiple of {BLOCK} and "
                         f">= {MIN_POOL_SIZE}, got {size}")
    table = samplers.default_config(samplers.NORMAL_GRAND).table
    values = np.array([samplers.normal_grand(table, src) for _ in range(size)])
    pool = NormalPool(values=values, pass_count=0,
                      norm_sq=float(values @ values), read_cursor=0,
                      emit_scale=1.0)
    pool.emit_scale = _pass_scale(pool, src)
    return pool


def refresh(pool: NormalPool, src: UniformSource) -> None:
    """Regroup the pool into random 4-blocks and transform each, spending
    one uniform word; the squared norm is preserved to rounding error."""
    idx = _block_permutation(pool.values.size, src.next_word())
    q = ORTHO_Q if pool.pass_count % 2 == 0 else _ORTHO_Q_T
    blocks = pool.values[idx].reshape(-1, BLOCK)
    pool.values[idx] = (blocks @ q.T).ravel()
    pool.pass_count += 1


def next_normal(pool: NormalPool, src: UniformSource) -> float:
    """Emit the next pool value (variance-corrected); refresh on wraparound."""
    i = pool.read_cursor
    if i >= pool.values.size:
        refresh(pool, src)
        pool.emit_scale = _pass_scale(pool, src)
        i = 0
    pool.read_cursor = i + 1
    return pool.emit_scale * float(pool.values[i])
