"""Pool-based normal generator.

Keeps N pseudo-normal values and refreshes them in place with 4x4
orthogonal transforms applied to randomly regrouped blocks.  Orthogonality
preserves the pool's Euclidean norm, so refreshed values stay normal;
uniforms are spent only on the block permutation and a per-pass variance
correction, not per emitted variate.  The regroup is spelled twice, bit
for bit: ``fvn_refresh`` of the extension module built from
``_fill.c`` runs it whenever that loads, and the numpy regroup in
``refresh`` is its spec and the path of a host with no compiler.

A pass, not a single value, is the unit of emission.  When a pass begins,
the pool is refreshed, the variance correction is redrawn and the
corrected values are written once, in place, into ``NormalPool.emitted``;
every value of that pass is read from this snapshot.  So a direct
``refresh()`` in the middle of a pass is not seen until the next pass
starts.  A bound sampler's draw is ``_fill.emitter`` over the snapshot,
with the start of the next pass as its refill (``emit_passes``).  The
pass is spelled twice too: ``_next_pass`` is its spec, and on an engine
the compiled fill reads, the draw of the extension module's
``pass_emitter`` begins each pass itself in C, with the same words,
bytes and scale and no Python frame.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _fill, samplers
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
# the transforms of even and odd passes, as the compiled pass reads them
_PASS_Q = np.array([ORTHO_Q, ORTHO_Q.T])
_ORTHO_Q_T = _PASS_Q[1]


@dataclass
class NormalPool:
    """Pool state.  ``emitted`` holds ``values * emit_scale`` as they were
    when the current pass began, and emission reads only it."""

    values: np.ndarray      # N pseudo-normal values, refreshed in place
    pass_count: int         # refreshes performed
    norm_sq: float          # squared norm recorded at initialization
    read_cursor: int        # next value to emit
    emit_scale: float       # sqrt(S / norm_sq), redrawn once per pass
    emitted: array | None = None    # array("d") of N, made by init_pool


def _pass_scale(pool: NormalPool, src: UniformSource) -> float:
    """Variance correction for the frozen pool norm.

    A live pool would have squared norm ~ chi-square(N); this one is pinned
    at norm_sq forever.  Redrawing S ~ chi-square(N) (Wilson-Hilferty, one
    fresh gaussian) once per pass and emitting values * sqrt(S / norm_sq)
    restores the missing spread.  The compiled pass of ``emit_passes``
    computes it with the same operations in the same order: the float
    ``** 3`` is libm's ``pow(x, 3.0)``, as in C.
    """
    n = pool.values.size
    c = 2.0 / (9.0 * n)
    s = n * (1.0 - c + samplers.box_muller(src)[0] * math.sqrt(c)) ** 3
    return math.sqrt(s / pool.norm_sq)


def _block_stride(n: int, word: int) -> tuple[int, int]:
    """The stride, coprime to n, and the offset of the block permutation
    that one word picks."""
    stride = (word & 0xFFFFFFFF) | 1
    while math.gcd(stride, n) != 1:
        stride += 2
    return stride, (word >> 32) % n


def _block_permutation(n: int, word: int) -> np.ndarray:
    """Full-cycle stride permutation of range(n) derived from one word."""
    stride, offset = _block_stride(n, word)
    return (stride * np.arange(n) + offset) % n


def _c_regroups(values: np.ndarray) -> bool:
    """Whether ``fvn_refresh`` reads ``values`` in place: 1-D,
    C-contiguous, aligned, writeable float64 with a size that is a
    multiple of BLOCK."""
    return (values.ndim == 1 and values.flags.carray
            and values.dtype == np.float64 and values.size % BLOCK == 0)


def init_pool(size: int, src: UniformSource) -> NormalPool:
    """Bootstrap a pool of ``size`` comparison-method normals: normal_grand's
    stream under ``src``'s own recycling flag, made by one exact
    ``src.fill_variates``, the compiled fill when it loads.  It reads
    nothing ahead, so ``src`` is left as ``size`` composed draws
    (``samplers.comparison_draw``) leave it.  A wallace config has
    recycling off, so a pool bound by ``make_sampler`` is normal_grand's
    stream with recycling off."""
    if size < MIN_POOL_SIZE or size % BLOCK != 0:
        raise ValueError(f"pool size must be a multiple of {BLOCK} and "
                         f">= {MIN_POOL_SIZE}, got {size}")
    table = samplers.default_config(samplers.NORMAL_GRAND).table
    values = np.array(src.fill_variates(table, size))
    pool = NormalPool(values=values, pass_count=0,
                      norm_sq=float(values @ values), read_cursor=0,
                      emit_scale=1.0, emitted=array("d", bytes(8 * size)))
    pool.emit_scale = _pass_scale(pool, src)
    _snapshot(pool)
    return pool


def refresh(pool: NormalPool, src: UniformSource) -> None:
    """Regroup the pool into random 4-blocks and transform each, spending
    one uniform word; the squared norm is preserved to rounding error.

    ``fvn_refresh`` makes the same bytes as the numpy regroup below when
    the extension module loads and ``values`` is laid out as C reads it
    (``_c_regroups``).  Any other pool, one built by hand among them,
    takes the numpy regroup, with its result or its error."""
    values = pool.values
    n = values.size
    word = src.next_word()
    q = _ORTHO_Q_T if pool.pass_count % 2 else ORTHO_Q
    lib = _fill.library()
    if lib is not None and _c_regroups(values):
        stride, offset = _block_stride(n, word)
        lib.fvn_refresh(values, stride % n, offset, q)
    else:
        idx = _block_permutation(n, word)
        blocks = values[idx].reshape(-1, BLOCK)
        values[idx] = (blocks @ q.T).ravel()
    pool.pass_count += 1


def _snapshot(pool: NormalPool) -> None:
    # values * emit_scale in float64 is the same IEEE multiply as
    # emit_scale * float(values[i]).  numpy writes the products straight
    # into the array("d"), in place, and a draw makes each Python float
    # only as it is read; tolist() would build all N floats at every pass.
    np.multiply(pool.values, pool.emit_scale, out=np.frombuffer(pool.emitted))


def _next_pass(pool: NormalPool, src: UniformSource) -> None:
    """Begin a pass: refresh, redraw the variance correction, snapshot."""
    refresh(pool, src)
    pool.emit_scale = _pass_scale(pool, src)
    _snapshot(pool)


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


def emit_passes(pool: NormalPool, src: UniformSource) -> Callable[[], float]:
    """A zero-argument draw of the values of a fresh pool: the current
    pass's snapshot, then one new pass each time the last is used up.  It
    returns exactly what ``next_normal`` would, with the same draws after
    every value, but it is the extension module's ``Draw`` over
    ``pool.emitted`` when the module loads: no Python frame per value.
    Its refill begins the next pass.  When the module loads, ``src``'s
    engine is one the fill reads (``UniformSource._engine_reader``) and
    ``pool.values`` is as C reads it (``_c_regroups``) and as long as
    ``emitted``, the draw is ``pass_emitter``'s, which does that itself in
    C, with no Python frame, and holds ``pool.values``; otherwise it is
    ``_fill.emitter``'s, whose refill is ``_next_pass``, with its values
    and errors.  The compiled pass reads the ``values`` array the pool has
    now.  It does not move ``read_cursor``, so the pool must be new
    (cursor 0) and owned by the draw."""
    cursor = array("q", [0, len(pool.emitted)])
    lib = _fill.library()
    engine = None if lib is None else src._engine_reader()
    if (engine is not None and _c_regroups(pool.values)
            and pool.values.size == len(pool.emitted)):
        return lib.pass_emitter(pool, src, engine, pool.emitted, cursor,
                                _PASS_Q)

    def refill() -> None:
        _next_pass(pool, src)
        cursor[0] = 0

    return _fill.emitter(refill, pool.emitted, cursor, lib)
