"""Full variate generators.

Comparison-method samplers build an Exp(1) or N(0, 1) draw from an interval
selection plus a run test, with no logarithm or trigonometric call on the
sampling path.  There is one kernel, the generator
``UniformSource.comparison_variates``, and the table tells it how to
select and whether a rejection restarts the trial.  The four public
functions, all ``(table, src)``, check their table's scheme and take the
first value of a fresh generator; ``make_sampler`` binds one generator
that it resumes for every draw.  The textbook baselines
(inversion, Box-Muller, polar) are here for distribution cross-checks and
speed comparison only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Callable

from . import tables
from .bitstream import UniformSource
# Not called here: the samplers run UniformSource.comparison_variates.  Kept
# as a module attribute because perfbench/tracing.py wraps samplers.run_test.
from .comparison import run_test  # noqa: F401
# The scheme names double as the names of the samplers built on them.
from .tables import EXP_BRENT, EXP_VN, NORMAL_FORSYTHE

EXP_LOG = "exp_log"
NORMAL_GRAND = "normal_grand"
BOX_MULLER = "box_muller"
POLAR = "polar"
WALLACE = "wallace"

SAMPLER_KINDS = (EXP_VN, EXP_BRENT, EXP_LOG, NORMAL_FORSYTHE, NORMAL_GRAND,
                 BOX_MULLER, POLAR, WALLACE)

# table scheme backing each comparison-method sampler
TABLE_SCHEMES = {
    EXP_VN: tables.EXP_VN,
    EXP_BRENT: tables.EXP_BRENT,
    NORMAL_FORSYTHE: tables.NORMAL_FORSYTHE,
    NORMAL_GRAND: tables.NORMAL_BRENT,
}

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SamplerConfig:
    kind: str
    table: tables.IntervalTable | None = None
    # None: on for a dyadic table only.  The historical algorithms spend
    # fresh uniforms everywhere; the dyadic samplers reuse leftovers.
    recycling_enabled: bool | None = None

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        scheme = TABLE_SCHEMES.get(self.kind)
        if scheme is None:
            if self.table is not None:
                raise ValueError(f"{self.kind} does not take an interval table")
        else:
            if self.table is None:
                raise ValueError(f"{self.kind} requires a {scheme} table")
            if self.table.scheme != scheme:
                raise _scheme_error(self.kind, self.table)
        if self.recycling_enabled is None:
            object.__setattr__(self, "recycling_enabled",
                               self.table is not None and self.table.is_dyadic)


@lru_cache(maxsize=None)
def _cached_table(scheme: str, K: int) -> tables.IntervalTable:
    return tables.build_table(scheme, K)


def default_config(kind: str, K: int | None = None,
                   recycling: bool | None = None) -> SamplerConfig:
    """Config with the scheme-appropriate table and recycling default."""
    scheme = TABLE_SCHEMES.get(kind)
    table = None
    if scheme is not None:
        table = _cached_table(scheme, tables.DEFAULT_TABLE_LEN if K is None else K)
    return SamplerConfig(kind, table, recycling)


def _scheme_error(kind: str, table: tables.IntervalTable) -> ValueError:
    return ValueError(f"{kind} requires scheme {TABLE_SCHEMES[kind]}, "
                      f"got {table.scheme}")


def exp_vn(table: tables.IntervalTable, src: UniformSource) -> float:
    """Exp(1) on unit intervals with mass (e-1)/e^k.

    Every trial pays one uniform to locate the interval in the cumulative
    mass table and one for the position inside it, then runs the run test
    on the position; a rejection restarts the whole trial.  Averages
    (1+e)e/(e-1) ~ 5.88 uniforms per sample.
    """
    if table.scheme != tables.EXP_VN:
        raise _scheme_error(EXP_VN, table)
    return next(src.comparison_variates(table))


def exp_brent(table: tables.IntervalTable, src: UniformSource) -> float:
    """Exp(1) on ln-2-wide intervals selected by leading-zero counting.

    The interval is chosen once; rejected positions are redrawn inside it.
    """
    if table.scheme != tables.EXP_BRENT:
        raise _scheme_error(EXP_BRENT, table)
    return next(src.comparison_variates(table))


def normal_forsythe(table: tables.IntervalTable, src: UniformSource) -> float:
    """N(0, 1) via sqrt(2k-1) intervals and a stored mass table.

    One pooled sign bit, one uniform against the cumulative masses, then
    run tests inside the chosen interval.  Averages about 4.04 fresh
    uniforms per sample (plus the amortized sign bit).
    """
    if table.scheme != tables.NORMAL_FORSYTHE:
        raise _scheme_error(NORMAL_FORSYTHE, table)
    return next(src.comparison_variates(table))


def normal_grand(table: tables.IntervalTable, src: UniformSource) -> float:
    """N(0, 1) via dyadic tail intervals, built not to waste random bits.

    Selection is a leading-zero count whose leftover bits are recycled, the
    sign comes from the pooled bit word, and every run test recycles its
    terminating pair.  With recycling on this runs near 1.4 fresh uniforms
    per sample.
    """
    if table.scheme != tables.NORMAL_BRENT:
        raise _scheme_error(NORMAL_GRAND, table)
    return next(src.comparison_variates(table))


def exp_log_baseline(src: UniformSource) -> float:
    """Exp(1) by inversion, -ln(u); redraws the (measure-zero) u = 0."""
    while True:
        u = src.next_uniform()
        if u > 0.0:
            return -math.log(u)


def box_muller(src: UniformSource) -> tuple[float, float]:
    """One N(0, 1) pair from two uniforms."""
    while True:
        u1 = src.next_uniform()
        if u1 > 0.0:
            break
    u2 = src.next_uniform()
    r = math.sqrt(-2.0 * math.log(u1))
    return r * math.cos(_TWO_PI * u2), r * math.sin(_TWO_PI * u2)


def polar(src: UniformSource) -> tuple[float, float]:
    """One N(0, 1) pair by the polar rejection method."""
    while True:
        v1 = 2.0 * src.next_uniform() - 1.0
        v2 = 2.0 * src.next_uniform() - 1.0
        s = v1 * v1 + v2 * v2
        if 0.0 < s < 1.0:
            f = math.sqrt(-2.0 * math.log(s) / s)
            return v1 * f, v2 * f


def make_sampler(config: SamplerConfig, src: UniformSource) -> Callable[[], float]:
    """Bind a config to a source it will own and return a zero-argument
    draw function.  The source's recycling flag is set from the config.

    No kind has a Python wrapper frame per draw.  A comparison-method kind
    returns the ``__next__`` of a chain over ``src.comparison_variates``
    generators with the table bound: each draw resumes the one generator,
    with no call to the public sampler functions or
    ``tables.select_interval``.  An exception (the run-length cap, a
    failing engine) ends that generator, and the next draw starts a fresh
    one, so the draw goes on working.  The pair samplers return the
    ``__next__`` of a pair iterator: it yields the first value of each pair
    and then the second, and draws a new pair only when the first is due.
    Wallace returns the ``__next__`` of ``wallace.emit_passes``, an
    iterator over one whole pass at a time that begins the next pass on
    the call after the last value.  Each draw returns a Python float, and
    ``src.draws`` is exact after every draw.
    """
    src.recycling = config.recycling_enabled
    kind = config.kind
    if kind == EXP_LOG:
        return lambda: exp_log_baseline(src)
    if kind in (BOX_MULLER, POLAR):
        pair_fn = box_muller if kind == BOX_MULLER else polar
        return chain.from_iterable(iter(partial(pair_fn, src), None)).__next__
    if kind == WALLACE:
        from . import wallace   # deferred: wallace bootstraps via normal_grand

        pool = wallace.init_pool(wallace.DEFAULT_POOL_SIZE, src)
        return wallace.emit_passes(pool, src).__next__
    # SamplerConfig has checked the table's scheme, so the kernel is bound
    # once and each draw resumes it with no check.
    variates = partial(src.comparison_variates, config.table)
    return chain.from_iterable(iter(variates, None)).__next__


def interval_index(table: tables.IntervalTable, value: float) -> int:
    """Which interval a sample landed in (normal samplers fold the sign)."""
    x = abs(value) if table.is_normal else value
    k = bisect_right(table.boundaries, x)
    if k < 1:
        k = 1
    return k if k < table.K else table.K
