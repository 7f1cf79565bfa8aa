"""Full variate generators.

Comparison-method samplers build an Exp(1) or N(0, 1) draw from an interval
selection plus a run test, with no logarithm or trigonometric call on the
sampling path.  The table tells the draw how to select and whether a
rejection restarts the trial.  Each kind has one table, the cached
K = DEFAULT_TABLE_LEN table of its scheme, which its ``SamplerConfig``
holds.  The method is spelled twice, to the same values bit for bit:
``comparison_draw``, the spec, composes the source's public steps with
``tables.select_interval`` and ``comparison.run_test``, and the compiled
block fill ``fvn_fill_source`` does the same steps inline on every
engine; when the fill does not load, the composed draw makes every
variate.  The four public functions take only ``src`` and return one
composed draw on their kind's table.  ``make_sampler`` binds a comparison
kind to ``src.bind_variates``.  With the extension module loaded, that
draw and Wallace's are its builtin ``draw``, bound to a ``Draw`` that
holds the state, which reads ahead: it refills a comparison kind's
block, or begins Wallace's next pass, in C.  CPython 3.11 specialises a
call to a builtin, not to an object of a vectorcall type, so a caller's
loop calls the draw's C function directly.  The
textbook baselines (inversion, Box-Muller, polar) are here for
distribution cross-checks, for ``fvn generate`` and ``fvn consumption``,
and for perfbench's ``samplers.*_ns`` timings.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import KW_ONLY, dataclass, field
from functools import lru_cache, partial
from itertools import chain
from typing import Callable

from . import tables
from .bitstream import MAX_TRIALS, TRIAL_OVERFLOW, UniformSource
from .comparison import run_test
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
    # set from the kind: its scheme's cached DEFAULT_TABLE_LEN table, or None
    table: tables.IntervalTable | None = field(init=False)
    _: KW_ONLY
    # None: on for a dyadic table only.  The historical algorithms spend
    # fresh uniforms everywhere; the dyadic samplers reuse leftovers.
    recycling_enabled: bool | None = None

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        scheme = TABLE_SCHEMES.get(self.kind)
        table = None if scheme is None else _cached_table(scheme)
        object.__setattr__(self, "table", table)
        if self.recycling_enabled is None:
            object.__setattr__(self, "recycling_enabled",
                               table is not None and table.is_dyadic)


@lru_cache(maxsize=None)
def _cached_table(scheme: str) -> tables.IntervalTable:
    return tables.IntervalTable(scheme)


def default_config(kind: str, *, recycling: bool | None = None) -> SamplerConfig:
    """Config with the kind's one table and its recycling default."""
    return SamplerConfig(kind, recycling_enabled=recycling)


def comparison_draw(table: tables.IntervalTable, src: UniformSource) -> float:
    """One comparison-method variate on ``table``: a pooled sign bit on a
    normal scheme, the interval selection, a position uniform in the
    interval (read from its ``by_k`` row, as the fill reads it) and the run
    test on its shifted exponent.  A rejection restarts the trial with a
    new interval on a table that ``restarts`` (von Neumann's exp_vn) and
    redraws the position otherwise.  After MAX_TRIALS rejected trials of
    one variate the source must be broken, and RuntimeError is raised.
    A recycled store that holds a value off [0, 1) is refused with
    ValueError before the source is touched."""
    src.check_store()
    sign = src.random_sign() if table.is_normal else 1
    trials = 0
    while True:
        k = tables.select_interval(table, src)
        lo, width, _, _ = table.by_k[k - 1]
        while True:
            if table.is_normal:
                x = lo + width * src.next_uniform()
                g = table.shifted_exponent(k, x)
            else:
                # x = lo + g, as the fill rounds it; g <= width = gmax(k)
                g = width * src.next_uniform()
                x = lo + g
            if run_test(g, src).accepted:
                return sign * x
            trials += 1
            if trials >= MAX_TRIALS:
                raise RuntimeError(TRIAL_OVERFLOW)
            if table.restarts:
                break


def exp_vn(src: UniformSource) -> float:
    """Exp(1) on unit intervals with mass (e-1)/e^k: von Neumann's method.

    Every trial pays one uniform to locate the interval in the cumulative
    mass table and one for the position u inside it, then runs the run
    test on u itself: on a unit interval the shifted exponent is the
    position, and the interval only names the integer part of the value,
    k - 1 + u.  A rejection restarts the whole trial.  Averages
    (1+e)e/(e-1) ~ 5.88 uniforms per sample.  The compiled fill starts
    each trial's run test from u and looks the interval up only for the
    trial that accepts, with the same uniforms in the same order.
    """
    return comparison_draw(_cached_table(tables.EXP_VN), src)


def exp_brent(src: UniformSource) -> float:
    """Exp(1) on ln-2-wide intervals selected by leading-zero counting.

    The interval is chosen once; rejected positions are redrawn inside it.
    """
    return comparison_draw(_cached_table(tables.EXP_BRENT), src)


def normal_forsythe(src: UniformSource) -> float:
    """N(0, 1) via sqrt(2k-1) intervals and a stored mass table.

    One pooled sign bit, one uniform against the cumulative masses, then
    run tests inside the chosen interval.  Averages about 4.04 fresh
    uniforms per sample (plus the amortized sign bit).
    """
    return comparison_draw(_cached_table(tables.NORMAL_FORSYTHE), src)


def normal_grand(src: UniformSource) -> float:
    """N(0, 1) via dyadic tail intervals, built not to waste random bits.

    Selection is a leading-zero count whose leftover bits are recycled, the
    sign comes from the pooled bit word, and every run test recycles its
    terminating pair.  With recycling on this runs near 1.4 fresh uniforms
    per sample.
    """
    return comparison_draw(_cached_table(tables.NORMAL_BRENT), src)


def exp_log_baseline(src: UniformSource) -> float:
    """Exp(1) by inversion, -ln(u); redraws the (measure-zero) u = 0.  A
    store off [0, 1) is refused (``UniformSource.check_store``)."""
    src.check_store()
    while True:
        u = src.next_uniform()
        if u > 0.0:
            return -math.log(u)


def box_muller(src: UniformSource) -> tuple[float, float]:
    """One N(0, 1) pair from two uniforms.  A store off [0, 1) is refused
    (``UniformSource.check_store``)."""
    src.check_store()
    while True:
        u1 = src.next_uniform()
        if u1 > 0.0:
            break
    u2 = src.next_uniform()
    r = math.sqrt(-2.0 * math.log(u1))
    return r * math.cos(_TWO_PI * u2), r * math.sin(_TWO_PI * u2)


def polar(src: UniformSource) -> tuple[float, float]:
    """One N(0, 1) pair by the polar rejection method.  A store off [0, 1)
    is refused (``UniformSource.check_store``)."""
    src.check_store()
    while True:
        v1 = 2.0 * src.next_uniform() - 1.0
        v2 = 2.0 * src.next_uniform() - 1.0
        s = v1 * v1 + v2 * v2
        if 0.0 < s < 1.0:
            f = math.sqrt(-2.0 * math.log(s) / s)
            return v1 * f, v2 * f


def make_sampler(config: SamplerConfig, src: UniformSource) -> Callable[[], float]:
    """Bind a config to a source it will own and return a zero-argument
    draw function.  The source must be built with
    ``recycling=config.recycling_enabled``: one that disagrees raises
    ValueError before it is touched, since a sampler never changes it.
    Every kind then ``claim``s the source: it must not be drawn from
    otherwise, nor bound again, and a second ``make_sampler`` on it raises
    ValueError before it is touched.

    No kind has a Python wrapper frame per draw.  A comparison-method kind
    returns ``src.bind_variates`` on the config's table, whose K is always
    DEFAULT_TABLE_LEN: with the extension module loaded, the module's
    draw, a builtin bound to a ``Draw``, which reads ahead in blocks that
    the compiled fill makes, so the source's buffer position, recycled
    store and sign pool run ahead of the draws, while ``src.draws`` stays
    exact after every draw; with no module, the composed draw itself.  An
    exception (the run-length or trial cap, a failing engine) is raised by
    the draw where ``comparison_draw`` raises it, with the same ``draws``,
    and the draws after it go on as the composed draw's would.
    exp_log returns the ``__next__`` of an iterator that calls
    ``exp_log_baseline``.  The pair samplers return the ``__next__`` of a
    pair iterator: it yields the first value of each pair and then the
    second, and draws a new pair only when the first is due.
    Wallace returns ``wallace.emit_passes``, a draw over the pool's
    snapshot of one whole pass that begins the next pass on the call after
    the last value, in C when the extension module loads; its 4096-value
    bootstrap is one
    exact ``src.fill_variates`` of normal_grand's table.  Each draw
    returns a Python float, and ``src.draws`` is exact after every draw.
    """
    kind = config.kind
    if src.recycling != config.recycling_enabled:
        raise ValueError(f"{kind} needs a source built with recycling="
                         f"{config.recycling_enabled}, got {src.recycling}")
    if config.table is not None:
        return src.bind_variates(config.table)
    src.claim()
    if kind == EXP_LOG:
        return iter(partial(exp_log_baseline, src), None).__next__
    if kind in (BOX_MULLER, POLAR):
        pair_fn = box_muller if kind == BOX_MULLER else polar
        return chain.from_iterable(iter(partial(pair_fn, src), None)).__next__
    from . import wallace   # deferred: wallace imports samplers

    pool = wallace.init_pool(wallace.DEFAULT_POOL_SIZE, src)
    return wallace.emit_passes(pool, src)


def interval_index(table: tables.IntervalTable, value: float) -> int:
    """Which interval a sample landed in (normal samplers fold the sign)."""
    x = abs(value) if table.is_normal else value
    return min(max(bisect_right(table.boundaries, x), 1), table.K)
