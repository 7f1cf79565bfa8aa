"""Interval subdivisions and per-interval shifted exponents.

The run test only works for exponents in [0, 1], so the half line is split
into intervals I_k = [a_{k-1}, a_k), each with the exponent lowered by a
constant so it starts at 0.  Four schemes are built here:

  exp_vn           a_k = k, selection probability (e-1)/e^k
  exp_brent        a_k = k ln 2, dyadic selection 2^-k
  normal_forsythe  a_k = sqrt(2k-1), stored half-normal masses
  normal_brent     half-normal tail beyond a_k equals 2^-k, dyadic selection

A table is set by its scheme and length alone: ``IntervalTable(scheme, K)``
computes its boundaries and masses from the scheme's layout function.  The
dyadic schemes store no probability table: selection is one leading-zero
count on a fresh word.

Every scheme truncates its tail: the selection folds the mass beyond a_K (2^-K
on a dyadic table) into interval K, so a table has one row per interval.  The
samplers use K = DEFAULT_TABLE_LEN = WORD_BITS, since a dyadic selection reads
one word and never gives k > 53; other lengths are built for dumps and checks.
The mass-table schemes truncate earlier, because their cumulative mass rounds
to 1.0 before k = K.  With K = 53 that happens from k = 38 for exp_vn and
k = 36 for normal_forsythe, so intervals 39..53 and 37..53 have mass 0 and are
never selected: exp_vn never returns a value >= 38, and normal_forsythe never
one of magnitude >= sqrt(71).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial

from .bitstream import WORD_BITS, UniformSource

EXP_VN = "exp_vn"
EXP_BRENT = "exp_brent"
NORMAL_FORSYTHE = "normal_forsythe"
NORMAL_BRENT = "normal_brent"
SCHEMES = (EXP_VN, EXP_BRENT, NORMAL_FORSYTHE, NORMAL_BRENT)

MAX_TABLE_LEN = 64
# Dyadic selection never resolves finer than one word.
DEFAULT_TABLE_LEN = WORD_BITS

_LN2 = math.log(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def half_normal_tail(x: float) -> float:
    """sqrt(2/pi) * integral_x^inf exp(-t^2/2) dt, i.e. erfc(x / sqrt 2)."""
    if x < 0.0:
        raise ValueError(f"tail argument must be >= 0, got {x}")
    return math.erfc(x / math.sqrt(2.0))


def _invert_tail(target: float) -> float:
    """Solve half_normal_tail(a) == target: bracketing bisection, then a
    Newton polish against the exact derivative -sqrt(2/pi) exp(-a^2/2)."""
    lo, hi = 0.0, 12.0   # tail(12) < 2^-64 <= target for every table entry
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if half_normal_tail(mid) > target:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    for _ in range(4):
        f = half_normal_tail(a) - target
        a += f / (_SQRT_2_OVER_PI * math.exp(-0.5 * a * a))
    if abs(half_normal_tail(a) - target) > 1e-12:
        raise RuntimeError(f"tail inversion failed to converge at {target}")
    return a


@dataclass(frozen=True)
class IntervalTable:
    """The K-interval table of a scheme: boundaries a_0 = 0 < ... < a_K
    plus what the scheme needs to sample from them, all computed from
    ``(scheme, K)`` by the scheme's layout function.

    The mass-table schemes carry ``cum_probs``, the cumulative masses in
    which selection finds u's interval (``select_interval``); dyadic
    schemes carry none and select by leading-zero counting.  Normal
    schemes carry ``boundaries_sq`` so the shifted exponent (x^2 - a^2)/2
    uses the exact squared boundary (2k-1 is exact for the sqrt(2k-1)
    scheme, where the float square of a_k would not be).

    The per-interval constants are computed once, as one ``(low, width,
    top, low_sq)`` row in ``by_k`` per interval, k = 1..K, indexed by
    k - 1: a_{k-1}, a_k - a_{k-1}, gmax(k) and the squared a_{k-1} (None
    on the exponential schemes).  ``shifted_exponent``, ``gmax``, the
    composed draw and the compiled fill all read these rows; the fold of
    k > K into K is the selection's, not the table's.
    """

    scheme: str
    K: int = DEFAULT_TABLE_LEN
    boundaries: tuple[float, ...] = field(init=False)
    boundaries_sq: tuple[float, ...] | None = field(init=False)
    cum_probs: tuple[float, ...] | None = field(init=False, repr=False)
    by_k: tuple[tuple[float, float, float, float | None], ...] = field(
        init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        # every other field is computed from these two, so equal tables
        # hash equal without hashing the float tuples at each kernel lookup
        return hash((self.scheme, self.K))

    def __post_init__(self):
        if self.scheme not in _LAYOUTS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        K = self.K
        if (isinstance(K, bool) or not hasattr(K, "__index__")
                or not 1 <= operator.index(K) <= MAX_TABLE_LEN):
            raise ValueError(
                f"table length must be in [1, {MAX_TABLE_LEN}], got {K!r}")
        K = operator.index(K)
        b, sq, cum = _LAYOUTS[self.scheme](K)
        widths = tuple(hi - lo for lo, hi in zip(b, b[1:]))
        if sq is None:
            lows_sq, tops = (None,) * K, widths
        else:
            lows_sq = sq[:-1]
            tops = tuple((hi - lo) * 0.5 for lo, hi in zip(sq, sq[1:]))
        # the run test accepts with probability exp(-g) only for g <= 1
        if not all(0.0 < top <= 1.0 for top in tops):
            raise ValueError("every shifted exponent must top out in (0, 1]")
        for name, value in (("K", K), ("boundaries", b),
                            ("boundaries_sq", sq), ("cum_probs", cum),
                            ("by_k", tuple(zip(b, widths, tops, lows_sq)))):
            object.__setattr__(self, name, value)

    @property
    def is_dyadic(self) -> bool:
        return self.scheme in (EXP_BRENT, NORMAL_BRENT)

    @property
    def is_normal(self) -> bool:
        return self.scheme in (NORMAL_FORSYTHE, NORMAL_BRENT)

    @property
    def restarts(self) -> bool:
        """Whether a rejected position restarts the whole trial with a new
        interval (von Neumann's exp_vn) instead of being redrawn inside
        the chosen interval."""
        return self.scheme == EXP_VN

    def interval(self, k: int) -> tuple[float, float]:
        return self.boundaries[k - 1], self.boundaries[k]

    def shifted_exponent(self, k: int, x: float) -> float:
        """G_k(x) for x in I_k, k in 1..K: the exponent lowered to start at
        0, clamped into [0, gmax(k)].

        The clamp only removes rounding at a rounded boundary.  Normal
        schemes pair the stored boundary fl(a_k) with a square that may be
        exact (2k-1 for normal_forsythe), so at x = fl(a_{k-1}) or
        x = fl(a_k) the formula can leave [0, gmax(k)] by a few ulps: in
        normal_forsythe it reaches -7.1e-15 and 1 + 7.1e-15.  Those
        excursions would make the run test raise on a valid position.
        Clamping them biases no acceptance probability, because on I_k
        the exact G_k already lies in [0, gmax(k)].
        """
        lo, _, top, lo_sq = self.by_k[k - 1]
        g = x - lo if lo_sq is None else (x * x - lo_sq) * 0.5
        if 0.0 <= g <= top:
            return g
        return 0.0 if g < 0.0 else top

    def gmax(self, k: int) -> float:
        """Supremum of G_k on I_k, k in 1..K (at the right endpoint)."""
        return self.by_k[k - 1][2]

    def selection_probability(self, k: int) -> float:
        """Mass used to select I_k (implicit 2^-k for dyadic schemes).

        On the mass-table schemes it is cum[k-1] - cum[k-2].  Every
        cumulative entry is above 1/2, so the difference is exact
        (Sterbenz) and the masses sum to exactly cum[-1] <= 1.  Below K it
        is the mass select_interval really gives, 0 for an interval past
        the point where the cumulative mass rounds to 1.0.  At k = K it
        leaves out the folded tail: select_interval gives K with the mass
        q_K plus all the mass beyond a_K (on a K = 53 dyadic table,
        2^-52 against the 2^-53 returned here).
        """
        cum = self.cum_probs
        if cum is None:
            return 2.0 ** -k
        return cum[k - 1] - (cum[k - 2] if k > 1 else 0.0)


def _exp_vn_layout(K: int) -> tuple:
    """Unit intervals [k-1, k) with selection mass (e-1)/e^k, taken as
    differences of the cumulative masses 1 - e^-k."""
    boundaries = tuple(float(k) for k in range(K + 1))
    # cumulative mass telescopes to 1 - e^-k; expm1 keeps it exact
    cum = tuple(-math.expm1(-k) for k in range(1, K + 1))
    return boundaries, None, cum


def _exp_brent_layout(K: int) -> tuple:
    """Intervals [(k-1) ln 2, k ln 2), selected dyadically."""
    return tuple(k * _LN2 for k in range(K + 1)), None, None


def _normal_forsythe_layout(K: int) -> tuple:
    """Boundaries sqrt(2k-1), so consecutive squared boundaries differ by
    exactly 2 and every shifted exponent tops out at 1.  The masses are
    differences of the cumulative half-normal masses 1 - tail(a_k)."""
    boundaries = (0.0,) + tuple(math.sqrt(2 * k - 1) for k in range(1, K + 1))
    boundaries_sq = (0.0,) + tuple(float(2 * k - 1) for k in range(1, K + 1))
    cum = tuple(1.0 - half_normal_tail(b) for b in boundaries[1:])
    return boundaries, boundaries_sq, cum


def _normal_brent_layout(K: int) -> tuple:
    """Boundaries with half-normal tail mass exactly 2^-k beyond a_k, so the
    k-th interval holds mass 2^-k and selection is one leading-zero count."""
    boundaries = (0.0,) + tuple(_invert_tail(2.0 ** -k) for k in range(1, K + 1))
    return boundaries, tuple(b * b for b in boundaries), None


# each layout gives (boundaries, boundaries_sq, cum_probs) for a length K
_LAYOUTS = {
    EXP_VN: _exp_vn_layout,
    EXP_BRENT: _exp_brent_layout,
    NORMAL_FORSYTHE: _normal_forsythe_layout,
    NORMAL_BRENT: _normal_brent_layout,
}


# build_<scheme>(K=DEFAULT_TABLE_LEN): the K-interval table of a scheme
build_exp_vn = partial(IntervalTable, EXP_VN)
build_exp_brent = partial(IntervalTable, EXP_BRENT)
build_normal_forsythe = partial(IntervalTable, NORMAL_FORSYTHE)
build_normal_brent = partial(IntervalTable, NORMAL_BRENT)


def select_interval(table: IntervalTable, src: UniformSource) -> int:
    """Pick k in [1, K]; mass beyond the table folds into the last interval.

    This is the spec of the selection.  On a mass table k - 1 is
    ``bisect_right(cum_probs, u)`` for one uniform u; the compiled fill
    reaches the same k, for every double u, through the guide table of
    ``_fill.kernel`` and a short scan."""
    if table.is_dyadic:
        k = src.geometric_index()
    else:
        k = bisect_right(table.cum_probs, src.next_uniform()) + 1
    K = table.K
    return k if k < K else K


def dump_table(table: IntervalTable) -> str:
    """Plain-text dump: one `k a_{k-1} a_k q_k gmax_k` row per interval,
    17 significant digits, after a `#scheme=<tag> K=<K>` header.  The
    q_K row is ``selection_probability(K)``, which leaves out the tail
    folded into interval K."""
    lines = [f"#scheme={table.scheme} K={table.K}"]
    for k in range(1, table.K + 1):
        lo, hi = table.interval(k)
        q = table.selection_probability(k)
        lines.append(f"{k} {lo:.17g} {hi:.17g} {q:.17g} {table.gmax(k):.17g}")
    return "\n".join(lines) + "\n"
