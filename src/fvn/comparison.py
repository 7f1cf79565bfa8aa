"""Descending-run kernel: accept a candidate with probability exp(-g)
using only order comparisons among uniforms.

A run test starts a strictly decreasing chain at g and draws uniforms until
the first non-decrease; the stopping index n is odd with probability
exp(-g).  The closed-form run-length law lives here too, as the analytic
oracle for everything downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .bitstream import MAX_RUN_LENGTH, UniformSource  # noqa: F401 (re-export)

_GRID_POINTS = 10_000


class RunResult(NamedTuple):
    accepted: bool          # n odd
    n: int                  # run length, >= 1
    terminal_pair: tuple[float, float]   # (u_n, u_{n+1}), u_n <= u_{n+1}


def _check_g(g_value: float) -> None:
    if not 0.0 <= g_value <= 1.0:
        raise ValueError(f"run test requires 0 <= g <= 1, got {g_value!r}")


def run_test(g_value: float, src: UniformSource) -> RunResult:
    """Draw uniforms while they strictly decrease below g_value; stop at the
    first non-decrease.  Accepts iff the run length n is odd, which happens
    with probability exp(-g_value).  The source recycles the terminating
    pair.

    The loop itself lives in ``UniformSource.descending_run`` (the samplers
    run the same loop inline in ``UniformSource.comparison_variates``);
    this adds the range check on g and the result record."""
    _check_g(g_value)
    n, u_n, u_next = src.descending_run(g_value)
    return RunResult(n & 1 == 1, n, (u_n, u_next))


def run_length_pmf(g_value: float, n: int) -> float:
    """Prob(run length == n) = g^(n-1)/(n-1)! - g^n/n!."""
    _check_g(g_value)
    if n < 1:
        raise ValueError(f"run length must be >= 1, got {n}")
    return (g_value ** (n - 1) / math.factorial(n - 1)
            - g_value ** n / math.factorial(n))


def _exp_series(x: float) -> float:
    """exp(x) as the power series sum(x^k / k!), summed until a term no
    longer changes the total."""
    total = 1.0
    term = 1.0
    k = 0
    while True:
        k += 1
        term *= x / k
        updated = total + term
        if updated == total:
            return total
        total = updated


def expected_run_length(g_value: float) -> float:
    """E[n] = exp(g_value), summed as the power series sum(g^k / k!)."""
    _check_g(g_value)
    return _exp_series(g_value)


def odd_parity_probability(g_value: float) -> float:
    """Prob(n odd) = exp(-g_value), summed as the alternating series
    1 - g + g^2/2! - ...  (the odd-n terms of the run-length law)."""
    _check_g(g_value)
    return _exp_series(-g_value)


@dataclass(frozen=True)
class DensitySpec:
    """A target density proportional to exp(-g(x)) on [lo, hi].

    Construction audits g over a dense grid; the run test re-checks each
    evaluation, so an out-of-range g is always a hard error, never a silent
    clip (clipping would corrupt the acceptance probability).
    """

    g: Callable[[float], float]
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        g = self.g
        lo, hi = self.lo, self.hi
        step = (hi - lo) / (_GRID_POINTS - 1)
        for i in range(_GRID_POINTS):
            v = g(lo + i * step)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"g out of [0, 1] on the interval: "
                                 f"g({lo + i * step}) = {v}")


def sample_density(spec: DensitySpec, src: UniformSource) -> float:
    """One draw with density proportional to exp(-g(x)) on [lo, hi].

    Candidates rejected by the run test are redrawn in the same interval;
    re-selecting an interval is the business of the full samplers.
    """
    g = spec.g
    lo = spec.lo
    width = spec.hi - spec.lo
    while True:
        w = lo + width * src.next_uniform()
        if run_test(g(w), src).accepted:
            return w
