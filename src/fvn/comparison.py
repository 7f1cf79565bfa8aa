"""The run test: accept a candidate with probability exp(-g) using only
order comparisons among uniforms.

A run test starts a strictly decreasing chain at g and draws uniforms until
the first non-decrease; the stopping index n is odd with probability
exp(-g).  ``samplers.comparison_draw`` calls ``run_test`` once per
trial, and the compiled fill runs the same loop inline.  The closed-form
run-length law lives here too, as the analytic oracle for everything
downstream.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bitstream import MAX_RUN_LENGTH, RUN_OVERFLOW, UniformSource


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
    with probability exp(-g_value).  Each uniform is one
    ``src.next_uniform()``; the terminating pair (u_n, u_{n+1}), with
    u_n = g_value when n = 1, goes to ``src.recycle_pair``.  Only a broken
    source makes a run longer than MAX_RUN_LENGTH, which raises."""
    _check_g(g_value)
    prev, n = g_value, 0
    while True:
        u = src.next_uniform()
        n += 1
        if not u < prev:
            break
        if n >= MAX_RUN_LENGTH:
            raise RuntimeError(RUN_OVERFLOW)
        prev = u
    src.recycle_pair(prev, u)
    return RunResult(n & 1 == 1, n, (prev, u))


def run_length_pmf(g_value: float, n: int) -> float:
    """Prob(run length == n) = g^(n-1)/(n-1)! - g^n/n!."""
    _check_g(g_value)
    if n < 1:
        raise ValueError(f"run length must be >= 1, got {n}")
    return (g_value ** (n - 1) / math.factorial(n - 1)
            - g_value ** n / math.factorial(n))


def expected_run_length(g_value: float) -> float:
    """E[n] = exp(g_value)."""
    _check_g(g_value)
    return math.exp(g_value)


def odd_parity_probability(g_value: float) -> float:
    """Prob(n odd) = exp(-g_value), the sum of the odd-n terms of the
    run-length law."""
    _check_g(g_value)
    return math.exp(-g_value)
