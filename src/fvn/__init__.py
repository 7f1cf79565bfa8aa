"""Comparison-method random variate generation.

Exponential and normal samplers that accept or reject candidates by
comparing runs of uniforms (probability exp(-G) with no transcendental
calls on the sampling path), three interval-subdivision schemes, a
pool-based normal generator refreshed by orthogonal transforms, and the
statistical machinery that verifies all of it.

The sampling core needs only numpy.  Where gcc is installed, an extension
module is compiled from ``fvn/_fill.c`` on first use: the
comparison-method samplers run its block fill, which makes the same
values as their composed draw, ``fvn.samplers.comparison_draw``, a
bound Wallace pool begins each pass with its regroup, which makes the
same bytes as the numpy one of ``fvn.wallace.refresh``, and every bound
sampler's draw is its builtin ``draw`` bound to a ``Draw``, which the
interpreter calls directly.
The verification layer is the submodule ``fvn.stats``; it is not
imported here, and it loads scipy only inside the two functions that
call it.
"""

__version__ = "0.1.0"

from .bitstream import WORD_BITS, UniformSource
from .comparison import (RunResult, expected_run_length,
                         odd_parity_probability, run_length_pmf, run_test)
from .samplers import (SAMPLER_KINDS, SamplerConfig, box_muller,
                       default_config, exp_brent, exp_log_baseline, exp_vn,
                       interval_index, make_sampler, normal_forsythe,
                       normal_grand, polar)
from .tables import (IntervalTable, build_exp_brent, build_exp_vn,
                     build_normal_brent, build_normal_forsythe, dump_table,
                     half_normal_tail, select_interval)
from .wallace import NormalPool, init_pool, next_normal, refresh

__all__ = [
    "__version__",
    "WORD_BITS", "UniformSource",
    "RunResult", "run_test", "run_length_pmf",
    "expected_run_length", "odd_parity_probability",
    "IntervalTable", "build_exp_vn", "build_exp_brent",
    "build_normal_forsythe", "build_normal_brent", "half_normal_tail",
    "select_interval", "dump_table",
    "SamplerConfig", "SAMPLER_KINDS", "default_config", "make_sampler",
    "exp_vn", "exp_brent", "exp_log_baseline", "normal_forsythe",
    "normal_grand", "box_muller", "polar", "interval_index",
    "NormalPool", "init_pool", "refresh", "next_normal",
]
