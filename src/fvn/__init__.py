"""Comparison-method random variate generation.

Exponential and normal samplers that accept or reject candidates by
comparing runs of uniforms (probability exp(-G) with no transcendental
calls on the sampling path), three interval-subdivision schemes, a
pool-based normal generator refreshed by orthogonal transforms, and the
statistical machinery that verifies all of it.

The sampling core needs only numpy.  The verification layer, ``fvn.stats``,
needs scipy; its names are served from here but loaded on first use, so
``import fvn`` alone does not import scipy.
"""

__version__ = "0.1.0"

from .bitstream import WORD_BITS, UniformSource
from .comparison import (DensitySpec, RunResult, expected_run_length,
                         odd_parity_probability, run_length_pmf, run_test,
                         sample_density)
from .samplers import (SAMPLER_KINDS, SamplerConfig, box_muller,
                       default_config, exp_brent, exp_log_baseline, exp_vn,
                       interval_index, make_sampler, normal_forsythe,
                       normal_grand, polar)
from .tables import (IntervalTable, build_exp_brent, build_exp_vn,
                     build_normal_brent, build_normal_forsythe, dump_table,
                     half_normal_tail, select_interval)
from .wallace import NormalPool, init_pool, next_normal, refresh

# Served by __getattr__ on first use: fvn.stats imports scipy.
_STATS_NAMES = ("TestReport", "ConsumptionReport", "ks_test",
                "chi_square_test", "measure_consumption", "moments")

__all__ = [
    "__version__",
    "WORD_BITS", "UniformSource",
    "RunResult", "DensitySpec", "run_test", "run_length_pmf",
    "expected_run_length", "odd_parity_probability", "sample_density",
    "IntervalTable", "build_exp_vn", "build_exp_brent",
    "build_normal_forsythe", "build_normal_brent", "half_normal_tail",
    "select_interval", "dump_table",
    "SamplerConfig", "SAMPLER_KINDS", "default_config", "make_sampler",
    "exp_vn", "exp_brent", "exp_log_baseline", "normal_forsythe",
    "normal_grand", "box_muller", "polar", "interval_index",
    "NormalPool", "init_pool", "refresh", "next_normal",
    *_STATS_NAMES,
]


def __getattr__(name):
    if name in _STATS_NAMES:
        from . import stats
        return getattr(stats, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
