"""Correctness gate: checks a workload's stream prefix against oracles that
live outside fvn.

* Each sampler's finite values are compared with the analytic CDF of its
  target law by ``scipy.stats.kstest``.  ALPHA is 1e-6: a correct sampler
  fails on about one seed in a million, and a real defect of the size the
  gate exists for (a wrong interval mass, a biased run test) gives p-values
  far below it at 262,144 values per sampler.
* Engine words per variate are compared with the closed forms of the
  paper: (1+e)e/(e-1) = 5.88 for exp_vn and 4.04 for normal_forsythe,
  each within +-0.05, and at most 1.45 for GRAND (1.38 in theory, 1.40
  as measured).  The sampler's own source includes its set-up.
"""

from __future__ import annotations

import math

# Two-sided significance level of every KS test.
ALPHA = 1e-6

# kind -> (centre, half-width) of the accepted uniforms-per-variate band.
CONSUMPTION_BANDS = {
    "exp_vn": ((1.0 + math.e) * math.e / (math.e - 1.0), 0.05),
    "normal_forsythe": (4.04, 0.05),
}
CONSUMPTION_CEILINGS = {"normal_grand": 1.45}


def check_sampler(kind: str, values, words: int, variates: int) -> dict:
    """Gate one sampler's prefix; returns the figures and a verdict."""
    from scipy import stats

    law = "expon" if kind in ("exp_vn", "exp_brent") else "norm"
    ks = stats.kstest(values, law)
    per_variate = words / variates
    ok_ks = bool(ks.pvalue >= ALPHA)
    ok_words = True
    if kind in CONSUMPTION_BANDS:
        centre, half = CONSUMPTION_BANDS[kind]
        ok_words = abs(per_variate - centre) <= half
    elif kind in CONSUMPTION_CEILINGS:
        ok_words = per_variate <= CONSUMPTION_CEILINGS[kind]
    return {
        "kind": kind,
        "n": len(values),
        "ks_law": law,
        "ks_statistic": float(ks.statistic),
        "ks_pvalue": float(ks.pvalue),
        "uniforms_per_variate": per_variate,
        "passed": ok_ks and ok_words,
    }


def check_prefix(prefix) -> list[dict]:
    """Gate every sampler of a completed Prefix."""
    per_sampler = prefix.variates // len(prefix.values)
    return [check_sampler(kind, values, words, per_sampler)
            for kind, values, words in zip(prefix.workload.kinds,
                                           prefix.values,
                                           prefix.words_per_source)]
