"""Threshold-trigger statistics for TDC-sampled pulse detection.

The comparator crosses a fixed threshold set at ``tnr`` times the RMS of
the background noise.  The caller passes in the ``M = round(window *
bandwidth)`` comparisons of one detection window; the worst case places the
pulse at the last one.  The false alarm tail is evaluated with ``erfc``
to avoid cancellation (absolute error below 1e-15 for the tnr range of
interest, far tighter than the ~1e-10 needed at tnr = 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, check_domains, domains


@dataclass(frozen=True)
class TdcPolicy:
    """Trigger policy: the threshold-to-noise ratio."""

    tnr: float

    _DOMAINS = domains(tnr="> 0")
    __post_init__ = check_domains


def false_alarm_prob(tnr: float) -> float:
    """Probability that Gaussian noise alone crosses the threshold once."""
    if tnr < 0:
        raise ConfigError("tnr must be >= 0")
    return 0.5 * math.erfc(tnr / math.sqrt(2.0))


def correct_detection_prob(policy: TdcPolicy, m: int, p_d: float) -> float:
    """Probability that the first trigger in a window is the laser pulse.

    A window makes ``m`` comparisons.  Windows with no trigger at all
    repeat, so the result renormalizes the single-window outcome over
    {false alarm, pulse detection}.
    """
    if not m >= 1:
        raise ConfigError("m, the comparisons per window, must be >= 1")
    if not 0.0 <= p_d <= 1.0:
        raise ConfigError("p_d must be in [0, 1]")
    p_f = false_alarm_prob(policy.tnr)
    # quiet = (1 - p_f)^(M-1) via logs; the denominator is written as
    # (1 - quiet) + quiet * p_d to avoid cancellation when p_f is tiny
    log_quiet = (m - 1) * math.log1p(-p_f)
    quiet = math.exp(log_quiet)
    numerator = quiet * p_d
    if numerator == 0.0:
        return 0.0
    return numerator / (-math.expm1(log_quiet) + numerator)


def min_detectable_signal(policy: TdcPolicy, noise_sigma: float) -> float:
    """Weakest detectable peak signal, in the units of ``noise_sigma``."""
    if noise_sigma < 0:
        raise ConfigError("noise_sigma must be >= 0")
    return policy.tnr * noise_sigma
