"""Threshold-trigger statistics for TDC-sampled pulse detection.

The comparator crosses a fixed threshold set at ``tnr`` times the RMS of
the background noise.  Within one detection window the comparator makes
``M = round(window * bandwidth)`` comparisons; the worst case places the
pulse at the last one.  The false alarm tail is evaluated with ``erfc``
to avoid cancellation (absolute error below 1e-15 for the tnr range of
interest, far tighter than the ~1e-10 needed at tnr = 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class TdcPolicy:
    """Trigger policy: threshold-to-noise ratio and detection window."""

    tnr: float
    window_s: float
    bandwidth_hz: float

    def __post_init__(self) -> None:
        if not self.tnr > 0:
            raise ConfigError("tnr must be > 0")
        if not self.window_s > 0:
            raise ConfigError("window_s must be > 0")
        if not self.bandwidth_hz > 0:
            raise ConfigError("bandwidth_hz must be > 0")
        if self.comparison_count < 1:
            raise ConfigError("window_s * bandwidth_hz must round to >= 1")

    @property
    def comparison_count(self) -> int:
        """Number of comparator decisions in one detection window."""
        return max(1, round(self.window_s * self.bandwidth_hz))


def false_alarm_prob(tnr: float) -> float:
    """Probability that Gaussian noise alone crosses the threshold once."""
    if tnr < 0:
        raise ConfigError("tnr must be >= 0")
    return 0.5 * math.erfc(tnr / math.sqrt(2.0))


def correct_detection_prob(policy: TdcPolicy, p_d: float) -> float:
    """Probability that the first trigger in a window is the laser pulse.

    Windows with no trigger at all repeat, so the result renormalizes the
    single-window outcome over {false alarm, pulse detection}.
    """
    if not 0.0 <= p_d <= 1.0:
        raise ConfigError("p_d must be in [0, 1]")
    p_f = false_alarm_prob(policy.tnr)
    # quiet = (1 - p_f)^(M-1) via logs; the denominator is written as
    # (1 - quiet) + quiet * p_d to avoid cancellation when p_f is tiny
    log_quiet = (policy.comparison_count - 1) * math.log1p(-p_f)
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
