"""Avalanche-photodiode signal, noise budget, trigger SNR and gain optimum.

Signal is the multiplied photocurrent at the echo peak.  Noise is the RMS
of the no-echo photocurrent: background shot noise, dark-current shot
noise (surface term unmultiplied, bulk term multiplied), Johnson noise of
the load, and a lumped amplifier term, all mutually independent; their
variance, a * M**2 * F(M) + c in the gain M, gives the SNR-optimal gain
in closed form (Agrawal, Fiber-Optic Communication Systems, ch. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .physconst import BOLTZMANN, ELEMENTARY_CHARGE, photon_energy
from .tdc import TdcPolicy, min_detectable_signal

EXCESS_NOISE_MODES = ("power_law", "ionization")


@dataclass(frozen=True)
class ApdParams:
    """Physical and circuit parameters of a linear-mode APD channel.

    The excess noise factor uses either the power-law form gain**x or the
    exact ionization-rate form; exactly one mode is active.
    """

    gain: float
    quantum_efficiency: float
    wavelength_m: float
    excess_noise_index: float = 0.3
    electron_ionization_rate: float | None = None
    excess_noise_mode: str = "power_law"
    surface_dark_current_a: float = 0.0
    bulk_dark_current_a: float = 0.0
    load_resistance_ohm: float = 1e4
    temperature_k: float = 300.0
    amplifier_noise_a: float = 0.0

    def __post_init__(self) -> None:
        if not self.gain >= 1:
            raise ConfigError("gain must be >= 1")
        if not 0.0 < self.quantum_efficiency <= 1.0:
            raise ConfigError("quantum_efficiency must be in (0, 1]")
        if not self.wavelength_m > 0:
            raise ConfigError("wavelength_m must be > 0")
        if self.excess_noise_mode not in EXCESS_NOISE_MODES:
            raise ConfigError(
                f"excess_noise_mode must be one of {EXCESS_NOISE_MODES}")
        if self.excess_noise_mode == "power_law":
            if not self.excess_noise_index >= 0:
                raise ConfigError("excess_noise_index must be >= 0")
        else:
            if self.electron_ionization_rate is None:
                raise ConfigError(
                    "ionization mode requires electron_ionization_rate")
            if not 0.0 <= self.electron_ionization_rate <= 1.0:
                raise ConfigError("electron_ionization_rate must be in [0, 1]")
        if not self.surface_dark_current_a >= 0:
            raise ConfigError("surface_dark_current_a must be >= 0")
        if not self.bulk_dark_current_a >= 0:
            raise ConfigError("bulk_dark_current_a must be >= 0")
        if not self.load_resistance_ohm > 0:
            raise ConfigError("load_resistance_ohm must be > 0")
        if not self.temperature_k > 0:
            raise ConfigError("temperature_k must be > 0")
        if not self.amplifier_noise_a >= 0:
            raise ConfigError("amplifier_noise_a must be >= 0")


@dataclass(frozen=True)
class NoiseBudget:
    """RMS noise components, amperes; total is their quadrature sum."""

    sigma_signal_a: float
    sigma_background_a: float
    sigma_dark_a: float
    sigma_thermal_a: float
    sigma_amplifier_a: float
    total_a: float


def responsivity(wavelength_m: float, quantum_efficiency: float) -> float:
    """Unmultiplied responsivity e * eta / (h * nu), A/W."""
    if not 0.0 <= quantum_efficiency <= 1.0:
        raise ConfigError("quantum_efficiency must be in [0, 1]")
    return ELEMENTARY_CHARGE * quantum_efficiency / photon_energy(wavelength_m)


def signal_current(params: ApdParams, p_r: float) -> float:
    """Multiplied photocurrent at echo peak power ``p_r``, A."""
    if p_r < 0:
        raise ConfigError("p_r must be >= 0")
    return responsivity(params.wavelength_m, params.quantum_efficiency) \
        * params.gain * p_r


def excess_noise_factor(params: ApdParams) -> float:
    """Multiplicative shot-noise penalty of the stochastic avalanche gain."""
    m = params.gain
    if params.excess_noise_mode == "power_law":
        return m ** params.excess_noise_index
    k_e = params.electron_ionization_rate
    return k_e * m + (1.0 - k_e) * (2.0 - 1.0 / m)


def _variances(params: ApdParams, p_rs: float, p_r: float,
               bandwidth_hz: float) -> tuple[float, ...]:
    """The signal, background, dark, thermal and amplifier noise
    variances, A^2, after the input checks, and then their sum."""
    if p_rs < 0 or p_r < 0:
        raise ConfigError("optical powers must be >= 0")
    if not bandwidth_hz > 0:
        raise ConfigError("bandwidth_hz must be > 0")
    k_pd = responsivity(params.wavelength_m, params.quantum_efficiency)
    m2f = params.gain * params.gain * excess_noise_factor(params)
    two_e_bw = 2.0 * ELEMENTARY_CHARGE * bandwidth_hz
    var_signal = two_e_bw * k_pd * p_r * m2f
    var_background = two_e_bw * k_pd * p_rs * m2f
    var_dark = (two_e_bw * params.surface_dark_current_a
                + two_e_bw * params.bulk_dark_current_a * m2f)
    var_thermal = (4.0 * BOLTZMANN * params.temperature_k * bandwidth_hz
                   / params.load_resistance_ohm)
    var_amp = params.amplifier_noise_a * params.amplifier_noise_a
    return (var_signal, var_background, var_dark, var_thermal, var_amp,
            var_signal + var_background + var_dark + var_thermal + var_amp)


def noise_sigma(params: ApdParams, p_rs: float, p_r: float,
                bandwidth_hz: float) -> NoiseBudget:
    """Noise budget for given background and echo powers, amperes RMS.

    Pass ``p_r = 0`` to obtain the no-echo noise that defines the trigger
    SNR denominator.
    """
    var_signal, var_background, var_dark, var_thermal, _, var_total = \
        _variances(params, p_rs, p_r, bandwidth_hz)
    return NoiseBudget(
        sigma_signal_a=math.sqrt(var_signal),
        sigma_background_a=math.sqrt(var_background),
        sigma_dark_a=math.sqrt(var_dark),
        sigma_thermal_a=math.sqrt(var_thermal),
        sigma_amplifier_a=params.amplifier_noise_a,
        total_a=math.sqrt(var_total),
    )


def trigger_snr(params: ApdParams, p_r: float, p_rs: float,
                bandwidth_hz: float) -> float:
    """Peak signal current over the no-echo noise RMS.

    The noise is ``noise_sigma(params, p_rs, 0.0, bandwidth_hz).total_a``
    from the same sum, so the two agree bit for bit, without the budget's
    other four square roots.  The zero signal term stays in the sum: where
    M**2 * F(M) overflows it is 0 * inf, and the SNR is NaN, not finite.
    """
    var_total = _variances(params, p_rs, 0.0, bandwidth_hz)[5]
    i_s = signal_current(params, p_r)
    if i_s == 0.0:
        return 0.0
    return i_s / math.sqrt(var_total)


def _min_signal_power(params: ApdParams, p_rs: float, bandwidth_hz: float,
                      policy: TdcPolicy) -> float:
    """The echo power, W, whose ``trigger_snr`` at background ``p_rs`` is
    the policy's tnr: the weakest detectable current over M * R."""
    var_total = _variances(params, p_rs, 0.0, bandwidth_hz)[5]
    return (min_detectable_signal(policy, math.sqrt(var_total))
            / (responsivity(params.wavelength_m, params.quantum_efficiency)
               * params.gain))


def optimize_gain(params: ApdParams, p_rs: float, bandwidth_hz: float,
                  gain_bounds: tuple[float, float] = (1.0, 1000.0),
                  p_r: float = 1.0) -> tuple[float, float]:
    """Gain that maximizes the trigger SNR, and the SNR there.

    The SNR is linear in ``p_r``, so the argmax does not depend on it; the
    returned SNR is evaluated at the given ``p_r``.  With the no-echo
    variance a * G + c, G = M**2 * F(M), the SNR peaks where a * (M * G' -
    2 * G) = 2 * c: x * M**(2 + x) or k * M**3 + (1 - k) * M = 2 * c / a
    (power law, ionization).  Both grow with M, so the optimum is that
    root clamped to ``gain_bounds``; with x = 0 or a = 0 the SNR only rises.
    """
    lo, hi = gain_bounds
    if not (lo >= 1.0 and lo < hi < math.inf):
        raise ConfigError("gain_bounds must satisfy 1 <= lo < hi < inf")
    _variances(params, p_rs, 0.0, bandwidth_hz)  # its checks precede any root
    two_e_bw = 2.0 * ELEMENTARY_CHARGE * bandwidth_hz
    a = two_e_bw * (responsivity(params.wavelength_m, params.quantum_efficiency)
                    * p_rs + params.bulk_dark_current_a)
    c = (two_e_bw * params.surface_dark_current_a
         + 4.0 * BOLTZMANN * params.temperature_k * bandwidth_hz
         / params.load_resistance_ohm + params.amplifier_noise_a ** 2)
    ratio = 2.0 * c / a if a > 0.0 else math.inf
    x, k = params.excess_noise_index, params.electron_ionization_rate
    if params.excess_noise_mode == "power_law":
        gain = (ratio / x) ** (1.0 / (2.0 + x)) if x > 0.0 else hi
    elif k in (0.0, 1.0):
        gain = ratio ** (1.0 / (1.0 + 2.0 * k))  # M or M**3 = ratio
    else:
        # the cubic's real root; s = sqrt((1 - k) / (3 * k)), finite for tiny k
        s = math.sqrt((1.0 - k) / 3.0) / math.sqrt(k)
        gain = 2.0 * s * math.sinh(math.asinh(1.5 * ratio / (s * (1.0 - k))) / 3.0)
    gain = min(max(gain, lo), hi)
    return gain, trigger_snr(replace(params, gain=gain), p_r, p_rs, bandwidth_hz)
