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
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, check_domains, copy_with, domains
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

    _DOMAINS = domains(
        gain=">= 1", quantum_efficiency="in (0, 1]", wavelength_m="> 0",
        excess_noise_mode=EXCESS_NOISE_MODES, excess_noise_index=">= 0",
        electron_ionization_rate="in [0, 1]", surface_dark_current_a=">= 0",
        bulk_dark_current_a=">= 0", load_resistance_ohm="> 0",
        temperature_k="> 0", amplifier_noise_a=">= 0")
    def __post_init__(self) -> None:
        check_domains(self)
        if (self.excess_noise_mode == "ionization"
                and self.electron_ionization_rate is None):
            raise ConfigError(
                "ionization mode requires electron_ionization_rate")


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


def excess_noise_factor(params: ApdParams) -> float:
    """Multiplicative shot-noise penalty of the stochastic avalanche gain."""
    m = params.gain
    if params.excess_noise_mode == "power_law":
        return m ** params.excess_noise_index
    k_e = params.electron_ionization_rate
    return k_e * m + (1.0 - k_e) * (2.0 - 1.0 / m)


def _noise_terms(params: ApdParams, p_rs: float, p_r: float,
                 bandwidth_hz: float) -> tuple[float, ...]:
    """What the noise variances and the signal current take from the
    parameters alone, after the input checks: 2eB * R, M**2 * F(M), the
    unmultiplied surface and bulk dark terms 2eB * I, the thermal and
    amplifier variances, A^2, and M * R, A/W."""
    if p_rs < 0 or p_r < 0:
        raise ConfigError("optical powers must be >= 0")
    if not bandwidth_hz > 0:
        raise ConfigError("bandwidth_hz must be > 0")
    k_pd = responsivity(params.wavelength_m, params.quantum_efficiency)
    m2f = params.gain * params.gain * excess_noise_factor(params)
    two_e_bw = 2.0 * ELEMENTARY_CHARGE * bandwidth_hz
    var_thermal = (4.0 * BOLTZMANN * params.temperature_k * bandwidth_hz
                   / params.load_resistance_ohm)
    var_amp = params.amplifier_noise_a * params.amplifier_noise_a
    return (two_e_bw * k_pd, m2f, two_e_bw * params.surface_dark_current_a,
            two_e_bw * params.bulk_dark_current_a, var_thermal, var_amp,
            k_pd * params.gain)


def _summed(terms: tuple[float, ...], p_rs: float,
            p_r: float) -> tuple[float, ...]:
    """The signal, background, dark, thermal and amplifier noise
    variances, A^2, from ``_noise_terms``, and then their sum."""
    two_e_bw_k, m2f, surface, bulk, var_thermal, var_amp, _ = terms
    var_signal = two_e_bw_k * p_r * m2f
    var_background = two_e_bw_k * p_rs * m2f
    var_dark = surface + bulk * m2f
    return (var_signal, var_background, var_dark, var_thermal, var_amp,
            var_signal + var_background + var_dark + var_thermal + var_amp)


def noise_sigma(params: ApdParams, p_rs: float, p_r: float,
                bandwidth_hz: float) -> NoiseBudget:
    """Noise budget for given background and echo powers, amperes RMS.

    Pass ``p_r = 0`` to obtain the no-echo noise that defines the trigger
    SNR denominator.
    """
    var_signal, var_background, var_dark, var_thermal, _, var_total = \
        _summed(_noise_terms(params, p_rs, p_r, bandwidth_hz), p_rs, p_r)
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
    other four square roots; the current is the echo power times the
    multiplied responsivity M * R.  The zero signal term stays in the sum:
    where M**2 * F(M) overflows it is 0 * inf, and the SNR is NaN, not
    finite, which ``ranging.snr_at_range`` rejects.
    """
    terms = _noise_terms(params, p_rs, 0.0, bandwidth_hz)
    if p_r < 0:
        raise ConfigError("p_r must be >= 0")
    i_s = terms[6] * p_r
    if i_s == 0.0:
        return 0.0
    return i_s / math.sqrt(_summed(terms, p_rs, 0.0)[5])


def log_partials(params: ApdParams, p_rs: float, bandwidth_hz: float
                 ) -> tuple[float, float, dict[str, float]]:
    """(d ln SNR / d ln p_r, d ln SNR / d ln p_rs, {name: d ln SNR / d ln x})
    of ``trigger_snr`` at background ``p_rs``, for each parameter it reads.
    ln SNR = ln(M R p_r) - ln V / 2, V the sum of ``_summed``'s variances,
    so a variance V_k of log-slope s in x adds -s V_k / 2V.  M**2 F(M) has
    log-slope 2 + x in M and x ln M in x (power law), or 2 + (kM + (1 - k)
    / M) / F in M (ionization form)."""
    terms = _noise_terms(params, p_rs, 0.0, bandwidth_hz)
    variances = _summed(terms, p_rs, 0.0)
    half = 0.5 / variances[5]
    # each variance's share of V, halved
    background, surface, bulk, thermal, amplifier = (
        v * half for v in (variances[1], terms[2], terms[3] * terms[1],
                           terms[4], terms[5]))
    multiplied = background + bulk  # the shares in M**2 F(M)
    m, x, k_e = params.gain, params.excess_noise_index, params.electron_ionization_rate
    power_law = params.excess_noise_mode == "power_law"
    slope = 2.0 + (x if power_law else (k_e * m + (1.0 - k_e) / m)
                   / excess_noise_factor(params))
    partials = {"gain": 1.0 - slope * multiplied}
    if power_law:
        partials["excess_noise_index"] = -x * math.log(m) * multiplied
    # R = e eta lambda / (h c) reads eta and lambda alike
    return 1.0, -background, partials | {
        "quantum_efficiency": 1.0 - background, "wavelength_m": 1.0 - background,
        "surface_dark_current_a": -surface, "bulk_dark_current_a": -bulk,
        "temperature_k": -thermal, "load_resistance_ohm": thermal,
        "amplifier_noise_a": -2.0 * amplifier,
        "bandwidth_hz": -(background + surface + bulk + thermal)}


def _min_signal_power(params: ApdParams, bandwidth_hz: float,
                      policy: TdcPolicy) -> Callable[[float], float]:
    """p_min(p_rs): the echo power, W, whose ``trigger_snr`` at background
    ``p_rs`` is the policy's tnr, the weakest detectable current over
    M * R.  Its terms are computed once, for every ``p_rs``."""
    terms = _noise_terms(params, 0.0, 0.0, bandwidth_hz)
    m_r = terms[6]

    def p_min(p_rs: float) -> float:
        var_total = _summed(terms, p_rs, 0.0)[5]
        return min_detectable_signal(policy, math.sqrt(var_total)) / m_r
    return p_min


def optimize_gain(params: ApdParams, p_rs: float, bandwidth_hz: float,
                  gain_bounds: tuple[float, float] = (1.0, 1000.0),
                  p_r: float = 1.0) -> tuple[float, float]:
    """Gain that maximizes the trigger SNR, and the SNR there.

    The SNR is linear in ``p_r``, so the argmax does not depend on it; the
    returned SNR is evaluated at the given ``p_r``.  The no-echo variance
    is a * G + c, G = M**2 * F(M), with a and c read from the terms that
    ``trigger_snr`` sums.  The SNR peaks where a * (M * G' -
    2 * G) = 2 * c: x * M**(2 + x) or k * M**3 + (1 - k) * M = 2 * c / a
    (power law, ionization).  Both grow with M, so the optimum is that
    root clamped to ``gain_bounds``; with x = 0 or a = 0 the SNR only rises.
    """
    lo, hi = gain_bounds
    if not (lo >= 1.0 and lo < hi < math.inf):
        raise ConfigError("gain_bounds must satisfy 1 <= lo < hi < inf")
    two_e_bw_k, _, surface, bulk, var_thermal, var_amp, _ = _noise_terms(
        params, p_rs, 0.0, bandwidth_hz)
    a = two_e_bw_k * p_rs + bulk
    c = surface + var_thermal + var_amp
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
    return gain, trigger_snr(copy_with(params, "gain", gain), p_r, p_rs, bandwidth_hz)
