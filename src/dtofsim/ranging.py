"""Maximum-range pipeline: background noise to weakest signal to range.

The pipeline evaluates the trigger SNR of the composed scene and detector
at a candidate range and bisects for the range where the SNR equals the
threshold-to-noise ratio.  Closed-form range expressions for the
photon-limited limits of both detectors serve as consistency checks; the
pipeline is authoritative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from . import apd, scene_link, sipm
from .detectors import ApdChoice, DetectorChoice, SipmChoice
from .errors import (ConfigError, NoDetectionError, SipmSaturationError,
                     UnboundedRangeError)
from .physconst import photon_energy
from .scenario import ScenarioConfig
from .tdc import TdcPolicy

# bisection controls
RANGE_BRACKET_START_M = 100.0
RANGE_CAP_M = 1e5
RANGE_WIDTH_TOL_M = 1e-3
SNR_REL_TOL = 1e-7
_MAX_BISECT_ITER = 200

# fired fraction above which a sweep row is flagged as saturated
SIPM_SATURATION_FRACTION = 0.95


@dataclass(frozen=True)
class RangeResult:
    """Solved maximum detectable range and the quantities that fix it."""

    r_max_m: float
    snr_at_rmax: float
    min_detectable_power_w: float
    background_power_w: float
    method: str  # "pipeline" or "closed_form"


def link_powers(scenario: ScenarioConfig, range_m: float) -> tuple[float, float]:
    """(echo power, background power) at the given range, W."""
    scene = replace(scenario.scene, range_m=range_m)
    p_r = scene_link.echo_power(scene, scenario.atmosphere, scenario.optics,
                                scenario.target, scenario.laser)
    p_rs = scene_link.background_power(scene, scenario.atmosphere,
                                       scenario.optics, scenario.target,
                                       scenario.solar)
    return p_r, p_rs


def snr_at_range(scenario: ScenarioConfig, detector: DetectorChoice,
                 range_m: float) -> float:
    """Trigger SNR of the composed scene and detector at ``range_m``."""
    if not range_m > 0:
        raise ConfigError("range_m must be > 0")
    p_r, p_rs = link_powers(scenario, range_m)
    if isinstance(detector, ApdChoice):
        return apd.trigger_snr(detector.params, p_r, p_rs,
                               scenario.bandwidth_hz)
    laser = scenario.laser
    if detector.snr_mode == "approx":
        return sipm.trigger_snr_approx(detector.params, p_r, p_rs,
                                       laser.pulse_fwhm_s, laser.wavelength_m)
    if detector.snr_mode == "monte_carlo":
        snr, _ = sipm.monte_carlo_snr(detector.params, p_r, p_rs,
                                      laser.pulse_fwhm_s, laser.wavelength_m,
                                      scenario.bandwidth_hz,
                                      detector.mc_config())
        return snr
    counts = sipm.PhotonCounts.from_powers(p_r, p_rs, laser.pulse_fwhm_s,
                                           laser.wavelength_m,
                                           detector.params.dead_time_s)
    try:
        return sipm.trigger_snr_analytic(detector.params, counts)
    except SipmSaturationError as exc:
        raise SipmSaturationError(f"{exc} (at range {range_m:g} m)") from exc


def sipm_fired_fraction(scenario: ScenarioConfig, detector: SipmChoice,
                        range_m: float) -> float:
    """Fraction of the array fired at the pulse; near 1 means saturation."""
    p_r, p_rs = link_powers(scenario, range_m)
    params = detector.params
    counts = sipm.PhotonCounts.from_powers(p_r, p_rs,
                                           scenario.laser.pulse_fwhm_s,
                                           scenario.laser.wavelength_m,
                                           params.dead_time_s)
    n_b = sipm.background_occupancy(params, counts)
    n_d, _ = sipm.dark_occupancy(params)
    n_s = sipm.signal_fired(params, counts, n_b, n_d)
    return (n_b + n_d + n_s) / params.n_pixels


def max_range(scenario: ScenarioConfig, detector: DetectorChoice,
              policy: TdcPolicy) -> RangeResult:
    """Range at which the trigger SNR falls to the threshold-to-noise ratio.

    Bisection on a bracket grown by doubling from 100 m; raises
    ``NoDetectionError`` when the SNR is below threshold already at 1 m and
    ``UnboundedRangeError`` when it stays above threshold at 100 km.
    """
    tnr = policy.tnr
    is_mc = isinstance(detector, SipmChoice) and detector.snr_mode == "monte_carlo"

    def f(r: float) -> float:
        return snr_at_range(scenario, detector, r)

    lo = 1.0
    snr_lo = f(lo)
    if snr_lo < tnr:
        raise NoDetectionError(
            f"SNR {snr_lo:.4g} is below the threshold {tnr:g} at {lo:g} m")
    hi = RANGE_BRACKET_START_M
    while f(hi) >= tnr:
        hi *= 2.0
        if hi >= RANGE_CAP_M:
            if f(RANGE_CAP_M) >= tnr:
                raise UnboundedRangeError(
                    f"SNR stays above the threshold {tnr:g} out to "
                    f"{RANGE_CAP_M:g} m")
            hi = RANGE_CAP_M
            break

    mid = 0.5 * (lo + hi)
    snr_mid = f(mid)
    for _ in range(_MAX_BISECT_ITER):
        if snr_mid >= tnr:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
        width = hi - lo
        if width < RANGE_WIDTH_TOL_M:
            snr_mid = f(mid)
            if is_mc or abs(snr_mid - tnr) <= SNR_REL_TOL * tnr \
                    or width < 1e-12 * mid:
                break
        else:
            snr_mid = f(mid)

    p_r, p_rs = link_powers(scenario, mid)
    return RangeResult(r_max_m=mid, snr_at_rmax=snr_mid,
                       min_detectable_power_w=p_r, background_power_w=p_rs,
                       method="pipeline")


def closed_form_max_range(scenario: ScenarioConfig,
                          detector: DetectorChoice) -> float:
    """Photon-limited maximum range in closed form, m.

    Derived by inverting the photon-limited trigger SNR against the link
    equations at a fixed atmospheric transmittance.  For the APD this drops
    the dark, thermal and amplifier terms; for the SiPM it is the exact
    inverse of the photon-budget SNR approximation.
    """
    if scenario.atmosphere.mode != "fixed_transmittance":
        raise ConfigError(
            "closed-form range requires a fixed_transmittance atmosphere")
    scene = scenario.scene
    optics = scenario.optics
    tau = scenario.atmosphere.one_way_transmittance
    area = scene_link.effective_aperture(optics, scene.elevation_angle_rad)
    e_sun = scene_link.sun_equivalent_irradiance(scenario.solar)
    h_nu = photon_energy(scenario.laser.wavelength_m)
    tnr = scenario.tdc.tnr
    cos_theta = math.cos(scene.incidence_angle_rad)
    cos_sun = math.cos(scene.sun_angle_rad)
    common = (tau ** 1.5 * optics.laser_efficiency * cos_theta
              * scenario.laser.peak_power_w * optics.focal_length_m
              / (math.pi * tnr * optics.detector_radius_m))
    if isinstance(detector, ApdChoice):
        p = detector.params
        quartic = (p.quantum_efficiency * scenario.target.reflectivity * area
                   / (2.0 * h_nu * scenario.bandwidth_hz
                      * apd.excess_noise_factor(p) * e_sun
                      * optics.sun_efficiency * cos_sun))
        return math.sqrt(common) * quartic ** 0.25
    p = detector.params
    quartic = (p.pde * scenario.target.reflectivity * area
               / (h_nu * p.dead_time_s * e_sun
                  * optics.sun_efficiency * cos_sun))
    return math.sqrt(common * scenario.laser.pulse_fwhm_s / 2.0) * quartic ** 0.25


# --- sensitivity -----------------------------------------------------------

_Edit = Callable[[ScenarioConfig, DetectorChoice, TdcPolicy, float],
                 tuple[ScenarioConfig, DetectorChoice, TdcPolicy]]


def _section_edit(section: str, field: str) -> _Edit:
    def edit(sc, det, pol, f):
        part = getattr(sc, section)
        part = replace(part, **{field: getattr(part, field) * f})
        return replace(sc, **{section: part}), det, pol
    return edit


def _solar_edit(sc, det, pol, f):
    solar = sc.solar
    if solar.mode == "direct_irradiance":
        solar = replace(solar,
                        in_band_irradiance_w_m2=solar.in_band_irradiance_w_m2 * f)
    elif solar.mode == "illuminance_scaled":
        solar = replace(solar, illuminance_klux=solar.illuminance_klux * f)
    else:
        raise ConfigError("sun_irradiance sensitivity requires direct or "
                          "scaled solar mode")
    return replace(sc, solar=solar), det, pol


def _atmosphere_edit(sc, det, pol, f):
    atm = sc.atmosphere
    if atm.mode == "fixed_transmittance":
        atm = replace(atm, one_way_transmittance=atm.one_way_transmittance * f)
    else:
        atm = replace(atm, extinction_coeff_per_m=atm.extinction_coeff_per_m * f)
    return replace(sc, atmosphere=atm), det, pol


def _bandwidth_edit(sc, det, pol, f):
    return replace(sc, bandwidth_hz=sc.bandwidth_hz * f), det, pol


def _policy_edit(field: str) -> _Edit:
    def edit(sc, det, pol, f):
        return sc, det, replace(pol, **{field: getattr(pol, field) * f})
    return edit


def _detector_edit(cls: type, field: str) -> _Edit:
    def edit(sc, det, pol, f):
        if isinstance(det, cls):
            det = replace(det, params=replace(
                det.params, **{field: getattr(det.params, field) * f}))
        return sc, det, pol
    return edit


SENSITIVITY_PARAMS: dict[str, _Edit] = {
    "peak_power_w": _section_edit("laser", "peak_power_w"),
    "pulse_fwhm_s": _section_edit("laser", "pulse_fwhm_s"),
    "wavelength_m": _section_edit("laser", "wavelength_m"),
    "reflectivity": _section_edit("target", "reflectivity"),
    "one_way_transmittance": _atmosphere_edit,
    "aperture_radius_m": _section_edit("optics", "aperture_radius_m"),
    "focal_length_m": _section_edit("optics", "focal_length_m"),
    "detector_radius_m": _section_edit("optics", "detector_radius_m"),
    "laser_efficiency": _section_edit("optics", "laser_efficiency"),
    "sun_efficiency": _section_edit("optics", "sun_efficiency"),
    "sun_irradiance": _solar_edit,
    "sun_angle_rad": _section_edit("scene", "sun_angle_rad"),
    "incidence_angle_rad": _section_edit("scene", "incidence_angle_rad"),
    "bandwidth_hz": _bandwidth_edit,
    "tnr": _policy_edit("tnr"),
    "gain": _detector_edit(ApdChoice, "gain"),
    "quantum_efficiency": _detector_edit(ApdChoice, "quantum_efficiency"),
    "excess_noise_index": _detector_edit(ApdChoice, "excess_noise_index"),
    "surface_dark_current_a": _detector_edit(ApdChoice, "surface_dark_current_a"),
    "bulk_dark_current_a": _detector_edit(ApdChoice, "bulk_dark_current_a"),
    "load_resistance_ohm": _detector_edit(ApdChoice, "load_resistance_ohm"),
    "temperature_k": _detector_edit(ApdChoice, "temperature_k"),
    "amplifier_noise_a": _detector_edit(ApdChoice, "amplifier_noise_a"),
    "n_pixels": _detector_edit(SipmChoice, "n_pixels"),
    "pde": _detector_edit(SipmChoice, "pde"),
    "dead_time_s": _detector_edit(SipmChoice, "dead_time_s"),
    "dark_count_rate_cps": _detector_edit(SipmChoice, "dark_count_rate_cps"),
}


def sensitivity(scenario: ScenarioConfig, detector: DetectorChoice,
                policy: TdcPolicy, param_name: str,
                rel_step: float = 1e-3) -> float:
    """Elasticity of the maximum range with respect to one parameter.

    Central difference of log range versus log parameter with multiplier
    exp(+-rel_step).  Parameters with a pure power-law influence return
    their exponent; parameters absent from the model return 0.
    """
    if param_name not in SENSITIVITY_PARAMS:
        raise ConfigError(
            f"unknown parameter {param_name!r}; known: "
            f"{', '.join(sorted(SENSITIVITY_PARAMS))}")
    if not 0.0 < rel_step <= 0.1:
        raise ConfigError("rel_step must be in (0, 0.1]")
    edit = SENSITIVITY_PARAMS[param_name]
    results = []
    for sign in (1.0, -1.0):
        sc, det, pol = edit(scenario, detector, policy,
                            math.exp(sign * rel_step))
        results.append(max_range(sc, det, pol).r_max_m)
    return (math.log(results[0]) - math.log(results[1])) / (2.0 * rel_step)
