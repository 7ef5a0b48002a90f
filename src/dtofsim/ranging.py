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
# a Monte Carlo bisection stops once the SNR across its bracket is at most
# this fraction of the standard error of the latest evaluation; narrower
# brackets would only resolve the estimator's noise
SE_STOP_FRACTION = 0.25

# fired fraction above which a sweep row is flagged as saturated
SIPM_SATURATION_FRACTION = 0.95


@dataclass(frozen=True)
class RangeResult:
    """Solved maximum detectable range and the quantities that fix it."""

    r_max_m: float
    snr_at_rmax: float
    min_detectable_power_w: float
    background_power_w: float
    evaluations: int  # SNR evaluations of the solve, bracket search included
    snr_se: float  # Monte Carlo standard error of snr_at_rmax; 0.0 closed form


def link_powers(scenario: ScenarioConfig, range_m: float) -> tuple[float, float]:
    """(echo power, background power) at the given range, W."""
    scene = replace(scenario.scene, range_m=range_m)
    p_r = scene_link.echo_power(scene, scenario.atmosphere, scenario.optics,
                                scenario.target, scenario.laser)
    p_rs = scene_link.background_power(scene, scenario.atmosphere,
                                       scenario.optics, scenario.target,
                                       scenario.solar)
    return p_r, p_rs


def _is_monte_carlo(detector: DetectorChoice) -> bool:
    return isinstance(detector, SipmChoice) and detector.snr_mode == "monte_carlo"


def _monte_carlo_snr(scenario: ScenarioConfig, detector: SipmChoice,
                     range_m: float) -> tuple[float, float]:
    """(trigger SNR, its standard error) of the Monte Carlo at ``range_m``."""
    p_r, p_rs = link_powers(scenario, range_m)
    laser = scenario.laser
    return sipm.monte_carlo_snr(detector.params, p_r, p_rs, laser.pulse_fwhm_s,
                                laser.wavelength_m, scenario.bandwidth_hz,
                                detector.mc_config())


def snr_at_range(scenario: ScenarioConfig, detector: DetectorChoice,
                 range_m: float) -> float:
    """Trigger SNR of the composed scene and detector at ``range_m``."""
    if not range_m > 0:
        raise ConfigError("range_m must be > 0")
    if _is_monte_carlo(detector):
        return _monte_carlo_snr(scenario, detector, range_m)[0]
    p_r, p_rs = link_powers(scenario, range_m)
    if isinstance(detector, ApdChoice):
        return apd.trigger_snr(detector.params, p_r, p_rs,
                               scenario.bandwidth_hz)
    laser = scenario.laser
    if detector.snr_mode == "approx":
        return sipm.trigger_snr_approx(detector.params, p_r, p_rs,
                                       laser.pulse_fwhm_s, laser.wavelength_m)
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
    ``UnboundedRangeError`` when it stays above threshold at 100 km.  An
    SNR that is not a number (the scenario's values overflow the noise
    model) is a ``ConfigError``; an infinite one, the noiseless limit,
    counts as above threshold.

    The closed-form modes bisect to a 1 mm bracket.  The Monte Carlo stops
    earlier, at the first evaluation after which the SNR across the
    bracket is at most ``SE_STOP_FRACTION`` times that evaluation's
    standard error, and returns that evaluation.  Its seed is fixed, so
    every evaluation of one solve reads the same function of range, and
    the result is a step of the 1 mm bisection whose bracket holds that
    bisection's root.
    """
    tnr = policy.tnr
    is_mc = _is_monte_carlo(detector)
    evaluations = 0
    se = 0.0

    def f(r: float) -> float:
        nonlocal evaluations, se
        evaluations += 1
        if is_mc:
            snr, se = _monte_carlo_snr(scenario, detector, r)
        else:
            snr = snr_at_range(scenario, detector, r)
        # NaN compares false both ways, so it would steer the bisection
        if math.isnan(snr):
            raise ConfigError(f"the trigger SNR at {r:g} m is not a number; "
                              "the scenario's values overflow the model")
        return snr

    lo = 1.0
    snr_lo = f(lo)
    if snr_lo < tnr:
        raise NoDetectionError(
            f"SNR {snr_lo:.4g} is below the threshold {tnr:g} at {lo:g} m")
    hi = RANGE_BRACKET_START_M
    while (snr_hi := f(hi)) >= tnr:
        hi *= 2.0
        if hi >= RANGE_CAP_M:
            snr_hi = f(RANGE_CAP_M)
            if snr_hi >= tnr:
                raise UnboundedRangeError(
                    f"SNR stays above the threshold {tnr:g} out to "
                    f"{RANGE_CAP_M:g} m")
            hi = RANGE_CAP_M
            break

    mid = 0.5 * (lo + hi)
    snr_mid = f(mid)
    for _ in range(_MAX_BISECT_ITER):
        if snr_mid >= tnr:
            lo, snr_lo = mid, snr_mid
        else:
            hi, snr_hi = mid, snr_mid
        # the bracket's SNR spread is > 0, so this never fires at se = 0
        if snr_lo - snr_hi <= SE_STOP_FRACTION * se:
            break
        width = hi - lo
        mid = 0.5 * (lo + hi)
        snr_mid = f(mid)
        if width < RANGE_WIDTH_TOL_M and (
                is_mc or abs(snr_mid - tnr) <= SNR_REL_TOL * tnr
                or width < 1e-12 * mid):
            break

    p_r, p_rs = link_powers(scenario, mid)
    return RangeResult(r_max_m=mid, snr_at_rmax=snr_mid,
                       min_detectable_power_w=p_r, background_power_w=p_rs,
                       evaluations=evaluations, snr_se=se)


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


# the scenario sections a field edit searches; ``solar`` is left to
# _solar_edit, and ``tdc`` and ``detector`` hold copies the solver ignores
_SECTIONS = ("scene", "atmosphere", "optics", "target", "laser")


def _scaled(obj, name: str, f: float):
    return replace(obj, **{name: getattr(obj, name) * f})


def _field_edit(name: str) -> _Edit:
    """Scale the field ``name`` in every object that declares one.

    The searched objects are the scenario's sections, the scenario itself,
    the detector's parameters and the policy; only those holding the field
    are rebuilt, so the laser's and the APD's ``wavelength_m`` move together.
    """
    def holds(obj) -> bool:
        return name in obj.__dataclass_fields__

    def edit(sc, det, pol, f):
        changed = {s: _scaled(getattr(sc, s), name, f) for s in _SECTIONS
                   if holds(getattr(sc, s))}
        if holds(sc):
            changed[name] = getattr(sc, name) * f
        if changed:
            sc = replace(sc, **changed)
        if holds(det.params):
            det = replace(det, params=_scaled(det.params, name, f))
        if holds(pol):
            pol = _scaled(pol, name, f)
        return sc, det, pol
    return edit


def _solar_edit(sc, det, pol, f):
    mode = sc.solar.mode
    if mode == "direct_irradiance":
        name = "in_band_irradiance_w_m2"
    elif mode == "illuminance_scaled":
        name = "illuminance_klux"
    else:
        raise ConfigError("sun_irradiance sensitivity requires direct or "
                          "scaled solar mode")
    return replace(sc, solar=_scaled(sc.solar, name, f)), det, pol


def _atmosphere_edit(sc, det, pol, f):
    atm = sc.atmosphere
    name = ("one_way_transmittance" if atm.mode == "fixed_transmittance"
            else "extinction_coeff_per_m")
    return replace(sc, atmosphere=_scaled(atm, name, f)), det, pol


# parameters scaled wherever a field of their name is declared
_FIELD_PARAMS = (
    "peak_power_w", "pulse_fwhm_s", "wavelength_m", "reflectivity",
    "aperture_radius_m", "focal_length_m", "detector_radius_m",
    "laser_efficiency", "sun_efficiency", "sun_angle_rad",
    "incidence_angle_rad", "bandwidth_hz", "tnr", "gain",
    "quantum_efficiency", "excess_noise_index", "surface_dark_current_a",
    "bulk_dark_current_a", "load_resistance_ohm", "temperature_k",
    "amplifier_noise_a", "n_pixels", "pde", "dead_time_s",
    "dark_count_rate_cps",
)
SENSITIVITY_PARAMS: dict[str, _Edit] = {
    **{name: _field_edit(name) for name in _FIELD_PARAMS},
    # the field these scale depends on the mode
    "sun_irradiance": _solar_edit,
    "one_way_transmittance": _atmosphere_edit,
}


def sensitivity(scenario: ScenarioConfig, detector: DetectorChoice,
                policy: TdcPolicy, param_name: str,
                rel_step: float = 1e-3) -> float:
    """Elasticity of the maximum range with respect to one parameter.

    Central difference of log range versus log parameter with multiplier
    exp(+-rel_step).  Parameters with a pure power-law influence return
    their exponent.  A name that no object of this scenario, detector and
    policy holds (a SiPM parameter for an APD, say) leaves the range
    unchanged, so it gives 0.  A Monte Carlo detector is a
    ``ConfigError``: its range scatters by far more than a step of
    ``rel_step`` moves it, so the difference is noise.
    """
    if _is_monte_carlo(detector):
        raise ConfigError("sensitivity needs a closed-form SNR model; the "
                          "Monte Carlo range's noise swamps the difference "
                          "(use snr_mode approx or analytic)")
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
