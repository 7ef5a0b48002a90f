"""Maximum-range pipeline: background noise to weakest signal to range.

The pipeline evaluates the trigger SNR of the composed scene and detector
at a candidate range and solves for the range where the SNR equals the
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

# range solver controls
RANGE_BRACKET_START_M = 100.0
RANGE_CAP_M = 1e5
# a closed-form root stops on a bracket this wide in ln(range)
LOG_RANGE_TOL = 1e-12
# the closed-form root's SNR lies within this relative distance of the
# threshold with a wide margin (perfbench/checks.py tests it)
SNR_REL_TOL = 1e-7
# a Monte Carlo root stops on a bracket this wide in range: a fixed-seed
# SNR can jump across the threshold by more than its noise band
RANGE_WIDTH_TOL_M = 1e-3
# a Monte Carlo evaluation whose SNR lies within this fraction of its
# standard error of the threshold is the root; a narrower band would only
# resolve the estimator's noise
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
    return scene_link.received_powers(
        range_m, scenario.scene, scenario.atmosphere, scenario.optics,
        scenario.target, scenario.laser, scenario.solar)


def _is_monte_carlo(detector: DetectorChoice) -> bool:
    return isinstance(detector, SipmChoice) and detector.snr_mode == "monte_carlo"


def _at_range(exc: SipmSaturationError, range_m: float) -> SipmSaturationError:
    return SipmSaturationError(f"{exc} (at range {range_m:g} m)")


def _snr_and_se(scenario: ScenarioConfig, detector: SipmChoice,
                range_m: float) -> tuple[float, float]:
    """(Monte Carlo trigger SNR, its standard error) at ``range_m``."""
    p_r, p_rs = link_powers(scenario, range_m)
    laser = scenario.laser
    try:
        return sipm.monte_carlo_snr(
            detector.params, p_r, p_rs, laser.pulse_fwhm_s,
            laser.wavelength_m, scenario.bandwidth_hz, detector.mc_config())
    except SipmSaturationError as exc:
        raise _at_range(exc, range_m) from exc


def snr_at_range(scenario: ScenarioConfig, detector: DetectorChoice,
                 range_m: float) -> float:
    """Trigger SNR of the composed scene and detector at ``range_m``."""
    if _is_monte_carlo(detector):
        return _snr_and_se(scenario, detector, range_m)[0]
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
        raise _at_range(exc, range_m) from exc


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


def _log_margin(snr: float, tnr: float) -> float:
    """ln(SNR / tnr); an SNR of 0 gives -inf and an infinite one +inf."""
    ratio = snr / tnr
    return math.log(ratio) if ratio > 0.0 else -math.inf


def _brent_root(g: Callable[[float], float], a: float, fa: float, b: float,
                fb: float, tol: float) -> float:
    """A zero of ``g`` between ``a`` and ``b``, where fa >= 0 > fb.

    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant
    interpolation, safeguarded by bisection, on a bracket that always
    holds a sign change.  An infinite endpoint value always takes the
    bisection step, so no interpolation meets inf.  Returns the point of
    smallest |g| once the bracket is at most about ``tol`` wide, or a
    point where g is exactly 0.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        step_tol = 2.0 * math.ulp(1.0) * abs(b) + 0.5 * tol
        m = 0.5 * (c - b)
        if abs(m) <= step_tol or fb == 0.0:
            return b
        if (abs(e) >= step_tol and abs(fa) > abs(fb)
                and math.isfinite(fa) and math.isfinite(fc)):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(step_tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > step_tol else math.copysign(step_tol, m)
        fb = g(b)


# (scenario, detector, policy, result) of the last successful max_range
_last_solve: tuple[ScenarioConfig, DetectorChoice, TdcPolicy,
                   RangeResult] | None = None


def max_range(scenario: ScenarioConfig, detector: DetectorChoice,
              policy: TdcPolicy) -> RangeResult:
    """Range at which the trigger SNR falls to the threshold-to-noise ratio.

    A bracket grown by doubling from 100 m; raises ``NoDetectionError``
    when the SNR is below threshold already at 1 m and
    ``UnboundedRangeError`` when it stays above threshold at 100 km.  An
    SNR that is not a number (the scenario's values overflow the noise
    model) is a ``ConfigError``.  An infinite one at 1 m, the noiseless
    limit, is ``UnboundedRangeError``: noise never grows with range.

    Every mode then solves g(u) = ln(SNR(e^u) / tnr) = 0 by Brent's
    method on the bracket the doubling leaves, [hi / 2, hi] or [1 m,
    100 m].  The SNR falls roughly as range^-2, so g is nearly linear in
    u and the root takes a few evaluations.  The closed-form modes stop
    on a bracket about 1e-12 wide in ln(range) (6 evaluations for the
    table1 APD, 10 for the SiPM), and the SNR at ``r_max`` is the
    threshold to within 1e-12 relative.

    The Monte Carlo's seed is fixed, so every evaluation of one solve
    reads the same function of range.  An evaluation whose SNR lies
    within ``SE_STOP_FRACTION`` times its own standard error of the
    threshold counts as a root (g = 0) and is returned, which takes 5 to
    7 evaluations at table1 with 8 trials.  A fixed-seed SNR can also
    jump across that noise band; the root then stops on a bracket 1 mm
    wide and returns the endpoint of smaller |g|.  ``snr_se`` is the
    standard error of the returned evaluation.

    The last successful solve is remembered: a call with the very same
    ``scenario``, ``detector`` and ``policy`` objects (``is``, not ``==``;
    all three are frozen) returns the earlier ``RangeResult`` itself and
    evaluates no SNR, so its ``evaluations`` counts the solve that made
    it.  A Monte Carlo detector carries its seed, so its solve repeats
    too.  A solve that raises is not remembered.
    """
    global _last_solve
    last = _last_solve
    if (last is not None and last[0] is scenario and last[1] is detector
            and last[2] is policy):
        return last[3]
    tnr = policy.tnr
    is_mc = _is_monte_carlo(detector)
    evaluations = 0

    def evaluate(r: float) -> tuple[float, float, float, float]:
        """(range, SNR, its standard error, margin) of one evaluation.

        The margin is g, ln(SNR / tnr), or 0.0 within the Monte Carlo's
        stop band around the threshold.
        """
        nonlocal evaluations
        evaluations += 1
        # closed-form evaluations go through the module's snr_at_range,
        # which profilers wrap to count them
        if is_mc:
            snr, se = _snr_and_se(scenario, detector, r)
        else:
            snr, se = snr_at_range(scenario, detector, r), 0.0
        # NaN compares false both ways, so it would steer the solver
        if math.isnan(snr):
            raise ConfigError(f"the trigger SNR at {r:g} m is not a number; "
                              "the scenario's values overflow the model")
        # at se = 0 the band holds only snr == tnr, where g is 0.0 already
        if abs(snr - tnr) <= SE_STOP_FRACTION * se:
            return r, snr, se, 0.0
        return r, snr, se, _log_margin(snr, tnr)

    above = evaluate(1.0)  # the last range with the SNR at or above tnr
    if above[1] < tnr:
        raise NoDetectionError(
            f"SNR {above[1]:.4g} is below the threshold {tnr:g} at 1 m")
    if above[1] == math.inf:
        raise UnboundedRangeError("SNR is infinite at 1 m: no noise at any range")
    hi = RANGE_BRACKET_START_M
    while (at_hi := evaluate(hi))[1] >= tnr:
        if hi >= RANGE_CAP_M:
            raise UnboundedRangeError(
                f"SNR stays above the threshold {tnr:g} out to "
                f"{RANGE_CAP_M:g} m")
        above = at_hi
        hi = min(2.0 * hi, RANGE_CAP_M)

    u_lo, u_hi = math.log(above[0]), math.log(hi)
    # each evaluated ln(range) -> its evaluation, the endpoints exactly
    points = {u_lo: above, u_hi: at_hi}

    def g(u: float) -> float:
        point = points[u] = evaluate(math.exp(u))
        return point[3]

    tol = RANGE_WIDTH_TOL_M / hi if is_mc else LOG_RANGE_TOL
    u = _brent_root(g, u_lo, above[3], u_hi, at_hi[3], tol)
    r, snr, se, _ = points[u]

    p_r, p_rs = link_powers(scenario, r)
    result = RangeResult(r_max_m=r, snr_at_rmax=snr,
                         min_detectable_power_w=p_r, background_power_w=p_rs,
                         evaluations=evaluations, snr_se=se)
    _last_solve = (scenario, detector, policy, result)
    return result


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


def _holds(obj, name: str) -> bool:
    return name in obj.__dataclass_fields__


def _field_edit(name: str) -> _Edit:
    """Scale the field ``name`` in every object that declares one.

    The searched objects are the scenario's sections, the scenario itself,
    the detector's parameters and the policy; only those holding the field
    are rebuilt, so the laser's and the APD's ``wavelength_m`` move together.
    """
    def edit(sc, det, pol, f):
        changed = {s: _scaled(getattr(sc, s), name, f) for s in _SECTIONS
                   if _holds(getattr(sc, s), name)}
        if _holds(sc, name):
            changed[name] = getattr(sc, name) * f
        if changed:
            sc = replace(sc, **changed)
        if _holds(det.params, name):
            det = replace(det, params=_scaled(det.params, name, f))
        if _holds(pol, name):
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


def declares(scenario: ScenarioConfig, detector: DetectorChoice,
             policy: TdcPolicy, param_name: str) -> bool:
    """Whether ``param_name``'s sensitivity edit has a field to scale here.

    A field parameter needs an object of the scenario, detector and policy
    that declares the field, whatever its value; ``sensitivity`` gives 0.0
    for one that none declares.  The solar and atmosphere parameters always
    have one.  An unknown name has none.
    """
    if param_name not in _FIELD_PARAMS:
        return param_name in SENSITIVITY_PARAMS
    objs = (*(getattr(scenario, s) for s in _SECTIONS), scenario,
            detector.params, policy)
    return any(_holds(obj, param_name) for obj in objs)


def sensitivity(scenario: ScenarioConfig, detector: DetectorChoice,
                policy: TdcPolicy, param_name: str,
                rel_step: float = 1e-3) -> float:
    """Elasticity of the maximum range with respect to one parameter.

    One range solve, then implicit differentiation of its root: with
    g = ln(SNR / tnr), which is 0 at ``r_max``, the elasticity is
    -(dg/d ln p) / (dg/d ln r).  Both partials are central differences at
    ``r_max`` with multipliers exp(+-rel_step): the parameter's edit for
    the first, the range for the second, four SNR evaluations in all.
    The perturbed scenarios run no solve of their own, so only the base
    solve can raise ``NoDetectionError`` or ``UnboundedRangeError``.  The
    base solve is a ``max_range`` call, so names asked one after another
    of the very same objects share one solve, and each later name makes
    only its four evaluations.

    Parameters with a pure power-law influence return their exponent.  A
    name that no object of this scenario, detector and policy holds (a
    SiPM parameter for an APD, say; see ``declares``) leaves g unchanged,
    so it gives 0.0.  An SNR near ``r_max`` that is 0 or infinite, or one
    flat in range, leaves the elasticity undefined: a ``ConfigError``.
    So is a Monte Carlo detector: its SNR scatters by far more than a step
    of ``rel_step`` moves it, so the difference is noise.
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
    r = max_range(scenario, detector, policy).r_max_m

    def g(sc, det, pol, range_m):
        return _log_margin(snr_at_range(sc, det, range_m), pol.tnr)

    up, down = math.exp(rel_step), math.exp(-rel_step)
    # both differences span 2 * rel_step, which cancels in the ratio
    dg_r = (g(scenario, detector, policy, r * up)
            - g(scenario, detector, policy, r * down))
    dg_p = (g(*edit(scenario, detector, policy, up), r)
            - g(*edit(scenario, detector, policy, down), r))
    if not (math.isfinite(dg_r) and math.isfinite(dg_p)) or dg_r == 0.0:
        raise ConfigError(
            f"the elasticity of {param_name} is undefined at r_max "
            f"{r:g} m: ln(SNR / tnr) there is not finite or not moved by "
            "the range")
    # + 0.0 turns the -0.0 of an unmoved g into 0.0
    return -dg_p / dg_r + 0.0
