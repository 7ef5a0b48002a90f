"""Maximum-range pipeline: background noise to weakest signal to range.

The closed-form detector models (the APD, the SiPM's analytic and approx
SNRs) take their noise from the background alone.  So the pipeline forms
the weakest detectable echo power p_min from the background power and the
threshold-to-noise ratio, and solves the link for the range where the
echo falls to p_min: the minimum-detectable-power form of the lidar range
equation (Jelalian, Laser Radar Systems, 1992).  At a fixed transmittance
that range is sqrt(p_r(1 m) / p_min), with no iteration.  The Monte Carlo
SNR has no such inverse, and its range is a root of the SNR in range.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Callable

from . import apd, scene_link, sipm
from .detectors import ApdChoice, DetectorChoice, SipmChoice
from .errors import (ConfigError, NoDetectionError, SipmSaturationError,
                     UnboundedRangeError, copy_with)
from .scenario import ScenarioConfig
from .tdc import TdcPolicy

# range solver controls
RANGE_BRACKET_START_M = 100.0
RANGE_CAP_M = 1e5
# an inverted root under extinction stops on a bracket this wide in
# ln(range); each step costs one p_min, so it stops at rounding
LOG_RANGE_TOL = 1e-15
# a closed-form root's SNR lies within about 1e-14 relative of the
# threshold, far inside this distance (perfbench/checks.py tests it)
SNR_REL_TOL = 1e-7
# a Monte Carlo root stops on a bracket this wide in range: a fixed-seed
# SNR can jump across the threshold by more than its noise band
RANGE_WIDTH_TOL_M = 1e-3
# a Monte Carlo evaluation whose SNR lies within this fraction of its
# standard error of the threshold is the root; a narrower band would only
# resolve the estimator's noise
SE_STOP_FRACTION = 0.25


@dataclass(frozen=True)
class RangeResult:
    """Solved maximum detectable range and the quantities that fix it."""

    r_max_m: float
    snr_at_rmax: float
    min_detectable_power_w: float
    background_power_w: float
    # snr_at_range calls of the solve: 2 closed form (1 m and the root);
    # the Monte Carlo's count its bracket search too
    evaluations: int
    snr_se: float  # Monte Carlo standard error of snr_at_rmax; 0.0 closed form


def link_powers(scenario: ScenarioConfig, range_m: float) -> tuple[float, float]:
    """(echo power, background power) at the given range, W."""
    return scene_link.received_powers(
        range_m, scenario.scene, scenario.atmosphere, scenario.optics,
        scenario.target, scenario.laser, scenario.solar)


def _is_monte_carlo(detector: DetectorChoice) -> bool:
    return isinstance(detector, SipmChoice) and detector.snr_mode == "monte_carlo"


class SnrEstimate(float):
    """A Monte Carlo trigger SNR that carries its standard error ``se``."""

    __slots__ = ("se",)

    def __new__(cls, snr: float, se: float) -> SnrEstimate:
        estimate = super().__new__(cls, snr)
        estimate.se = se
        return estimate


def _photon_counts(scenario: ScenarioConfig, params: sipm.SipmParams,
                   p_r: float, p_rs: float) -> sipm.PhotonCounts:
    """The SiPM photon budget of the link powers ``p_r`` and ``p_rs``."""
    laser = scenario.laser
    return sipm.PhotonCounts.from_powers(p_r, p_rs, laser.pulse_fwhm_s,
                                         laser.wavelength_m,
                                         params.dead_time_s)


def judged_snr(snr: float, where: str, x: float) -> float:
    """``snr``, unless it is NaN, the 0 * inf of values that overflow the
    model, which compares false both ways and so would steer a solver or
    print as a result: then a ``ConfigError`` at ``where.format(x)``."""
    if math.isnan(snr):
        raise ConfigError(f"the trigger SNR at {where.format(x)} is not a "
                          "number; the scenario's values overflow the model")
    return snr


def snr_at_range(scenario: ScenarioConfig, detector: DetectorChoice,
                 range_m: float) -> float:
    """Trigger SNR of the composed scene and detector at ``range_m``.

    The link once, through the module attribute ``link_powers``, then
    ``snr_from_powers`` at its powers.  A new closed-form mode is also
    added to ``_min_signal_power``, whose p_min ``max_range`` inverts, and
    to ``log_partials``, which ``sensitivity`` reads at the solve's powers.
    """
    return snr_from_powers(scenario, detector,
                           *link_powers(scenario, range_m), range_m)


def snr_from_powers(scenario: ScenarioConfig, detector: DetectorChoice,
                    p_r: float, p_rs: float, range_m: float) -> float:
    """Trigger SNR of ``detector`` at the echo and background powers
    ``p_r`` and ``p_rs``, W, of the link at ``range_m``.

    The one SNR dispatch: the APD or the SiPM's analytic, approx or Monte
    Carlo model.  It is also the one verdict on every SNR: one that is not
    a number is a ``ConfigError``, and a saturated SiPM names
    ``range_m``.  A Monte Carlo SNR is a ``SnrEstimate`` that carries its
    standard error.
    """
    params = detector.params
    try:
        if isinstance(detector, ApdChoice):
            snr = apd.trigger_snr(params, p_r, p_rs, scenario.bandwidth_hz)
        elif _is_monte_carlo(detector):
            laser = scenario.laser
            snr = SnrEstimate(*sipm.monte_carlo_snr(
                params, p_r, p_rs, laser.pulse_fwhm_s, laser.wavelength_m,
                scenario.bandwidth_hz, detector.mc_config()))
        else:
            counts = _photon_counts(scenario, params, p_r, p_rs)
            snr = (sipm.trigger_snr_approx if detector.snr_mode == "approx"
                   else sipm.trigger_snr_analytic)(params, counts)
    except SipmSaturationError as exc:
        raise SipmSaturationError(f"{exc} (at range {range_m:g} m)") from exc
    return judged_snr(snr, "{:g} m", range_m)


def sipm_fired_fraction(scenario: ScenarioConfig, detector: SipmChoice,
                        p_r: float, p_rs: float) -> float:
    """Fraction of the array fired at the pulse of the link powers ``p_r``
    and ``p_rs``; near 1 means saturation."""
    params = detector.params
    counts = _photon_counts(scenario, params, p_r, p_rs)
    n_b = sipm.background_occupancy(params, counts)
    n_d, _ = sipm.dark_occupancy(params)
    n_s = sipm.signal_fired(params, counts, n_b, n_d)
    return (n_b + n_d + n_s) / params.n_pixels


def _log_margin(a: float, b: float) -> float:
    """ln(a / b), the one margin of every range search: ln(SNR / tnr) or
    ln(p_r / p_min).  -inf where ``a`` <= 0 (no echo, a Monte Carlo SNR
    below 0) or ``b`` is infinite; +inf where ``b`` <= 0 (no noise)."""
    if b > 0.0:
        ratio = a / b
        return math.log(ratio) if ratio > 0.0 else -math.inf
    return -math.inf if a <= 0.0 else math.inf


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


def _min_signal_power(scenario: ScenarioConfig, detector: DetectorChoice,
                      policy: TdcPolicy) -> Callable[[float], float]:
    """p_min(p_rs): the echo power, W, at which the closed-form SNR of
    ``detector`` reaches the policy's tnr against the background ``p_rs``.

    Every closed-form SNR's noise is that of the background alone, so the
    weakest detectable echo depends on ``p_rs`` and not on the echo.  The
    terms that do not depend on ``p_rs`` are computed here, once per solve.
    """
    params = detector.params
    if isinstance(detector, ApdChoice):
        return apd._min_signal_power(params, scenario.bandwidth_hz, policy)
    min_power = (sipm._min_signal_power_approx if detector.snr_mode == "approx"
                 else sipm._min_signal_power_analytic)
    laser = scenario.laser
    return min_power(params, laser.pulse_fwhm_s, laser.wavelength_m, policy)


def _searched_range(margin: Callable[[float], float], m_1: float,
                    width_m: float) -> float:
    """The range, 1 m to ``RANGE_CAP_M``, where ``margin(r)`` falls to 0.

    ``m_1`` >= 0 is the margin at 1 m.  hi doubles from 100 m while the
    margin there is > 0; a margin of exactly 0 is the root, and one >= 0
    at the cap returns the cap.  Otherwise Brent's method solves in ln r
    on [hi / 2, hi] or [1 m, 100 m], to a width of max(LOG_RANGE_TOL,
    width_m / hi); the ends are evaluated at their exact ranges, and a
    root at an end is that range.
    """
    lo, m_lo = 1.0, m_1
    hi = RANGE_BRACKET_START_M
    while (m_hi := margin(hi)) > 0.0:
        if hi >= RANGE_CAP_M:
            return hi
        lo, m_lo = hi, m_hi
        hi = min(2.0 * hi, RANGE_CAP_M)
    if m_hi == 0.0:
        return hi
    u_lo, u_hi = math.log(lo), math.log(hi)
    u = _brent_root(lambda u: margin(math.exp(u)), u_lo, m_lo, u_hi, m_hi,
                    max(LOG_RANGE_TOL, width_m / hi))
    return lo if u == u_lo else hi if u == u_hi else math.exp(u)


def _inverted_range(scenario: ScenarioConfig, detector: DetectorChoice,
                    policy: TdcPolicy) -> float:
    """The range, at least 1 m, where the echo falls to the minimum
    detectable power; ``RANGE_CAP_M`` or more where it does not before.

    The link is read once, at 1 m: p_r(r) = p_r(1) t^2 / r^2 and
    p_rs(r) = p_rs(1) t, with t = tau(r) / tau(1) the transmittance
    relative to 1 m.  At a fixed transmittance t is 1 and the range is
    sqrt(p_r(1) / p_min).  Under extinction ``_searched_range`` solves
    the one margin ``_log_margin(p_r, p_min)`` = 0 to rounding; each step
    costs one p_min.  A negative margin at 1 m, where the SNR was found
    at or above tnr, is rounding, and counts as 0.
    """
    min_power = _min_signal_power(scenario, detector, policy)
    p_r1, p_rs1 = link_powers(scenario, 1.0)
    p_min1 = min_power(p_rs1)
    atm = scenario.atmosphere
    if atm.mode == "fixed_transmittance":
        return max(math.sqrt(p_r1 / p_min1) if p_min1 > 0.0 else math.inf, 1.0)
    tau1 = scene_link.one_way_transmittance(atm, 1.0)

    def margin(r: float) -> float:
        t = scene_link.one_way_transmittance(atm, r) / tau1
        return _log_margin(p_r1 * t * t / (r * r), min_power(p_rs1 * t))

    return _searched_range(margin, max(_log_margin(p_r1, p_min1), 0.0), 0.0)


# (scenario, detector, policy, result, partials) of the last successful
# max_range; partials is None until sensitivity puts log_partials at r_max
_last_solve: tuple[ScenarioConfig, DetectorChoice, TdcPolicy, RangeResult,
                   tuple[float, float, dict] | None] | None = None


def max_range(scenario: ScenarioConfig, detector: DetectorChoice,
              policy: TdcPolicy) -> RangeResult:
    """Range at which the trigger SNR falls to the threshold-to-noise ratio.

    Every mode first evaluates the SNR at 1 m, through the module
    attribute ``snr_at_range``.  An SNR there below threshold is
    ``NoDetectionError``; an infinite one, the noiseless limit, is
    ``UnboundedRangeError``: noise never grows with range.  A root at
    ``RANGE_CAP_M`` (100 km) or past it is ``UnboundedRangeError`` when
    the SNR there is still at or above threshold.

    The closed-form modes (the APD, the SiPM's analytic and approx) invert
    the SNR: their noise does not depend on the echo, so the weakest
    detectable echo power p_min follows from the background alone, and the
    range is where the link's echo falls to it (``_inverted_range``).  One
    more ``snr_at_range`` call at the root gives ``snr_at_rmax``, within
    about 1e-14 relative of the threshold: 2 SNR evaluations a solve.

    The Monte Carlo solves g(r) = ``_log_margin(SNR(r), tnr)`` = 0 by
    ``_searched_range``, stopped on a bracket 1 mm wide; its fixed seed
    makes every evaluation of one solve read the same function of range.
    An evaluation whose SNR lies within ``SE_STOP_FRACTION`` times its own
    standard error of the threshold is a root (g = 0) and is returned; a
    jump across that band stops on the bracket and returns the endpoint
    of smaller |g|.  ``snr_se`` is the ``se`` of the returned
    ``SnrEstimate``, and ``snr_at_rmax`` its value as a plain float.

    The last successful solve is remembered: a call with the very same
    ``scenario``, ``detector`` and ``policy`` objects (``is``, not ``==``;
    all three are frozen, and a Monte Carlo detector carries its seed)
    returns the earlier ``RangeResult`` itself and evaluates no SNR.  A
    solve that raises is not remembered.  ``sensitivity`` keeps the
    detector's log-partials at ``r_max`` with the solve.
    """
    global _last_solve
    last = _last_solve
    if (last is not None and last[0] is scenario and last[1] is detector
            and last[2] is policy):
        return last[3]
    tnr = policy.tnr
    # every evaluation goes through the module's snr_at_range, which
    # profilers wrap to count them
    snr = snr_at_range(scenario, detector, 1.0)
    if snr < tnr:
        raise NoDetectionError(
            f"SNR {snr:.4g} is below the threshold {tnr:g} at 1 m")
    if snr == math.inf:
        raise UnboundedRangeError("SNR is infinite at 1 m: no noise at any range")
    if not _is_monte_carlo(detector):
        r = min(_inverted_range(scenario, detector, policy), RANGE_CAP_M)
        snr = snr_at_range(scenario, detector, r)
        evaluations = 2
    else:
        def g(snr: float) -> float:
            # 0.0 inside the noise band; at se = 0 it holds only tnr itself
            if abs(snr - tnr) <= SE_STOP_FRACTION * getattr(snr, "se", 0.0):
                return 0.0
            return _log_margin(snr, tnr)

        points = {1.0: snr}  # each evaluated range, all distinct -> its SNR

        def margin(r: float) -> float:
            points[r] = snr = snr_at_range(scenario, detector, r)
            return g(snr)

        r = _searched_range(margin, g(snr), RANGE_WIDTH_TOL_M)
        snr = points[r]
        evaluations = len(points)
    if r == RANGE_CAP_M and snr >= tnr:
        raise UnboundedRangeError(f"SNR stays above the threshold {tnr:g} "
                                  f"out to {RANGE_CAP_M:g} m")

    p_r, p_rs = link_powers(scenario, r)
    result = RangeResult(r_max_m=r, snr_at_rmax=float(snr),
                         min_detectable_power_w=p_r, background_power_w=p_rs,
                         evaluations=evaluations,
                         snr_se=getattr(snr, "se", 0.0))
    _last_solve = (scenario, detector, policy, result, None)
    return result


# --- sensitivity -----------------------------------------------------------

# the scenario sections a field name is searched in, with their classes;
# ``solar`` is left to the sun_irradiance edit, and ``tdc`` and
# ``detector`` hold copies the solver ignores
_SECTIONS = (("scene", scene_link.SceneGeometry),
             ("atmosphere", scene_link.AtmosphereModel),
             ("optics", scene_link.ReceiverOptics),
             ("target", scene_link.TargetModel),
             ("laser", scene_link.LaserParams))

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
# the one section that declares each field name, or None; the
# one-element unpacking fails at import where two sections do
_SECTION_OF = {
    name: section for name in _FIELD_PARAMS
    for section, in [[s for s, cls in _SECTIONS
                      if name in cls.__dataclass_fields__] or [None]]}


def _scaled(obj, name: str, f: float):
    return copy_with(obj, name, getattr(obj, name) * f)


def _edit(name: str, sc: ScenarioConfig, det: DetectorChoice, pol: TdcPolicy,
          f: float) -> tuple[ScenarioConfig, DetectorChoice, TdcPolicy]:
    """The one sensitivity edit: (sc, det, pol) with ``name`` times ``f``.

    ``sun_irradiance`` scales the in-band solar irradiance, which the link
    reads in every solar mode, and ``one_way_transmittance`` the
    atmosphere's field of its mode.  Any other name scales its field in
    its one scenario section or else the scenario, the detector's
    parameters and the policy, copying each that declares it once (the
    laser's and the APD's ``wavelength_m`` move together).
    """
    if name == "sun_irradiance":
        e_sun = scene_link.sun_equivalent_irradiance(sc.solar) * f
        solar = scene_link.SolarModel(in_band_irradiance_w_m2=e_sun)
        return copy_with(sc, "solar", solar), det, pol
    if name == "one_way_transmittance":
        atm = sc.atmosphere
        field = ("one_way_transmittance" if atm.mode == "fixed_transmittance"
                 else "extinction_coeff_per_m")
        return copy_with(sc, "atmosphere", _scaled(atm, field, f)), det, pol
    if (section := _SECTION_OF[name]) is not None:
        sc = copy_with(sc, section, _scaled(getattr(sc, section), name, f))
    elif name in ScenarioConfig.__dataclass_fields__:
        sc = _scaled(sc, name, f)
    if name in det.params.__dataclass_fields__:
        det = copy_with(det, "params", _scaled(det.params, name, f))
    if name in TdcPolicy.__dataclass_fields__:
        pol = _scaled(pol, name, f)
    return sc, det, pol


SENSITIVITY_PARAMS = {name: functools.partial(_edit, name) for name in (
    *_FIELD_PARAMS, "sun_irradiance", "one_way_transmittance")}


def declares(scenario: ScenarioConfig, detector: DetectorChoice,
             policy: TdcPolicy, param_name: str) -> bool:
    """Whether ``param_name``'s sensitivity edit has a field to scale here:
    whether ``_edit`` by a factor of 1 rebuilds the scenario, the detector
    or the policy, whatever the field's value.  ``sun_irradiance`` and
    ``one_way_transmittance`` always rebuild theirs; an unknown name has
    none.  ``sensitivity`` gives 0.0 for a name with none."""
    base = (scenario, detector, policy)
    return param_name in SENSITIVITY_PARAMS and any(map(
        operator.is_not, SENSITIVITY_PARAMS[param_name](*base, 1.0), base))


def log_partials(scenario: ScenarioConfig, detector: DetectorChoice,
                 p_r: float, p_rs: float) -> tuple[float, float, dict]:
    """(d ln SNR / d ln p_r, d ln SNR / d ln p_rs, {name: d ln SNR / d ln x})
    of a closed-form ``detector`` at the powers, as it states them."""
    params = detector.params
    if isinstance(detector, ApdChoice):
        return apd.log_partials(params, p_rs, scenario.bandwidth_hz)
    if detector.snr_mode == "approx":
        return sipm.log_partials_approx()
    return sipm.log_partials_analytic(
        params, _photon_counts(scenario, params, p_r, p_rs))


def sensitivity(scenario: ScenarioConfig, detector: DetectorChoice,
                policy: TdcPolicy, param_name: str,
                rel_step: float = 1e-3) -> float:
    """Elasticity of the maximum range with respect to one parameter.

    One ``max_range`` solve, then implicit differentiation of its root:
    with g = ln(SNR / tnr), 0 at ``r_max``, the elasticity is
    -(dg/d ln p) / (dg/d ln r).  ``log_partials`` at the solve's powers
    gives D_r and D_s in ln p_r and ln p_rs and one partial per parameter
    the SNR reads.  The range's and each link name's partial is alpha D_r
    + gamma D_s at its log-exponents in the powers (``range_exponents``,
    ``LINK_EXPONENTS``), a detector name's its own, tnr's -1, and any
    other's 0.  Nothing is evaluated, read, edited or differenced after
    the solve, which keeps the partials for names asked next of the very
    same objects.  A partial that is not finite, a range partial of 0 and
    a Monte Carlo detector are ``ConfigError``.  ``rel_step`` is ignored
    and to be removed.
    """
    if _is_monte_carlo(detector):
        raise ConfigError("sensitivity needs a closed-form SNR model; the "
                          "Monte Carlo range's noise swamps the difference "
                          "(use snr_mode approx or analytic)")
    if param_name not in SENSITIVITY_PARAMS:
        raise ConfigError(
            f"unknown parameter {param_name!r}; known: "
            f"{', '.join(sorted(SENSITIVITY_PARAMS))}")
    global _last_solve
    solve = max_range(scenario, detector, policy)
    r, last = solve.r_max_m, _last_solve
    mine = last is not None and last[3] is solve
    if not mine or (partials := last[4]) is None:
        partials = log_partials(scenario, detector, solve.min_detectable_power_w,
                                solve.background_power_w)
        if mine:
            _last_solve = (*last[:4], partials)
    d_r, d_s, own = partials
    # a partial of log-exponents (alpha, gamma): alpha D_r + gamma D_s
    alpha, gamma = scene_link.range_exponents(scenario.atmosphere, r)
    dg_r = alpha * d_r + gamma * d_s
    if (link := scene_link.LINK_EXPONENTS.get(param_name)) is not None:
        alpha, gamma = link(scenario.scene, scenario.atmosphere, r)
        dg_p = alpha * d_r + gamma * d_s
    else:
        dg_p = -1.0 if param_name == "tnr" else own.get(param_name, 0.0)
    if not (math.isfinite(dg_r) and math.isfinite(dg_p)) or dg_r == 0.0:
        raise ConfigError(
            f"the elasticity of {param_name} is undefined at r_max "
            f"{r:g} m: ln(SNR / tnr) there is not finite or not moved by "
            "the range")
    # + 0.0 turns the -0.0 of an unmoved g into 0.0
    return -dg_p / dg_r + 0.0
