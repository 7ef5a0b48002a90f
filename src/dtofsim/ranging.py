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

import math
from dataclasses import dataclass, replace
from typing import Callable

from . import apd, scene_link, sipm
from .detectors import ApdChoice, DetectorChoice, SipmChoice
from .errors import (ConfigError, NoDetectionError, SipmSaturationError,
                     UnboundedRangeError)
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


def snr_at_range(scenario: ScenarioConfig, detector: DetectorChoice,
                 range_m: float) -> float:
    """Trigger SNR of the composed scene and detector at ``range_m``.

    The one SNR dispatch: the link once, then the APD or the SiPM's
    analytic, approx or Monte Carlo model.  A Monte Carlo SNR is a
    ``SnrEstimate`` that carries its standard error.  ``max_range``
    inverts each closed-form mode through its p_min, which
    ``_min_signal_power`` picks, so a new closed-form mode is added there
    too.
    """
    p_r, p_rs = link_powers(scenario, range_m)
    params = detector.params
    if isinstance(detector, ApdChoice):
        return apd.trigger_snr(params, p_r, p_rs, scenario.bandwidth_hz)
    try:
        if detector.snr_mode == "monte_carlo":
            laser = scenario.laser
            return SnrEstimate(*sipm.monte_carlo_snr(
                params, p_r, p_rs, laser.pulse_fwhm_s, laser.wavelength_m,
                scenario.bandwidth_hz, detector.mc_config()))
        counts = _photon_counts(scenario, params, p_r, p_rs)
        if detector.snr_mode == "approx":
            return sipm.trigger_snr_approx(params, counts)
        return sipm.trigger_snr_analytic(params, counts)
    except SipmSaturationError as exc:
        raise SipmSaturationError(f"{exc} (at range {range_m:g} m)") from exc


def sipm_fired_fraction(scenario: ScenarioConfig, detector: SipmChoice,
                        range_m: float) -> float:
    """Fraction of the array fired at the pulse; near 1 means saturation."""
    params = detector.params
    counts = _photon_counts(scenario, params, *link_powers(scenario, range_m))
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


def _min_signal_power(scenario: ScenarioConfig, detector: DetectorChoice,
                      policy: TdcPolicy) -> Callable[[float], float]:
    """p_min(p_rs): the echo power, W, at which the closed-form SNR of
    ``detector`` reaches the policy's tnr against the background ``p_rs``.

    Every closed-form SNR's noise is that of the background alone, so the
    weakest detectable echo depends on ``p_rs`` and not on the echo.
    """
    params = detector.params
    if isinstance(detector, ApdChoice):
        bandwidth_hz = scenario.bandwidth_hz
        return lambda p_rs: apd._min_signal_power(params, p_rs, bandwidth_hz,
                                                  policy)
    min_power = (sipm._min_signal_power_approx if detector.snr_mode == "approx"
                 else sipm._min_signal_power_analytic)
    laser = scenario.laser
    return lambda p_rs: min_power(params, p_rs, laser.pulse_fwhm_s,
                                  laser.wavelength_m, policy)


def _power_margin(p_r: float, p_min: float) -> float:
    """ln(p_r / p_min), the sign of ln(SNR / tnr); -inf with no echo, and
    +inf where no noise makes every echo detectable."""
    if p_r == 0.0:
        return -math.inf
    return _log_margin(p_r, p_min) if p_min > 0.0 else math.inf


def _inverted_range(scenario: ScenarioConfig, detector: DetectorChoice,
                    policy: TdcPolicy) -> float:
    """The range, at least 1 m, where the echo falls to the minimum
    detectable power; inf where it never does before ``RANGE_CAP_M``.

    The link is read once, at 1 m: p_r(r) = p_r(1) t^2 / r^2 and
    p_rs(r) = p_rs(1) t, with t = tau(r) / tau(1) the transmittance
    relative to 1 m.  At a fixed transmittance t is 1 and the range is
    sqrt(p_r(1) / p_min).  Under extinction, h(u) = ln(p_r / p_min) at
    r = e^u is solved by Brent's method on the bracket the Monte Carlo's
    SNR search takes, [hi / 2, hi] or [1 m, 100 m] with hi doubled from
    100 m; each step costs one p_min.  A negative h at 1 m, where the SNR
    was found at or above tnr, is rounding, and makes 1 m the root.
    """
    min_power = _min_signal_power(scenario, detector, policy)
    p_r1, p_rs1 = link_powers(scenario, 1.0)
    atm = scenario.atmosphere
    if atm.mode == "fixed_transmittance":
        p_min = min_power(p_rs1)
        return max(math.sqrt(p_r1 / p_min) if p_min > 0.0 else math.inf, 1.0)
    tau1 = scene_link.one_way_transmittance(atm, 1.0)

    def h(u: float) -> float:
        r = math.exp(u)
        t = scene_link.one_way_transmittance(atm, r) / tau1
        return _power_margin(p_r1 * t * t / (r * r), min_power(p_rs1 * t))

    u_lo, h_lo = 0.0, None  # h at 1 m is needed only for [1 m, 100 m]
    hi = RANGE_BRACKET_START_M
    while (h_hi := h(u_hi := math.log(hi))) >= 0.0:
        if hi >= RANGE_CAP_M:
            return math.inf
        u_lo, h_lo = u_hi, h_hi
        hi = min(2.0 * hi, RANGE_CAP_M)
    if h_lo is None:
        h_lo = max(h(0.0), 0.0)
    return math.exp(_brent_root(h, u_lo, h_lo, u_hi, h_hi, LOG_RANGE_TOL))


# (scenario, detector, policy, result) of the last successful max_range
_last_solve: tuple[ScenarioConfig, DetectorChoice, TdcPolicy,
                   RangeResult] | None = None


def max_range(scenario: ScenarioConfig, detector: DetectorChoice,
              policy: TdcPolicy) -> RangeResult:
    """Range at which the trigger SNR falls to the threshold-to-noise ratio.

    Every mode first evaluates the SNR at 1 m, through the module
    attribute ``snr_at_range``.  An SNR there that is not a number (the
    scenario's values overflow the noise model) is a ``ConfigError``; one
    below threshold is ``NoDetectionError``; an infinite one, the
    noiseless limit, is ``UnboundedRangeError``: noise never grows with
    range.  A root at ``RANGE_CAP_M`` (100 km) or past it is
    ``UnboundedRangeError`` when the SNR there is still at or above
    threshold.

    The closed-form modes (the APD, the SiPM's analytic and approx) invert
    the SNR: their noise does not depend on the echo, so the weakest
    detectable echo power p_min follows from the background alone, and the
    range is where the link's echo falls to it (``_inverted_range``; at a
    fixed transmittance sqrt(p_r(1 m) / p_min), with no iteration).  One
    more ``snr_at_range`` call at the root gives ``snr_at_rmax``, so a
    closed-form solve makes 2 SNR evaluations, and its SNR at ``r_max`` is
    the threshold to within about 1e-14 relative.

    The Monte Carlo grows a bracket by doubling from 100 m and solves
    g(u) = ln(SNR(e^u) / tnr) = 0 by Brent's method on the bracket the
    doubling leaves, [hi / 2, hi] or [1 m, 100 m].  Its seed is fixed, so
    every evaluation of one solve reads the same function of range.  An
    evaluation whose SNR lies within ``SE_STOP_FRACTION`` times its own
    standard error of the threshold counts as a root (g = 0) and is
    returned: at table1 with 8 trials and seed 11 a solve takes 6
    evaluations with the rectangular pulse and 8 with the Gaussian.  A
    fixed-seed SNR can also jump across that noise band; the root then
    stops on a bracket 1 mm wide and returns the endpoint of smaller |g|.
    Each Monte Carlo evaluation is a ``SnrEstimate``; ``snr_se`` is the
    ``se`` of the returned one, and ``snr_at_rmax`` its value as a plain
    float.

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
    evaluations = 0

    def evaluate(r: float) -> tuple[float, float, float]:
        """(range, SNR, g); g is 0.0 inside the Monte Carlo's stop band."""
        nonlocal evaluations
        evaluations += 1
        # every evaluation goes through the module's snr_at_range, which
        # profilers wrap to count them
        snr = snr_at_range(scenario, detector, r)
        # NaN compares false both ways, so it would steer the solver
        if math.isnan(snr):
            raise ConfigError(f"the trigger SNR at {r:g} m is not a number; "
                              "the scenario's values overflow the model")
        # at se = 0 the band holds only snr == tnr, where g is 0.0 already
        if abs(snr - tnr) <= SE_STOP_FRACTION * getattr(snr, "se", 0.0):
            return r, snr, 0.0
        return r, snr, _log_margin(snr, tnr)

    def unbounded() -> UnboundedRangeError:
        return UnboundedRangeError(f"SNR stays above the threshold {tnr:g} "
                                   f"out to {RANGE_CAP_M:g} m")

    above = evaluate(1.0)  # the last range with the SNR at or above tnr
    if above[1] < tnr:
        raise NoDetectionError(
            f"SNR {above[1]:.4g} is below the threshold {tnr:g} at 1 m")
    if above[1] == math.inf:
        raise UnboundedRangeError("SNR is infinite at 1 m: no noise at any range")
    if not _is_monte_carlo(detector):
        r = min(_inverted_range(scenario, detector, policy), RANGE_CAP_M)
        _, snr, _ = evaluate(r)
        if r == RANGE_CAP_M and snr >= tnr:
            raise unbounded()
    else:
        hi = RANGE_BRACKET_START_M
        while (at_hi := evaluate(hi))[1] >= tnr:
            if hi >= RANGE_CAP_M:
                raise unbounded()
            above = at_hi
            hi = min(2.0 * hi, RANGE_CAP_M)

        u_lo, u_hi = math.log(above[0]), math.log(hi)
        # each evaluated ln(range) -> its evaluation, the endpoints exactly
        points = {u_lo: above, u_hi: at_hi}

        def g(u: float) -> float:
            point = points[u] = evaluate(math.exp(u))
            return point[2]

        u = _brent_root(g, u_lo, above[2], u_hi, at_hi[2],
                        RANGE_WIDTH_TOL_M / hi)
        r, snr, _ = points[u]

    p_r, p_rs = link_powers(scenario, r)
    result = RangeResult(r_max_m=r, snr_at_rmax=float(snr),
                         min_detectable_power_w=p_r, background_power_w=p_rs,
                         evaluations=evaluations,
                         snr_se=getattr(snr, "se", 0.0))
    _last_solve = (scenario, detector, policy, result)
    return result


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
    def edit(sc, det, pol, f):
        changed = {s: _scaled(getattr(sc, s), name, f) for s in _SECTIONS
                   if name in getattr(sc, s).__dataclass_fields__}
        if name in sc.__dataclass_fields__:
            changed[name] = getattr(sc, name) * f
        if changed:
            sc = replace(sc, **changed)
        if name in det.params.__dataclass_fields__:
            det = replace(det, params=_scaled(det.params, name, f))
        if name in pol.__dataclass_fields__:
            pol = _scaled(pol, name, f)
        return sc, det, pol
    return edit


def _solar_edit(sc, det, pol, f):
    # the link reads only the in-band value, whatever the solar mode
    e_sun = scene_link.sun_equivalent_irradiance(sc.solar) * f
    solar = scene_link.SolarModel(in_band_irradiance_w_m2=e_sun)
    return replace(sc, solar=solar), det, pol


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
    "sun_irradiance": _solar_edit,
    # the field this scales depends on the atmosphere's mode
    "one_way_transmittance": _atmosphere_edit,
}


def declares(scenario: ScenarioConfig, detector: DetectorChoice,
             policy: TdcPolicy, param_name: str) -> bool:
    """Whether ``param_name``'s sensitivity edit has a field to scale here.

    That is, whether the edit by a factor of 1 rebuilds the scenario, the
    detector or the policy, whatever the field's value; ``sensitivity``
    gives 0.0 for a name whose edit rebuilds none.  The solar and
    atmosphere edits always rebuild theirs.  An unknown name has none.
    """
    edit = SENSITIVITY_PARAMS.get(param_name)
    if edit is None:
        return False
    base = (scenario, detector, policy)
    return any(a is not b for a, b in zip(edit(*base, 1.0), base))


def sensitivity(scenario: ScenarioConfig, detector: DetectorChoice,
                policy: TdcPolicy, param_name: str,
                rel_step: float = 1e-3) -> float:
    """Elasticity of the maximum range with respect to one parameter.

    One range solve, then implicit differentiation of its root: with
    g = ln(SNR / tnr), which is 0 at ``r_max``, the elasticity is
    -(dg/d ln p) / (dg/d ln r).  Both partials are central differences at
    ``r_max`` with multipliers exp(+-rel_step): the parameter's edit for
    the first, the range for the second, four SNR evaluations in all
    (five at a closed bound, below).
    The perturbed scenarios run no solve of their own, so only the base
    solve can raise ``NoDetectionError`` or ``UnboundedRangeError``.  The
    base solve is a ``max_range`` call, so names asked one after another
    of the very same objects share one solve, and each later name makes
    only its four evaluations.

    A parameter at a closed bound of its domain (a transmittance or an
    efficiency of 1, a gain or a pixel count of 1) has one edit that its
    validation rejects with ``ConfigError``.  Its partial is then the
    one-sided second-order difference toward the interior, with g_k the
    margin at the parameter times exp(k * rel_step): 3g_0 - 4g_-1 + g_-2
    at an upper bound and -3g_0 + 4g_1 - g_2 at a lower one, each
    estimating the same 2 * rel_step * dg/d ln p as g_1 - g_-1.  g_0 is
    evaluated, not taken as 0.  If both edits are rejected, so is the
    name.

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

    def g_edited(k: int) -> float:
        """g at r with the parameter times exp(k * rel_step)."""
        return g(*edit(scenario, detector, policy, math.exp(k * rel_step)), r)

    # every difference spans 2 * rel_step, which cancels in the ratio
    dg_r = (g(scenario, detector, policy, r * up)
            - g(scenario, detector, policy, r * down))
    try:
        above = edit(scenario, detector, policy, up)
    except ConfigError:
        # a closed upper bound: one-sided, toward the interior
        dg_p = (3.0 * g(scenario, detector, policy, r) - 4.0 * g_edited(-1)
                + g_edited(-2))
    else:
        try:
            below = edit(scenario, detector, policy, down)
        except ConfigError:
            # a closed lower bound
            dg_p = (-3.0 * g(scenario, detector, policy, r)
                    + 4.0 * g(*above, r) - g_edited(2))
        else:
            dg_p = g(*above, r) - g(*below, r)
    if not (math.isfinite(dg_r) and math.isfinite(dg_p)) or dg_r == 0.0:
        raise ConfigError(
            f"the elasticity of {param_name} is undefined at r_max "
            f"{r:g} m: ln(SNR / tnr) there is not finite or not moved by "
            "the range")
    # + 0.0 turns the -0.0 of an unmoved g into 0.0
    return -dg_p / dg_r + 0.0
