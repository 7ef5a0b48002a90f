"""Independent reference computations used to check the library.

Everything here deliberately avoids the library's own code paths: Gaussian
tails come from quadrature, trigger statistics from direct stochastic
simulation, SiPM dead-time trials from a per-trial, per-step loop or a
per-trial run of the two-phase kernel with a binary search of the pulse
span's cumulative hazard,
integrals from exact rational arithmetic, optima from exhaustive grid
search, and range roots from scipy's Brent root in log range to full
precision, or from the SNR search the closed-form ranges used before the
range solver inverted them.  The photon-limited range of each detector is
the link equation inverted by hand; it borrows only the library's
aperture, in-band irradiance, excess-noise and photon-energy helpers.
Elasticities come from g = ln(SNR / tnr) written out again in 60-digit
decimal arithmetic and differenced at a relative step of 1e-25; edits are
``dataclasses.replace``.  The minimum detectable power is each closed-form
model's p_min as it was before the solver built its terms once per solve,
every term rebuilt on each call.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
from scipy import integrate, optimize

from dtofsim import apd, ranging, scene_link
from dtofsim.detectors import ApdChoice, DetectorChoice
from dtofsim.errors import (ConfigError, NoDetectionError,
                            UnboundedRangeError)
from dtofsim.physconst import (BOLTZMANN, ELEMENTARY_CHARGE, LIGHT_SPEED,
                               PLANCK, photon_energy)
from dtofsim.scenario import ScenarioConfig, config_from_dict


def gaussian_tail_quad(threshold: float) -> float:
    """P(X > threshold) for standard normal X, by adaptive quadrature."""
    pdf = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    value, _ = integrate.quad(pdf, threshold, math.inf)
    return value


def tdc_trigger_mc(p_f: float, m: int, p_d: float, trials: int,
                   seed: int) -> tuple[float, float]:
    """Simulate the repeated-window trigger race; (p_correct, std_error).

    Each window runs m-1 noise comparisons then the pulse comparison; a
    false alarm loses, a pulse detection wins, a silent window repeats.
    """
    rng = np.random.default_rng(seed)
    outcome = np.full(trials, -1, dtype=np.int8)  # -1 undecided, 0 lose, 1 win
    active = np.arange(trials)
    while active.size:
        false_alarm = rng.binomial(m - 1, p_f, size=active.size) > 0
        pulse = rng.random(active.size) < p_d
        decided_win = ~false_alarm & pulse
        outcome[active[false_alarm]] = 0
        outcome[active[decided_win]] = 1
        active = active[~false_alarm & ~pulse]
    p = float(np.mean(outcome == 1))
    return p, math.sqrt(p * (1.0 - p) / trials)


def sipm_firing_mc(n_pixels: int, pde: float, q: float, trials: int,
                   seed: int, chunk: int = 100_000) -> dict:
    """Simulate per-pixel Poisson photon exposure and firing.

    Each pixel independently sees a Poisson(q) photon count, of which a
    1/n_pixels share reaches it; its detected count is Poisson with mean
    (photon count) * pde / n_pixels, and it fires on >= 1 detection.
    Returns sample mean and variance of the fired count with their
    standard errors.
    """
    rng = np.random.default_rng(seed)
    fired = np.empty(trials, dtype=np.int64)
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        k = rng.poisson(q, size=(n, n_pixels))
        detected = rng.poisson(k * (pde / n_pixels))
        fired[done:done + n] = (detected > 0).sum(axis=1)
        done += n
    return sample_moments(fired)


def sample_moments(x) -> dict:
    """Sample mean and variance of ``x`` with their standard errors."""
    x = np.asarray(x, dtype=float)
    n = x.size
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    se_mean = math.sqrt(var / n)
    centered = x - mean
    m4 = float((centered ** 4).mean())
    se_var = math.sqrt(max(m4 - var * var * (n - 3) / (n - 1), 0.0) / n)
    return {"mean": mean, "var": var, "se_mean": se_mean, "se_var": se_var}


def sipm_dead_time_trial(rng: np.random.Generator, n_pix: int,
                         dead_steps: int, p_bg: float, warm_steps: int,
                         n_noise_periods: int, period_steps: int,
                         p_pulse: np.ndarray,
                         window_start: int) -> tuple[np.ndarray, float]:
    """One SiPM array realization, one step and one trial at a time.

    The per-step Bernoulli form of the library's dead-time kernel: it
    draws the whole (steps x pixels) uniform block at once and keeps a
    per-pixel dead-time countdown.  Returns per-period background counts
    and the fired count in the counting period at the pulse.
    """
    noise_steps = n_noise_periods * period_steps
    pulse_steps = p_pulse.shape[0]
    total = warm_steps + noise_steps + pulse_steps
    uniforms = rng.random((total, n_pix))
    dead = np.zeros(n_pix, dtype=np.int64)
    counts = np.zeros(total, dtype=np.int64)
    for t in range(total):
        armed = dead == 0
        p = p_bg if t < warm_steps + noise_steps \
            else p_pulse[t - warm_steps - noise_steps]
        fired = armed & (uniforms[t] < p)
        counts[t] = int(np.count_nonzero(fired))
        np.subtract(dead, 1, out=dead, where=dead > 0)
        dead[fired] = dead_steps
    noise_counts = counts[warm_steps:warm_steps + noise_steps]
    per_period = noise_counts.reshape(n_noise_periods, period_steps).sum(axis=1)
    window = warm_steps + noise_steps + window_start
    pulse_count = float(counts[window:window + period_steps].sum())
    return per_period, pulse_count


def sipm_two_phase_trials(rngs, n_pix: int, dead_steps: int, x_bg: float,
                          warm_steps: int, n_noise_periods: int,
                          period_steps: int, x_pulse: np.ndarray,
                          window_start: int, max_hazard: float
                          ) -> tuple[np.ndarray, np.ndarray]:
    """SiPM array realizations, one trial at a time, in two phases.

    The same random numbers, in the same order, as the library's kernel,
    so its counts must equal these bit for bit.  Every step before the
    pulse span has the hazard ``x = min(x_bg, max_hazard)``: a pixel armed
    at step ``s`` draws ``E ~ Exp(1)`` and fires at ``s + floor(E / x)``
    if that step is before the span (none fires at ``x`` 0, and none
    draws).  A pixel still armed at the span's start, or armed again in
    it, draws ``E`` in the order of its ready step ``s`` and fires at the
    first ``t`` with ``cum[t + 1] > cum[s] + E``, a binary search of the
    span's cumulative hazard.  Either way it is dead for ``dead_steps``
    steps after firing.  Returns each trial's per-period background counts
    and its fired count in the counting period at the pulse.
    """
    noise_steps = n_noise_periods * period_steps
    start = warm_steps + noise_steps  # the pulse span's first step
    x = min(x_bg, max_hazard)
    span = x_pulse.shape[0]
    cum = np.concatenate([[0.0], np.cumsum(np.minimum(x_pulse, max_hazard))])
    window = start + window_start
    per_period, pulse_counts = [], []
    for rng in rngs:
        fired = []  # firing steps from the first background step
        ready = np.zeros(n_pix, dtype=np.int64)
        in_span = []  # steps of the span at which pixels are armed
        if not x > 0.0:
            in_span, ready = [ready], ready[:0]
        while ready.size:
            with np.errstate(over="ignore"):
                wait = np.floor(rng.standard_exponential(ready.size) / x)
            fires = wait < start - ready
            in_span.append(np.zeros(np.count_nonzero(~fires), dtype=np.int64))
            t = ready[fires] + wait[fires].astype(np.int64)
            fired.append(t)
            ready = t + dead_steps + 1
            in_span.append(ready[ready >= start] - start)
            ready = ready[ready < start]
        ready = np.sort(np.concatenate(in_span))
        ready = ready[ready < span]
        while ready.size:
            t = np.searchsorted(cum[1:], cum[ready] + rng.standard_exponential(
                ready.size), side="right")
            fired.append(start + t)
            ready = t[t < span - dead_steps - 1] + (dead_steps + 1)
        counts = np.bincount(np.concatenate(fired), minlength=start + span + 1)
        per_period.append(counts[warm_steps:start].reshape(
            n_noise_periods, period_steps).sum(axis=1))
        pulse_counts.append(counts[window:window + period_steps].sum())
    return np.array(per_period), np.array(pulse_counts)


def exact_trapezoid(rows: list[tuple[float, float, float]]) -> float:
    """Exact integral of the piecewise-linear product samples, by rational
    segment areas (trapezoid is exact for piecewise-linear integrands)."""
    total = Fraction(0)
    for (w0, e0, t0), (w1, e1, t1) in zip(rows, rows[1:]):
        f0 = Fraction(e0) * Fraction(t0)
        f1 = Fraction(e1) * Fraction(t1)
        total += (f0 + f1) * (Fraction(w1) - Fraction(w0)) / 2
    return float(total)


def signal_current(params: apd.ApdParams, p_r: float) -> float:
    """Multiplied photocurrent at echo peak power ``p_r``, A: the echo
    power times the library's responsivity and the gain."""
    if p_r < 0:
        raise ConfigError("p_r must be >= 0")
    return apd.responsivity(params.wavelength_m, params.quantum_efficiency) \
        * params.gain * p_r


def grid_argmax(fn, lo: float, hi: float, step: float) -> tuple[float, float]:
    """Exhaustive scan of fn over [lo, hi] with the given step."""
    best_x, best_v = lo, fn(lo)
    x = lo
    while x < hi:
        x = min(x + step, hi)
        v = fn(x)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def log_range_root(snr, tnr: float) -> float:
    """Range where ``snr(r)`` falls to ``tnr``, to full precision.

    The bracket is [hi / 2, hi] (or [1 m, 100 m]), hi doubled from 100 m
    until the SNR there is below ``tnr``; scipy's ``brentq`` then solves
    ln(snr(e^u) / tnr) = 0 in u = ln(range) to 1e-14.
    """
    lo, hi = 1.0, 100.0
    while snr(hi) >= tnr:
        lo, hi = hi, 2.0 * hi
    u = optimize.brentq(lambda u: math.log(snr(math.exp(u)) / tnr),
                        math.log(lo), math.log(hi), xtol=1e-14)
    return math.exp(u)


def searched_max_range(scenario, detector, policy) -> float:
    """r_max of a closed-form detector, searched in range.

    The closed-form ``max_range`` as it was before it inverted the SNR:
    the SNR at 1 m, then hi doubled from 100 m until the SNR there is
    below tnr, then ``ranging._brent_root`` on g(u) = ln(SNR(e^u) / tnr)
    over [hi / 2, hi] (or [1 m, 100 m]) to 1e-12 in u.  It raises the
    errors ``max_range`` raises, with their messages.
    """
    tnr = policy.tnr

    def evaluate(r):
        snr = ranging.snr_at_range(scenario, detector, r)
        if math.isnan(snr):
            raise ConfigError(f"the trigger SNR at {r:g} m is not a number; "
                              "the scenario's values overflow the model")
        ratio = snr / tnr
        return r, snr, math.log(ratio) if ratio > 0.0 else -math.inf

    above = evaluate(1.0)
    if above[1] < tnr:
        raise NoDetectionError(
            f"SNR {above[1]:.4g} is below the threshold {tnr:g} at 1 m")
    if above[1] == math.inf:
        raise UnboundedRangeError("SNR is infinite at 1 m: no noise at any range")
    hi = ranging.RANGE_BRACKET_START_M
    while (at_hi := evaluate(hi))[1] >= tnr:
        if hi >= ranging.RANGE_CAP_M:
            raise UnboundedRangeError(
                f"SNR stays above the threshold {tnr:g} out to "
                f"{ranging.RANGE_CAP_M:g} m")
        above = at_hi
        hi = min(2.0 * hi, ranging.RANGE_CAP_M)
    points = {math.log(above[0]): above, math.log(hi): at_hi}

    def g(u):
        point = points[u] = evaluate(math.exp(u))
        return point[2]

    u = ranging._brent_root(g, math.log(above[0]), above[2], math.log(hi),
                            at_hi[2], 1e-12)
    return points[u][0]


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


def reference_min_signal_power(scenario: ScenarioConfig,
                               detector: DetectorChoice, policy,
                               p_rs: float) -> float:
    """``ranging._min_signal_power(scenario, detector, policy)(p_rs)`` as
    it was computed per call, with every term rebuilt: for the APD the
    responsivity, M**2 * F(M) and all five no-echo variances in their
    summing order; for the SiPM the photon energy, the per-photon exponent
    and the dark mean."""
    laser = scenario.laser
    if isinstance(detector, ApdChoice):
        p, bandwidth_hz = detector.params, scenario.bandwidth_hz
        k_pd = apd.responsivity(p.wavelength_m, p.quantum_efficiency)
        m2f = p.gain * p.gain * apd.excess_noise_factor(p)
        two_e_bw = 2.0 * ELEMENTARY_CHARGE * bandwidth_hz
        var_signal = two_e_bw * k_pd * 0.0 * m2f
        var_background = two_e_bw * k_pd * p_rs * m2f
        var_dark = (two_e_bw * p.surface_dark_current_a
                    + two_e_bw * p.bulk_dark_current_a * m2f)
        var_thermal = (4.0 * BOLTZMANN * p.temperature_k * bandwidth_hz
                       / p.load_resistance_ohm)
        var_amp = p.amplifier_noise_a * p.amplifier_noise_a
        var_total = (var_signal + var_background + var_dark + var_thermal
                     + var_amp)
        return (policy.tnr * math.sqrt(var_total)
                / (apd.responsivity(p.wavelength_m, p.quantum_efficiency)
                   * p.gain))
    p = detector.params
    h_nu = photon_energy(laser.wavelength_m)
    n_b_photon = p_rs * p.dead_time_s / h_nu
    if detector.snr_mode == "approx":
        n_s = policy.tnr * math.sqrt(n_b_photon / p.pde)
        return n_s * 2.0 * h_nu / laser.pulse_fwhm_s
    exponent = math.expm1(-p.pde / p.n_pixels)
    n_b = p.n_pixels * -math.expm1(n_b_photon * exponent)
    n_d = p.n_pixels * p.dark_count_rate_cps * p.dead_time_s
    variance = n_b * math.exp(n_b_photon * exponent) + n_d
    n_s = policy.tnr * math.sqrt(variance)
    available = p.n_pixels - n_b - n_d
    if n_s >= available:
        return math.inf
    return (math.log1p(-n_s / available) / exponent * 2.0 * h_nu
            / laser.pulse_fwhm_s)


def _replace_scaled(obj, name: str, f: float):
    return replace(obj, **{name: getattr(obj, name) * f})


def reference_edit(name: str, sc, det, pol, f: float):
    """``ranging.SENSITIVITY_PARAMS[name]`` through ``dataclasses.replace``:
    the named field times ``f`` in every object that declares it, the
    in-band solar irradiance, or the atmosphere's field of its mode."""
    if name == "sun_irradiance":
        e_sun = scene_link.sun_equivalent_irradiance(sc.solar) * f
        solar = scene_link.SolarModel(in_band_irradiance_w_m2=e_sun)
        return replace(sc, solar=solar), det, pol
    if name == "one_way_transmittance":
        atm = sc.atmosphere
        field = ("one_way_transmittance" if atm.mode == "fixed_transmittance"
                 else "extinction_coeff_per_m")
        return replace(sc, atmosphere=_replace_scaled(atm, field, f)), det, pol
    changed = {s: _replace_scaled(getattr(sc, s), name, f)
               for s in ("scene", "atmosphere", "optics", "target", "laser")
               if name in getattr(sc, s).__dataclass_fields__}
    if name in sc.__dataclass_fields__:
        changed[name] = getattr(sc, name) * f
    if changed:
        sc = replace(sc, **changed)
    if name in det.params.__dataclass_fields__:
        det = replace(det, params=_replace_scaled(det.params, name, f))
    if name in pol.__dataclass_fields__:
        pol = _replace_scaled(pol, name, f)
    return sc, det, pol


# the inputs each detector's decimal margin reads, each named as the
# sensitivity name that scales it; every model also reads tnr
_DECIMAL_INPUTS = {
    "apd": ("gain", "quantum_efficiency", "wavelength_m",
            "excess_noise_index", "surface_dark_current_a",
            "bulk_dark_current_a", "load_resistance_ohm", "temperature_k",
            "amplifier_noise_a", "bandwidth_hz", "tnr"),
    "sipm": ("n_pixels", "pde", "dead_time_s", "dark_count_rate_cps",
             "pulse_fwhm_s", "wavelength_m", "tnr"),
}
DECIMAL_DIGITS = 60
DECIMAL_LN_STEP = Decimal("1e-25")


def _decimal_margin_apd(x: dict, ionization_rate) -> Decimal:
    """SNR / tnr of the APD: the multiplied photocurrent over the root
    of the background, surface and bulk dark, thermal and amplifier
    variances, with M**2 F(M) of the power law, or of the ionization form
    where ``ionization_rate`` is not None."""
    e, m = Decimal(ELEMENTARY_CHARGE), x["gain"]
    h_nu = Decimal(PLANCK) * Decimal(LIGHT_SPEED) / x["wavelength_m"]
    k_pd = e * x["quantum_efficiency"] / h_nu
    if ionization_rate is None:
        f = (x["excess_noise_index"] * m.ln()).exp()
    else:
        k = Decimal(ionization_rate)
        f = k * m + (1 - k) * (2 - 1 / m)
    two_e_bw = 2 * e * x["bandwidth_hz"]
    variance = (two_e_bw * k_pd * x["p_rs"] * m * m * f
                + two_e_bw * x["surface_dark_current_a"]
                + two_e_bw * x["bulk_dark_current_a"] * m * m * f
                + 4 * Decimal(BOLTZMANN) * x["temperature_k"]
                * x["bandwidth_hz"] / x["load_resistance_ohm"]
                + x["amplifier_noise_a"] ** 2)
    return m * k_pd * x["p_r"] / variance.sqrt() / x["tnr"]


def _decimal_margin_sipm(x: dict, approx: bool) -> Decimal:
    """SNR / tnr of the SiPM: fired pixels over the root of the fired
    count's no-echo variance, or the photon-budget n_s √(pde / n_b)."""
    h_nu = Decimal(PLANCK) * Decimal(LIGHT_SPEED) / x["wavelength_m"]
    n_b_photon = x["p_rs"] * x["dead_time_s"] / h_nu
    n_s_photon = x["p_r"] * x["pulse_fwhm_s"] / (2 * h_nu)
    if approx:
        snr = n_s_photon * (x["pde"] / n_b_photon).sqrt()
    else:
        n = x["n_pixels"]
        e = (-x["pde"] / n).exp() - 1
        n_d = n * x["dark_count_rate_cps"] * x["dead_time_s"]
        survival = (n_b_photon * e).exp()
        n_b = n * (1 - survival)
        n_s = (n - n_b - n_d) * (1 - (n_s_photon * e).exp())
        snr = n_s / (n_b * survival + n_d).sqrt()
    return snr / x["tnr"]


def decimal_elasticities(scenario, detector, policy) -> dict[str, float]:
    """Every sensitivity name's elasticity of ``max_range``'s root, in
    ``DECIMAL_DIGITS``-digit decimal arithmetic.

    SNR / tnr is written out for each closed-form model above, its inputs
    ``Decimal`` of the scenario's doubles and of the solve's powers at
    r_max.  Each partial of g = ln(SNR / tnr) in ln x is a central
    difference of relative step ``DECIMAL_LN_STEP``; the range's and each
    link name's partial is its log-exponents in the powers
    (``range_exponents``, ``LINK_EXPONENTS``) times the partials in ln p_r
    and ln p_rs.  A name whose input no model reads, and that is no link
    name, has 0.
    """
    solve = ranging.max_range(scenario, detector, policy)
    params = detector.params
    if isinstance(detector, ApdChoice):
        kind = "apd"
        model = partial(_decimal_margin_apd, ionization_rate=(
            params.electron_ionization_rate
            if params.excess_noise_mode == "ionization" else None))
    else:
        kind = "sipm"
        model = partial(_decimal_margin_sipm,
                        approx=detector.snr_mode == "approx")
    # each input from the first of these that holds it: the APD's own
    # wavelength, the laser's for the SiPM
    holders = (params, scenario.laser, scenario, policy)
    values = {name: getattr(next(h for h in holders if hasattr(h, name)), name)
              for name in _DECIMAL_INPUTS[kind]}
    values.update(p_r=solve.min_detectable_power_w,
                  p_rs=solve.background_power_w)
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        x = {name: Decimal(value) for name, value in values.items()}
        up, down = DECIMAL_LN_STEP.exp(), (-DECIMAL_LN_STEP).exp()

        def ln_partial(name: str) -> Decimal:
            # g(up) - g(down) as one logarithm
            return ((model({**x, name: x[name] * up})
                     / model({**x, name: x[name] * down})).ln()
                    / (2 * DECIMAL_LN_STEP))

        d = ln_partial("p_r"), ln_partial("p_rs")

        def chained(exponents) -> Decimal:
            return sum(Decimal(a) * b for a, b in zip(exponents, d))

        r = solve.r_max_m
        dg_r = chained(scene_link.range_exponents(scenario.atmosphere, r))
        result = {}
        for name in ranging.SENSITIVITY_PARAMS:
            if name in scene_link.LINK_EXPONENTS:
                dg_p = chained(scene_link.LINK_EXPONENTS[name](
                    scenario.scene, scenario.atmosphere, r))
            elif name in _DECIMAL_INPUTS[kind]:
                dg_p = ln_partial(name)
            else:
                dg_p = Decimal(0)
            result[name] = float(-dg_p / dg_r)
    return result


def perfbench_scenarios(seeds) -> list[ScenarioConfig]:
    """The benchmark's design_space inputs: ``perfbench/harness.py``'s
    seeded (APD, SiPM) table1 pair of pass 0 for each seed, which varies
    the sun angle up to 80 degrees and draws both atmosphere modes."""
    root = str(Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    harness = importlib.import_module("perfbench.harness")
    return [config_from_dict(d) for s in seeds
            for d in harness.scenario_dicts(harness.rng_for(s, 0))]
