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
Elasticities come from the sensitivity algorithm as it was before it
remembered the range partial: four SNR evaluations per name, edits by
``dataclasses.replace``.  The minimum detectable power is each closed-form
model's p_min as it was before the solver built its terms once per solve,
every term rebuilt on each call.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import integrate, optimize

from dtofsim import apd, ranging, scene_link
from dtofsim.detectors import ApdChoice, DetectorChoice
from dtofsim.errors import (ConfigError, NoDetectionError,
                            UnboundedRangeError)
from dtofsim.physconst import (BOLTZMANN, ELEMENTARY_CHARGE,
                               photon_energy)
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


def reference_sensitivity(scenario, detector, policy, param_name: str,
                          rel_step: float = 1e-3) -> float:
    """``ranging.sensitivity`` as it was before it remembered the range
    partial: each call evaluates g at r_max * exp(+-rel_step) and at both
    parameter edits (three at a closed bound), with ``reference_edit``.
    It raises the errors ``sensitivity`` raises, with their messages."""
    if getattr(detector, "snr_mode", None) == "monte_carlo":
        raise ConfigError("sensitivity needs a closed-form SNR model; the "
                          "Monte Carlo range's noise swamps the difference "
                          "(use snr_mode approx or analytic)")
    if param_name not in ranging.SENSITIVITY_PARAMS:
        raise ConfigError(
            f"unknown parameter {param_name!r}; known: "
            f"{', '.join(sorted(ranging.SENSITIVITY_PARAMS))}")
    if not 0.0 < rel_step <= 0.1:
        raise ConfigError("rel_step must be in (0, 0.1]")

    def edit(sc, det, pol, f):
        return reference_edit(param_name, sc, det, pol, f)

    r = ranging.max_range(scenario, detector, policy).r_max_m

    def g(sc, det, pol, range_m):
        snr = ranging.snr_at_range(sc, det, range_m)
        return math.log(snr / pol.tnr) if snr / pol.tnr > 0.0 else -math.inf

    up, down = math.exp(rel_step), math.exp(-rel_step)

    def g_edited(k: int) -> float:
        return g(*edit(scenario, detector, policy, math.exp(k * rel_step)), r)

    dg_r = (g(scenario, detector, policy, r * up)
            - g(scenario, detector, policy, r * down))
    try:
        above = edit(scenario, detector, policy, up)
    except ConfigError:
        dg_p = (3.0 * g(scenario, detector, policy, r) - 4.0 * g_edited(-1)
                + g_edited(-2))
    else:
        try:
            below = edit(scenario, detector, policy, down)
        except ConfigError:
            dg_p = (-3.0 * g(scenario, detector, policy, r)
                    + 4.0 * g(*above, r) - g_edited(2))
        else:
            dg_p = g(*above, r) - g(*below, r)
    if not (math.isfinite(dg_r) and math.isfinite(dg_p)) or dg_r == 0.0:
        raise ConfigError(
            f"the elasticity of {param_name} is undefined at r_max "
            f"{r:g} m: ln(SNR / tnr) there is not finite or not moved by "
            "the range")
    return -dg_p / dg_r + 0.0


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
