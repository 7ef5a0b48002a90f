"""Independent reference computations used to check the library.

Everything here deliberately avoids the library's own code paths: Gaussian
tails come from quadrature, trigger statistics from direct stochastic
simulation, SiPM dead-time trials from a per-trial, per-step loop or a
per-trial binary search of the cumulative hazard,
integrals from exact rational arithmetic, optima from exhaustive grid
search, and range roots from scipy's Brent root in log range to full
precision, or from the SNR search the closed-form ranges used before the
range solver inverted them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import integrate, optimize

from dtofsim import ranging
from dtofsim.errors import (ConfigError, NoDetectionError,
                            UnboundedRangeError)


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


def sipm_searched_trials(rngs, n_pix: int, dead_steps: int, x_bg: float,
                         warm_steps: int, n_noise_periods: int,
                         period_steps: int, x_pulse: np.ndarray,
                         window_start: int, max_hazard: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """SiPM array realizations, one trial at a time, every firing found by
    a binary search of the cumulative hazard.

    The same random numbers, in the same order, as the library's batched
    kernel, so its counts must equal these bit for bit.  A pixel armed at
    step ``s`` draws ``E ~ Exp(1)`` and fires at the first ``t`` with
    ``cum[t + 1] > cum[s] + E``.  Returns each trial's per-period
    background counts and its fired count in the counting period at the
    pulse.
    """
    noise_steps = n_noise_periods * period_steps
    hazard = np.concatenate([np.full(warm_steps + noise_steps, x_bg), x_pulse])
    cum = np.concatenate([[0.0], np.cumsum(np.minimum(hazard, max_hazard))])
    total = cum.shape[0] - 1
    window = warm_steps + noise_steps + window_start
    per_period, pulse_counts = [], []
    for rng in rngs:
        ready = np.zeros(n_pix, dtype=np.int64)
        fired = []
        while ready.size:
            t = np.searchsorted(cum[1:], cum[ready] + rng.standard_exponential(
                ready.size), side="right")
            fired.append(t)
            ready = t[t < total - dead_steps - 1] + (dead_steps + 1)
        counts = np.bincount(np.concatenate(fired), minlength=total + 1)
        per_period.append(counts[warm_steps:warm_steps + noise_steps].reshape(
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
