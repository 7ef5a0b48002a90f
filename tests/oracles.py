"""Independent reference computations used to check the library.

Everything here deliberately avoids the library's own code paths: Gaussian
tails come from quadrature, trigger statistics from direct stochastic
simulation, SiPM dead-time trials from a per-trial, per-step loop,
integrals from exact rational arithmetic, optima from exhaustive grid
search, and range roots from a plain bisection to a 1 mm bracket or from
scipy's Brent root in log range to full precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy import integrate, optimize


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


class BisectStep(NamedTuple):
    """One SNR evaluation of a range bisection and the bracket after it."""

    r: float
    snr: float
    lo: float
    snr_lo: float
    hi: float
    snr_hi: float


def bisect_range_1mm(snr, tnr: float) -> tuple[float, list[BisectStep]]:
    """Range where ``snr(r)`` falls to ``tnr``: (root, steps).

    The bracket is [1 m, hi], hi doubled from 100 m until the SNR there is
    below ``tnr`` (no 100 km cap).  Bisection then runs until it evaluates
    the midpoint of a bracket narrower than 1 mm, which is the root.
    ``steps`` holds every evaluation, the bracket search included, with
    the bracket as it stands after it.
    """
    lo, snr_lo = 1.0, snr(1.0)
    steps = [BisectStep(lo, snr_lo, lo, snr_lo, math.nan, math.nan)]
    hi = 100.0
    while True:
        snr_hi = snr(hi)
        steps.append(BisectStep(hi, snr_hi, lo, snr_lo, hi, snr_hi))
        if snr_hi < tnr:
            break
        hi *= 2.0
    while True:
        mid, width = 0.5 * (lo + hi), hi - lo
        value = snr(mid)
        if value >= tnr:
            lo, snr_lo = mid, value
        else:
            hi, snr_hi = mid, value
        steps.append(BisectStep(mid, value, lo, snr_lo, hi, snr_hi))
        if width < 1e-3:
            return mid, steps


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
