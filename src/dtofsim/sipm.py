"""SiPM fired-pixel statistics and trigger SNR, analytic and Monte Carlo.

Analytic model: incident photons are Poisson distributed, spread uniformly
over the array, and each pixel fires when it detects at least one photon
within a dead time.  The expected fired count saturates toward the pixel
count; its variance is binomial in the per-pixel trigger probability.

Monte Carlo model: every pixel is a two-state machine (armed, or dead for
one dead time after firing).  Background and dark arrivals run the array
into a stationary state, a laser pulse is injected, and the trigger SNR is
the baseline-subtracted fired count in the counting period at the pulse
over the standard deviation of per-period fired counts under background
alone.  The counting period is one over the system bandwidth.

The kernel samples each pixel as a renewal process: an armed pixel draws
``E ~ Exp(1)`` and fires at the first step where its hazard (expected
detections) summed since arming exceeds ``E``, then is dead for one dead
time.  That is exactly the per-step law ``p_t = 1 - exp(-x_t)``, with one
random number per firing instead of one per pixel and step.  A trial runs
in two phases, split where the pulse span begins.  In the background
phase (warm-up and noise periods) the hazard is a constant ``x``, so an
armed pixel fires ``floor(E / x)`` steps later; pixels still armed, or
armed again, when the pulse span begins carry into it, which the law's
lack of memory allows.  The pulse phase searches the span's own summed
hazard.  Both phases run in ``_renewal``, which states the draw order,
the batches and their memory.

``monte_carlo_snr`` remembers its last background phase: the inputs it
read, the noise-period counts, each trial's pixels armed at each early
step of the pulse span, and each trial's generator with its state after
the phase.  An evaluation with the same background inputs, as at every
range of a fixed-transmittance solve, restores those states and runs the
pulse phase alone, so it gives the same numbers as a recompute, bit for
bit.

Only the Monte Carlo uses numpy, and it imports numpy on first use, so
the analytic model and ``import dtofsim`` start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import (ConfigError, SipmSaturationError, check_domains,
                     domains)
from .physconst import photon_energy
from .tdc import TdcPolicy, min_detectable_signal

if TYPE_CHECKING:
    import numpy as np

PULSE_SHAPES = ("rectangular", "gaussian")

# fraction of a gaussian pulse's photons inside its full-width-half-max
_GAUSS_FWHM_FRACTION = math.erf(math.sqrt(math.log(2.0)))

# steady-state dark load N_pixel * dcr * dead_time above which the
# occupied-when-pulse-arrives approximation degrades; load_scenario warns
DARK_LOAD_WARN_THRESHOLD = 1e-2

# cap on a step's hazard, so the cumulative hazard stays finite after a
# certain firing (p = 1); 1 - exp(-64) already rounds to 1
_MAX_HAZARD = 64.0

# caps on the steps of one Monte Carlo trial (its arrays) and of all trials
# of one estimate (its run time); table1 counts about 2100 and 2.1e6
MAX_TRIAL_STEPS = 10**6
MAX_TOTAL_STEPS = 10**9
# cap on the pixels of one Monte Carlo array, which set a batch's memory;
# one trial of 10**6 pixels peaks at about 67 MB, interpreter and numpy
# included
MAX_PIXELS = 10**6

# pixel slots one batch of Monte Carlo trials runs at once: ten trials of
# table1's 400 pixels, one trial of a larger array
_BATCH_SLOTS = 4096

# the last background phase monte_carlo_snr ran, as the module docstring
# describes (about 2 KB a trial at table1)
_last_background: tuple | None = None


@dataclass(frozen=True)
class SipmParams:
    """SPAD-array parameters.

    ``pde`` is the composed photon detection efficiency (quantum efficiency
    times avalanche trigger probability times fill factor); the factors are
    not modeled separately.  ``n_pixels`` is a count but may be fractional
    for sensitivity studies; the Monte Carlo rounds it.  It never warns:
    ``load_scenario`` reports a large dark load, once per file.
    """

    n_pixels: float
    pde: float
    dead_time_s: float
    dark_count_rate_cps: float = 0.0

    _DOMAINS = domains(n_pixels=">= 1", pde="in (0, 1]", dead_time_s="> 0",
                       dark_count_rate_cps=">= 0")
    __post_init__ = check_domains


@dataclass(frozen=True)
class PhotonCounts:
    """Photon budgets entering the fired-pixel statistics.

    n_b_photon  background photons incident during one dead time
    n_s_photon  signal photons attributed to the pulse: peak power times
                half the pulse FWHM, in photons
    """

    n_b_photon: float
    n_s_photon: float

    def __post_init__(self) -> None:
        if self.n_b_photon < 0 or self.n_s_photon < 0:
            raise ConfigError("photon counts must be >= 0")

    @classmethod
    def from_powers(cls, p_r: float, p_rs: float, pulse_fwhm_s: float,
                    wavelength_m: float, dead_time_s: float) -> "PhotonCounts":
        h_nu = photon_energy(wavelength_m)
        return cls(n_b_photon=p_rs * dead_time_s / h_nu,
                   n_s_photon=p_r * pulse_fwhm_s / (2.0 * h_nu))


@dataclass(frozen=True)
class SipmMcConfig:
    """Time-domain simulation controls.

    ``n_noise_periods`` background-only counting periods per trial feed the
    noise estimate.  Trial ``i`` draws from the sub-seed ``(seed, i)``, one
    exponential per pixel firing: first those of its background phase
    (warm-up and noise periods), then those of its pulse span, each in the
    order ``_renewal`` states.  ``monte_carlo_snr`` caps the steps and the
    pixels.
    """

    n_trials: int = 1000
    time_step_s: float = 1e-10
    pulse_shape: str = "rectangular"
    seed: int = 0
    warmup_s: float = 6e-8
    n_noise_periods: int = 20

    # the standard error needs at least two trials
    _DOMAINS = domains(n_trials=">= 2", time_step_s="> 0",
                       pulse_shape=PULSE_SHAPES, warmup_s=">= 0",
                       n_noise_periods=">= 2", seed=">= 0")
    _WHOLE = ("n_trials", "n_noise_periods", "seed")
    __post_init__ = check_domains

    @classmethod
    def for_dead_time(cls, dead_time_s: float, seed: int = 0,
                      n_trials: int = 1000) -> "SipmMcConfig":
        return cls(n_trials=n_trials, time_step_s=dead_time_s / 60.0,
                   seed=seed, warmup_s=10.0 * dead_time_s)


def _per_photon_exponent(params: SipmParams) -> float:
    """exp(-pde / n_pixels) - 1, the per-photon log-survival increment."""
    return math.expm1(-params.pde / params.n_pixels)


def _fired(n_armed: float, n_photon: float, exponent: float) -> float:
    """Expected number of ``n_armed`` pixels fired by ``n_photon`` photons
    spread over the array; ``exponent`` is ``_per_photon_exponent``."""
    return n_armed * -math.expm1(n_photon * exponent)


def _signal_fired(params: SipmParams, n_s_photon: float, n_b: float,
                  n_d: float, exponent: float) -> float:
    available = params.n_pixels - n_b - n_d
    if available < 0:
        raise SipmSaturationError(
            f"background plus dark occupancy {n_b + n_d:.4g} exceeds the "
            f"{params.n_pixels:g}-pixel array")
    return _fired(available, n_s_photon, exponent)


def _dark_mean(params: SipmParams) -> float:
    return params.n_pixels * params.dark_count_rate_cps * params.dead_time_s


def _no_echo_fired(params: SipmParams, n_b_photon: float, exponent: float,
                   n_d: float) -> tuple[float, float]:
    """(n_b, variance): the pixels the background holds fired, and the
    variance of the fired count without an echo, with ``n_d`` the dark
    mean (``_dark_mean``)."""
    n_b = _fired(params.n_pixels, n_b_photon, exponent)
    return n_b, n_b * math.exp(n_b_photon * exponent) + n_d


def fired_count(params: SipmParams, n_photon: float) -> float:
    """Expected number of pixels fired by ``n_photon`` incident photons."""
    if n_photon < 0:
        raise ConfigError("n_photon must be >= 0")
    return _fired(params.n_pixels, n_photon, _per_photon_exponent(params))


def fired_std(params: SipmParams, n_photon: float) -> float:
    """Standard deviation of the fired-pixel count (binomial)."""
    if n_photon < 0:
        raise ConfigError("n_photon must be >= 0")
    survival = math.exp(n_photon * _per_photon_exponent(params))
    return math.sqrt(params.n_pixels * (1.0 - survival) * survival)


def background_occupancy(params: SipmParams, counts: PhotonCounts) -> float:
    """Pixels continuously held fired by the background, per dead time."""
    return fired_count(params, counts.n_b_photon)


def dark_occupancy(params: SipmParams) -> tuple[float, float]:
    """(mean, std) of dark counts per dead time; Poisson, so std = sqrt(mean)."""
    n_d = _dark_mean(params)
    return n_d, math.sqrt(n_d)


def signal_fired(params: SipmParams, counts: PhotonCounts,
                 n_b: float, n_d: float) -> float:
    """Pixels fired by the pulse given ``n_b + n_d`` already occupied."""
    return _signal_fired(params, counts.n_s_photon, n_b, n_d,
                         _per_photon_exponent(params))


def trigger_snr_analytic(params: SipmParams, counts: PhotonCounts) -> float:
    """Fired-count trigger SNR from the closed-form statistics.

    Returns ``inf`` in the noiseless limit (no background, no dark counts)
    with a nonzero signal; sweep outputs flag such rows as ``noiseless``.
    Equal bit for bit to the composition of ``background_occupancy``,
    ``dark_occupancy`` and ``signal_fired``, with the per-photon exponent
    computed once.
    """
    exponent = _per_photon_exponent(params)
    n_d = _dark_mean(params)
    n_b, variance = _no_echo_fired(params, counts.n_b_photon, exponent, n_d)
    n_s = _signal_fired(params, counts.n_s_photon, n_b, n_d, exponent)
    if n_s == 0.0:
        return 0.0
    if variance == 0.0:
        return math.inf
    return n_s / math.sqrt(variance)


def log_partials_analytic(params: SipmParams, counts: PhotonCounts
                          ) -> tuple[float, float, dict[str, float]]:
    """(d ln SNR / d ln p_r, d ln SNR / d ln p_rs, {name: d ln SNR / d ln x})
    of ``trigger_snr_analytic`` at ``counts``, in forward mode: u = n_bγ e
    (e the per-photon exponent), s_b = exp(u), n_b = -N expm1(u), var =
    n_b s_b + n_d, A = N - n_b - n_d, v = n_sγ e, n_s = -A expm1(v) and
    ln SNR = ln n_s - ln var / 2.  n_sγ goes as p_r, the pulse width and
    the wavelength, n_bγ as p_rs, the dead time and the wavelength, n_d as
    N, the dark count rate and the dead time; de / d ln N = (pde / N)
    exp(-pde / N) = -de / d ln pde."""
    n = params.n_pixels
    exponent = _per_photon_exponent(params)
    n_d = _dark_mean(params)
    n_b, variance = _no_echo_fired(params, counts.n_b_photon, exponent, n_d)
    available = n - n_b - n_d
    u, v = counts.n_b_photon * exponent, counts.n_s_photon * exponent
    s_b = math.exp(u)
    # d ln n_s / dv, and d ln SNR / du, / d ln N (e fixed) and / d ln n_d
    by_v = math.exp(v) / math.expm1(v)
    by_u = n * s_b / available - 0.5 * s_b * (n_b - n * s_b) / variance
    by_n = n * s_b / available - 0.5 * s_b * n_b / variance
    by_dark = -n_d / available - 0.5 * n_d / variance
    by_e = by_u * counts.n_b_photon + by_v * counts.n_s_photon
    q = params.pde / n
    d_e = q * math.exp(-q)  # de / d ln N, and -de / d ln pde
    d_s, d_r = by_u * u, by_v * v
    return d_r, d_s, {
        "n_pixels": d_e * by_e + by_n + by_dark, "pde": -d_e * by_e,
        "dead_time_s": d_s + by_dark, "dark_count_rate_cps": by_dark,
        "pulse_fwhm_s": d_r, "wavelength_m": d_r + d_s}


def _min_signal_power_analytic(params: SipmParams, pulse_fwhm_s: float,
                               wavelength_m: float, policy: TdcPolicy
                               ) -> Callable[[float], float]:
    """p_min(p_rs): the echo power, W, whose ``trigger_snr_analytic`` at
    background ``p_rs`` is the policy's tnr, in the photon budgets of
    ``PhotonCounts.from_powers``.  The photon energy, the per-photon
    exponent and the dark mean are computed once, for every ``p_rs``.

    The pulse must fire tnr * sqrt(variance) of the free pixels; where that
    is all of them or more, no echo reaches the threshold and it is inf.
    """
    h_nu = photon_energy(wavelength_m)
    exponent = _per_photon_exponent(params)
    n_d = _dark_mean(params)

    def p_min(p_rs: float) -> float:
        n_b_photon = p_rs * params.dead_time_s / h_nu
        n_b, variance = _no_echo_fired(params, n_b_photon, exponent, n_d)
        n_s = min_detectable_signal(policy, math.sqrt(variance))
        available = params.n_pixels - n_b - n_d
        if n_s >= available:
            return math.inf
        return (math.log1p(-n_s / available) / exponent * 2.0 * h_nu
                / pulse_fwhm_s)
    return p_min


def trigger_snr_approx(params: SipmParams, counts: PhotonCounts) -> float:
    """Photon-budget approximation of the trigger SNR, n_s·√(pde / n_b).

    Valid when occupancies are far below the pixel count; then the SNR
    reduces to signal photons over root background photons times the root
    of the detection efficiency.  Reads the same ``PhotonCounts`` as
    ``trigger_snr_analytic``.  It has no dark-count or pixel-count term:
    with no background photons it is ``inf``, so its range raises
    ``UnboundedRangeError`` whatever ``dark_count_rate_cps`` is, and its
    ``n_pixels`` and ``dark_count_rate_cps`` elasticities are exactly 0.0.
    """
    if counts.n_s_photon == 0.0:
        return 0.0
    if counts.n_b_photon == 0.0:
        return math.inf
    return counts.n_s_photon * math.sqrt(params.pde / counts.n_b_photon)


def log_partials_approx() -> tuple[float, float, dict[str, float]]:
    """``log_partials_analytic`` of ``trigger_snr_approx``, whose
    ln n_sγ + (ln pde - ln n_bγ) / 2 has constant exponents."""
    return 1.0, -0.5, {"pde": 0.5, "dead_time_s": -0.5,
                       "pulse_fwhm_s": 1.0, "wavelength_m": 0.5}


def _min_signal_power_approx(params: SipmParams, pulse_fwhm_s: float,
                             wavelength_m: float, policy: TdcPolicy
                             ) -> Callable[[float], float]:
    """p_min(p_rs): the echo power, W, whose ``trigger_snr_approx`` at
    background ``p_rs`` is the policy's tnr, in the photon budgets of
    ``PhotonCounts.from_powers``; the photon energy is computed once."""
    h_nu = photon_energy(wavelength_m)

    def p_min(p_rs: float) -> float:
        n_b_photon = p_rs * params.dead_time_s / h_nu
        n_s = min_detectable_signal(policy,
                                    math.sqrt(n_b_photon / params.pde))
        return n_s * 2.0 * h_nu / pulse_fwhm_s
    return p_min


def _pulse_profile(mc: SipmMcConfig, n_s_photon: float, pulse_fwhm_s: float,
                   period_steps: int) -> tuple[np.ndarray, int]:
    """Expected incident signal photons per step over the pulse span.

    Returns ``(profile, window_offset)``; the counting period is the
    ``period_steps`` entries starting at ``window_offset`` and is aligned so
    the pulse FWHM sits inside it (rectangular: flush at the window start;
    gaussian: peak at the window center).
    """
    import numpy as np

    dt = mc.time_step_s
    if mc.pulse_shape == "rectangular":
        # flat envelope carrying the attributed photon budget over one FWHM
        pulse_steps = max(1, round(pulse_fwhm_s / dt))
        span = max(period_steps, pulse_steps)
        profile = np.zeros(span)
        profile[:pulse_steps] = n_s_photon / pulse_steps
        return profile, 0
    # gaussian with the FWHM-window photon budget, truncated at 4 sigma
    sigma = pulse_fwhm_s / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    half_span = max(period_steps // 2 + 1, math.ceil(4.0 * sigma / dt))
    span = 2 * half_span
    center = half_span * dt
    edges = np.arange(span + 1) * dt
    z = (edges - center) / (sigma * math.sqrt(2.0))
    cdf = 0.5 * (1.0 + np.array([math.erf(v) for v in z]))
    profile = np.diff(cdf) * (n_s_photon / _GAUSS_FWHM_FRACTION)
    return profile, half_span - period_steps // 2


def _exponentials(rngs: list[np.random.Generator],
                  owner: np.ndarray) -> np.ndarray:
    """One ``Exp(1)`` per entry of the sorted trial index ``owner``, each
    drawn from its trial's generator, in order."""
    import numpy as np

    key = np.empty(owner.size)
    bounds = owner.searchsorted(np.arange(len(rngs) + 1)).tolist()
    for rng, lo, hi in zip(rngs, bounds, bounds[1:]):
        if hi > lo:
            rng.standard_exponential(out=key[lo:hi])
    return key


def _renewal(rngs: list[np.random.Generator], ready_at: np.ndarray,
             dead_steps: int, fire, step_bin: np.ndarray) -> np.ndarray:
    """Each trial's pixel firings over the ``step_bin.size`` steps of a
    phase, summed into the bin ``step_bin[t]`` of each firing step ``t``.

    ``ready_at[i, k]`` of trial ``i``'s pixels are armed from step ``k``.
    Each round, every armed pixel draws ``E ~ Exp(1)``, and ``fire(key,
    ready)`` turns the draws of the pixels armed at steps ``ready`` into
    ``(t, fires)``: the firing steps of those that fire in the phase, and
    the mask that picks them.  A pixel fired at ``t`` is armed again at
    ``t + dead_steps + 1``.  Each generator draws for its own armed pixels
    in the order of their ready steps, then of their firings, so a trial's
    counts do not depend on its batch.  Trials run in batches of up to
    ``_BATCH_SLOTS`` pixels (one trial of a larger array).  A batch holds
    memory for its pixels and one step grid: each array goes when it is
    done with, so a round holds at most four arrays over its pixels.
    """
    import numpy as np

    steps, n_bins = step_bin.size, int(step_bin.max()) + 1
    width = dead_steps + 1
    held = ready_at[:, :steps]
    per_batch = max(1, _BATCH_SLOTS // max(1, int(ready_at[0].sum())))
    offsets = np.tile(np.arange(held.shape[1]), per_batch)
    counts = np.zeros((len(rngs), n_bins), dtype=np.int64)
    for lo in range(0, len(rngs), per_batch):
        batch, armed_at = rngs[lo:lo + per_batch], held[lo:lo + per_batch]
        ready = np.repeat(offsets[:armed_at.size], armed_at.ravel())
        owner = np.repeat(np.arange(len(batch)), armed_at.sum(axis=1))
        fired = np.zeros(len(batch) * n_bins, dtype=np.int64)
        while owner.size:
            t, fires = fire(_exponentials(batch, owner), ready)
            owner = owner[fires]
            del ready, fires
            bins = owner * n_bins
            bins += step_bin[t]
            fired += np.bincount(bins, minlength=fired.size)
            del bins
            t += width
            armed = t < steps
            ready, owner = t[armed], owner[armed]
            del t
        counts[lo:lo + len(batch)] = fired.reshape(len(batch), n_bins)
    return counts


def _background(rngs: list[np.random.Generator], n_pix: int,
                dead_steps: int, x_bg: float,
                step_bin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The background phase: array realizations, one per generator, over
    the ``step_bin.size`` steps before the pulse span, where every step has
    the per-pixel hazard ``x_bg``.

    Returns ``(counts, ready_at)``: each trial's fired pixels summed into
    the bin ``step_bin[t]`` of each firing step ``t``, and the number of its
    pixels armed from each step ``k`` of ``0..dead_steps`` of the pulse
    span.  All pixels start armed at step 0; in ``_renewal`` one armed at
    ``s`` fires at ``s + floor(E / x_bg)``, the per-step law ``p = 1 -
    exp(-x_bg)``, and one that does not fire before the pulse span is armed
    at its start, as the law has no memory.  At ``x_bg`` 0 nothing fires
    and nothing is drawn.
    """
    import numpy as np

    steps = step_bin.size
    n_bins = int(step_bin.max()) + 1
    width = dead_steps + 1
    x = min(x_bg, _MAX_HAZARD)
    # a firing in the last ``width`` steps arms its pixel at the step k = t
    # + width - steps of the pulse span and ends its phase: it has the bin
    # n_bins + k of its own
    tail = np.arange(max(0, steps - width), steps)
    phase_bin = step_bin.copy()
    phase_bin[tail] = n_bins + width - steps + tail

    def fire(wait, ready):
        wait /= x
        # capped before the cast, so a quotient too large for an integer
        # is a step past the phase
        t = np.minimum(wait, steps, out=wait).astype(np.int64)
        del wait
        t += ready
        fires = t < steps
        return t[fires], fires

    # at x_bg 0 no pixel is armed, so none draws; near 0, E / x_bg
    # overflows to inf
    armed = np.full((len(rngs), 1), n_pix if x > 0.0 else 0)
    with np.errstate(over="ignore"):
        counts = _renewal(rngs, armed, dead_steps, fire, phase_bin)
    fired, ready_at = counts[:, :n_bins], counts[:, n_bins:]
    np.add.at(fired, (slice(None), step_bin[tail]),
              ready_at[:, width - tail.size:])
    # the pixels that did not fire in the tail are armed at the span's start
    ready_at[:, 0] += n_pix - ready_at.sum(axis=1)
    return fired, ready_at


def _pulse(rngs: list[np.random.Generator], ready_at: np.ndarray,
           dead_steps: int, x_pulse: np.ndarray,
           step_bin: np.ndarray) -> np.ndarray:
    """The pulse phase: each trial's fired pixels over the steps of
    ``x_pulse``, the per-pixel hazard of each pulse-span step, summed into
    the bin ``step_bin[t]`` of each firing step ``t``, from the ``ready_at``
    ``_background`` leaves.  In ``_renewal`` a pixel armed at ``s`` fires at
    the first ``t`` with ``cum[t + 1] > cum[s] + E``, where ``cum[t]`` is
    the hazard summed over the steps before ``t``.
    """
    import numpy as np

    cum = np.concatenate([[0.0], np.cumsum(np.minimum(x_pulse, _MAX_HAZARD))])

    def fire(key, ready):
        key += cum[ready]  # the key cum[s] + E
        # a key past the span's summed hazard never fires in it, as most of
        # a weak pulse's do not; the others fire at the first step t with
        # cum[t + 1] > key, so t >= s, and never on a zero-hazard step
        fires = key < cum[-1]
        key = key[fires]
        return cum[1:].searchsorted(key, side="right"), fires

    return _renewal(rngs, ready_at, dead_steps, fire, step_bin)


def monte_carlo_snr(params: SipmParams, p_r: float, p_rs: float,
                    pulse_fwhm_s: float, wavelength_m: float,
                    bandwidth_hz: float, mc: SipmMcConfig,
                    workers: int = 1) -> tuple[float, float]:
    """Trigger SNR from the time-domain dead-time simulation.

    Returns ``(snr_estimate, std_error)``.  Deterministic for a fixed seed;
    trial ``i`` always uses the sub-seed ``(seed, i)``, so estimates at
    different operating points share random numbers.  Evaluations whose
    background inputs are equal (pixels, dead time, background hazard,
    warm-up, noise periods and their length, seed and trial count) share
    that phase exactly, as the module docstring describes.  The hazard
    kernel is exact in distribution for the per-step firing law, and
    ``_renewal`` states its draw order, batches and memory.  A trial over
    ``MAX_TRIAL_STEPS`` steps, all trials over ``MAX_TOTAL_STEPS``, or an
    array over ``MAX_PIXELS`` pixels is a ``ConfigError``.  ``workers`` is
    ignored; the benchmark harness in ``perfbench/`` still passes it.
    """
    import numpy as np

    # NaN fails both tests
    if not (p_r >= 0 and p_rs >= 0):
        raise ConfigError("optical powers must be >= 0")
    if not bandwidth_hz > 0:
        raise ConfigError("bandwidth_hz must be > 0")
    if mc.time_step_s > params.dead_time_s / 10.0:
        raise ConfigError("time_step_s must be <= dead_time_s / 10")
    if mc.warmup_s < 3.0 * params.dead_time_s:
        raise ConfigError("warmup_s must be >= 3 * dead_time_s")
    # in floats, so no count overflows; one period and four pulse widths
    # cover the pulse span of either shape
    trial_steps = (mc.warmup_s + (mc.n_noise_periods + 1) / bandwidth_hz
                   + 4.0 * pulse_fwhm_s) / mc.time_step_s
    if not trial_steps <= MAX_TRIAL_STEPS:
        raise ConfigError(f"mc.time_step_ns, mc.n_noise_periods: a trial of "
                          f"{trial_steps:.4g} steps exceeds the cap of "
                          f"{MAX_TRIAL_STEPS}")
    if not mc.n_trials * trial_steps <= MAX_TOTAL_STEPS:
        raise ConfigError(f"mc.n_trials: {mc.n_trials} trials of "
                          f"{trial_steps:.4g} steps exceed the cap of "
                          f"{MAX_TOTAL_STEPS}")
    n_pix = int(round(params.n_pixels))
    if n_pix > MAX_PIXELS:
        raise ConfigError(f"n_pixels: an array of {n_pix} pixels exceeds the "
                          f"cap of {MAX_PIXELS}")

    dt = mc.time_step_s
    dead_steps = max(1, round(params.dead_time_s / dt))
    period_steps = max(1, round(1.0 / (bandwidth_hz * dt)))
    warm_steps = round(mc.warmup_s / dt)
    counts = PhotonCounts.from_powers(p_r, p_rs, pulse_fwhm_s,
                                      wavelength_m, params.dead_time_s)

    # detected-arrival rates per pixel; dark counts bypass the PDE
    rate_bg = (counts.n_b_photon * params.pde / (params.dead_time_s * n_pix)
               + params.dark_count_rate_cps)
    profile, window_offset = _pulse_profile(mc, counts.n_s_photon,
                                            pulse_fwhm_s, period_steps)
    x_pulse = rate_bg * dt + profile * params.pde / n_pix

    x_bg = rate_bg * dt
    n_noise = mc.n_noise_periods
    global _last_background
    key = (n_pix, dead_steps, x_bg, warm_steps, n_noise, period_steps,
           mc.seed, mc.n_trials)
    if _last_background is not None and _last_background[0] == key:
        _, rngs, states, per_period, ready_at = _last_background
        for rng, state in zip(rngs, states):
            rng.bit_generator.state = state
    else:
        rngs = [np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence(entropy=mc.seed, spawn_key=(i,))))
                for i in range(mc.n_trials)]
        # bins: the noise periods, and one more for the warm-up
        step_bin = np.concatenate([
            np.full(warm_steps, n_noise),
            np.arange(n_noise * period_steps) // period_steps])
        counts, ready_at = _background(rngs, n_pix, dead_steps, x_bg,
                                       step_bin)
        per_period = counts[:, :n_noise]
        _last_background = (key, rngs,
                            [rng.bit_generator.state for rng in rngs],
                            per_period, ready_at)
    # bin 1 is the counting period at the pulse
    pulse_bin = np.zeros(x_pulse.size, dtype=np.int64)
    pulse_bin[window_offset:window_offset + period_steps] = 1
    pulse_counts = _pulse(rngs, ready_at, dead_steps, x_pulse,
                          pulse_bin)[:, 1]
    background = per_period.ravel().astype(float)
    pulse_counts = pulse_counts.astype(float)

    baseline = float(background.mean())
    noise_std = float(background.std(ddof=1))
    if noise_std == 0.0:
        raise SipmSaturationError(
            "background-only fired counts show no fluctuation; the noise "
            "statistic is undefined at this operating point")
    signal = float(pulse_counts.mean()) - baseline
    snr = signal / noise_std

    n_bg = background.size
    se_signal = math.sqrt(pulse_counts.var(ddof=1) / mc.n_trials
                          + noise_std * noise_std / n_bg)
    se_noise = noise_std / math.sqrt(2.0 * (n_bg - 1))
    se_snr = math.sqrt((se_signal / noise_std) ** 2
                       + (snr * se_noise / noise_std) ** 2)
    return snr, se_snr
