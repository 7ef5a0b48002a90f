"""mc_range: warm, in-process SiPM Monte Carlo.

Each pass runs a Monte Carlo ``max_range`` on table1, Monte Carlo SNR
points in the dilute and the heavy-background regime of acceptance
criterion 8, and one point on a 1600-pixel array whose (steps x pixels)
uniform block loads memory.  The Monte Carlo kernel and the number of
solver evaluations set almost all of the time; the analytic layers are
negligible.  Every pass draws new Monte Carlo seeds from the run seed.
"""

from __future__ import annotations

import math
import resource
from dataclasses import replace

from dtofsim import ranging, sipm
from dtofsim.detectors import SipmChoice
from dtofsim.physconst import photon_energy
from dtofsim.scenario import table1_preset

from . import checks
from .harness import Context, PassResult, Tally, attempt, rng_for

# names of the generic end-to-end metrics in this workload's report
ALIASES = {"op_p50_s": "mc_range_s", "op_tail_s": "mc_range_tail_s",
           "work_per_s": "mc_trials_per_s"}
OP_NOUN = "Monte Carlo range solves"
WORK_NOUN = "trials at 400 and 1600 pixels"
# how strongly a Monte Carlo range solve follows the speed reference loop
# (see harness.SpeedReference)
SPEED_ELASTICITY = 0.6
RSS_WHO = resource.RUSAGE_SELF
# four Monte Carlo range solves for the median; the tail is their maximum
MIN_PASSES = 4
WORK_TARGETS = ("sipm.monte_carlo_snr",)
RANGE_TRIALS = 8
# a Monte Carlo r_max with few trials scatters by about a tenth around the
# analytic one; a kernel outside this band is wrong, not unlucky
RANGE_BAND = (0.5, 1.5)
DEAD_TIME_S = 6e-9
WAVELENGTH_M = 905e-9
BANDWIDTH_HZ = 1.0 / DEAD_TIME_S  # counting period equal to the dead time


class Point:
    """One Monte Carlo SNR operating point and its analytic reference."""

    def __init__(self, name, params, signal_photons, p_rs, trials):
        h_nu = photon_energy(WAVELENGTH_M)
        self.name = name
        self.params = params
        self.p_r = signal_photons * 2.0 * h_nu / DEAD_TIME_S
        self.p_rs = p_rs
        self.trials = trials
        counts = sipm.PhotonCounts.from_powers(self.p_r, p_rs, DEAD_TIME_S,
                                               WAVELENGTH_M, DEAD_TIME_S)
        self.analytic = sipm.trigger_snr_analytic(params, counts)

    def run(self, seed: int, trials: int | None = None):
        mc = sipm.SipmMcConfig(n_trials=trials or self.trials,
                               time_step_s=1e-10, seed=seed, warmup_s=6e-8,
                               n_noise_periods=30)
        return sipm.monte_carlo_snr(self.params, self.p_r, self.p_rs,
                                    DEAD_TIME_S, WAVELENGTH_M, BANDWIDTH_HZ,
                                    mc, workers=1)

    def problem(self, snr: float, se: float) -> str | None:
        if not (math.isfinite(snr) and se > 0):
            return f"{self.name}: SNR {snr!r} +- {se!r} is not an estimate"
        if self.name == "heavy":
            # dead time under heavy background lowers the SNR below the
            # analytic model's
            if snr < self.analytic:
                return None
            return f"heavy: SNR {snr!r} not below analytic {self.analytic!r}"
        if abs(snr - self.analytic) <= checks.MC_K_SE * se:
            return None
        return (f"{self.name}: SNR {snr!r} +- {se!r} is more than "
                f"{checks.MC_K_SE:g} SE from analytic {self.analytic!r}")


class State:
    def __init__(self, seed: int):
        self.seed = seed
        self.config = table1_preset("sipm")
        self.analytic_rmax = ranging.max_range(
            self.config, self.config.detector, self.config.tdc).r_max_m
        base = self.config.detector.params
        _, p_rs_ref = ranging.link_powers(self.config, 100.0)
        h_nu = photon_energy(WAVELENGTH_M)
        self.points = (
            Point("dilute", base, 50.0, p_rs_ref / 100.0, 48),
            # one background photon per pixel per detection
            Point("heavy", base, 700.0,
                  base.n_pixels / base.pde * h_nu / DEAD_TIME_S, 64),
            Point("px1600", replace(base, n_pixels=1600,
                                    dark_count_rate_cps=base.dark_count_rate_cps / 4),
                  200.0, p_rs_ref / 100.0, 24),
        )


def setup(seed: int, tally: Tally) -> State:
    """Build the operating points and warm the kernel.

    The warm-up doubles as the determinism check: the same seed twice must
    give identical results.
    """
    state = State(seed)
    tally.attempted += 1
    dilute = state.points[0]
    first, second = dilute.run(seed, trials=3), dilute.run(seed, trials=3)
    tally.check(None if first == second else
                f"same seed gave {first!r} and {second!r}")
    return state


def run_pass(state: State, index: int, ctx: Context) -> PassResult:
    rng = rng_for(state.seed, index)
    seeds = [rng.randrange(2 ** 32) for _ in range(1 + len(state.points))]
    tally, probe = ctx.tally, ctx.probe
    trials_before = probe.trials
    config = state.config
    det = SipmChoice(params=config.detector.params, snr_mode="monte_carlo",
                     mc=sipm.SipmMcConfig.for_dead_time(
                         DEAD_TIME_S, seed=seeds[0], n_trials=RANGE_TRIALS))
    result, range_span = attempt(ctx, checks.ANSWERS, ranging.max_range,
                                 config, det, config.tdc)
    if isinstance(result, ranging.RangeResult):
        se = probe.last["sipm.monte_carlo_snr"]["se"]
        ratio = result.r_max_m / state.analytic_rmax
        tally.check(None if RANGE_BAND[0] <= ratio <= RANGE_BAND[1] else
                    f"Monte Carlo r_max {result.r_max_m!r} is {ratio:.3f} of "
                    f"the analytic {state.analytic_rmax!r}")
        tally.check(None if abs(result.snr_at_rmax - config.tdc.tnr)
                    <= checks.MC_K_SE * se else
                    f"SNR {result.snr_at_rmax!r} +- {se!r} at r_max is off "
                    f"the threshold {config.tdc.tnr:g}")
    elif result is not None:
        tally.fail(f"Monte Carlo range: {type(result).__name__}: {result}")
    spans = [range_span]
    for point, seed in zip(state.points, seeds[1:]):
        value, span = attempt(ctx, (), point.run, seed)
        spans.append(span)
        if value is not None:
            tally.check(point.problem(*value))
    return PassResult(ops=[range_span], work=probe.trials - trials_before,
                      work_spans=spans)


def close_state(state: State) -> None:
    pass
