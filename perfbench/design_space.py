"""design_space: warm, in-process analytic design-space solves.

Each pass builds a fresh seeded set of table1 scenarios, so a cache of
repeated inputs cannot make later passes look free.  For both detectors
every scenario runs ``max_range`` and ``sensitivity`` over all parameters;
the APD also runs ``optimize_gain`` (the SiPM has no gain).  The pass ends
with the three sweeps on its first scenario, emitted as CSV and SVG.  This
is the analytic hot path: ranging -> scene_link / apd / sipm analytic.
"""

from __future__ import annotations

import math
import os
import resource
import tempfile
from dataclasses import replace

from dtofsim import apd, ranging, sweeps
from dtofsim.detectors import ApdChoice
from dtofsim.scenario import config_from_dict, table1_preset

from . import checks
from .harness import (OUT_DIR, ROOT, Context, PassResult, Tally, attempt,
                      rng_for, scenario_dicts, total)

# names of the generic end-to-end metrics in this workload's report
ALIASES = {"op_p50_s": "design_pass_s", "op_tail_s": "design_pass_tail_s",
           "work_per_s": "range_solves_per_s"}
OP_NOUN = "passes"
WORK_NOUN = "range solves"
# how strongly a pass follows the speed reference loop
# (see harness.SpeedReference)
SPEED_ELASTICITY = 0.8
RSS_WHO = resource.RUSAGE_SELF
# 40 passes give the pass-time tail a percentile of at least 75
MIN_PASSES = 40
WORK_TARGETS = ("ranging.max_range",)
SCENARIOS_PER_PASS = 8
GAIN_BOUNDS = (1.0, 1000.0)
REL_STEP = 1e-3
_SWEEP_STATUSES = {"ok", "saturated", "noiseless", "no_detection", "unbounded"}

# the golden sweeps of scripts/make_goldens.py:
# (name, kind, grid arguments, cosine aperture)
_GOLDENS = (
    ("distance_snr", "distance", (25.0, 500.0, 96, "linear"), False),
    ("elevation_rmax", "elevation", (-60.0, 60.0, 49, "linear"), True),
    ("illuminance_rmax", "illuminance", (0.1, 100.0, 50, "log"), False),
    ("sipm_response", "photon_response", (1.0, 1e5, 81, "log"), False),
)


class State:
    def __init__(self, seed: int):
        self.seed = seed
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=OUT_DIR)


def golden_problems() -> list[str]:
    """Regenerate the golden sweeps in process; differences beyond REL_TOL."""
    problems = []
    for name, kind, grid_args, cosine in _GOLDENS:
        configs = [table1_preset("apd"), table1_preset("sipm")]
        if cosine:
            configs = [replace(c, optics=replace(c.optics,
                                                 aperture_model="cosine"))
                       for c in configs]
        dets = () if kind == "photon_response" else tuple(
            c.detector for c in configs)
        spec = sweeps.SweepSpec(kind=kind, grid=sweeps.make_grid(*grid_args),
                                detectors=dets)
        lines = sweeps.csv_lines(sweeps.run_sweep(configs[0], spec, workers=1))
        path = os.path.join(ROOT, "goldens", f"{name}.csv")
        with open(path, encoding="utf-8") as fh:
            golden = fh.read().splitlines()
        problem = checks.csv_mismatch(lines, golden)
        if problem:
            problems.append(f"golden {name}.csv: {problem}")
    return problems


def setup(seed: int, tally: Tally) -> State:
    """Build the state and warm every analytic path once, checking goldens."""
    tally.attempted += len(_GOLDENS)
    for problem in golden_problems():
        tally.fail(problem)
    return State(seed)


def _solve_and_check(ctx: Context, config, det):
    tally = ctx.tally
    result, span = attempt(ctx, checks.ANSWERS, ranging.max_range, config,
                           det, config.tdc)
    if isinstance(result, ranging.RangeResult):
        tally.check(checks.range_invariant(config, det, result.r_max_m))
    elif result is not None:
        tally.check(None if checks.answer_consistent(config, det, config.tdc,
                                                     result)
                    else f"inconsistent {type(result).__name__}")
    return span


def _gain_and_check(ctx: Context, config, det):
    p_r, p_rs = ranging.link_powers(config, config.scene.range_m)
    result, span = attempt(ctx, (), apd.optimize_gain, det.params, p_rs,
                           config.bandwidth_hz, GAIN_BOUNDS, p_r=p_r)
    if result is None:
        return span
    gain, snr = result

    def snr_at(g: float) -> float:
        return apd.trigger_snr(replace(det.params, gain=g), p_r, p_rs,
                               config.bandwidth_hz)

    ok = GAIN_BOUNDS[0] <= gain <= GAIN_BOUNDS[1] and checks.close(
        snr, snr_at(gain))
    for g in (gain * (1 - 1e-3), gain * (1 + 1e-3)):
        if GAIN_BOUNDS[0] <= g <= GAIN_BOUNDS[1]:
            ok = ok and snr_at(g) <= snr * (1 + checks.REL_TOL)
    ctx.tally.check(None if ok else f"gain optimum {gain!r} is not stationary")
    return span


def _sensitivities_and_check(ctx: Context, config, det):
    tally = ctx.tally
    spans = []
    for name in sorted(ranging.SENSITIVITY_PARAMS):
        value, span = attempt(ctx, checks.ANSWERS, ranging.sensitivity,
                              config, det, config.tdc, name, rel_step=REL_STEP)
        spans.append(span)
        if isinstance(value, float):
            tally.check(checks.elasticity_problem(
                name, value, isinstance(det, ApdChoice)))
        elif value is not None:
            tally.check(None if checks.sensitivity_answer_consistent(
                config, det, name, REL_STEP, value)
                else f"inconsistent {type(value).__name__} in {name}")
    return spans


def _sweep_problem(config, spec, result) -> str | None:
    if len(result.rows) != len(spec.grid) * len(spec.detectors):
        return f"{spec.kind} sweep has {len(result.rows)} rows"
    by_label = {d.label: d for d in spec.detectors}
    apd_snr = []
    for row in result.rows:
        if row.status not in _SWEEP_STATUSES:
            return f"{spec.kind} sweep row status {row.status!r}"
        if row.status in ("no_detection", "unbounded"):
            cfg = config
            if spec.kind == "elevation":
                cfg = replace(config, scene=replace(
                    config.scene, elevation_angle_rad=math.radians(row.x)))
            elif spec.kind == "illuminance":
                cfg = replace(config, solar=replace(config.solar,
                                                    illuminance_klux=row.x))
            if not checks.sweep_answer_consistent(cfg, by_label[row.series],
                                                  row.status):
                return f"{spec.kind} sweep row {row} is inconsistent"
        elif not (row.value is not None and row.value > 0):
            return f"{spec.kind} sweep row {row} has no positive value"
        if spec.kind == "distance" and row.series == "apd":
            apd_snr.append(row.value)
    if any(b >= a for a, b in zip(apd_snr, apd_snr[1:])):
        return "APD SNR does not fall with distance"
    return None


def _sweeps_and_check(state, ctx: Context, config, detectors, rng):
    tally = ctx.tally
    spans = []
    grids = {
        "distance": sweeps.make_grid(25.0, 500.0, rng.randint(48, 96)),
        "elevation": sweeps.make_grid(-60.0, 60.0, rng.randint(25, 49)),
        "illuminance": sweeps.make_grid(0.1, 100.0, rng.randint(25, 50),
                                        "log"),
    }
    for kind, grid in grids.items():
        spec = sweeps.SweepSpec(kind=kind, grid=grid, detectors=detectors)
        result, span = attempt(ctx, (), sweeps.run_sweep, config, spec,
                               workers=1)
        spans.append(span)
        if result is None:
            continue
        tally.check(_sweep_problem(config, spec, result))
        csv_path = os.path.join(state.tmp.name, f"{kind}.csv")
        svg_path = os.path.join(state.tmp.name, f"{kind}.svg")
        for emit, path in ((sweeps.emit_csv, csv_path),
                           (sweeps.emit_svg, svg_path)):
            spans.append(attempt(ctx, (), emit, result, path)[1])
        with open(csv_path, encoding="utf-8") as fh:
            tally.check(checks.csv_mismatch(fh.read().splitlines(),
                                            sweeps.csv_lines(result)))
        with open(svg_path, encoding="utf-8") as fh:
            tally.check(checks.xml_problem(fh.read()))
    return spans


def run_pass(state: State, index: int, ctx: Context) -> PassResult:
    rng = rng_for(state.seed, index)
    pairs = [tuple(config_from_dict(d) for d in scenario_dicts(rng))
             for _ in range(SCENARIOS_PER_PASS)]
    solves_before = ctx.probe.calls["ranging.max_range"]
    spans = []
    for pair in pairs:
        for config in pair:
            det = config.detector
            spans.append(_solve_and_check(ctx, config, det))
            if isinstance(det, ApdChoice):
                spans.append(_gain_and_check(ctx, config, det))
            spans += _sensitivities_and_check(ctx, config, det)
    base = pairs[0][0]
    spans += _sweeps_and_check(state, ctx, base,
                               (base.detector, pairs[0][1].detector), rng)
    solves = ctx.probe.calls["ranging.max_range"] - solves_before
    pass_span = total(spans)
    return PassResult(ops=[pass_span], work=solves, work_spans=[pass_span])


def close_state(state: State) -> None:
    state.tmp.cleanup()
