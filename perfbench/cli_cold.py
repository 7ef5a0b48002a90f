"""cli_cold: the README commands, each a fresh ``python -m dtofsim.cli``.

Every user call pays interpreter and import start-up, which is most of
each command; the model layers do little work here.  Commands run one
after another (a closed loop with one client).  The range, snr-curve,
optimize-gain and sensitivity commands take seeded inputs; the sweep and
sipm-response commands keep the golden arguments so that their outputs
can be compared with ``goldens/``.
"""

from __future__ import annotations

import json
import os
import resource
import tempfile
from dataclasses import replace

from dtofsim import apd, ranging, sweeps
from dtofsim.detectors import ApdChoice
from dtofsim.scenario import load_scenario, scenario_to_dict, table1_preset

from . import checks
from .harness import (FRESH_PROCESS_ELASTICITY, OUT_DIR, ROOT, Context,
                      PassResult, Tally, rng_for, scenario_dicts,
                      timed_subprocess)

# names of the generic end-to-end metrics in this workload's report
ALIASES = {"op_p50_s": "cli_p50_s", "op_tail_s": "cli_tail_s",
           "work_per_s": "cli_commands_per_s"}
OP_NOUN = "commands"
WORK_NOUN = "commands"
# whole passes; four give the 40 commands a p75 tail needs
MIN_PASSES = 4
WORK_TARGETS = ()  # commands are counted in this process
SETUP_PROBE = ["-c", "import dtofsim"]
SHIM = os.path.join("perfbench", "cli_shim.py")
RSS_WHO = resource.RUSAGE_CHILDREN
# each command is a fresh process; see SpeedReference
SPEED_ELASTICITY = FRESH_PROCESS_ELASTICITY
REL_STEP = 1e-3  # the CLI's default --rel-step
# commands whose solver may give a documented outcome, exit code 2
_MAY_ANSWER = {"range_apd", "range_sipm", "sensitivity"}


class State:
    def __init__(self, seed: int):
        self.seed = seed
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=OUT_DIR)
        self.goldens = {}
        for name in os.listdir(os.path.join(ROOT, "goldens")):
            with open(os.path.join(ROOT, "goldens", name),
                      encoding="utf-8") as fh:
                self.goldens[name] = fh.read()


def setup(seed: int, tally: Tally) -> State:
    return State(seed)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _expect_golden(name: str):
    def check(state, proc, out):
        golden = state.goldens[name]
        if name.endswith(".svg"):
            return checks.svg_mismatch(_read(out), golden)
        return checks.csv_mismatch(_read(out).splitlines(),
                                   golden.splitlines())
    return check


def _expect_preset(detector: str):
    def check(state, proc, out):
        with open(out, encoding="utf-8") as fh:
            written = json.load(fh)
        if written != scenario_to_dict(table1_preset(detector)):
            return f"preset {detector} differs from table1"
        return None
    return check


def _solver_answer(proc, exc, config) -> str | None:
    """A documented outcome: exit code 2 and an SNR that agrees."""
    if proc.returncode != 2:
        return f"exit {proc.returncode} where the solver says {exc}"
    if not checks.answer_consistent(config, config.detector, config.tdc, exc):
        return f"inconsistent {type(exc).__name__}"
    return None


def _expect_range(path: str):
    def check(state, proc, out):
        config = load_scenario(path)
        try:
            expected = ranging.max_range(config, config.detector, config.tdc)
        except checks.ANSWERS as exc:
            return _solver_answer(proc, exc, config)
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()}"
        fields = proc.stdout.splitlines()[1].split(",")
        r_max = float(fields[1])
        if not checks.close(r_max, expected.r_max_m):
            return f"r_max {r_max!r} != in-process {expected.r_max_m!r}"
        return checks.range_invariant(config, config.detector, r_max)
    return check


def _expect_curve(detector: str, grid):
    def check(state, proc, out):
        config = table1_preset(detector)
        spec = sweeps.SweepSpec(kind="distance", grid=grid,
                                detectors=(config.detector,))
        expected = sweeps.csv_lines(sweeps.run_sweep(config, spec, workers=1))
        return checks.csv_mismatch(_read(out).splitlines(), expected)
    return check


def _expect_gain(path: str, points: int):
    def check(state, proc, out):
        config = load_scenario(path)
        det = config.detector
        p_r, p_rs = ranging.link_powers(config, config.scene.range_m)
        gain, snr = apd.optimize_gain(det.params, p_rs, config.bandwidth_hz,
                                      (1.0, 1000.0), p_r=p_r)
        problem = checks.csv_mismatch(proc.stdout.splitlines(),
                                      [f"gain_opt,{gain!r}", f"snr_opt,{snr!r}"])
        if problem:
            return problem
        lines = _read(out).splitlines()
        expected = ["gain,snr"]
        for g in sweeps.make_grid(1.0, 1000.0, points, "log"):
            snr_g = apd.trigger_snr(replace(det.params, gain=g), p_r, p_rs,
                                    config.bandwidth_hz)
            expected.append(f"{g!r},{snr_g!r}")
        if not lines or not lines[-1].startswith("# optimum gain="):
            return "gain curve lacks its optimum line"
        return checks.csv_mismatch(lines[:-1], expected)
    return check


def _expect_sensitivity(path: str):
    def check(state, proc, out):
        config = load_scenario(path)
        det = config.detector
        expected = ["parameter,elasticity"]
        for name in sorted(ranging.SENSITIVITY_PARAMS):
            try:
                value = ranging.sensitivity(config, det, config.tdc, name,
                                            rel_step=REL_STEP)
            except checks.ANSWERS as exc:
                if proc.returncode != 2:
                    return f"exit {proc.returncode} where the solver says {exc}"
                return None
            problem = checks.elasticity_problem(name, value,
                                                isinstance(det, ApdChoice))
            if problem:
                return problem
            expected.append(f"{name},{value!r}")
        return checks.csv_mismatch(_read(out).splitlines(), expected)
    return check


def commands(state: State, index: int) -> list[tuple[str, list[str], object]]:
    """The pass's commands: (name, argv after ``dtofsim``, output check)."""
    rng = rng_for(state.seed, index)
    tmp = state.tmp.name
    apd_path = os.path.join(tmp, "apd.json")
    sipm_path = os.path.join(tmp, "sipm.json")
    for path, data in zip((apd_path, sipm_path), scenario_dicts(rng)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    preset_det = rng.choice(("apd", "sipm"))
    curve_det = rng.choice(("apd", "sipm"))
    rmin, rmax = rng.uniform(20.0, 60.0), rng.uniform(300.0, 600.0)
    n = rng.randint(40, 120)
    sens_path = rng.choice((apd_path, sipm_path))

    def out(name):
        return os.path.join(tmp, name)

    return [
        ("preset", ["preset", "table1", "--detector", preset_det,
                    "--out", out("preset.json")], _expect_preset(preset_det)),
        ("range_apd", ["range", "--config", apd_path], _expect_range(apd_path)),
        ("range_sipm", ["range", "--config", sipm_path],
         _expect_range(sipm_path)),
        ("snr_curve", ["snr-curve", "--detector", curve_det, "--rmin",
                       repr(rmin), "--rmax", repr(rmax), "--n", str(n),
                       "--out", out("snr.csv")],
         _expect_curve(curve_det, sweeps.make_grid(rmin, rmax, n))),
        ("sweep_distance", ["sweep", "--kind", "distance", "--detector",
                            "both", "--out", out("fig_a.csv")],
         _expect_golden("distance_snr.csv")),
        ("sweep_elevation", ["sweep", "--kind", "elevation", "--config",
                             os.path.join("configs", "table1_apd_cosine.json"),
                             "--config",
                             os.path.join("configs", "table1_sipm_cosine.json"),
                             "--format", "svg", "--out", out("fig_b.svg")],
         _expect_golden("elevation_rmax.svg")),
        ("sweep_illuminance", ["sweep", "--kind", "illuminance", "--detector",
                               "both", "--out", out("fig_c.csv")],
         _expect_golden("illuminance_rmax.csv")),
        ("sipm_response", ["sipm-response", "--out", out("response.csv")],
         _expect_golden("sipm_response.csv")),
        ("optimize_gain", ["optimize-gain", "--config", apd_path,
                           "--out", out("gain.csv")], _expect_gain(apd_path, 200)),
        ("sensitivity", ["sensitivity", "--config", sens_path, "--param",
                         "all", "--out", out("elasticities.csv")],
         _expect_sensitivity(sens_path)),
    ]


def run_pass(state: State, index: int, ctx: Context) -> PassResult:
    """Untraced commands run exactly as users run them; traced ones go
    through the shim, which installs the wrappers and calls ``main``."""
    result = PassResult()
    tally, traced = ctx.tally, ctx.traced
    spans_path = os.path.join(state.tmp.name, "spans.json")
    for name, argv, check in commands(state, index):
        tally.attempted += 1
        if ctx.ref:
            ctx.ref.sample(repeats=2)
        if traced:
            if os.path.exists(spans_path):
                os.remove(spans_path)
            cmd = [SHIM, spans_path, *argv]
        else:
            cmd = ["-m", "dtofsim.cli", *argv]
        proc, span = timed_subprocess(cmd)
        result.ops.append(span)
        result.work += 1
        result.work_spans.append(span)
        if proc.returncode not in ((0, 2) if name in _MAY_ANSWER else (0,)):
            tally.fail(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
            continue
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                ctx.probe.absorb(json.load(fh))
        out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
        try:
            tally.check(check(state, proc, out_path))
        except (OSError, ValueError, IndexError) as exc:
            tally.fail(f"{name}: unreadable output: {exc}")
    return result


def close_state(state: State) -> None:
    state.tmp.cleanup()
