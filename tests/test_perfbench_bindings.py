"""The functions the benchmark's tracer patches must exist where it looks.

``perfbench/tracer.py`` replaces each listed module attribute with a
wrapper; a name one of those modules stops importing would crash every
traced run, so every binding is checked here, and so is that a range
solve calls them through those attributes.  The benchmark's own output
checks run here too, on two passes of each workload.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from dtofsim import apd, ranging, sipm, table1_preset
from dtofsim.errors import replace

ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


@pytest.mark.parametrize("span", sorted(tracer.TARGETS))
def test_target_binds_one_callable(span):
    attr, modules = tracer.TARGETS[span]
    bound = [getattr(importlib.import_module(name), attr, None)
             for name in modules]
    assert callable(bound[0]), f"{modules[0]}.{attr} is not callable"
    # every module must hold the defining module's function, or the
    # tracer would patch a name the program does not call
    assert all(fn is bound[0] for fn in bound), f"{attr} differs by module"


@pytest.mark.parametrize("variant", ["apd", "sipm"])
def test_every_link_evaluation_goes_through_link_powers(monkeypatch,
                                                        variant):
    # the tracer's scene_link.link_powers span counts calls of this module
    # attribute; a solve that reached the link another way would hide them
    calls = 0
    link_powers = ranging.link_powers

    def counted(*args):
        nonlocal calls
        calls += 1
        return link_powers(*args)

    monkeypatch.setattr(ranging, "link_powers", counted)
    config = table1_preset(variant)
    res = ranging.max_range(config, config.detector, config.tdc)
    # one call per SNR evaluation, one for the link at 1 m that the
    # inversion scales, and one for the powers at r_max
    assert calls == res.evaluations + 2


def _count_calls(monkeypatch, calls, owner, name):
    fn = getattr(owner, name)

    def counted(*args):
        calls[name] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("variant,snr_mode,module,attr", [
    ("apd", None, apd, "trigger_snr"),
    ("sipm", "analytic", sipm, "trigger_snr_analytic"),
    ("sipm", "approx", sipm, "trigger_snr_approx"),
    ("sipm", "monte_carlo", sipm, "monte_carlo_snr")])
def test_every_snr_evaluation_goes_through_the_traced_names(
        monkeypatch, variant, snr_mode, module, attr):
    # the tracer counts a solve's evaluations as calls of
    # ranging.snr_at_range and times each detector model by its module
    # attribute; a solver that reached them another way would hide them
    calls = Counter()
    _count_calls(monkeypatch, calls, ranging, "snr_at_range")
    _count_calls(monkeypatch, calls, module, attr)
    config = table1_preset(variant)
    det = config.detector
    if snr_mode is not None:
        det = replace(det, snr_mode=snr_mode)
    if snr_mode == "monte_carlo":
        det = replace(det, mc=sipm.SipmMcConfig.for_dead_time(
            det.params.dead_time_s, seed=11, n_trials=8))
    res = ranging.max_range(config, det, config.tdc)
    assert calls == {"snr_at_range": res.evaluations, attr: res.evaluations}


@pytest.mark.parametrize("variant", ["apd", "sipm"])
def test_every_sensitivity_calls_max_range(monkeypatch, variant):
    # design_space counts its work as calls of the module attribute
    # ranging.max_range, the solves inside sensitivity included; a
    # sensitivity that reused a solve without that call would shrink it
    calls = Counter()
    _count_calls(monkeypatch, calls, ranging, "max_range")
    config = table1_preset(variant)
    for name in sorted(ranging.SENSITIVITY_PARAMS):
        ranging.sensitivity(config, config.detector, config.tdc, name)
    assert calls["max_range"] == len(ranging.SENSITIVITY_PARAMS) == 27


@pytest.mark.parametrize("workload", ["cli_cold", "design_space", "mc_range"])
def test_benchmark_output_checks_pass(monkeypatch, workload):
    # two passes of the workload with every output check of the
    # benchmark, set up as perfbench/run.py sets up its timed passes
    monkeypatch.syspath_prepend(str(ROOT))
    harness = importlib.import_module("perfbench.harness")
    probes = importlib.import_module("perfbench.tracer")
    bench = importlib.import_module(f"perfbench.{workload}")
    tally = harness.Tally()
    state = bench.setup(1, tally)
    ctx = harness.Context(probes.Tracer(spans=False), tally, None)
    try:
        with ctx.probe.installed(bench.WORK_TARGETS):
            for index in range(2):
                bench.run_pass(state, index, ctx)
    finally:
        bench.close_state(state)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.messages
